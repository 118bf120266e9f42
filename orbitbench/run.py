"""orbitmetric benchmark: closed-loop workloads over the public API.

Run from the root of a checkout:

    python3 orbitbench/run.py --workload long-orbit --seed 1 --seconds 30 --trace 0

One client in one process sends the next request only after the previous one
returns.  Requests come in cycles (see workloads.py); the timed loop runs
whole cycles until ``--seconds`` have passed and at least MIN_SAMPLES
requests are done, so every run keeps the workload's mix exactly and the
90th latency percentile always has at least ten samples beyond it.  After
the loop every output is checked; a request that raised or failed its check
counts as failed.

Request times are scaled by a reference kernel timed around every request
(see ReferenceKernel), which removes most of the drift in machine speed
that a shared host shows between runs; the log line before the result also
gives the unscaled figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs cycle 0
untraced, then the same requests again with layer spans installed, and
prints the per-layer metrics; it sends that fixed set of requests whatever
``--seconds`` says, so its work counts depend on the seed alone.  Spans are
written to .bench_out/.  The last line of standard output is always one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_SAMPLES = 100
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
BLAS_THREADS = 1
# seconds the reference kernel takes on the machine all times are scaled to
REFERENCE_S = 0.0015
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare_environment() -> dict:
    """Pin thread pools and make the checkout's sources importable.

    Must run before numpy is imported.  ORBITMETRIC_THREADS is removed so the
    library uses one worker.  BLAS/OpenMP pools get one thread, well within
    the nproc cap: the client is single-threaded, and on a small shared
    machine a second pool thread made timings slower and far noisier.
    """
    if not (SRC / "orbitmetric" / "__init__.py").is_file():
        raise FileNotFoundError(f"no orbitmetric sources under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    inherited = os.environ.pop("ORBITMETRIC_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {"nproc": nproc, "ORBITMETRIC_THREADS": None,
            "ORBITMETRIC_THREADS_inherited": inherited,
            **{var: os.environ[var] for var in BLAS_THREAD_VARS}}


class ReferenceKernel:
    """Fixed benchmark-owned work that gauges the machine's current speed.

    On a shared machine the speed of all code drifts together by 10-20% over
    tens of seconds.  Timing this kernel just before and just after a request
    and scaling the request's latency by REFERENCE_S over their mean reports
    times on a machine of constant speed, on which this kernel takes
    REFERENCE_S.  Plain interpreted integer arithmetic tracked the drift of
    all three workloads best; kernels built on numpy calls or on sorting a
    large array tracked it worse.
    """

    def seconds(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for k in range(20_000):
            total += k * k % 7
        return time.perf_counter() - t0


@dataclass
class Record:
    request_id: int
    kind: str
    latency_s: float
    output: object = None
    error: str | None = None
    # reference kernel seconds measured just before and just after the request
    reference_s: tuple[float, float] | None = None

    @property
    def scaled_latency_s(self) -> float:
        return self.latency_s * REFERENCE_S / (0.5 * sum(self.reference_s))


def run_requests(requests, first_id: int, tracer=None, reference=None) -> list[Record]:
    """Send each request after the previous one returned; never abort on error.

    With a ``reference`` kernel, it is timed between consecutive requests.
    """
    records = []
    before = reference.seconds() if reference is not None else None
    for offset, req in enumerate(requests):
        rid = first_id + offset
        if tracer is not None:
            tracer.begin_request(rid)
        t0 = time.perf_counter()
        try:
            out = req.call()
        except Exception as exc:  # a failed request is counted, the run goes on
            rec = Record(rid, req.kind, time.perf_counter() - t0,
                         error=f"{type(exc).__name__}: {exc}")
        else:
            rec = Record(rid, req.kind, time.perf_counter() - t0, out)
        finally:
            if tracer is not None:
                tracer.end_request()
        if reference is not None:
            after = reference.seconds()
            rec.reference_s = (before, after)
            before = after
        records.append(rec)
    return records


def check_records(requests, records: list[Record]) -> None:
    """Check each output; a failed check marks its record as failed.

    The first request marked ``repeat`` is sent once more and its emitted
    JSON must match the first emission byte for byte.
    """
    import workloads

    repeated = False
    for req, rec in zip(requests, records):
        if rec.error is not None:
            continue
        try:
            req.check(rec.output)
            if req.repeat and not repeated:
                repeated = True
                again = req.call()
                workloads.require(again[1] == rec.output[1],
                                  "repeated seeded report differs byte-wise")
        except Exception as exc:  # check failures and oracle crashes alike
            rec.error = f"check {type(exc).__name__}: {exc}"


def closed_loop(workload, seed: int, seconds: float, reference):
    """Whole cycles until ``seconds`` elapsed and MIN_SAMPLES were sent."""
    requests, records = [], []
    t0 = time.perf_counter()
    cycle = 0
    while time.perf_counter() - t0 < seconds or len(records) < MIN_SAMPLES:
        batch = workload.requests(seed, cycle)
        records.extend(run_requests(batch, len(records), reference=reference))
        requests.extend(batch)
        cycle += 1
    wall = time.perf_counter() - t0
    return requests, records, wall, cycle


def nearest_rank_index(n: int, percent: int) -> int:
    """1-based nearest rank of the percentile among n sorted samples."""
    return max(1, -(-n * percent // 100))


def nearest_rank(sorted_values: list[float], percent: int) -> float:
    return sorted_values[nearest_rank_index(len(sorted_values), percent) - 1]


def setup_probe(workload, seed: int) -> float:
    """Import, input generation and one warm-up request, timed from start and
    scaled by the reference kernel timed right after."""
    batch = workload.requests(seed, 0)
    batch[0].call()
    elapsed = time.perf_counter() - T_START
    reference = ReferenceKernel()
    speed = statistics.median(reference.seconds() for _ in range(5))
    return elapsed * REFERENCE_S / speed


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreter processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def end_to_end(workload, seed: int, seconds: float):
    setup_s = measure_setup(workload.name, seed)
    reference = ReferenceKernel()
    workload.requests(seed, 0)[0].call()  # warm-up
    requests, records, wall, cycles = closed_loop(workload, seed, seconds, reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_records(requests, records)
    metrics, info = summarize(records, setup_s, peak_rss_mb)
    info.update(cycles=cycles, wall_s=wall)
    return records, metrics, info


def summarize(records: list[Record], setup_s: float, peak_rss_mb: float):
    """End-to-end metrics of checked records, plus unscaled figures for the log.

    Latencies are taken over the requests that succeeded; the failed ones
    show in success_rate (and error_rate = 1 - success_rate in the log).
    """
    n = len(records)
    done = [rec for rec in records if rec.error is None]
    scaled = sorted(rec.scaled_latency_s for rec in done)
    raw = sorted(rec.latency_s for rec in done)
    metrics = {
        "requests_per_s": (len(done) / sum(scaled) if done else 0.0, "1/s"),
        "latency_p50_ms": (1e3 * nearest_rank(scaled, 50) if done else 0.0, "ms"),
        "latency_p90_ms": (1e3 * nearest_rank(scaled, 90) if done else 0.0, "ms"),
        "success_rate": (len(done) / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"latency_samples": len(done),
            "p90_samples_beyond": len(done) - nearest_rank_index(len(done), 90),
            "error_rate": (n - len(done)) / n,
            "reference_median_s": statistics.median(
                r for rec in records for r in rec.reference_s),
            "unscaled_requests_per_s": len(done) / sum(raw) if done else 0.0,
            "unscaled_latency_p50_ms": 1e3 * nearest_rank(raw, 50) if done else 0.0,
            "unscaled_latency_p90_ms": 1e3 * nearest_rank(raw, 90) if done else 0.0}
    return metrics, info


def traced(workload, seed: int):
    """One cycle untraced, then the same requests traced; spans per layer."""
    import orbitmetric
    import workloads
    from orbitmetric import analysis, matching, measures, pseudometrics, systems
    from tracing import Tracer

    batch = workload.requests(seed, 0)
    batch[0].call()  # warm-up
    t0 = time.perf_counter()
    plain = run_requests(batch, 0)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    layers = {"systems": systems, "matching": matching, "pseudometrics": pseudometrics,
              "measures": measures, "analysis": analysis}
    tracer.install(layers, extra_namespaces=(orbitmetric, workloads))
    try:
        batch = workload.requests(seed, 0)
        t0 = time.perf_counter()
        spanned = run_requests(batch, len(plain), tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    check_records(batch, plain)
    check_records(batch, spanned)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}-{seed}.jsonl")
    metrics = tracer.metrics(traced_s - untraced_s)
    info = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.spans)}
    return plain + spanned, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        env = prepare_environment()
    except FileNotFoundError as exc:
        print(f"orbitbench: {exc}", file=sys.stderr)
        return 2

    import numpy
    import scipy
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"orbitbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(workload, args.seed)}))
        return 0

    env.update(python=sys.version.split()[0], numpy=numpy.__version__,
               scipy=scipy.__version__, seed=args.seed, workload=workload.name,
               seconds=args.seconds, trace=args.trace)
    if args.trace:
        records, metrics, info = traced(workload, args.seed)
    else:
        records, metrics, info = end_to_end(workload, args.seed, args.seconds)
    failures = [rec for rec in records if rec.error is not None]
    for rec in failures[:20]:
        print(f"FAILED request {rec.request_id} {rec.kind}: {rec.error}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
