"""The benchmark's workloads: request cycles over the public orbitmetric API.

A workload builds its requests one cycle at a time from a generator seeded by
(seed, cycle index), so the same seed always yields the same inputs.  A
request is one public call (for diagnostics, the call plus the report's
JSON/CSV emission, which is how the result is consumed) with a check that
verifies its output by an invariant or an independent oracle.  Checks never
compare against pinned digests, so an exact rewrite of any layer stays legal.

Names are imported one by one rather than with ``import *``:
``product_system`` is exported by the package but missing from
``orbitmetric.__all__``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from orbitmetric import (
    BinaryShift,
    CircleRotation,
    LogisticMap,
    Schedule,
    ShiftPoint,
    TentMap,
    besicovitch_estimate,
    besicovitch_n,
    birkhoff_profile,
    cost_matrix,
    delta_n,
    ebar_estimate,
    ebar_n,
    empirical_equicontinuity,
    empirical_measure,
    etilde_estimate,
    example31_report,
    mean_equicontinuity_diagnostic,
    min_cost_assignment,
    omega_distance,
    product_system,
    prokhorov,
    prokhorov_oracle,
    sandwich_check,
    unique_ergodicity_diagnostic,
    wasserstein1,
    wasserstein1_fast_1d,
    weyl_profile,
)
from orbitmetric.measures import ORACLE_SUPPORT_LIMIT
from orbitmetric.systems import aligned_distances

TOL = 1e-9
# checkpoints up to this length are re-solved by exact assignment
ORACLE_N = 40
# Besicovitch-versus-ebar dominance is checked on checkpoints up to here
DOMINANCE_N = 4096
VERDICTS = ("consistent", "violated", "inconclusive")


class CheckFailure(Exception):
    """A request's output broke an invariant or disagreed with an oracle."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


@dataclass(frozen=True)
class Request:
    """One public call and the check of its output.

    ``repeat`` marks the seeded report whose emission the run repeats once to
    confirm byte-identical output.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    repeat: bool = False


@dataclass(frozen=True)
class Workload:
    """A request mix.  ``once`` requests have fixed inputs, so repeating them
    adds no variety; they are sent once per run, at the end of cycle 0."""

    name: str
    why: str
    cycle: Callable[[np.random.Generator, "_Sizes"], list[Request]]
    once: Callable[[], list[Request]] = list

    def requests(self, seed: int, cycle: int) -> list[Request]:
        """The requests of one cycle; inputs depend only on (seed, cycle).

        Request sizes follow the cycle index alone, so every seed sends the
        same sizes and the seed varies only the points and angles.
        """
        batch = self.cycle(np.random.default_rng([seed, cycle]),
                           _Sizes(cycle * GOLDEN % 1.0))
        return batch + self.once() if cycle == 0 else batch


# ---------------------------------------------------------------------------
# input generation


def _unit(rng: np.random.Generator) -> float:
    return float(rng.random())


def _shift_point(rng: np.random.Generator, prefix: int = 64, tail: int = 8) -> ShiftPoint:
    return ShiftPoint(tuple(int(s) for s in rng.integers(0, 2, size=prefix)),
                      tuple(int(s) for s in rng.integers(0, 2, size=tail)))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# checks


def _check_ebar_estimate(system, x, y, schedule):
    """Values within [0, diam]; exact assignment agrees at small checkpoints;
    the time-aligned Besicovitch average dominates at every checkpoint."""
    def check(est):
        values = np.asarray(est.values)
        require(len(values) == len(schedule.checkpoints), "one value per checkpoint")
        require(((values >= 0) & (values <= system.diameter + TOL)).all(),
                "ebar outside [0, diameter]")
        require(est.tail_sup == max(values[schedule.tail_start:]), "tail_sup is the tail max")
        for n, value in zip(schedule.checkpoints, values):
            if n > ORACLE_N:
                break
            seg_x, seg_y = system.orbit_segment(x, n), system.orbit_segment(y, n)
            _, total = min_cost_assignment(cost_matrix(seg_x, seg_y))
            require(abs(value - total / n) <= TOL,
                    f"fast ebar_{n} {value} != assignment {total / n}")
        cps = tuple(n for n in schedule.checkpoints if n <= DOMINANCE_N)
        bes = besicovitch_estimate(system, x, y, Schedule(cps))
        for n, b, e in zip(cps, bes.values, values):
            require(b >= e - TOL, f"Besicovitch {b} below ebar {e} at n={n}")
    return check


def _check_rotation_besicovitch(system, x, y, schedule):
    """A rotation is an isometry: every aligned distance equals d(x, y).
    Besicovitch must also dominate the fast ebar at small checkpoints."""
    def check(est):
        d0 = system.dist(x, y)
        require(np.allclose(est.values, d0, rtol=0, atol=TOL),
                "rotation Besicovitch average differs from d(x, y)")
        for n, b in zip(schedule.checkpoints, est.values):
            if n > DOMINANCE_N:
                break
            require(b >= ebar_n(system, x, y, n) - TOL, f"Besicovitch below ebar at n={n}")
    return check


def _check_weyl(system, x, y, horizon, lengths):
    """Each window sup dominates the prefix (Besicovitch) average of its length."""
    def check(prof):
        require(set(prof.sup_window_avg) == set(lengths), "one sup per window length")
        for ell in lengths:
            sup = prof.sup_window_avg[ell]
            require(0 <= sup <= system.diameter + TOL, "window average outside [0, diameter]")
            require(sup >= besicovitch_n(system, x, y, ell) - TOL,
                    f"window sup below prefix average at length {ell}")
    return check


def _emitted(report_call):
    """Request body for a diagnostic: the call plus its JSON and CSV emission."""
    def call():
        report = report_call()
        return report, report.to_json(), report.to_csv()
    return call


def _check_report(name, inner):
    def check(out):
        report, text, csv = out
        require(report.name == name, f"report name {report.name!r}")
        require(report.verdict in VERDICTS, f"verdict {report.verdict!r}")
        require(text == report.to_json(), "emitted JSON differs from the report")
        require(csv.count("\n") == len(report.observations) + 1, "one CSV row per observation")
        inner(report)
    return check


def _check_ue(report):
    tails = [row["ebar_tail"] for row in report.observations]
    require(len(tails) == 6, "one observation per point pair")
    require(all(0 <= t <= 0.5 + TOL for t in tails), "ebar tail outside [0, 1/2]")
    require(report.summary["ebar_diameter"] == max(tails), "diameter is the max tail")


def _check_birkhoff(n_checkpoints):
    def check(report):
        prefix = [r for r in report.observations if r["kind"] == "prefix"]
        require(len(prefix) == n_checkpoints, "one prefix row per checkpoint")
        for row in report.observations:
            require(0 <= row["spread"] <= 1 + TOL, "cylinder average spread outside [0, 1]")
            require(0 <= row["max_abs_avg"] <= 1 + TOL, "cylinder average outside [0, 1]")
    return check


def _check_product_ebar(system, x, y, n):
    """A max-metric product dominates each factor's matched average and is
    dominated by its own time-aligned average."""
    def check(value):
        lo = max(ebar_n(system.first, x[0], y[0], n),
                 ebar_n(system.second, x[1], y[1], n))
        hi = besicovitch_n(system, x, y, n)
        require(lo - TOL <= value <= hi + TOL,
                f"product ebar_{n} {value} outside [{lo}, {hi}]")
    return check


def _check_product_estimate(system, x, y, schedule):
    def check(est):
        for n, value in zip(schedule.checkpoints, est.values):
            _check_product_ebar(system, x, y, n)(value)
        require(est.tail_last == est.values[-1], "tail_last is the last value")
    return check


def _check_mean_eq(report):
    require(len(report.observations) >= 1, "at least one pair")
    for row in report.observations:
        bes, weyl, prod = row["besicovitch_tail"], row["weyl_sup"], row["product_ebar_tail"]
        require(prod <= bes + TOL, "product ebar tail above Besicovitch tail")
        require(bes <= weyl + TOL, "Besicovitch tail above Weyl sup")


def _check_sandwich(rep):
    require(rep.holds, f"sandwich fails: {rep.lhs} <= {rep.mid} <= {rep.rhs}")


def _check_delta(system, x, y, n, delta):
    """Delta_n is at most the aligned exceedance count (identity matching)."""
    def check(value):
        seg_x, seg_y = system.orbit_segment(x, n), system.orbit_segment(y, n)
        aligned = int((aligned_distances(system, seg_x, seg_y) > delta).sum())
        require(isinstance(value, int) and 0 <= value <= aligned,
                f"Delta_n {value} outside [0, {aligned}]")
    return check


def _check_etilde(system, x, y, schedule, grid):
    """A qualified value satisfies its defining inequality; the grid point
    below it does not."""
    def check(est):
        require(est.value in grid, "etilde is a grid point")
        if not est.qualified:
            require(est.value == grid[-1], "unqualified etilde is the grid top")
            return
        def worst(eps):
            return max(delta_n(system, x, y, n, eps) / n for n in schedule.tail_checkpoints)
        require(worst(est.value) < est.value, "etilde does not qualify")
        k = grid.index(est.value)
        if k > 0:
            require(worst(grid[k - 1]) >= grid[k - 1], "a smaller grid point qualifies")
    return check


def _check_example31(report):
    require(report.observations, "example31 has block rows")
    require(all(row["bound_holds"] for row in report.observations),
            "a per-block lower bound fails")
    require(report.verdict == "consistent", f"example31 verdict {report.verdict!r}")
    require(report.summary["ebar_tail"] > 0.6, "slow-alternation ebar tail collapsed")


def _check_rho_family(report):
    rhos = [row["rho"] for row in report.observations]
    require(rhos and all(0 <= r <= 1 + TOL for r in rhos), "Prokhorov outside [0, 1]")
    require(report.summary["max_rho"] == max(rhos), "max_rho is the max observation")


def _check_omega(report):
    (row,) = report.observations
    require(0 <= row["rho_hausdorff"] <= 1 + TOL, "Hausdorff distance outside [0, 1]")
    require(row["clusters_x"] >= 1 and row["clusters_y"] >= 1, "empty tail-measure set")
    params = report.parameters
    if row["ebar_tail"] <= params["small_ebar"]:
        want = "consistent" if row["rho_hausdorff"] <= params["rho_threshold"] else "violated"
    else:
        want = "inconclusive"
    require(report.verdict == want, f"verdict {report.verdict!r}, rule gives {want!r}")


def _check_prokhorov_oracle(mu, nu, system):
    def check(rho):
        require(mu.support_size <= ORACLE_SUPPORT_LIMIT, "oracle support limit")
        want = prokhorov_oracle(mu, nu, system)
        require(abs(rho - want) <= TOL, f"flow Prokhorov {rho} != subset oracle {want}")
    return check


def _check_prokhorov_w1(mu, nu, system):
    """rho**2 <= W1 <= (1 + diam) * rho for measures on a bounded space."""
    def check(rho):
        w1 = wasserstein1_fast_1d(mu, nu, system.geometry)
        require(0 <= rho <= 1 + TOL, "Prokhorov outside [0, 1]")
        require(rho * rho <= w1 + TOL, f"rho^2 {rho * rho} above W1 {w1}")
        require(w1 <= (1 + system.diameter) * rho + TOL, f"W1 {w1} above (1+diam) rho")
    return check


def _check_w1_lp(mu, nu, system):
    def check(w1):
        fast = wasserstein1_fast_1d(mu, nu, system.geometry)
        require(abs(w1 - fast) <= TOL, f"LP W1 {w1} != closed form {fast}")
    return check


def _check_w1_matching(system, seg_x, seg_y):
    """n * W1 between two n-point empiricals equals the assignment cost."""
    def check(w1):
        _, total = min_cost_assignment(cost_matrix(seg_x, seg_y))
        require(abs(w1 - total / seg_x.length) <= TOL,
                f"closed-form W1 {w1} != matching average {total / seg_x.length}")
    return check


# ---------------------------------------------------------------------------
# workloads

LOGISTIC_R = 3.9
SHIFT_HORIZON = 30
GOLDEN = 0.6180339887498949
SQRT2M1 = 0.41421356237309515


class _Sizes:
    """Request sizes spread log-uniformly over a range, cycle by cycle.

    The k-th size of a cycle uses the fraction (phase + k * (sqrt 2 - 1)) mod 1
    and the phase advances by the golden angle each cycle, so every request
    slot walks a low-discrepancy sequence.  Latencies then spread smoothly
    instead of sitting on a few plateaus.  Cycle 0 starts at phase 0, so its
    first request, the warm-up, has the smallest size.
    """

    def __init__(self, phase: float) -> None:
        self.phase = phase
        self.k = 0

    def __call__(self, lo: int, hi: int) -> int:
        u = (self.phase + self.k * SQRT2M1) % 1.0
        self.k += 1
        return int(round(lo * (hi / lo) ** u))


def long_orbit_cycle(rng: np.random.Generator, size: _Sizes) -> list[Request]:
    rot = CircleRotation(_unit(rng))
    log = LogisticMap(LOGISTIC_R)
    shift = BinaryShift(SHIFT_HORIZON)
    reqs = []
    for system, lo, hi in ((rot, 20_000, 200_000), (log, 20_000, 200_000),
                           (shift, 2_000, 20_000)):
        for _ in range(3):
            if system is shift:
                x, y = _shift_point(rng), _shift_point(rng)
            else:
                x, y = _unit(rng), _unit(rng)
            sched = Schedule.geometric(size(lo, hi))
            reqs.append(Request(
                f"ebar_estimate/{system.kind}",
                lambda s=system, x=x, y=y, sc=sched: ebar_estimate(s, x, y, sc),
                _check_ebar_estimate(system, x, y, sched)))
    for _ in range(2):
        x, y, sched = _unit(rng), _unit(rng), Schedule.geometric(size(100_000, 1_000_000))
        reqs.append(Request(
            "besicovitch_estimate/circle_rotation",
            lambda x=x, y=y, sc=sched: besicovitch_estimate(rot, x, y, sc),
            _check_rotation_besicovitch(rot, x, y, sched)))
    for _ in range(2):
        x, y, horizon = _shift_point(rng), _shift_point(rng), size(20_000, 200_000)
        lengths = (10, 100, 1_000, horizon)
        reqs.append(Request(
            "weyl_profile/binary_shift",
            lambda x=x, y=y, h=horizon, ls=lengths: weyl_profile(shift, x, y, h, ls),
            _check_weyl(shift, x, y, horizon, lengths)))
    ue_seed, ue_sched = _seed(rng), Schedule.geometric(size(5_000, 30_000))
    reqs.append(Request(
        "unique_ergodicity_diagnostic/circle_rotation",
        _emitted(lambda: unique_ergodicity_diagnostic(rot, 4, ue_sched, seed=ue_seed)),
        _check_report("unique_ergodicity", _check_ue)))
    bk_seed, bk_sched = _seed(rng), Schedule.geometric(size(20_000, 200_000))
    reqs.append(Request(
        "birkhoff_profile/binary_shift/cyl:01",
        _emitted(lambda: birkhoff_profile(shift, "cyl:01", 4, bk_sched, seed=bk_seed)),
        _check_report("birkhoff_profile", _check_birkhoff(len(bk_sched.checkpoints))),
        repeat=True))
    return reqs


def _close_point(system, x: float, rng: np.random.Generator) -> float:
    if system.geometry == "circle":
        return (x + 0.02 * _unit(rng)) % 1.0
    return min(1.0, x + 0.02 * _unit(rng))


def assignment_cycle(rng: np.random.Generator, size: _Sizes) -> list[Request]:
    rot = CircleRotation(GOLDEN)
    log = LogisticMap(LOGISTIC_R)
    tent = TentMap()
    # float tent orbits collapse onto 0, so this product's costs are tie-heavy
    generic, ties = product_system(rot, log), product_system(rot, tent)
    reqs = []
    for system, count in ((generic, 7), (ties, 8)):
        label = f"{system.first.kind}*{system.second.kind}"
        for _ in range(count):
            x, y, n = (_unit(rng), _unit(rng)), (_unit(rng), _unit(rng)), size(100, 1_000)
            reqs.append(Request(
                f"ebar_n/{label}",
                lambda s=system, x=x, y=y, n=n: ebar_n(s, x, y, n),
                _check_product_ebar(system, x, y, n)))
        x, y = (_unit(rng), _unit(rng)), (_unit(rng), _unit(rng))
        sched = Schedule.geometric(size(200, 500))
        reqs.append(Request(
            f"ebar_estimate/{label}",
            lambda s=system, x=x, y=y, sc=sched: ebar_estimate(s, x, y, sc),
            _check_product_estimate(system, x, y, sched)))
    me_seed, me_sched = _seed(rng), Schedule.geometric(size(100, 300))
    reqs.append(Request(
        "mean_equicontinuity_diagnostic/tent_map",
        _emitted(lambda: mean_equicontinuity_diagnostic(tent, 0.05, 1, me_sched, seed=me_seed)),
        _check_report("mean_equicontinuity", _check_mean_eq),
        repeat=True))
    grid = [k / 20 for k in range(1, 11)]
    for system in (log, rot, rot) * 4:
        x = _unit(rng)
        y = _close_point(system, x, rng)
        delta = 0.05 + 0.1 * _unit(rng)
        n = size(200, 600)
        reqs.append(Request(
            f"sandwich_check/{system.kind}",
            lambda s=system, x=x, y=y, d=delta, n=n: sandwich_check(s, x, y, n, d),
            _check_sandwich))
        n = size(200, 600)
        reqs.append(Request(
            f"delta_n/{system.kind}",
            lambda s=system, x=x, y=y, d=delta, n=n: delta_n(s, x, y, n, d),
            _check_delta(system, x, y, n, delta)))
        egrid = [e for e in grid if e <= system.diameter]
        sched = Schedule.geometric(size(150, 400))
        reqs.append(Request(
            f"etilde_estimate/{system.kind}",
            lambda s=system, x=x, y=y, sc=sched, g=egrid: etilde_estimate(s, x, y, sc, g),
            _check_etilde(system, x, y, sched, egrid)))
    return reqs


def assignment_once() -> list[Request]:
    return [Request("example31_report/default", _emitted(example31_report),
                    _check_report("example31", _check_example31))]


def measures_cycle(rng: np.random.Generator, size: _Sizes) -> list[Request]:
    rot = CircleRotation(_unit(rng))
    log = LogisticMap(LOGISTIC_R)
    shift = BinaryShift(SHIFT_HORIZON)
    reqs = []
    for system in (rot, log, shift):
        eq_seed, n = _seed(rng), size(100, 300)
        reqs.append(Request(
            f"empirical_equicontinuity/{system.kind}",
            _emitted(lambda s=system, sd=eq_seed, n=n: empirical_equicontinuity(
                s, 0.01, 2, [n // 4, n // 2, n], seed=sd)),
            _check_report("empirical_equicontinuity", _check_rho_family),
            repeat=system is rot))
    for system, x, y in ((rot, _unit(rng), _unit(rng)),
                         (shift, _shift_point(rng), _shift_point(rng))):
        sched = Schedule.geometric(size(150, 450))
        reqs.append(Request(
            f"omega_distance/{system.kind}",
            _emitted(lambda s=system, x=x, y=y, sc=sched: omega_distance(s, x, y, sc)),
            _check_report("omega_distance", _check_omega)))
    for system, lo, hi in ((log, 100, 250), (log, 100, 250), (rot, 50, 150)):
        n = size(lo, hi)
        seg_x = system.orbit_segment(_unit(rng), n)
        seg_y = system.orbit_segment(_unit(rng), n)
        mu, nu = empirical_measure(seg_x), empirical_measure(seg_y)
        reqs.append(Request(
            f"prokhorov/{system.kind}",
            lambda s=system, mu=mu, nu=nu: prokhorov(mu, nu, s),
            _check_prokhorov_w1(mu, nu, system)))
        reqs.append(Request(
            f"wasserstein1/{system.kind}",
            lambda s=system, mu=mu, nu=nu: wasserstein1(mu, nu, s),
            _check_w1_lp(mu, nu, system)))
        reqs.append(Request(
            f"wasserstein1_fast_1d/{system.kind}",
            lambda s=system, mu=mu, nu=nu: wasserstein1_fast_1d(mu, nu, s.geometry),
            _check_w1_matching(system, seg_x, seg_y)))
    # horizon-3 windows take at most eight values, so the subset oracle applies
    coarse, n = BinaryShift(3), size(200, 800)
    small_mu = empirical_measure(coarse.orbit_segment(_shift_point(rng), n))
    small_nu = empirical_measure(coarse.orbit_segment(_shift_point(rng), n))
    reqs.append(Request(
        "prokhorov/binary_shift3",
        lambda: prokhorov(small_mu, small_nu, coarse),
        _check_prokhorov_oracle(small_mu, small_nu, coarse)))
    return reqs


WORKLOADS = {
    w.name: w for w in (
        Workload("long-orbit",
                 "long-horizon limsup estimates: orbit generation and closed-form "
                 "transport dominate; no assignment or max flow runs",
                 long_orbit_cycle),
        Workload("assignment",
                 "short orbits, exact assignment and threshold matching on generic "
                 "and tie-heavy cost matrices dominate",
                 assignment_cycle, assignment_once),
        Workload("measures",
                 "empirical measures, Dinic-flow Prokhorov and the W1 linear program "
                 "dominate; supports range from a few atoms to n, no assignment",
                 measures_cycle),
    )
}
