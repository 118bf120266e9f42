"""Tests of the benchmark itself: failure accounting, tracing, metric names.

Run from the root of a checkout:

    python3 -m pytest orbitbench
"""
import dataclasses
import json
from pathlib import Path

import pytest

import run

run.prepare_environment()

import orbitmetric  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((Path(__file__).parent / "layer_map.json").read_text())


def _cheap_measures_requests(seed=7):
    """The sub-millisecond requests of one measures cycle."""
    batch = workloads.WORKLOADS["measures"].requests(seed, 0)
    picked = [r for r in batch if r.kind.startswith(("wasserstein1_fast_1d", "prokhorov/binary"))]
    assert len(picked) == 4
    return picked


def test_clean_requests_pass_their_checks():
    requests = _cheap_measures_requests()
    records = run.run_requests(requests, 0, reference=run.ReferenceKernel())
    run.check_records(requests, records)
    assert [rec.error for rec in records] == [None] * len(records)


def test_corrupted_result_counts_in_error_rate():
    requests = _cheap_measures_requests()
    records = run.run_requests(requests, 0, reference=run.ReferenceKernel())
    records[1].output += 0.125
    run.check_records(requests, records)
    assert [rec.error is not None for rec in records] == [False, True, False, False]
    metrics, info = run.summarize(records, setup_s=1.0, peak_rss_mb=1.0)
    assert info["error_rate"] == pytest.approx(1 / 4)
    assert metrics["success_rate"][0] == pytest.approx(3 / 4)


def test_exception_inside_request_fails_it_without_aborting_the_run():
    def boom():
        raise ValueError("injected")

    ok = _cheap_measures_requests()
    requests = [ok[0], Request("injected/raise", boom, lambda out: None), ok[1]]
    records = run.run_requests(requests, 10, reference=run.ReferenceKernel())
    run.check_records(requests, records)
    assert [rec.request_id for rec in records] == [10, 11, 12]
    assert records[0].error is None and records[2].error is None
    assert records[1].error == "ValueError: injected"
    metrics, info = run.summarize(records, setup_s=1.0, peak_rss_mb=1.0)
    assert info["error_rate"] == pytest.approx(1 / 3)


def test_repeat_check_catches_nondeterministic_report():
    batch = workloads.WORKLOADS["measures"].requests(3, 0)
    (seeded,) = [r for r in batch if r.repeat]
    sent = []

    def drifting():
        report, _, csv = seeded.call()
        sent.append(report)
        report.summary["sent"] = len(sent)  # differs on the repeat
        return report, report.to_json(), csv

    req = dataclasses.replace(seeded, call=drifting)
    records = run.run_requests([req], 0)
    run.check_records([req], records)
    assert len(sent) == 2
    assert "differs byte-wise" in records[0].error


def _traced_counts(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    records, metrics, _ = run.traced(workloads.WORKLOADS["measures"], seed)
    assert all(rec.error is None for rec in records)
    return metrics


def test_traced_work_counts_repeat_exactly(tmp_path, monkeypatch):
    first = _traced_counts(tmp_path, monkeypatch, seed=5)
    second = _traced_counts(tmp_path, monkeypatch, seed=5)
    counts = {k: v for k, (v, unit) in first.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in second.items() if unit == "count"}
    assert counts["measures.prokhorov.support_pairs"] > 0
    assert counts["measures.empirical_measure.atoms"] > 0
    assert counts["matching.min_cost_assignment.calls"] == 0
    assert all(v >= 0 for k, (v, _) in first.items() if k.endswith("self_s"))
    assert set(first) == {m["name"] for m in BENCHMARK["per_layer"]}
    spans = (tmp_path / "spans-measures-5.jsonl").read_text().splitlines()
    assert len(spans) == counts["trace.spans"]
    assert set(json.loads(spans[0])) == {"name", "start_ns", "end_ns", "parent", "request"}


def test_tracer_uninstall_restores_every_binding():
    from orbitmetric import analysis, matching, measures, pseudometrics, systems

    layers = {"systems": systems, "matching": matching, "pseudometrics": pseudometrics,
              "measures": measures, "analysis": analysis}
    spaces = list(layers.values()) + [orbitmetric, workloads]
    before = [dict(vars(ns)) for ns in spaces]
    methods = (systems.System.orbit_segment, systems.BinaryShift.pairwise_dist,
               analysis.DiagnosticReport.to_json)
    tracer = tracing.Tracer()
    tracer.install(layers, extra_namespaces=(orbitmetric, workloads))
    assert hasattr(pseudometrics._w1_line, "__wrapped__")
    assert not hasattr(measures._w1_line, "__wrapped__")
    assert analysis.ebar_estimate is pseudometrics.ebar_estimate
    assert hasattr(workloads.ebar_estimate, "__wrapped__")
    tracer.uninstall()
    assert [dict(vars(ns)) for ns in spaces] == before
    assert (systems.System.orbit_segment, systems.BinaryShift.pairwise_dist,
            analysis.DiagnosticReport.to_json) == methods


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    metrics, _ = run.summarize(
        run.run_requests(_cheap_measures_requests(), 0, reference=run.ReferenceKernel()),
        setup_s=1.0, peak_rss_mb=1.0)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(LAYER_MAP["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(units[name].startswith(("s", "count")) for name in units)


def test_exception_is_charged_once_to_the_innermost_layer():
    from orbitmetric import analysis, matching, measures, pseudometrics, systems

    layers = {"systems": systems, "matching": matching, "pseudometrics": pseudometrics,
              "measures": measures, "analysis": analysis}
    tracer = tracing.Tracer()
    tracer.install(layers, extra_namespaces=(orbitmetric, workloads))
    try:
        tracer.begin_request(0)
        with pytest.raises(ValueError):
            # orbit generation, nested inside ebar_n, rejects the tent point 1.5
            workloads.ebar_n(workloads.product_system(workloads.CircleRotation(0.5),
                                                      workloads.TentMap()),
                             (0.1, 0.2), (0.3, 1.5), 4)
        tracer.end_request()
    finally:
        tracer.uninstall()
    errors = {k: v for k, (v, _) in tracer.metrics(0.0).items() if k.endswith(".errors")}
    assert errors == {"systems.errors": 1, "matching.errors": 0, "pseudometrics.errors": 0,
                      "measures.errors": 0, "analysis.errors": 0}
