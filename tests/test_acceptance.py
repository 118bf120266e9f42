"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them all) and
enforces both the numeric tolerance and a wall-clock budget.
"""

import itertools
import json
import time

import numpy as np
import pytest

from orbitmetric import (
    BinaryShift,
    CircleRotation,
    DoublingMap,
    Example31Config,
    ProductSystem,
    Schedule,
    ShiftPoint,
    besicovitch_estimate,
    birkhoff_decompose,
    birkhoff_profile,
    brute_force_assignment,
    cli,
    ebar_estimate,
    ebar_n,
    empirical_measure,
    example31_report,
    min_cost_assignment,
    prokhorov,
    prokhorov_oracle,
    sample_close_pair,
    sample_point,
    sandwich_check,
    unique_ergodicity_diagnostic,
    wasserstein1,
    wasserstein1_fast_1d,
    weyl_profile,
)
from orbitmetric import measures
from orbitmetric.analysis import VERDICT_CONSISTENT, VERDICT_VIOLATED
from orbitmetric.systems import GEOMETRY_CIRCLE, GEOMETRY_LINE, TentMap, cost_matrix

GOLDEN = 0.6180339887498949
SQRT2M1 = 0.41421356237309515


def _report(idx: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{idx:2d}/13] {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_assignment_matches_brute_force_oracle():
    budget, t0 = 5.0, time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        C = rng.random((n, n))
        _, fast = min_cost_assignment(C)
        _, slow = brute_force_assignment(C)
        worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    _report(1, "assignment equals exhaustive search", ok, elapsed, budget)
    assert ok, f"worst deviation {worst}"
    assert elapsed < budget


def test_matching_cost_equals_scaled_wasserstein():
    budget, t0 = 30.0, time.perf_counter()
    pool = [CircleRotation(GOLDEN), BinaryShift(), DoublingMap(),
            ProductSystem(CircleRotation(GOLDEN), CircleRotation(SQRT2M1))]
    rng = np.random.default_rng(1002)
    worst = 0.0
    for system in pool:
        for _ in range(100):
            n = int(rng.integers(1, 51))
            x, y = sample_point(system, rng), sample_point(system, rng)
            seg_x, seg_y = system.orbit_segment(x, n), system.orbit_segment(y, n)
            mu, nu = empirical_measure(seg_x), empirical_measure(seg_y)
            C = system.pairwise_dist(seg_x.points(), seg_y.points())
            _, cost = min_cost_assignment(C)
            # the priced LP too: wasserstein1 solves uniform n-atom pairs by assignment
            lp = measures._transport_lp(system.pairwise_dist(mu.atoms, nu.atoms),
                                        mu.weights, nu.weights)
            worst = max(worst, abs(n * wasserstein1(mu, nu, system) - cost),
                        abs(n * lp - cost))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    _report(2, "n*W1 of empiricals equals matching cost", ok, elapsed, budget)
    assert ok, f"worst deviation {worst}"
    assert elapsed < budget


def test_one_dimensional_transport_fast_path():
    budget, t0 = 5.0, time.perf_counter()
    rng = np.random.default_rng(1003)
    line, circle = TentMap(), CircleRotation(GOLDEN)
    worst = 0.0
    for geometry, system in ((GEOMETRY_LINE, line), (GEOMETRY_CIRCLE, circle)):
        for _ in range(50):
            mu = _random_measure(rng, 50)
            nu = _random_measure(rng, 50)
            fast = wasserstein1_fast_1d(mu, nu, geometry)
            slow = wasserstein1(mu, nu, system)
            worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    _report(3, "closed-form 1-d transport equals the LP", ok, elapsed, budget)
    assert ok, f"worst deviation {worst}"
    assert elapsed < budget


def _random_measure(rng, max_atoms):
    from orbitmetric import DiscreteMeasure
    k = int(rng.integers(1, max_atoms + 1)) if max_atoms > 1 else 1
    return DiscreteMeasure(list(rng.random(k)), list(rng.dirichlet(np.ones(k))))


def test_prokhorov_flow_matches_subset_oracle():
    budget, t0 = 30.0, time.perf_counter()
    rng = np.random.default_rng(1004)
    tent = TentMap()
    worst = 0.0
    for _ in range(100):
        mu = _random_measure(rng, 8)
        nu = _random_measure(rng, 8)
        worst = max(worst, abs(prokhorov(mu, nu, tent) - prokhorov_oracle(mu, nu, tent)))
    # the circle's arc rule, on float weights and on counted orbit prefixes
    circle = CircleRotation(GOLDEN)
    for _ in range(50):
        counted = [empirical_measure(circle.orbit_segment(float(rng.random()),
                                                          int(rng.integers(1, 13))))
                   for _ in range(2)]
        for mu, nu in ((_random_measure(rng, 12), _random_measure(rng, 12)), counted):
            worst = max(worst, abs(prokhorov(mu, nu, circle)
                                   - prokhorov_oracle(mu, nu, circle)))
    from orbitmetric import DiscreteMeasure
    dirac_exact = True
    for a, b in ((0.0, 0.4), (0.9, 0.1), (0.5, 0.5)):
        got = prokhorov(DiscreteMeasure.dirac(a), DiscreteMeasure.dirac(b), tent)
        dirac_exact = dirac_exact and got == min(abs(a - b), 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and dirac_exact
    _report(4, "prokhorov line sweep and circle arc rule equal subset oracle", ok, elapsed, budget)
    assert worst <= 1e-9, f"worst deviation {worst}"
    assert dirac_exact
    assert elapsed < budget


def test_threshold_matching_sandwich_bounds():
    budget, t0 = 10.0, time.perf_counter()
    rng = np.random.default_rng(1005)
    pool = [CircleRotation(GOLDEN), BinaryShift(), DoublingMap()]
    holds = True
    for system in pool:
        for _ in range(100):
            x, y = sample_point(system, rng), sample_point(system, rng)
            for delta in (0.1, 0.3):
                for n in (10, 100):
                    holds = holds and sandwich_check(system, x, y, n, delta).holds
    elapsed = time.perf_counter() - t0
    _report(5, "exceedance-count sandwich bounds hold", holds, elapsed, budget)
    assert holds
    assert elapsed < budget


def test_slow_alternation_example_full_report():
    budget, t0 = 60.0, time.perf_counter()
    rep = example31_report(Example31Config(n_blocks=6))
    rows = rep.observations
    elapsed = time.perf_counter() - t0
    ns = [row["n"] for row in rows]
    final_bound = rows[-1]["lower_bound"]
    ok = (
        ns == [1, 3, 9, 33, 153, 873]
        and all(row["bound_holds"] for row in rows)
        and final_bound >= 63 / 97 - 1e-12
        and round(final_bound, 4) == 0.6495
        and rows[-1]["ebar_n"] >= 0.6495
        and rep.summary["rho_x_to_segment"] <= 0.1
        and rep.summary["rho_y_to_segment"] <= 0.1
        and rep.summary["rho_hausdorff"] <= 0.15
        and rep.summary["ebar_tail"] >= 0.64
        and rep.verdict == VERDICT_CONSISTENT
    )
    _report(6, "block alternation point separates ebar from measures", ok,
            elapsed, budget)
    assert ok, json.dumps({"rows": rows, "summary": rep.summary})
    assert elapsed < budget


def test_rotation_matched_averages_never_exceed_gap():
    budget, t0 = 10.0, time.perf_counter()
    rot = CircleRotation(GOLDEN)
    rng = np.random.default_rng(1007)
    sched = Schedule.geometric(10 ** 4)
    worst = 0.0
    for _ in range(100):
        x, y = sample_close_pair(rot, 0.05, rng)
        worst = max(worst, max(ebar_estimate(rot, x, y, sched).values))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 + 1e-9
    _report(7, "isometry keeps matched averages under the gap", ok, elapsed, budget)
    assert ok, f"worst value {worst}"
    assert elapsed < budget


def test_ebar_diameter_separates_rotation_from_shift():
    budget, t0 = 20.0, time.perf_counter()
    rot_rep = unique_ergodicity_diagnostic(CircleRotation(GOLDEN), 20,
                                           Schedule.geometric(10 ** 4), seed=8)
    shift_rep = unique_ergodicity_diagnostic(BinaryShift(), 2,
                                             Schedule.geometric(100), seed=8)
    elapsed = time.perf_counter() - t0
    ok = (
        rot_rep.summary["ebar_diameter"] <= 0.02
        and rot_rep.verdict == VERDICT_CONSISTENT
        and shift_rep.summary["ebar_diameter"] == 1.0
        and shift_rep.verdict == VERDICT_VIOLATED
        and ["(0)*", "(1)*"] in shift_rep.witnesses
    )
    _report(8, "empirical ebar diameter detects the unique measure", ok,
            elapsed, budget)
    assert ok, json.dumps({"rot": rot_rep.summary, "shift": shift_rep.summary})
    assert elapsed < budget


def test_shift_keeps_faraway_orbits_apart():
    budget, t0 = 10.0, time.perf_counter()
    sh = BinaryShift()
    y = ShiftPoint.from_string("0" * 10, "1")
    value = ebar_n(sh, ShiftPoint.zeros(), y, 500)
    elapsed = time.perf_counter() - t0
    ok = value >= 0.98
    _report(9, "close start does not drag shift orbits together", ok,
            elapsed, budget)
    assert ok, f"ebar_500 = {value}"
    assert value == 0.981998046875
    assert elapsed < budget


def test_birkhoff_average_uniformity_split():
    budget, t0 = 10.0, time.perf_counter()
    rot_rep = birkhoff_profile(CircleRotation(GOLDEN), "cos2pi", 1000,
                               Schedule((1000,), 0), seed=10)
    prefix = [r for r in rot_rep.observations if r["kind"] == "prefix"][0]
    shift_rep = birkhoff_profile(BinaryShift(), "symbol0", 4,
                                 Schedule.geometric(500), seed=10)
    shift_rows = [r for r in shift_rep.observations if r["kind"] == "prefix"]
    elapsed = time.perf_counter() - t0
    ok = (prefix["max_abs_avg"] <= 0.002
          and all(r["spread"] == 1.0 for r in shift_rows))
    _report(10, "uniform rotation averages vs split shift frequencies", ok,
            elapsed, budget)
    assert ok, json.dumps({"rotation": prefix, "shift": shift_rows})
    assert elapsed < budget


def test_bistochastic_matrices_split_into_permutations():
    budget, t0 = 5.0, time.perf_counter()
    rng = np.random.default_rng(1011)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        B = np.zeros((n, n))
        for w in rng.dirichlet(np.ones(k)):
            B[np.arange(n), rng.permutation(n)] += w
        dec = birkhoff_decompose(B)
        ok = ok and np.max(np.abs(dec.reconstruct() - B)) <= 1e-7
        ok = ok and len(dec.weights) <= (n - 1) ** 2 + 1
        ok = ok and abs(sum(dec.weights) - 1.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(11, "permutation decomposition rebuilds the matrix", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_pseudometric_axioms_and_dominance():
    budget, t0 = 30.0, time.perf_counter()
    rng = np.random.default_rng(1012)
    pool = [CircleRotation(GOLDEN), BinaryShift(), DoublingMap()]
    sched = Schedule.geometric(200)
    sym_ok = tri_ok = dom_ok = True
    for i in range(200):
        system = pool[i % len(pool)]
        x, y, z = (sample_point(system, rng) for _ in range(3))
        n = int(rng.integers(1, 61))
        dxy, dyx = ebar_n(system, x, y, n), ebar_n(system, y, x, n)
        sym_ok = sym_ok and dxy == dyx
        tri_ok = tri_ok and ebar_n(system, x, z, n) <= dxy + ebar_n(system, y, z, n) + 1e-9
        e = ebar_estimate(system, x, y, sched).tail_sup
        b = besicovitch_estimate(system, x, y, sched).tail_sup
        w = max(weyl_profile(system, x, y, sched.max_n,
                             sched.tail_checkpoints).sup_window_avg.values())
        dom_ok = dom_ok and e <= b + 1e-9 and b <= w + 1e-9
    elapsed = time.perf_counter() - t0
    ok = sym_ok and tri_ok and dom_ok
    _report(12, "symmetry, triangle, and average dominance", ok, elapsed, budget)
    assert sym_ok and tri_ok and dom_ok
    assert elapsed < budget


def test_repeated_runs_write_identical_files(tmp_path, capsys):
    budget, t0 = 30.0, time.perf_counter()
    commands = [
        ["modulus", "--system", "circle", "--alpha", str(GOLDEN),
         "--delta", "0.05", "--pairs", "10", "--schedule-max", "300",
         "--seed", "13"],
        ["ue", "--system", "shift", "--points", "3", "--schedule-max", "100",
         "--seed", "13", "--format", "json"],
        ["birkhoff", "--system", "doubling", "--observable", "coordinate",
         "--points", "5", "--schedule-max", "200", "--seed", "13"],
    ]
    ok = True
    for k, argv in enumerate(commands):
        a, b = tmp_path / f"a{k}.out", tmp_path / f"b{k}.out"
        ok = ok and cli.main(argv + ["--out", str(a)]) == 0
        ok = ok and cli.main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    _report(13, "seeded diagnostics are byte reproducible", ok, elapsed, budget)
    assert ok
    assert elapsed < budget
