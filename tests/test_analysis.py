import json

import numpy as np
import pytest

from orbitmetric import (
    BinaryShift,
    CircleRotation,
    DiagnosticReport,
    DiscreteMeasure,
    Example31Config,
    LogisticMap,
    ProductSystem,
    Schedule,
    ShiftPoint,
    birkhoff_profile,
    build_example31_point,
    continuity_modulus,
    ebar_estimate,
    empirical_equicontinuity,
    empirical_measure,
    en_equicontinuity_diagnostic,
    example31_report,
    hausdorff_measures,
    mean_equicontinuity_diagnostic,
    observable_values,
    omega_distance,
    omega_hat_estimate,
    prokhorov,
    sample_close_pair,
    sample_point,
    unique_ergodicity_diagnostic,
)
from orbitmetric.analysis import (
    VERDICT_CONSISTENT,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    _curated_close_pairs,
    _distance_to_fixed_segment,
)
from orbitmetric import systems
from orbitmetric.systems import TentMap

GOLDEN = 0.6180339887498949


# --------------------------------------------------------------- modulus

def test_modulus_rotation_close_pairs_stay_close():
    rep = continuity_modulus(CircleRotation(GOLDEN), 0.05, 20,
                             Schedule.geometric(200), seed=1, threshold=0.06)
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.summary["modulus"] <= 0.05 + 1e-12


def test_modulus_shift_blows_up_from_tiny_gaps():
    rep = continuity_modulus(BinaryShift(), 2 ** -10, 20,
                             Schedule.geometric(300), seed=1)
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.summary["modulus"] >= 0.9
    assert rep.witnesses
    x_str, y_str = rep.witnesses[0]
    assert ShiftPoint.from_string(*_split_point_str(x_str)) is not None


def _split_point_str(s: str):
    # "prefix(tail)*" back into from_string arguments
    if "(" in s:
        prefix, rest = s.split("(", 1)
        return prefix, rest[:-2]
    return s, ""


@pytest.mark.parametrize("run", [
    lambda s: continuity_modulus(s, 0.0, 5, Schedule.geometric(50)),
    lambda s: mean_equicontinuity_diagnostic(s, 0.0, 5, Schedule.geometric(50)),
    lambda s: empirical_equicontinuity(s, 0.0, 5, [50]),
    lambda s: en_equicontinuity_diagnostic(s, 0.0, 5, [50]),
    lambda s: empirical_equicontinuity(s, 0.05, 5, []),
    lambda s: en_equicontinuity_diagnostic(s, 0.05, 5, []),
], ids=["modulus-zero_delta", "meaneq-zero_delta", "empirical-zero_delta",
        "en-zero_delta", "empirical-empty_n_list", "en-empty_n_list"])
def test_close_pair_diagnostic_without_pairs_is_inconclusive(run):
    rep = run(CircleRotation(GOLDEN))
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.observations == [] and rep.witnesses == [] and rep.summary == {}


NAN = float("nan")


@pytest.mark.parametrize("system, run", [
    (TentMap(), lambda s: continuity_modulus(s, 0.05, 0, Schedule((5, 10)))),
    (TentMap(), lambda s: en_equicontinuity_diagnostic(s, 0.05, 0, [5])),
    (BinaryShift(), lambda s: continuity_modulus(s, NAN, 0, Schedule((5, 10)))),
    (BinaryShift(), lambda s: mean_equicontinuity_diagnostic(s, NAN, 0, Schedule((5, 10)))),
    (BinaryShift(), lambda s: empirical_equicontinuity(s, NAN, 0, [5])),
    (TentMap(), lambda s: en_equicontinuity_diagnostic(s, NAN, 0, [5])),
    (TentMap(), lambda s: mean_equicontinuity_diagnostic(s, NAN, 3, Schedule((5, 10)))),
], ids=["modulus-no_samples", "en-no_samples", "modulus-nan_delta", "meaneq-nan_delta",
        "empirical-nan_delta", "en-nan_delta", "meaneq-nan_delta_with_samples"])
def test_nan_delta_or_no_sampled_pair_is_inconclusive(system, run):
    # no pair was observed, so there is no statistic to call consistent
    rep = run(system)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.observations == [] and rep.witnesses == [] and rep.summary == {}


@pytest.mark.parametrize("run", [empirical_equicontinuity, en_equicontinuity_diagnostic],
                         ids=["empirical", "en"])
def test_n_list_entries_must_be_integers(run):
    rot = CircleRotation(0.3)
    for n_list in ((2.7, 10.9), (5, 10.0), (True, 5), (0, 5)):
        with pytest.raises(ValueError, match="n in n_list must be an integer"):
            run(rot, 0.05, 2, n_list)
    rep = run(rot, 0.05, 2, (np.int64(5), 10))
    assert rep.parameters["n_list"] == [5, 10]
    assert json.loads(rep.to_json())["parameters"]["n_list"] == [5, 10]


@pytest.mark.parametrize("run, least", [
    (lambda s, k: continuity_modulus(s, 0.05, k, Schedule((5, 10))), 0),
    (lambda s, k: mean_equicontinuity_diagnostic(s, 0.05, k, Schedule((5, 10))), 0),
    (lambda s, k: empirical_equicontinuity(s, 0.05, k, [5]), 0),
    (lambda s, k: en_equicontinuity_diagnostic(s, 0.05, k, [5]), 0),
    (lambda s, k: unique_ergodicity_diagnostic(s, k, Schedule((5, 10))), 2),
    (lambda s, k: birkhoff_profile(s, "coordinate", k, Schedule((5, 10))), 1),
], ids=["modulus", "meaneq", "empirical", "en", "unique_ergodicity", "birkhoff"])
def test_sample_counts_must_be_integers(run, least):
    # a sample count is an integer, echoed as a Python int so the report serialises
    rot = CircleRotation(0.3)
    for bad in (2.5, float(least) + 1.0, True, least - 1, -3):
        with pytest.raises(ValueError, match="sample count must be an integer"):
            run(rot, bad)
    for good in (np.int64(least + 1), least):
        rep = run(rot, good)
        echo = rep.parameters.get("pair_samples", rep.parameters.get("point_samples"))
        assert type(echo) is int
        json.loads(rep.to_json())


# --------------------------------------------- empirical equicontinuity

def test_empirical_equicontinuity_rotation():
    rep = empirical_equicontinuity(CircleRotation(GOLDEN), 0.01, 10,
                                   [50, 100, 200], seed=2)
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.summary["max_rho"] <= 0.02


def test_empirical_equicontinuity_shift_near_pair():
    rep = empirical_equicontinuity(BinaryShift(), 2 ** -10, 10, [500], seed=2)
    assert rep.summary["max_rho"] >= 0.9
    assert rep.verdict == VERDICT_VIOLATED


def test_empirical_equicontinuity_reads_tied_shift_levels_exactly():
    # both rows equal 13/50 exactly; summed as float weights they read
    # 0.2600000000000001 and 0.26000000000000006
    rep = empirical_equicontinuity(BinaryShift(), 0.03125, 3, (10, 50, 200), seed=5)
    tied = [(r["pair"], r["n"], r["rho"]) for r in rep.observations
            if abs(r["rho"] - 0.26) < 1e-9]
    assert tied == [(1, 200, 0.26), (3, 50, 0.26)]


# ------------------------------------------------------ unique ergodicity

def test_unique_ergodicity_rotation_consistent():
    rep = unique_ergodicity_diagnostic(CircleRotation(GOLDEN), 8,
                                       Schedule.geometric(2000), seed=3)
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.summary["ebar_diameter"] <= 0.02


def test_unique_ergodicity_shift_witnesses_fixed_points():
    rep = unique_ergodicity_diagnostic(BinaryShift(), 2, Schedule.geometric(50))
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.summary["ebar_diameter"] == 1.0
    assert ["(0)*", "(1)*"] in rep.witnesses


def test_unique_ergodicity_needs_two_points():
    with pytest.raises(ValueError):
        unique_ergodicity_diagnostic(CircleRotation(GOLDEN), 1, Schedule.geometric(50))


def test_unique_ergodicity_degenerate_sample_is_inconclusive(monkeypatch):
    import orbitmetric.analysis as analysis_mod
    monkeypatch.setattr(analysis_mod, "sample_point", lambda system, rng: 0.25)
    rep = unique_ergodicity_diagnostic(TentMap(), 3, Schedule.geometric(50))
    assert rep.summary["ebar_diameter"] <= 1e-12
    assert rep.verdict == VERDICT_INCONCLUSIVE


# --------------------------------------------------------- omega distance

def test_omega_distance_identical_points():
    rep = omega_distance(CircleRotation(GOLDEN), 0.3, 0.3, Schedule.geometric(200))
    assert rep.verdict == VERDICT_CONSISTENT
    row = rep.observations[0]
    assert row["ebar_tail"] == pytest.approx(0.0, abs=1e-12)
    assert row["rho_hausdorff"] == pytest.approx(0.0, abs=1e-12)


def test_omega_distance_rotation_close_pair():
    rep = omega_distance(CircleRotation(GOLDEN), 0.2, 0.205, Schedule.geometric(300))
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.observations[0]["rho_hausdorff"] <= 0.05


def test_omega_distance_violated_when_rho_threshold_is_tight():
    rep = omega_distance(CircleRotation(GOLDEN), 0.0, 0.001,
                         Schedule.geometric(300), rho_threshold=1e-9)
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.witnesses


def test_omega_distance_large_tail_is_unconstrained():
    rep = omega_distance(BinaryShift(), ShiftPoint.zeros(), ShiftPoint.ones(),
                         Schedule.geometric(100))
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.observations[0]["ebar_tail"] == 1.0


def test_omega_distance_builds_each_orbit_once(monkeypatch):
    built = []
    orbit_segment = systems.System.orbit_segment
    monkeypatch.setattr(systems.System, "orbit_segment",
                        lambda self, x, n: built.append((x, n)) or orbit_segment(self, x, n))
    schedule = Schedule.geometric(300)
    omega_distance(CircleRotation(0.38197), 0.1, 0.45, schedule)
    assert built == [(0.1, 300), (0.45, 300)]
    # each point keeps its own clusters in either operand order, and the
    # ebar tail is ebar_estimate's, which orders the operands canonically
    log = LogisticMap(3.9)
    for x, y, clusters in ((0.2, 0.7, (4, 2)), (0.7, 0.2, (2, 4))):
        row = omega_distance(log, x, y, schedule, cluster_tol=0.02).observations[0]
        assert (row["clusters_x"], row["clusters_y"]) == clusters == tuple(
            len(omega_hat_estimate(log, p, schedule, 0.02).members) for p in (x, y))
        assert row["ebar_tail"] == ebar_estimate(log, x, y, schedule).tail_sup


def test_omega_hat_moves_slowly_along_an_orbit():
    # shifting the start by m steps changes the tail estimate by at most
    # diam*m/n_min plus the clustering slack
    rot = CircleRotation(GOLDEN)
    sched = Schedule.geometric(500)
    cluster_tol = 0.05
    m = 3
    x = 0.123
    y = (x + m * GOLDEN) % 1.0
    rho = hausdorff_measures(omega_hat_estimate(rot, x, sched, cluster_tol),
                             omega_hat_estimate(rot, y, sched, cluster_tol), rot)
    n_min = min(sched.tail_checkpoints)
    assert rho <= rot.diameter * m / n_min + cluster_tol + 1e-9


# ------------------------------------------------------- birkhoff profile

def test_birkhoff_constant_observable_has_no_spread():
    rep = birkhoff_profile(CircleRotation(GOLDEN), "one", 5,
                           Schedule.geometric(100), seed=3)
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.summary["final_spread"] == 0.0


def test_birkhoff_rotation_cos_converges_together():
    rep = birkhoff_profile(CircleRotation(GOLDEN), "cos2pi", 6,
                           Schedule.geometric(2000), seed=4)
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.summary["final_spread"] <= 0.02


def test_birkhoff_shift_symbol_frequency_splits():
    rep = birkhoff_profile(BinaryShift(), "symbol0", 4,
                           Schedule.geometric(200), seed=5)
    # the two fixed points alone force averages 0 and 1
    assert rep.summary["final_spread"] == 1.0
    assert rep.verdict == VERDICT_VIOLATED


def test_birkhoff_cylinder_observable_counts_prefix_hits():
    sh = BinaryShift()
    x = ShiftPoint.from_string("01", "01")
    seg = sh.orbit_segment(x, 8)
    vals = observable_values(sh, seg, "cyl:01")
    assert list(vals) == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]


def test_birkhoff_unknown_and_unsupported_observables():
    with pytest.raises(ValueError):
        birkhoff_profile(CircleRotation(GOLDEN), "sin", 3, Schedule.geometric(50))
    with pytest.raises(ValueError):
        birkhoff_profile(ProductSystem(CircleRotation(0.3), TentMap()),
                         "coordinate", 3, Schedule.geometric(50))
    with pytest.raises(ValueError):
        observable_values(BinaryShift(),
                          BinaryShift().orbit_segment(ShiftPoint.zeros(), 5),
                          "cyl:2x")


# --------------------------------------------------- mean equicontinuity

def test_mean_equicontinuity_rotation_statistic_below_delta():
    rep = mean_equicontinuity_diagnostic(CircleRotation(GOLDEN), 0.05, 10,
                                         Schedule.geometric(200), seed=4,
                                         threshold=0.06)
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.summary["max_statistic"] <= 0.05 + 1e-12


def test_mean_equicontinuity_shift_statistic_is_large():
    rep = mean_equicontinuity_diagnostic(BinaryShift(), 2 ** -10, 10,
                                         Schedule.geometric(300), seed=4)
    assert rep.summary["max_statistic"] >= 0.9
    assert rep.verdict == VERDICT_VIOLATED


def test_mean_equicontinuity_oversized_delta_is_inconclusive():
    rep = mean_equicontinuity_diagnostic(CircleRotation(GOLDEN), 2.0, 5,
                                         Schedule.geometric(50))
    assert rep.verdict == VERDICT_INCONCLUSIVE


def test_en_equicontinuity_rotation():
    rep = en_equicontinuity_diagnostic(CircleRotation(GOLDEN), 0.05, 10,
                                       [1, 10, 100], seed=5, threshold=0.06)
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.summary["max_ebar_n"] <= 0.05 + 1e-12


def test_en_equicontinuity_single_step_reduces_to_distance():
    rng = np.random.default_rng(6)
    rot = CircleRotation(GOLDEN)
    delta = 0.03
    rep = en_equicontinuity_diagnostic(rot, delta, 10, [1], seed=6)
    pairs = [sample_close_pair(rot, delta, np.random.default_rng(6))
             for _ in range(1)]
    assert rep.summary["max_ebar_n"] <= delta + 1e-12
    x, y = pairs[0]
    assert rot.dist(x, y) <= delta


# ------------------------------------------------------------- example31

def test_example31_default_blocks():
    rep = example31_report(Example31Config(n_blocks=6))
    assert rep.verdict == VERDICT_CONSISTENT
    assert [row["n"] for row in rep.observations] == [1, 3, 9, 33, 153, 873]
    assert all(row["bound_holds"] for row in rep.observations)
    assert rep.observations[-1]["lower_bound"] == pytest.approx(63 / 97, abs=1e-12)
    assert rep.summary["ebar_tail"] >= 0.64
    # both orbit measures lie 18/873 = 2/97 from the fixed-point segment
    assert rep.summary["rho_x_to_segment"] == pytest.approx(2 / 97, abs=1e-15)
    assert rep.summary["rho_y_to_segment"] == pytest.approx(2 / 97, abs=1e-15)


def test_example31_custom_block_rule():
    rep = example31_report(Example31Config(block_rule=(1, 2, 6), n_blocks=3))
    assert [row["n"] for row in rep.observations] == [1, 3, 9]
    bounds = [row["lower_bound"] for row in rep.observations]
    assert bounds[0] == 1.0
    assert bounds[1] == pytest.approx(1 / 3)
    assert bounds[2] == pytest.approx(1 / 3)
    assert all(row["bound_holds"] for row in rep.observations)


def test_example31_block_rule_must_be_integers():
    config = Example31Config(block_rule=(2.7, 3.9), n_blocks=2)
    with pytest.raises(ValueError, match="block length must be an integer"):
        config.lengths()
    with pytest.raises(ValueError, match="block length must be an integer"):
        example31_report(config)
    rep = example31_report(Example31Config(block_rule=tuple(np.array([1, 2, 6])),
                                               n_blocks=3))
    assert [row["n"] for row in rep.observations] == [1, 3, 9]
    for n_blocks in (True, 2.5, 0):
        with pytest.raises(ValueError, match="block count must be an integer"):
            example31_report(Example31Config(n_blocks=n_blocks))
        with pytest.raises(ValueError, match="block count must be an integer"):
            build_example31_point("U", "factorial", n_blocks)


def test_example31_seven_blocks_on_shift_tree():
    # 5,913 states: past the assignment cap, exact on the cylinder tree
    six = example31_report(Example31Config(n_blocks=6))
    rep = example31_report(Example31Config(n_blocks=7))
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.observations[-1]["n"] == 5913
    assert all(row["bound_holds"] for row in rep.observations)
    assert rep.summary["ebar_tail"] > six.summary["ebar_tail"]


def test_distance_to_fixed_segment_is_least_prokhorov_over_the_grid():
    # all 101 grid weights share one sort of the windows; each must give
    # exactly what a separate public prokhorov call gives
    for blocks in range(4, 8):
        config = Example31Config(n_blocks=blocks)
        system = BinaryShift(config.shift_horizon)
        ends = [(0,) * system.horizon, (1,) * system.horizon]
        for label in ("U", "V"):
            x = build_example31_point(label, config.block_rule, blocks)
            meas = empirical_measure(system.orbit_segment(x, sum(config.lengths())))
            # counted mixtures: float weights i / 100 are themselves inexact
            want = min(prokhorov(meas, DiscreteMeasure.from_counts(ends, [i, 100 - i]),
                                 system) for i in range(101))
            assert _distance_to_fixed_segment(meas, system, 0.01) == want, (blocks, label)


def test_example31_config_rejects_grid_step_outside_unit_interval():
    for step in (-0.5, 0.0, 3.0, float("nan")):
        with pytest.raises(ValueError, match="k_grid_step"):
            Example31Config(k_grid_step=step)
    assert Example31Config(k_grid_step=1.0).k_grid_step == 1.0


# ------------------------------------------------------------ reports

def test_violated_reports_carry_witnesses():
    rep = unique_ergodicity_diagnostic(BinaryShift(), 2, Schedule.geometric(50))
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.witnesses


def test_report_json_round_trip():
    rep = omega_distance(CircleRotation(GOLDEN), 0.2, 0.205, Schedule.geometric(100))
    payload = json.loads(rep.to_json())
    assert sorted(payload) == ["name", "observations", "parameters",
                               "summary", "verdict", "witnesses"]
    assert payload["verdict"] == rep.verdict
    assert payload["observations"] == rep.observations


def test_report_csv_header_matches_rows():
    rep = omega_distance(CircleRotation(GOLDEN), 0.2, 0.205, Schedule.geometric(100))
    lines = rep.to_csv().strip().splitlines()
    header = lines[0].split(",")
    assert header == list(rep.observations[0].keys())
    assert len(lines) == 1 + len(rep.observations)


def test_diagnostics_are_deterministic_for_a_seed():
    a = continuity_modulus(CircleRotation(GOLDEN), 0.05, 10,
                           Schedule.geometric(100), seed=9)
    b = continuity_modulus(CircleRotation(GOLDEN), 0.05, 10,
                           Schedule.geometric(100), seed=9)
    assert a.to_json() == b.to_json()


def test_sample_close_pair_respects_delta():
    rng = np.random.default_rng(7)
    for system in (CircleRotation(GOLDEN), BinaryShift(), TentMap()):
        for _ in range(20):
            x, y = sample_close_pair(system, 0.05, rng)
            assert system.dist(x, y) <= 0.05
    # dyadic deltas and their one-ulp neighbours on the shift; the curated
    # pair sits at the largest dyadic distance within delta
    shift = BinaryShift()
    for k in range(0, 12):
        for delta in (2.0 ** -k, np.nextafter(2.0 ** -k, 0), np.nextafter(2.0 ** -k, 1)):
            x, y = sample_close_pair(shift, delta, rng)
            assert shift.dist(x, y) < delta
            ((zeros, probe),) = _curated_close_pairs(shift, delta)
            assert shift.dist(zeros, probe) == max(2.0 ** -j for j in range(1, 30)
                                                   if 2.0 ** -j <= delta)


def test_sample_close_pair_rejects_non_positive_delta():
    # no pair lies at distance < delta <= 0, so every geometry rejects it up front
    systems = (CircleRotation(GOLDEN), TentMap(), BinaryShift(),
               ProductSystem(CircleRotation(GOLDEN), TentMap()))
    for system in systems:
        for delta in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="delta"):
                sample_close_pair(system, delta, np.random.default_rng(7))
