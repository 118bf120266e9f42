import itertools
from fractions import Fraction

import numpy as np
import pytest

from orbitmetric import (
    BinaryShift,
    CircleRotation,
    DoublingMap,
    LogisticMap,
    ProductSystem,
    Schedule,
    ShiftPoint,
    SizeLimitError,
    besicovitch_estimate,
    besicovitch_n,
    delta_n,
    ebar_estimate,
    ebar_n,
    empirical_measure,
    etilde_estimate,
    max_matching_under_threshold,
    min_cost_assignment,
    sample_point,
    sandwich_check,
    wasserstein1,
    wasserstein1_fast_1d,
    weyl_profile,
)
from orbitmetric import matching, measures, pseudometrics, systems
from orbitmetric.measures import _cylinder_order
from orbitmetric.pseudometrics import ASSIGNMENT_CAP, THRESHOLD_CAP, _prefix_sorts
from orbitmetric.systems import TentMap, aligned_distances, cost_matrix

GOLDEN = 0.6180339887498949


# ------------------------------------------------------------------ ebar

def test_ebar_distinct_fixed_points_stay_apart():
    sh = BinaryShift()
    for n in (1, 7, 64):
        assert ebar_n(sh, ShiftPoint.zeros(), ShiftPoint.ones(), n) == 1.0


def test_ebar_vanishes_on_equal_points():
    rot = CircleRotation(GOLDEN)
    for n in (1, 10, 100):
        assert ebar_n(rot, 0.3, 0.3, n) == pytest.approx(0.0, abs=1e-12)


def test_ebar_rotation_bounded_by_initial_gap():
    # rotations are isometries, so matching i -> i already achieves d(x, y)
    rot = CircleRotation(GOLDEN)
    for n in (5, 50, 500):
        assert ebar_n(rot, 0.0, 0.1, n) <= 0.1 + 1e-12


def test_ebar_methods_agree(assignment_ebar):
    rng = np.random.default_rng(31)
    dbl = DoublingMap()
    for _ in range(10):
        x, y = sample_point(dbl, rng), sample_point(dbl, rng)
        n = int(rng.integers(2, 40))
        fast = ebar_n(dbl, x, y, n)
        slow = assignment_ebar(dbl, x, y, n)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_ebar_shift_tree_matches_assignment(assignment_ebar):
    # window distances are dyadic, so both routes are float-exact and must
    # agree to the bit, not just to tolerance
    rng = np.random.default_rng(92)
    sh = BinaryShift()
    for _ in range(25):
        x, y = sample_point(sh, rng), sample_point(sh, rng)
        n = int(rng.integers(1, 90))
        assert ebar_n(sh, x, y, n) == assignment_ebar(sh, x, y, n)
    x = ShiftPoint.from_string("", "011")
    y = ShiftPoint.from_string("", "110")
    # same orbit one step apart: the matching bound m*diam/n is attained
    assert ebar_n(sh, x, y, 200) == 1.0 / 200
    assert assignment_ebar(sh, x, y, 200) == 1.0 / 200
    # periodic points: few distinct windows, so most levels of the cylinder
    # tree repeat the cylinders of the level above
    x = ShiftPoint.from_string("1", "0010111")
    y = ShiftPoint.from_string("", "01101")
    sched = Schedule.geometric(300)
    for n, value in zip(sched.checkpoints, ebar_estimate(sh, x, y, sched).values):
        assert value == assignment_ebar(sh, x, y, n)


def test_ebar_estimate_tracks_checkpoints():
    sh = BinaryShift()
    est = ebar_estimate(sh, ShiftPoint.zeros(), ShiftPoint.ones(), Schedule((5, 10, 20), 1))
    assert est.values == (1.0, 1.0, 1.0)
    assert est.tail_sup == 1.0
    assert est.tail_last == 1.0
    rng = np.random.default_rng(93)
    sched = Schedule((3, 17, 64), 1)
    for _ in range(5):
        x, y = sample_point(sh, rng), sample_point(sh, rng)
        est = ebar_estimate(sh, x, y, sched)
        assert list(est.values) == [ebar_n(sh, x, y, n) for n in sched.checkpoints]


def test_ebar_checkpoints_match_independent_oracle(assignment_ebar):
    # one sort at the largest checkpoint must give what a fresh
    # computation on each prefix gives: exact assignment for small n, the
    # closed-form (1-d) or LP (shift) transport between prefix empiricals above
    rng = np.random.default_rng(94)
    cases = [
        (CircleRotation(0.5), 0.25, 0.75),
        (CircleRotation(0.5), 0.0, 0.5),
        (CircleRotation(GOLDEN), 0.3, 0.3),
        (LogisticMap(4.0), 0.0, float(rng.random())),
        (LogisticMap(3.9), 0.4, 0.4),
        (LogisticMap(3.9), float(rng.random()), float(rng.random())),
        (BinaryShift(), ShiftPoint.from_string("", "011"), ShiftPoint.from_string("1", "01")),
        (BinaryShift(8), ShiftPoint.from_string("0", "0010"), ShiftPoint.from_string("", "1")),
        # short horizons on periodic points: windows repeat, so the rows that
        # each smaller checkpoint drops sit between equal windows
        (BinaryShift(3), ShiftPoint.from_string("", "01"), ShiftPoint.from_string("1", "001")),
        (BinaryShift(3), ShiftPoint.from_string("0", "0111"), ShiftPoint.from_string("", "011")),
        (BinaryShift(5), ShiftPoint.from_string("", "00101"), ShiftPoint.from_string("11", "01")),
        (BinaryShift(5), ShiftPoint.from_string("", "0110"), ShiftPoint.from_string("", "0110")),
    ]
    for system, x, y in cases:
        sched = Schedule.geometric(400 if system.geometry == "shift" else 3000)
        est = ebar_estimate(system, x, y, sched)
        for n, value in zip(sched.checkpoints, est.values):
            if n <= 60:
                want = assignment_ebar(system, x, y, n)
            else:
                mu = empirical_measure(system.orbit_segment(x, n))
                nu = empirical_measure(system.orbit_segment(y, n))
                want = (wasserstein1(mu, nu, system) if system.geometry == "shift"
                        else wasserstein1_fast_1d(mu, nu, system.geometry))
            assert abs(value - want) <= 1e-12, (system, x, y, n)
            assert ebar_n(system, x, y, n) == value


def _exact_ebar_1d(system, x, y, n) -> Fraction:
    """ebar_n on the line or circle in exact rational arithmetic: W1 between
    the two n-point empiricals of the float orbit states, each state read as
    the dyadic rational it is, over their common denominator."""
    states = [Fraction(float(s)) for seg in (system.orbit_segment(x, n),
                                              system.orbit_segment(y, n))
              for s in seg.data]
    den = max(s.denominator for s in states)
    pts = sorted((int(s * den), 1 if i < n else -1) for i, s in enumerate(states))
    gaps = [b[0] - a[0] for a, b in zip(pts, pts[1:])]
    cdf = list(itertools.accumulate(sign for _, sign in pts))
    if system.geometry == "line":
        total = sum(abs(c) * gap for c, gap in zip(cdf, gaps))
    else:
        gaps.append(den - pts[-1][0] + pts[0][0])  # the wrap arc
        total = min(sum(abs(c - shift) * gap for c, gap in zip(cdf, gaps))
                    for shift in {c for c, gap in zip(cdf, gaps) if gap})
    return Fraction(total, den * n)


@pytest.mark.parametrize("system, x, y", [
    (LogisticMap(3.9), 0.123, 0.456),
    (LogisticMap(4.0), 0.3, 0.7),
    # float orbits of these maps reach 0 and stay there: heavy ties
    (DoublingMap(), 0.3, 0.7),
    (TentMap(), 0.1, 0.65),
    (CircleRotation(GOLDEN), 0.05, 0.55),
    # alpha = 1/2 repeats two states on each orbit
    (CircleRotation(0.5), 0.1, 0.35),
    (CircleRotation(0.5), 0.2, 0.7),
])
def test_ebar_1d_matches_exact_rational_oracle(system, x, y):
    # the CDF difference is summed in integers and scaled once, so every
    # checkpoint is within a few ulps of the exact value, ties included
    sched = Schedule.geometric(1500)
    est = ebar_estimate(system, x, y, sched)
    for n, value in zip(sched.checkpoints, est.values):
        exact = _exact_ebar_1d(system, x, y, n)
        assert abs(Fraction(value) - exact) <= 4 * 2.0 ** -52 * exact, (n, value)


def _random_shift_point(rng):
    return ShiftPoint(tuple(rng.integers(0, 2, 40).tolist()), (0, 1, 1))


@pytest.mark.parametrize("system, points", [
    (LogisticMap(3.9), lambda rng: (0.123, 0.456)),
    # float tent orbits reach 0 and stay there: most rows tie
    (TentMap(), lambda rng: (0.1, 0.65)),
    # alpha = 0 keeps each orbit on its start, so every state is tied
    (CircleRotation(0.0), lambda rng: (0.25, 0.25)),
    (CircleRotation(0.0), lambda rng: (0.25, 0.75)),
    (CircleRotation(GOLDEN), lambda rng: (0.05, 0.55)),
    *[(BinaryShift(k), lambda rng: (_random_shift_point(rng), _random_shift_point(rng)))
      for k in (1, 3, 30)],
], ids=["logistic", "tent", "rotation0-equal", "rotation0", "golden",
        "shift1", "shift3", "shift30"])
@pytest.mark.parametrize("cps", [
    (1, 64),
    (1, 2, 3, 40, 99, 100),
    (7, 299, 300),
    Schedule.geometric(50_000).checkpoints,
], ids=["1-N", "1-to-N", "N-1-N", "geometric"])
def test_prefix_sorts_keep_the_full_sort_rows_below_each_checkpoint(system, points, cps):
    # the reference masks the one full sort afresh at each checkpoint: the
    # rows whose time index is below n, in the order of the full sort
    N = cps[-1]
    x, y = points(np.random.default_rng(N))
    seg_x, seg_y = system.orbit_segment(x, N), system.orbit_segment(y, N)
    if system.geometry == "shift":
        windows = np.concatenate([system._view(seg_x), system._view(seg_y)])
        order = _cylinder_order(windows)[0]
    else:
        states = np.concatenate([seg_x.data, seg_y.data])
        order = np.argsort(states)
    got = list(_prefix_sorts(system, seg_x, seg_y, cps))
    assert [n for n, _, _ in got] == list(reversed(cps))
    for n, signs, key in got:
        kept = order % N < n
        assert np.array_equal(signs, np.where(order < N, 1, -1)[kept]), n
        if system.geometry == "shift":
            differ = np.diff(windows[order[kept]], axis=0) != 0
            want = np.where(differ.any(axis=1), differ.argmax(axis=1), system.horizon)
        else:
            want = states[order[kept]]
        assert np.array_equal(key, want), n


def test_ebar_shifted_start_fades_linearly():
    # y on the same orbit m steps ahead costs at most m*diam/n
    rot = CircleRotation(GOLDEN)
    m = 3
    y = (m * GOLDEN) % 1.0
    for n in (10, 100, 1000):
        assert ebar_n(rot, 0.0, y, n) <= m * rot.diameter / n + 1e-12


def test_ebar_assignment_size_guard():
    # products have no closed form, so their exact assignment is capped
    prod = ProductSystem(CircleRotation(GOLDEN), TentMap())
    x, y = (0.1, 0.2), (0.3, 0.4)
    with pytest.raises(SizeLimitError):
        ebar_n(prod, x, y, 2001)
    with pytest.raises(SizeLimitError):
        ebar_estimate(prod, x, y, Schedule.geometric(2001))


def test_ebar_symmetry_exact():
    rng = np.random.default_rng(32)
    pool = [CircleRotation(GOLDEN), BinaryShift(),
            ProductSystem(CircleRotation(0.3), TentMap())]
    for system in pool:
        for _ in range(5):
            x, y = sample_point(system, rng), sample_point(system, rng)
            n = int(rng.integers(1, 30))
            assert ebar_n(system, x, y, n) == ebar_n(system, y, x, n)


def test_ebar_triangle_inequality():
    rng = np.random.default_rng(33)
    dbl = DoublingMap()
    for _ in range(30):
        x, y, z = (sample_point(dbl, rng) for _ in range(3))
        n = int(rng.integers(2, 25))
        dxy = ebar_n(dbl, x, y, n)
        dyz = ebar_n(dbl, y, z, n)
        dxz = ebar_n(dbl, x, z, n)
        assert dxz <= dxy + dyz + 1e-9


# ---------------------------------------------------------- besicovitch

def test_besicovitch_rotation_preserves_gap():
    rot = CircleRotation(GOLDEN)
    assert besicovitch_n(rot, 0.0, 0.1, 1000) == pytest.approx(0.1, abs=1e-12)


def test_besicovitch_eventually_opposite_tail():
    # ten leading zero agreements then symbols disagree forever
    sh = BinaryShift()
    y = ShiftPoint.from_string("0000000000", "1")
    got = besicovitch_n(sh, ShiftPoint.zeros(), y, 500)
    assert got == 0.981998046875


def test_besicovitch_estimate_dominates_ebar():
    rng = np.random.default_rng(34)
    sched = Schedule.geometric(200)
    for system in (CircleRotation(0.3), DoublingMap(), BinaryShift()):
        for _ in range(5):
            x, y = sample_point(system, rng), sample_point(system, rng)
            e = ebar_estimate(system, x, y, sched)
            b = besicovitch_estimate(system, x, y, sched)
            assert all(ev <= bv + 1e-9 for ev, bv in zip(e.values, b.values))


# ----------------------------------------------------------------- weyl

def test_weyl_prefix_window_reproduces_besicovitch():
    sh = BinaryShift()
    y = ShiftPoint.from_string("0000000000", "1")
    prof = weyl_profile(sh, ShiftPoint.zeros(), y, 500, (500,))
    assert prof.sup_window_avg[500] == pytest.approx(
        besicovitch_n(sh, ShiftPoint.zeros(), y, 500), abs=1e-12)


def test_weyl_interior_window_sees_the_bad_stretch():
    # a window inside the all-disagree tail averages exactly 1
    sh = BinaryShift()
    y = ShiftPoint.from_string("0000000000", "1")
    prof = weyl_profile(sh, ShiftPoint.zeros(), y, 500, (100,))
    assert prof.sup_window_avg[100] == pytest.approx(1.0, abs=1e-12)


def test_weyl_dominates_besicovitch_at_each_length():
    rng = np.random.default_rng(35)
    dbl = DoublingMap()
    for _ in range(10):
        x, y = sample_point(dbl, rng), sample_point(dbl, rng)
        prof = weyl_profile(dbl, x, y, 300, (50, 150, 300))
        for l in (50, 150, 300):
            assert prof.sup_window_avg[l] >= besicovitch_n(dbl, x, y, l) - 1e-12


def test_weyl_window_validation():
    rot = CircleRotation(0.3)
    with pytest.raises(ValueError):
        weyl_profile(rot, 0.0, 0.5, 100, (200,))
    with pytest.raises(ValueError):
        weyl_profile(rot, 0.0, 0.5, 100, ())
    with pytest.raises(ValueError):
        weyl_profile(rot, 0.0, 0.5, 100, (0,))


@pytest.mark.parametrize("call", [
    lambda s, x, y, n: ebar_n(s, x, y, n),
    lambda s, x, y, n: besicovitch_n(s, x, y, n),
    lambda s, x, y, n: delta_n(s, x, y, n, 0.1),
    lambda s, x, y, n: sandwich_check(s, x, y, n, 0.1),
    lambda s, x, y, n: weyl_profile(s, x, y, n, (1,)),
    lambda s, x, y, n: weyl_profile(s, x, y, 10, (n,)),
], ids=["ebar_n", "besicovitch_n", "delta_n", "sandwich_check",
        "weyl_horizon", "weyl_window"])
def test_orbit_lengths_must_be_integers(call):
    rot = CircleRotation(0.3)
    for n in (2.5, 2.7, 3.0, True, "7"):
        with pytest.raises(ValueError, match="must be an integer"):
            call(rot, 0.1, 0.2, n)
    call(rot, 0.1, 0.2, np.int64(3))
    # the integer rule comes before the size caps: 3000.0 exceeds ASSIGNMENT_CAP
    prod = ProductSystem(rot, TentMap())
    for n in (3000.0, "7"):
        with pytest.raises(ValueError, match="must be an integer"):
            call(prod, (0.1, 0.2), (0.3, 0.4), n)
    call(prod, (0.1, 0.2), (0.3, 0.4), np.int64(3))


# -------------------------------------------------------------- delta_n

def test_delta_equal_points_is_zero():
    rot = CircleRotation(GOLDEN)
    assert delta_n(rot, 0.25, 0.25, 50, 0.1) == 0


def test_delta_fixed_points_fully_exceed():
    sh = BinaryShift()
    for n in (1, 5, 12):
        assert delta_n(sh, ShiftPoint.zeros(), ShiftPoint.ones(), n, 0.5) == n


def _delta_brute(C: np.ndarray, delta: float) -> int:
    n = C.shape[0]
    best = n
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(1 for i in range(n) if C[i, perm[i]] > delta))
    return best


def test_delta_matches_min_exceedance_over_permutations():
    # the line greedy on generic (logistic) and tie-heavy (doubling, tent)
    # orbits, the shift's cylinder count and the circle's arc rule
    rng = np.random.default_rng(36)
    for system in (DoublingMap(), LogisticMap(4.0), TentMap(), BinaryShift(4),
                   BinaryShift(), CircleRotation(GOLDEN)):
        for _ in range(15):
            x, y = sample_point(system, rng), sample_point(system, rng)
            n = int(rng.integers(1, 8))
            C = cost_matrix(system.orbit_segment(x, n), system.orbit_segment(y, n))
            for delta in (0.0, 0.25, 0.5, float(rng.uniform(0.05, 0.6))):
                assert delta_n(system, x, y, n, delta) == _delta_brute(C.entries, delta)


def _delta_matching(system, x, y, n, delta):
    """Delta_n's matrix oracle: n minus the maximum threshold matching."""
    C = cost_matrix(system.orbit_segment(x, n), system.orbit_segment(y, n))
    return n - max_matching_under_threshold(C, delta)


def test_delta_line_greedy_matches_threshold_matching():
    # float tent and doubling orbits collapse onto 0, so their states tie;
    # thresholds equal to pairwise distances sit on the rounding boundary
    rng = np.random.default_rng(41)
    for system in (LogisticMap(4.0), TentMap(), DoublingMap()):
        for _ in range(12):
            x = sample_point(system, rng)
            y = min(1.0, x + 0.05 * float(rng.random())) if rng.random() < 0.5 \
                else sample_point(system, rng)
            n = int(rng.integers(1, 301))
            C = cost_matrix(system.orbit_segment(x, n), system.orbit_segment(y, n)).entries
            edges = C[rng.integers(0, n, 4), rng.integers(0, n, 4)]
            on_edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1)])
            for delta in (0.0, 0.25, 0.5, float(rng.random()),
                          2.0 ** -int(rng.integers(1, 12)), *on_edges.tolist()):
                got = delta_n(system, x, y, n, delta)
                assert type(got) is int
                assert got == n - max_matching_under_threshold(C, delta), (x, y, n, delta)


def test_delta_shift_cylinders_match_threshold_matching():
    rng = np.random.default_rng(42)
    for K in (3, 4, 7, 12, 30):
        sh = BinaryShift(K)
        pairs = [(sample_point(sh, rng), sample_point(sh, rng)) for _ in range(6)]
        pairs.append((ShiftPoint.from_string("", "011"), ShiftPoint.from_string("", "110")))
        for x, y in pairs:
            n = int(rng.integers(1, 200))
            dyadic = 2.0 ** -int(rng.integers(1, K + 1))
            # on, one ulp either side of and off the dyadic grid, 0, and at or
            # above the diameter
            for delta in (0.0, 2.0 ** -K, dyadic, float(rng.random()), 0.3, 1.0, 1.5,
                          *(np.nextafter(d, side) for d in (2.0 ** -K, dyadic, 0.5, 1.0)
                            for side in (0, 1))):
                got = delta_n(sh, x, y, n, delta)
                assert type(got) is int
                assert got == _delta_matching(sh, x, y, n, delta), (K, n, delta)


def test_delta_nonincreasing_in_delta():
    rng = np.random.default_rng(37)
    dbl = DoublingMap()
    x, y = sample_point(dbl, rng), sample_point(dbl, rng)
    vals = [delta_n(dbl, x, y, 30, d) for d in np.linspace(0.01, 0.9, 8)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_delta_rejects_negative_threshold():
    rot = CircleRotation(0.3)
    for delta in (-0.2, float("nan")):
        with pytest.raises(ValueError):
            delta_n(rot, 0.0, 0.5, 10, delta)
    # delta * Delta_n is not a number at delta = inf, where Delta_n is 0
    assert delta_n(rot, 0.0, 0.5, 10, float("inf")) == 0
    for delta in (-0.2, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sandwich_check(rot, 0.0, 0.5, 10, delta)


def test_delta_dense_size_guard():
    # the circle's and the products' rules read a dense distance matrix
    rot = CircleRotation(GOLDEN)
    prod = ProductSystem(rot, DoublingMap())
    with pytest.raises(SizeLimitError):
        delta_n(rot, 0.1, 0.6, 4097, 0.05)
    with pytest.raises(SizeLimitError):
        etilde_estimate(rot, 0.1, 0.6, Schedule((4097,), 0), [0.1])
    with pytest.raises(SizeLimitError):
        delta_n(prod, (0.1, 0.2), (0.6, 0.7), 4097, 0.05)


def test_delta_line_and_shift_have_no_size_limit():
    # past the matrix cap; the identity matching bounds Delta_n from above
    n = 5000
    for system, x, y, delta in (
            (LogisticMap(4.0), 0.2, 0.3, 0.1),
            (BinaryShift(), ShiftPoint.zeros(), ShiftPoint.ones(), 0.5),
            (BinaryShift(), ShiftPoint.from_string("", "0110101"),
             ShiftPoint.from_string("", "1101"), 2.0 ** -3)):
        got = delta_n(system, x, y, n, delta)
        seg_x, seg_y = system.orbit_segment(x, n), system.orbit_segment(y, n)
        aligned = int((aligned_distances(system, seg_x, seg_y) > delta).sum())
        assert type(got) is int and 0 <= got <= aligned
    assert delta_n(BinaryShift(), ShiftPoint.zeros(), ShiftPoint.ones(), n, 0.5) == n


# --------------------------------------------------------------- etilde

def test_etilde_equal_points_take_first_grid_value():
    rot = CircleRotation(GOLDEN)
    est = etilde_estimate(rot, 0.4, 0.4, Schedule((10, 20), 0), [0.01, 0.02, 0.05])
    assert est.qualified
    assert est.value == 0.01


def test_etilde_fixed_points_exhaust_short_grid():
    # every epsilon < 1 sees full exceedance, so the top of the grid fails
    sh = BinaryShift()
    grid = [0.1 * k for k in range(1, 10)]
    est = etilde_estimate(sh, ShiftPoint.zeros(), ShiftPoint.ones(), Schedule((8,), 0), grid)
    assert not est.qualified
    assert est.value == pytest.approx(0.9)


def test_etilde_fixed_points_qualify_at_diameter():
    sh = BinaryShift()
    grid = [0.25, 0.5, 0.75, 1.0]
    est = etilde_estimate(sh, ShiftPoint.zeros(), ShiftPoint.ones(), Schedule((8,), 0), grid)
    assert est.qualified
    assert est.value == 1.0


def test_etilde_rotation_close_pair_lands_near_gap():
    rot = CircleRotation(GOLDEN)
    grid = [round(0.01 * k, 2) for k in range(1, 11)]
    est = etilde_estimate(rot, 0.0, 0.05, Schedule.geometric(200), grid)
    assert est.qualified
    assert est.value <= 0.06 + 1e-12
    assert est.precision == pytest.approx(0.01)


def test_etilde_line_and_shift_match_matrix_route():
    # every tail checkpoint re-evaluated on its own cost matrix, grid scanned
    # from the bottom
    rng = np.random.default_rng(43)
    grid = [k / 20 for k in range(1, 21)]
    for system in (LogisticMap(4.0), TentMap(), DoublingMap(), BinaryShift(5), BinaryShift()):
        for _ in range(4):
            x, y = sample_point(system, rng), sample_point(system, rng)
            sched = Schedule.geometric(int(rng.integers(2, 150)))
            est = etilde_estimate(system, x, y, sched, grid)
            want = next((e for e in grid if max(
                _delta_matching(system, x, y, n, e) / n
                for n in sched.tail_checkpoints) < e), None)
            assert (est.value, est.qualified) == (
                (want, True) if want is not None else (grid[-1], False))


def _on_and_beside(values):
    """Each value and its neighbouring floats on either side."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -1), np.nextafter(values, 2)]).tolist()


CIRCLE_ORACLE_ALPHAS = (0.0, 0.5, 0.25, 1 / 3, GOLDEN)


def test_delta_circle_matches_threshold_matching(monkeypatch):
    # the arc rule against its oracle, with no probe left to the flow it
    # falls back to; rational angles repeat their states, so distances tie,
    # and thresholds at pairwise distances sit on the rounding boundary
    flow_unsent, fallbacks = measures._flow_unsent, []

    def counted_flow(*args):
        flow = flow_unsent(*args)
        return lambda t: fallbacks.append(t) or flow(t)
    monkeypatch.setattr(measures, "_flow_unsent", counted_flow)
    rng = np.random.default_rng(45)
    for alpha in CIRCLE_ORACLE_ALPHAS:
        rot = CircleRotation(alpha)
        for x, y in ((float(rng.random()), float(rng.random())),
                     (float(rng.random()), float(rng.random())),
                     (Fraction(1, 7), Fraction(3, 5)), (Fraction(1, 8), Fraction(5, 8))):
            for n in (1, 6, 40, 180):
                D = cost_matrix(rot.orbit_segment(x, n), rot.orbit_segment(y, n)).entries
                edges = np.unique(D)
                edges = edges[rng.choice(len(edges), min(len(edges), 16), replace=False)]
                for delta in (0.0, 0.5, *_on_and_beside(edges)):
                    if delta < 0:
                        continue
                    got = delta_n(rot, x, y, n, delta)
                    assert type(got) is int
                    assert got == n - max_matching_under_threshold(D, delta), (
                        alpha, x, y, n, delta)
    assert not fallbacks


def test_etilde_circle_matches_threshold_matching():
    rng = np.random.default_rng(46)
    grid = [k / 40 for k in range(1, 21)]
    for alpha in CIRCLE_ORACLE_ALPHAS:
        rot = CircleRotation(alpha)
        for x, y in ((float(rng.random()), float(rng.random())),
                     (Fraction(2, 9), Fraction(1, 2))):
            sched = Schedule.geometric(int(rng.integers(2, 200)))
            want = next((e for e in grid if max(
                _delta_matching(rot, x, y, n, e) / n for n in sched.tail_checkpoints) < e), None)
            est = etilde_estimate(rot, x, y, sched, grid)
            assert (est.value, est.qualified) == (
                (want, True) if want is not None else (grid[-1], False)), (alpha, x, y)


def test_delta_products_match_threshold_matching():
    # the products' integer max flow against its oracle, past the
    # brute-force sizes
    rng = np.random.default_rng(47)
    for prod in (ProductSystem(TentMap(), BinaryShift(6)),
                 ProductSystem(CircleRotation(GOLDEN), TentMap())):
        for _ in range(4):
            x, y = sample_point(prod, rng), sample_point(prod, rng)
            n = int(rng.integers(50, 301))
            C = cost_matrix(prod.orbit_segment(x, n), prod.orbit_segment(y, n)).entries
            edges = C[rng.integers(0, n, 8), rng.integers(0, n, 8)]
            for delta in (0.0, 0.25, float(rng.random()), *_on_and_beside(edges)):
                if delta < 0:
                    continue
                got = delta_n(prod, x, y, n, delta)
                assert type(got) is int
                assert got == n - max_matching_under_threshold(C, delta), (x, y, n, delta)


def _spy_threshold_work(monkeypatch):
    """Record the checkpoints of each _prefix_sorts pass (ebar's sort), the
    length of each deficiency rule built for Delta_n, the length of each
    cost matrix built and every threshold matching run."""
    work = {"sorts": [], "rules": [], "matrices": [], "matchings": []}
    prefix_sorts, unsent = pseudometrics._prefix_sorts, pseudometrics._unsent
    build, match = systems.cost_matrix, matching.max_matching_under_threshold

    def spy_sorts(system, seg_x, seg_y, checkpoints):
        work["sorts"].append(tuple(checkpoints))
        return prefix_sorts(system, seg_x, seg_y, checkpoints)

    def spy_unsent(system, sa, wa, sb, wb, D=None):
        work["rules"].append(len(wa))
        return unsent(system, sa, wa, sb, wb, D)

    def spy_build(seg_x, seg_y):
        work["matrices"].append(seg_x.length)
        return build(seg_x, seg_y)

    def spy_match(cost, delta):
        work["matchings"].append(delta)
        return match(cost, delta)
    monkeypatch.setattr(pseudometrics, "_prefix_sorts", spy_sorts)
    monkeypatch.setattr(pseudometrics, "_unsent", spy_unsent)
    monkeypatch.setattr(systems, "cost_matrix", spy_build)
    monkeypatch.setattr(matching, "max_matching_under_threshold", spy_match)
    return work


def test_threshold_calls_run_the_deficiency_rule_alone(monkeypatch):
    # Delta_n builds one deficiency rule per checkpoint it needs, never a
    # cost matrix or a threshold matching; a sandwich's cost matrix and sort
    # are ebar's.  Etilde stops at the first checkpoint that fails, and
    # reuses each rule over its grid
    work = _spy_threshold_work(monkeypatch)
    n = 150
    rot = CircleRotation(GOLDEN)
    sched = Schedule((40, 90, n), 0)
    grid = [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
    for system, x, y, delta in (
            (LogisticMap(4.0), 0.2, 0.7, 0.05),
            (TentMap(), 0.2, 0.7, 0.05),
            (BinaryShift(8), ShiftPoint.from_string("", "0110"),
             ShiftPoint.from_string("", "01"), 0.1),
            # rotation keeps every aligned distance at d(x, y) = 0.4
            (rot, 0.1, 0.5, 0.05),
            (ProductSystem(rot, TentMap()), (0.1, 0.2), (0.5, 0.7), 0.05)):
        product = system.geometry == systems.GEOMETRY_PRODUCT
        for call, sorts, rules, matrices in (
                (lambda: delta_n(system, x, y, n, delta), [], [n], []),
                (lambda: etilde_estimate(system, x, y, sched, grid), [], None, []),
                (lambda: sandwich_check(system, x, y, n, delta),
                 [] if product else [(n,)], [n], [n] if product else [])):
            for key in work:
                work[key].clear()
            call()
            if rules is None:  # each checkpoint's rule built once at most
                rules = work["rules"]
                assert rules and len(set(rules)) == len(rules)
                assert set(rules) <= set(sched.checkpoints)
            assert work == {"sorts": sorts, "rules": rules, "matrices": matrices,
                            "matchings": []}, system.kind


def test_delta_answered_by_aligned_pairs_sorts_nothing(monkeypatch):
    work = _spy_threshold_work(monkeypatch)
    sort = np.sort
    monkeypatch.setattr(np, "sort", lambda *args, **kwargs: work["sorts"].append(1) or sort(
        *args, **kwargs))
    for system, x, y in (
            (LogisticMap(4.0), 0.2, 0.7),
            (CircleRotation(GOLDEN), 0.1, 0.5),
            (BinaryShift(8), ShiftPoint.from_string("", "0110"), ShiftPoint.from_string("", "01")),
            (ProductSystem(CircleRotation(GOLDEN), TentMap()), (0.1, 0.2), (0.5, 0.7))):
        assert delta_n(system, x, y, 200, system.diameter) == 0
    assert work == {"sorts": [], "rules": [], "matrices": [], "matchings": []}


def test_caps_refuse_before_any_orbit_is_built(monkeypatch):
    # the integer rule first, then the cap, then the orbits
    built = []
    orbit_segment = systems.System.orbit_segment
    monkeypatch.setattr(systems.System, "orbit_segment",
                        lambda self, x, n: built.append(n) or orbit_segment(self, x, n))
    rot = CircleRotation(GOLDEN)
    prod = ProductSystem(rot, TentMap())
    px, py = (0.1, 0.2), (0.5, 0.7)
    above_assignment, above_threshold = ASSIGNMENT_CAP + 1, THRESHOLD_CAP + 1
    for call in (lambda: ebar_n(prod, px, py, above_assignment),
                 lambda: ebar_estimate(prod, px, py, Schedule.geometric(above_assignment)),
                 lambda: sandwich_check(prod, px, py, above_assignment, 0.05),
                 lambda: sandwich_check(rot, 0.1, 0.6, above_threshold, 0.05),
                 lambda: delta_n(rot, 0.1, 0.6, above_threshold, 0.05),
                 lambda: delta_n(prod, px, py, above_threshold, 0.05),
                 lambda: etilde_estimate(rot, 0.1, 0.6, Schedule((above_threshold,), 0), [0.1]),
                 lambda: etilde_estimate(prod, px, py, Schedule((above_threshold,), 0), [0.1])):
        with pytest.raises(SizeLimitError):
            call()
    for call in (lambda: ebar_n(prod, px, py, 3000.0),
                 lambda: delta_n(rot, 0.1, 0.6, 5000.0, 0.05),
                 lambda: sandwich_check(prod, px, py, 3000.0, 0.05)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    assert built == []


def test_etilde_grid_validation():
    rot = CircleRotation(0.3)
    sched = Schedule((10,), 0)
    with pytest.raises(ValueError):
        etilde_estimate(rot, 0.0, 0.1, sched, [])
    with pytest.raises(ValueError):
        etilde_estimate(rot, 0.0, 0.1, sched, [0.2, 0.1])
    with pytest.raises(ValueError):
        etilde_estimate(rot, 0.0, 0.1, sched, [0.0, 0.1])
    with pytest.raises(ValueError):
        etilde_estimate(rot, 0.0, 0.1, sched, [0.1, 0.9])  # above circle diameter
    for grid in ([float("nan")], [0.1, float("nan"), 0.3]):
        with pytest.raises(ValueError):
            etilde_estimate(rot, 0.0, 0.1, sched, grid)


# ------------------------------------------------------------- sandwich

def test_sandwich_equal_points_degenerate():
    rot = CircleRotation(GOLDEN)
    rep = sandwich_check(rot, 0.2, 0.2, 10, 0.1)
    assert rep.holds
    assert rep.lhs == 0.0
    assert rep.mid == pytest.approx(0.0, abs=1e-12)


def test_sandwich_fixed_points_tight():
    sh = BinaryShift()
    rep = sandwich_check(sh, ShiftPoint.zeros(), ShiftPoint.ones(), 10, 0.5)
    assert rep.holds
    assert rep.lhs == pytest.approx(5.0)
    assert rep.mid == pytest.approx(10.0)
    assert rep.rhs == pytest.approx(10.0)


def test_sandwich_mid_is_the_assignment_total():
    rng = np.random.default_rng(44)
    for system in (LogisticMap(4.0), TentMap(), CircleRotation(GOLDEN), BinaryShift(6),
                   BinaryShift()):
        for _ in range(8):
            x, y = sample_point(system, rng), sample_point(system, rng)
            n = int(rng.integers(1, 250))
            delta = float(rng.uniform(0.0, 0.6))
            rep = sandwich_check(system, x, y, n, delta)
            C = cost_matrix(system.orbit_segment(x, n), system.orbit_segment(y, n))
            assert abs(rep.mid - min_cost_assignment(C)[1]) <= 1e-12 * n
            assert rep.lhs == delta * _delta_matching(system, x, y, n, delta)


def test_sandwich_holds_everywhere():
    rng = np.random.default_rng(38)
    pool = [CircleRotation(GOLDEN), DoublingMap(), BinaryShift()]
    for system in pool:
        for _ in range(20):
            x, y = sample_point(system, rng), sample_point(system, rng)
            n = int(rng.integers(2, 60))
            delta = float(rng.uniform(0.05, 0.8))
            rep = sandwich_check(system, x, y, n, delta)
            assert rep.holds
            assert rep.lhs <= rep.mid + 1e-9
            assert rep.mid <= rep.rhs + 1e-9
