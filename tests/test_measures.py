import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from orbitmetric import (
    BinaryShift,
    CircleRotation,
    DiscreteMeasure,
    DoublingMap,
    Example31Config,
    InsufficientTailError,
    LogisticMap,
    MeasureSet,
    ProductSystem,
    Schedule,
    ShiftPoint,
    SizeLimitError,
    build_example31_point,
    ebar_n,
    empirical_equicontinuity,
    empirical_measure,
    example31_report,
    hausdorff_measures,
    max_matching_under_threshold,
    min_cost_assignment,
    omega_distance,
    omega_hat_estimate,
    prokhorov,
    prokhorov_oracle,
    sample_point,
    wasserstein1,
    wasserstein1_fast_1d,
)
from orbitmetric import analysis, measures
from orbitmetric.measures import ORACLE_SUPPORT_LIMIT
from orbitmetric.systems import (GEOMETRY_CIRCLE, GEOMETRY_LINE, GEOMETRY_PRODUCT, TentMap,
                                 cost_matrix)

W1_TOL = 1e-9
PROKHOROV_TOL = 1e-9


def _random_measure(rng, lo=0.0, hi=1.0, max_atoms=8):
    k = int(rng.integers(1, max_atoms + 1))
    atoms = lo + (hi - lo) * rng.random(k)
    return DiscreteMeasure(list(atoms), list(rng.dirichlet(np.ones(k))))


# ---------------------------------------------------------------- measures

def test_discrete_measure_merges_duplicate_atoms():
    m = DiscreteMeasure([0.5, 0.5, 0.0], [0.25, 0.25, 0.5])
    assert m.support_size == 2
    assert dict(zip(m.atoms, m.weights)) == {0.0: 0.5, 0.5: 0.5}
    assert m.counts is None
    c = DiscreteMeasure.from_counts([0.5, 0.5, 0.0], [1, 1, 2])
    assert c.atoms == m.atoms and c.counts.tolist() == [2, 2]
    assert c.weights.tolist() == [0.5, 0.5]
    # weights are counts / n, bit for bit
    counts = np.array([3, 1, 5, 7])
    assert DiscreteMeasure.from_counts([0.1, 0.2, 0.3, 0.4], counts).weights.tolist() == (
        counts / 16).tolist()


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure([], [])
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0, 0.5], [0.5, 0.6])
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0], [-1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0, 0.5], [1.0])
    for atoms, counts in (([], []), ([0.0, 0.5], [1]), ([0.0], [0.5]), ([0.0], [True]),
                          ([0.0, 0.5], [2, -1]), ([0.0], [0])):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_counts(atoms, counts)


@pytest.mark.parametrize("atoms", [
    [[0, 1, 1], [1, 0, 0]],
    [np.array([0, 1, 1]), np.array([1, 0, 0])],
    [ShiftPoint.zeros(), ShiftPoint.ones()],
    [0.1, (0, 1)],
])
def test_discrete_measure_rejects_atoms_that_cannot_be_merged(atoms):
    # atoms are merged by hashing and kept sorted; lists and arrays are not
    # hashable, and ShiftPoints or a number and a tuple do not compare
    for build in (lambda: DiscreteMeasure(atoms, [0.5, 0.5]),
                  lambda: DiscreteMeasure.from_counts(atoms, [1, 1])):
        with pytest.raises(ValueError, match="hashable and mutually orderable"):
            build()


def test_discrete_measure_rejects_non_finite_weights():
    # a NaN sum passes both the sign and the sum checks
    for weights in ([np.nan, np.nan], [1.0, np.nan], [np.inf, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure([0.1, 0.2], weights)


def test_empirical_measure_fixed_point_is_dirac():
    m = empirical_measure(BinaryShift().orbit_segment(ShiftPoint.zeros(), 100))
    assert m.support_size == 1
    assert m.weights[0] == pytest.approx(1.0)


def test_empirical_measure_rotation_three_atoms():
    m = empirical_measure(CircleRotation(0.25).orbit_segment(0.0, 3))
    assert m.support_size == 3
    assert np.allclose(m.weights, 1 / 3)
    assert set(m.atoms) == {0.0, 0.25, 0.5}


def test_empirical_measure_doubling_period_two():
    m = empirical_measure(DoublingMap().orbit_segment(Fraction(1, 3), 4))
    assert m.support_size == 2
    assert np.allclose(sorted(m.atoms), [1 / 3, 2 / 3])
    assert np.allclose(m.weights, 0.5)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(())
    with pytest.raises(ValueError):
        Schedule((3, 2))
    with pytest.raises(ValueError):
        Schedule((0, 1))
    with pytest.raises(ValueError):
        Schedule((1, 2), tail_start=2)
    s = Schedule.geometric(100)
    assert s.max_n == 100
    assert s.tail_checkpoints == s.checkpoints[s.tail_start:]
    assert all(a < b for a, b in zip(s.checkpoints, s.checkpoints[1:]))


def test_schedule_rejects_non_integer_checkpoints():
    # a fractional checkpoint would report ebar at "n = 1.5"; a float or bool
    # one would reach numpy's indexing
    for cps in ((1.5, 3), (2, 3.0), (True, 3), (1, float("nan"))):
        with pytest.raises(ValueError, match="integers"):
            Schedule(cps)
    with pytest.raises(ValueError, match="integers"):
        Schedule((1, 2, 3), tail_start=1.5)
    # a bool is no count, 1e3 no integer, and inf ran the checkpoint loop
    # into an OverflowError
    for max_n in (10.5, True, 1e3, float("inf")):
        with pytest.raises(ValueError, match="max_n must be an integer"):
            Schedule.geometric(max_n)
    for tail in (True, 2.5, 0):
        with pytest.raises(ValueError, match="tail length must be an integer"):
            Schedule.geometric(20, tail=tail)
    assert Schedule((np.int64(2), 3)).max_n == 3


def test_schedule_geometric_needs_growing_ratio():
    # powers of a ratio <= 1 never pass max_n, so the checkpoint loop would
    # not end
    for ratio in (1.0, 0.5, 0.0, -2.0, float("nan")):
        with pytest.raises(ValueError, match="ratio"):
            Schedule.geometric(10, ratio)
    assert Schedule.geometric(10, 2.0).checkpoints == (1, 2, 4, 8, 10)
    # round(inf) raised OverflowError at the second checkpoint
    with pytest.raises(ValueError, match="ratio"):
        Schedule.geometric(10, float("inf"))


def _plain_geometric(max_n, ratio):
    vals, k = {max_n}, 0
    while round(ratio ** k) <= max_n:
        vals.add(round(ratio ** k))
        k += 1
    return tuple(sorted(vals))


def test_schedule_geometric_skips_only_repeated_exponents():
    for ratio in (1.0001, 1.01, 1.5, 2, 1e6):
        for max_n in (1, 2, 7, 100, 999, 4096, 10**5):
            assert Schedule.geometric(max_n, ratio).checkpoints == _plain_geometric(max_n, ratio)
    # one exponent per new checkpoint: the plain loop takes about 1e16 steps here
    assert Schedule.geometric(10**4, 1 + 1e-15).checkpoints == tuple(range(1, 10**4 + 1))


# ----------------------------------------------------------- kept states

_STATE_SYSTEMS = [
    (LogisticMap(4.0), lambda rng: float(rng.random())),
    (TentMap(), lambda rng: float(rng.random())),
    (CircleRotation(0.1234), lambda rng: float(rng.random())),
    *[(BinaryShift(k), lambda rng: ShiftPoint(tuple(rng.integers(0, 2, 40).tolist()), (0, 1)))
      for k in (1, 3, 30)],
    (ProductSystem(CircleRotation(0.3), LogisticMap(4.0)),
     lambda rng: (float(rng.random()), float(rng.random()))),
    (ProductSystem(CircleRotation(0.3), BinaryShift(5)),
     lambda rng: (float(rng.random()), ShiftPoint(tuple(rng.integers(0, 2, 9).tolist()), (1,)))),
]


@pytest.mark.parametrize("system, point", _STATE_SYSTEMS, ids=[
    "logistic", "tent", "circle", "shift1", "shift3", "shift30", "circle-logistic", "circle-shift"])
def test_kept_states_equal_the_validated_atoms(system, point):
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 8, 31, 100, 300):
        meas = empirical_measure(system.orbit_segment(point(rng), n))
        kept, checked = meas.states(system), system._states(meas.atoms)
        assert len(meas.counts) == meas.support_size
        for a, b in zip(kept, checked) if isinstance(kept, tuple) else [(kept, checked)]:
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)


def _types(value):
    """The nested Python types of an atom."""
    return tuple(map(_types, value)) if isinstance(value, tuple) else type(value)


_SHIFT_X = ShiftPoint((0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1), (0, 1))


@pytest.mark.parametrize("system, x, length, ties", [
    (CircleRotation(0.1234), 0.37, 300, False),
    (LogisticMap(4.0), 0.1234, 300, False),
    (BinaryShift(30), _SHIFT_X, 300, True),
    (ProductSystem(CircleRotation(0.3), LogisticMap(4.0)), (0.2, 0.7), 300, False),
    (ProductSystem(CircleRotation(0.3), BinaryShift(5)), (0.2, _SHIFT_X), 300, False),
    (ProductSystem(TentMap(), BinaryShift(3)), (0.3, _SHIFT_X), 300, True),
    # float tent and doubling orbits reach 0 and stay there
    (TentMap(), 0.3, 200, True),
    (DoublingMap(), 0.7, 200, True),
    (CircleRotation(0.0), 0.25, 50, True),
    # windows of a period-3 tail repeat
    (BinaryShift(4), ShiftPoint((0, 1, 1, 0, 1), (0, 1, 1)), 120, True),
], ids=["circle", "logistic", "shift", "circle-logistic", "circle-shift", "tent-shift3",
        "tent", "doubling", "rotation-by-0", "shift-period-3"])
def test_empirical_measure_equals_the_public_constructor(system, x, length, ties):
    seg = system.orbit_segment(x, length)
    # out of order and repeated, against one segment and its one shared sort
    for n in (1, length, 17, 5, length - 1, 17, 33, 1, length):
        got = empirical_measure(seg.prefix(n))
        want = DiscreteMeasure.from_counts(seg.prefix(n).points(), [1] * n)
        assert got.support_size == want.support_size and repr(got) == repr(want)
        assert got.counts.dtype == want.counts.dtype
        assert got.counts.tolist() == want.counts.tolist()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.atoms == want.atoms
        assert list(map(_types, got.atoms)) == list(map(_types, want.atoms))
    assert want.counts.max() > 1 or not ties


def test_atoms_are_read_only():
    meas = empirical_measure(CircleRotation(0.25).orbit_segment(0.0, 3))
    for m in (meas, DiscreteMeasure([0.1, 0.2], [0.5, 0.5])):
        with pytest.raises(AttributeError):
            m.atoms = (0.5,)
    assert meas.atoms == (0.0, 0.25, 0.5)


@pytest.mark.parametrize("system, x, y", [
    (CircleRotation(0.38197), 0.1, 0.45),
    (LogisticMap(3.99), 0.1234, 0.4321),
    (BinaryShift(30), ShiftPoint((0, 1, 1, 0, 1), (0, 1)), ShiftPoint((1, 1, 0), (1, 0, 0))),
], ids=["circle", "logistic", "shift"])
def test_the_request_path_builds_no_atoms_tuple(monkeypatch, system, x, y):
    built = []
    for name in ("_merge_atoms", "_atoms_of"):
        real = getattr(measures, name)
        monkeypatch.setattr(measures, name,
                            lambda *args, name=name, real=real: built.append(name) or real(*args))
    schedule = Schedule.geometric(300)
    assert omega_distance(system, x, y, schedule).observations[0]["rho_hausdorff"] >= 0
    report = empirical_equicontinuity(system, 0.01, 2, [40, 80, 160], seed=5)
    assert len(report.observations) >= 6
    mu = empirical_measure(system.orbit_segment(x, 120))
    nu = empirical_measure(system.orbit_segment(y, 90).prefix(70))
    assert 0 < prokhorov(mu, nu, system) <= 1
    assert 0 < wasserstein1(mu, nu, system) <= 1
    assert built == []
    # the oracles read atoms, which each measure builds once, on first read
    assert mu.atoms is mu.atoms and nu.atoms is nu.atoms
    assert built == ["_atoms_of", "_atoms_of"]


def test_kept_states_serve_an_equal_system_and_not_another():
    rng = np.random.default_rng(23)
    fine, coarse = BinaryShift(30), BinaryShift(3)
    for _ in range(50):
        x, y = (ShiftPoint(tuple(rng.integers(0, 2, 50).tolist()), (0, 1, 1)) for _ in "xy")
        n, m = (int(v) for v in rng.integers(1, 200, 2))
        on_fine = prokhorov(empirical_measure(fine.orbit_segment(x, n)),
                            empirical_measure(fine.orbit_segment(y, m)), coarse)
        on_coarse = prokhorov(empirical_measure(coarse.orbit_segment(x, n)),
                              empirical_measure(coarse.orbit_segment(y, m)), coarse)
        assert on_fine == on_coarse
    # another system validates the atoms, which a kept measure builds on first read
    x = ShiftPoint(tuple(rng.integers(0, 2, 50).tolist()), (0, 1, 1))
    seg = fine.orbit_segment(x, 120)
    meas = empirical_measure(seg)
    assert np.array_equal(meas.states(coarse), coarse._states(sorted(set(seg.points()))))
    assert meas.atoms == tuple(sorted(set(seg.points())))
    # the logistic orbit of 1/2 visits 1.0, a line point the circle does not take
    for a, b in ((0, 1), (1, 0)):
        pair = (empirical_measure(LogisticMap(4.0).orbit_segment(0.5, 3)),
                empirical_measure(CircleRotation(0.25).orbit_segment(0.0, 4)))
        with pytest.raises(ValueError):
            prokhorov(pair[a], pair[b], CircleRotation(0.25))
        assert 1.0 in pair[0].atoms


@pytest.mark.parametrize("system, x, y", [
    (BinaryShift(30), ShiftPoint((0, 1, 1, 0, 1), (0, 1)), ShiftPoint((1, 1, 0), (1, 0, 0))),
    (LogisticMap(4.0), 0.1234, 0.4321),
    (CircleRotation(0.3), 0.1, 0.45),
    (ProductSystem(CircleRotation(0.3), BinaryShift(5)),
     (0.1, ShiftPoint((0, 1, 1, 0, 1), (0, 1))), (0.45, ShiftPoint((1, 1, 0), (1, 0, 0)))),
])
def test_empirical_measures_reach_the_kernel_without_validation(monkeypatch, system, x, y):
    def no_round_trip(self, atoms):
        raise AssertionError("empirical atoms were converted back to states")

    monkeypatch.setattr(type(system), "_states", no_round_trip)
    mu = empirical_measure(system.orbit_segment(x, 120))
    nu = empirical_measure(system.orbit_segment(y, 90))
    assert 0 < prokhorov(mu, nu, system) <= 1
    assert 0 < wasserstein1(mu, nu, system) <= 1
    schedule = Schedule.geometric(200)
    assert hausdorff_measures(omega_hat_estimate(system, x, schedule),
                              omega_hat_estimate(system, y, schedule), system) >= 0
    assert omega_distance(system, x, y, schedule).observations[0]["rho_hausdorff"] >= 0
    if system.geometry == "shift":
        assert example31_report(Example31Config(n_blocks=5)).verdict == "consistent"


# ------------------------------------------------------------ wasserstein

def test_w1_identical_measures_vanish():
    rot = CircleRotation(0.25)
    m = DiscreteMeasure([0.1, 0.6], [0.3, 0.7])
    assert wasserstein1(m, m, rot) == pytest.approx(0.0, abs=W1_TOL)


def test_w1_interleaved_uniform_pairs_on_line():
    tent = TentMap()
    mu = DiscreteMeasure([0.0, 0.5], [0.5, 0.5])
    nu = DiscreteMeasure([0.25, 0.75], [0.5, 0.5])
    assert wasserstein1(mu, nu, tent) == pytest.approx(0.25, abs=W1_TOL)


def test_w1_between_diracs_is_ground_distance():
    rot = CircleRotation(0.25)
    mu = DiscreteMeasure.dirac(0.9)
    nu = DiscreteMeasure.dirac(0.1)
    assert wasserstein1(mu, nu, rot) == pytest.approx(0.2, abs=W1_TOL)


def test_w1_fast_circle_wraps():
    mu = DiscreteMeasure.dirac(0.9)
    nu = DiscreteMeasure.dirac(0.1)
    assert wasserstein1_fast_1d(mu, nu, GEOMETRY_CIRCLE) == pytest.approx(0.2, abs=W1_TOL)
    assert wasserstein1_fast_1d(mu, nu, GEOMETRY_LINE) == pytest.approx(0.8, abs=W1_TOL)


def test_weighted_median_at_exact_half():
    # mu puts 1/2 on 0 and on 1/2, nu 1/2 on 1/4 and on 3/4: the CDF
    # difference alternates, so its cumulative length hits one half exactly
    # and either level minimizes; both branches give the same W1 objective
    pts = np.array([0.0, 0.25, 0.5, 0.75])
    counts = np.array([1, -1, 1, -1])
    lengths = np.full(4, 0.25)

    def objective(g, median):
        return float(np.abs(g - median) @ lengths)

    g = np.cumsum(counts)
    assert (objective(g, measures._weighted_median(g, lengths))
            == objective(g / 2, measures._weighted_median(g / 2, lengths)) * 2
            == 0.5)
    assert (measures._w1_circle(pts, counts) / 2
            == measures._w1_circle(pts, counts / 2) == 0.25)


def _circle_w1_reference(pts, signed):
    g = np.cumsum(signed)
    lengths = np.append(np.diff(pts), 1.0 - pts[-1] + pts[0])
    return float(np.abs(g - measures._weighted_median(g, lengths)) @ lengths)


def test_circle_w1_of_integer_signs_is_bit_identical_to_the_float_shift():
    # integer signs take the median shift off in place; the value must be
    # the one the float subtraction gives, to the bit
    rng = np.random.default_rng(19)
    cases = [(np.array([0.2, 0.7]), np.array([1, -1])),
             (np.array([0.2, 0.7]), np.array([3, -3])),
             (np.array([0.0, 0.5, 0.5, 0.75]), np.zeros(4, dtype=np.int64))]
    for _ in range(200):
        n = int(rng.integers(2, 400))
        pts = np.sort(rng.random(n))
        if rng.random() < 0.4:  # heavy ties: zero-length gaps
            pts = np.sort(rng.choice(pts[:max(1, n // 8)], n))
        signed = (rng.choice([-1, 1], n) if rng.random() < 0.5
                  else rng.integers(-6, 7, n))
        cases.append((pts, signed))
    for pts, signed in cases:
        kept = signed.copy()
        got = measures._w1_circle(pts, signed)
        assert got == _circle_w1_reference(pts, signed), (pts, signed)
        assert np.array_equal(signed, kept)


def test_circle_w1_of_float_weights_keeps_a_fractional_shift():
    # the median of this CDF difference is 0.25; taking an integer part off
    # would give 0.3125 in place of 0.1875
    pts = np.array([0.0, 0.25, 0.5, 0.75])
    signed = np.array([0.5, -0.25, 0.25, -0.5])
    assert measures._w1_circle(pts, signed) == 0.1875
    rng = np.random.default_rng(20)
    for _ in range(100):
        n = int(rng.integers(2, 200))
        pts, signed = np.sort(rng.random(n)), rng.normal(size=n)
        assert (measures._w1_circle(pts, signed)
                == _circle_w1_reference(pts, signed))


def test_w1_fast_rejects_unknown_geometry():
    m = DiscreteMeasure.dirac(0.5)
    with pytest.raises(ValueError):
        wasserstein1_fast_1d(m, m, "plane")


def test_w1_fast_circle_rejects_atoms_outside_unit_interval():
    inside = DiscreteMeasure([0.0, 0.5], [0.5, 0.5])
    for bad in (1.0, -0.25):
        outside = DiscreteMeasure([0.5, bad], [0.5, 0.5])
        for mu, nu in ((inside, outside), (outside, inside)):
            with pytest.raises(ValueError, match=r"circle atoms must lie in \[0, 1\)"):
                wasserstein1_fast_1d(mu, nu, GEOMETRY_CIRCLE)
        if bad == 1.0:
            assert wasserstein1_fast_1d(inside, outside, GEOMETRY_LINE) >= 0
        else:
            with pytest.raises(ValueError, match=r"line atoms must lie in \[0, 1\]"):
                wasserstein1_fast_1d(inside, outside, GEOMETRY_LINE)


# ---------------------------------------------------- domain of the metric

def _every_distance_route(system, a, b):
    """Each library call that evaluates the ground metric on atoms a and b."""
    mu, nu = DiscreteMeasure([a], [1.0]), DiscreteMeasure([b], [1.0])
    return [lambda: system.dist(a, b),
            lambda: system.pairwise_dist([a], [b]),
            lambda: wasserstein1(mu, nu, system),
            lambda: prokhorov(mu, nu, system)]


def test_circle_routes_reject_atoms_outside_unit_interval():
    rot = CircleRotation(0.3)
    mu, nu = DiscreteMeasure.dirac(1.5), DiscreteMeasure.dirac(0.2)
    for call in _every_distance_route(rot, 1.5, 0.2) + [
            lambda: wasserstein1_fast_1d(mu, nu, GEOMETRY_CIRCLE)]:
        with pytest.raises(ValueError):
            call()


def test_line_routes_reject_atoms_outside_unit_interval():
    dbl = DoublingMap()
    for call in _every_distance_route(dbl, -3.0, 0.5):
        with pytest.raises(ValueError):
            call()
    mu = DiscreteMeasure([-3.0, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        wasserstein1(mu, DiscreteMeasure.dirac(0.5), dbl)
    # the closed right end belongs to the line
    assert dbl.pairwise_dist([1.0], [0.0])[0, 0] == 1.0


def test_shift_routes_reject_windows_shorter_than_horizon():
    shift = BinaryShift(8)
    for call in _every_distance_route(shift, (1,), (1, 1)):
        with pytest.raises(InsufficientTailError):
            call()
    window = (1, 0) * 4
    assert shift.pairwise_dist([window], [window + (1,)])[0, 0] == 0.0


def test_w1_fast_paths_match_linear_program():
    rng = np.random.default_rng(21)
    line, circle = TentMap(), CircleRotation(0.3)
    for _ in range(40):
        mu, nu = _random_measure(rng), _random_measure(rng)
        assert wasserstein1_fast_1d(mu, nu, GEOMETRY_LINE) == pytest.approx(
            wasserstein1(mu, nu, line), abs=W1_TOL)
        assert wasserstein1_fast_1d(mu, nu, GEOMETRY_CIRCLE) == pytest.approx(
            wasserstein1(mu, nu, circle), abs=W1_TOL)


def test_w1_of_empiricals_matches_assignment():
    # n * W1(empirical_n(x), empirical_n(y)) equals the min-cost matching
    rng = np.random.default_rng(22)
    rot = CircleRotation(0.6180339887498949)

    def cases():
        for system in (rot, DoublingMap(), BinaryShift(), ProductSystem(rot, TentMap())):
            for _ in range(10):
                yield system, int(rng.integers(2, 25))
        # the sizes of the benchmark's W1 requests
        yield LogisticMap(4.0), 150
        yield rot, 150
        # products past the 16 pairs a side that seed the priced LP
        yield ProductSystem(rot, TentMap()), 60
        yield ProductSystem(CircleRotation(0.41), TentMap()), 80

    for system, n in cases():
        x, y = sample_point(system, rng), sample_point(system, rng)
        mu = empirical_measure(system.orbit_segment(x, n))
        nu = empirical_measure(system.orbit_segment(y, n))
        C = system.pairwise_dist(system.orbit_segment(x, n).points(),
                                 system.orbit_segment(y, n).points())
        _, cost = min_cost_assignment(C)
        assert n * wasserstein1(mu, nu, system) == pytest.approx(cost, abs=1e-9)
        # the priced LP too, which wasserstein1 skips for uniform n-atom pairs
        lp = measures._transport_lp(system.pairwise_dist(mu.atoms, nu.atoms),
                                    mu.weights, nu.weights)
        assert n * lp == pytest.approx(cost, abs=1e-9)


def _dense_transport(D, wa, wb):
    """The transportation LP over all m*n pairs: the oracle of the priced one."""
    m, n = D.shape
    A = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    res = linprog(D.ravel(), A_eq=A, b_eq=np.concatenate([wa, wb]), bounds=(0, None),
                  method="highs")
    assert res.success
    return res.fun


def _dense_w1(mu, nu, system):
    return _dense_transport(system.pairwise_dist(mu.atoms, nu.atoms), mu.weights, nu.weights)


def _float_weights_with_a_zero(meas, rng):
    weights = rng.dirichlet(np.ones(meas.support_size))
    weights[rng.integers(meas.support_size)] = 0.0
    return DiscreteMeasure(meas.atoms, weights / weights.sum())


def test_w1_priced_lp_matches_dense_lp():
    # unequal supports beyond the 16 seeded neighbours a side, counted and
    # float weights, zero-weight atoms, on every geometry
    rng = np.random.default_rng(24)
    rot = CircleRotation(0.6180339887498949)
    systems = (LogisticMap(3.9), rot, BinaryShift(3), BinaryShift(12),
               ProductSystem(rot, TentMap()))
    for system in systems:
        for _ in range(4):
            mu, nu = (empirical_measure(system.orbit_segment(sample_point(system, rng),
                                                             int(rng.integers(20, 90))))
                      for _ in range(2))
            if rng.random() < 0.5:
                mu = _float_weights_with_a_zero(mu, rng)
            if rng.random() < 0.5:
                nu = _float_weights_with_a_zero(nu, rng)
            assert abs(wasserstein1(mu, nu, system) - _dense_w1(mu, nu, system)) <= 1e-12


def _w1_and_lp_sizes(monkeypatch, mu, nu, system):
    """wasserstein1(mu, nu, system) and the column count of each HiGHS solve it ran."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(measures, "linprog", spy)
    try:
        return wasserstein1(mu, nu, system), calls
    finally:
        monkeypatch.undo()


def test_w1_pricing_adds_the_pairs_the_seed_misses(monkeypatch):
    # nu puts half its mass on the atom at 0, so at least 20 of mu's 40
    # uniform atoms must each send all their mass there, from both sides of
    # the wrap; the seed joins that column only to its 16 nearest rows and
    # to the rows from 0 up that the northwest corner sends there, so it
    # misses rows the optimum needs
    rot = CircleRotation(0.3)
    atoms = [k / 40 for k in range(40)]
    cases = [(DiscreteMeasure(atoms, np.full(40, 1 / 40)),
              DiscreteMeasure(atoms, [0.5] + [0.5 / 39] * 39)),
             (DiscreteMeasure.from_counts(atoms, np.ones(40, int)),
              DiscreteMeasure.from_counts(atoms, [39] + [1] * 39))]
    for mu, nu in cases:
        D = rot.pairwise_dist(mu.atoms, nu.atoms)
        seed = measures._w1_seed(D, mu.weights, nu.weights)
        want = _dense_w1(mu, nu, rot)
        # pairs outside the seed priced out of reach: the seed alone is not optimal
        assert _dense_transport(np.where(seed, D, 2.0), mu.weights, nu.weights) > want + 1e-3
        w1, calls = _w1_and_lp_sizes(monkeypatch, mu, nu, rot)
        assert calls[0] == seed.sum() < 40 * 40 and len(calls) > 1
        assert abs(w1 - want) <= 1e-12
        assert abs(w1 - wasserstein1_fast_1d(mu, nu, GEOMETRY_CIRCLE)) <= 1e-12


def test_w1_lp_reaches_the_optimum_where_the_default_dual_tolerance_stops_short():
    # at HiGHS's default dual feasibility tolerance (1e-7) the restricted LP
    # of this pair stopped at a basis 1.1e-9 above the optimum
    logistic = LogisticMap(3.9)
    mu, nu = (empirical_measure(logistic.orbit_segment(x, 143))
              for x in (0.5710784961645261, 0.2834976840119148))
    closed = wasserstein1_fast_1d(mu, nu, GEOMETRY_LINE)
    assert abs(wasserstein1(mu, nu, logistic) - closed) <= 1e-12
    # wasserstein1 sends this uniform pair to the assignment solver; the LP itself
    lp = measures._transport_lp(logistic.pairwise_dist(mu.atoms, nu.atoms),
                                mu.weights, nu.weights)
    assert abs(lp - closed) <= 1e-12


def test_w1_between_uniform_n_atom_measures_is_the_assignment_route(monkeypatch):
    # two orbits with distinct states give uniform measures on n atoms each;
    # the dense LP is the oracle at n = 120.  At n = 1000 the dense LP takes
    # half a minute and a gigabyte a pair, and the priced LP 12 s on the
    # shift, so there the oracle is ebar_n's closed-form transport (equal to
    # W1 by the matching identity) and the priced LP on products
    rng = np.random.default_rng(26)
    rot = CircleRotation(0.6180339887498949)
    shift = BinaryShift(30)

    def shift_point():
        # random symbols throughout, so the 30-symbol windows are distinct
        return ShiftPoint(tuple(rng.integers(0, 2, 1030).tolist()), (0,))

    # tent orbits of floats reach 0, so rotation x tent distances tie everywhere
    for system in (LogisticMap(3.9), rot, shift, ProductSystem(rot, LogisticMap(3.9)),
                   ProductSystem(rot, TentMap())):
        x, y = (shift_point() if system is shift else sample_point(system, rng)
                for _ in range(2))
        for n in (120, 1000):
            mu, nu = (empirical_measure(system.orbit_segment(p, n)) for p in (x, y))
            assert mu.support_size == nu.support_size == n
            w1, solves = _w1_and_lp_sizes(monkeypatch, mu, nu, system)
            assert not solves
            D = system.pairwise_dist(mu.atoms, nu.atoms)
            if n == 120:
                want = _dense_transport(D, mu.weights, nu.weights)
            elif system.geometry == GEOMETRY_PRODUCT:
                want = measures._transport_lp(D, mu.weights, nu.weights)
            else:
                want = ebar_n(system, x, y, n)
            assert abs(w1 - want) <= 1e-12
    # equal counts other than one are uniform too
    atoms = [k / 40 for k in range(40)]
    mu, nu = (DiscreteMeasure.from_counts(atoms, np.full(40, c)) for c in (1, 3))
    assert not _w1_and_lp_sizes(monkeypatch, mu, nu, rot)[1]


def test_w1_runs_the_priced_lp_off_the_assignment_route(monkeypatch):
    # float weights, unequal counts and unequal supports
    rot = CircleRotation(0.6180339887498949)
    atoms = [k / 40 for k in range(40)]
    shifted = DiscreteMeasure.from_counts([(a + 0.013) % 1 for a in atoms], np.ones(40, int))
    cases = [(DiscreteMeasure(atoms, np.full(40, 1 / 40)), shifted),
             (DiscreteMeasure.from_counts(atoms, [2] + [1] * 39), shifted),
             (DiscreteMeasure.from_counts(atoms[:39], np.ones(39, int)), shifted)]
    for mu, nu in cases:
        w1, solves = _w1_and_lp_sizes(monkeypatch, mu, nu, rot)
        assert solves
        assert abs(w1 - wasserstein1_fast_1d(mu, nu, GEOMETRY_CIRCLE)) <= 1e-12


def test_w1_prokhorov_comparison_bounds():
    # rho^2 <= W1 <= (1 + diam) * rho on a bounded space
    rng = np.random.default_rng(23)
    rot = CircleRotation(0.41)
    for _ in range(25):
        mu, nu = _random_measure(rng), _random_measure(rng)
        w = wasserstein1(mu, nu, rot)
        p = prokhorov(mu, nu, rot)
        assert p * p <= w + 1e-9
        assert w <= (1.0 + rot.diameter) * p + 1e-9


# -------------------------------------------------------------- prokhorov

def test_prokhorov_identical_measures_vanish():
    rot = CircleRotation(0.25)
    m = DiscreteMeasure([0.2, 0.8], [0.4, 0.6])
    assert prokhorov(m, m, rot) == pytest.approx(0.0, abs=PROKHOROV_TOL)


def test_prokhorov_between_diracs():
    tent = TentMap()
    for a, b in [(0.0, 0.3), (0.1, 0.9), (0.5, 0.5)]:
        got = prokhorov(DiscreteMeasure.dirac(a), DiscreteMeasure.dirac(b), tent)
        assert got == pytest.approx(min(abs(a - b), 1.0), abs=PROKHOROV_TOL)


def test_prokhorov_uniform_vs_dirac():
    tent = TentMap()
    mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
    nu = DiscreteMeasure.dirac(0.0)
    assert prokhorov(mu, nu, tent) == pytest.approx(0.5, abs=PROKHOROV_TOL)


def test_prokhorov_matches_subset_oracle():
    rng = np.random.default_rng(24)
    rot, tent = CircleRotation(0.37), TentMap()
    for system in (rot, tent):
        for _ in range(50):
            mu, nu = _random_measure(rng), _random_measure(rng)
            fast = prokhorov(mu, nu, system)
            slow = prokhorov_oracle(mu, nu, system)
            assert fast == pytest.approx(slow, abs=PROKHOROV_TOL)


def test_prokhorov_symmetrized_by_construction():
    rng = np.random.default_rng(25)
    tent = TentMap()
    for _ in range(30):
        mu, nu = _random_measure(rng), _random_measure(rng)
        assert prokhorov(mu, nu, tent) == pytest.approx(
            prokhorov(nu, mu, tent), abs=PROKHOROV_TOL)


def _exact_prokhorov(mu, nu, system):
    """Prokhorov of two counted measures in rationals: the subsets of mu's
    support enumerated as ``prokhorov_oracle`` does, with masses
    Fraction(count, total)."""
    D = system.pairwise_dist(mu.atoms, nu.atoms)
    wa = [Fraction(int(c), int(mu.counts.sum())) for c in mu.counts]
    wb = [Fraction(int(c), int(nu.counts.sum())) for c in nu.counts]
    best = Fraction(0)
    for size in range(1, len(wa) + 1):
        for subset in itertools.combinations(range(len(wa)), size):
            mass, dj = sum(wa[i] for i in subset), D[list(subset)].min(axis=0).tolist()
            lefts = sorted(set(dj) | {0.0}) + [float("inf")]
            for left, right in zip(lefts, lefts[1:]):
                need = mass - sum(w for w, d in zip(wb, dj) if d <= left)
                if need <= right:
                    best = max(best, Fraction(left), need)
                    break
    return best


def test_counted_prokhorov_is_the_exact_value_correctly_rounded():
    # counts scaled to their least common total make every deficiency rule
    # sum integers, so one division gives the exact rational rounded once
    rng = np.random.default_rng(3)
    systems = (LogisticMap(4.0), TentMap(), BinaryShift(3), BinaryShift(4),
               CircleRotation(0.3))
    for _ in range(12):
        for system in systems:
            mu, nu = (DiscreteMeasure.from_counts(atoms, rng.integers(1, 40, len(atoms)))
                      for atoms in (empirical_measure(system.orbit_segment(
                          sample_point(system, rng), int(rng.integers(1, 11)))).atoms
                          for _ in range(2)))
            assert prokhorov(mu, nu, system) == float(_exact_prokhorov(mu, nu, system))


def test_prokhorov_oracle_support_guard():
    atoms = list(np.linspace(0, 1, 13))
    mu = DiscreteMeasure(atoms, [1 / 13] * 13)
    with pytest.raises(SizeLimitError):
        prokhorov_oracle(mu, DiscreteMeasure.dirac(0.0), TentMap())


def _flow_prokhorov(mu, nu, system):
    """Prokhorov through the HiGHS flow LP on the float weights, the oracle
    of every other route."""
    D = system.pairwise_dist(mu.atoms, nu.atoms)
    return measures._breakpoint_search(
        D, measures._flow_unsent(D, mu.weights, nu.weights))


def _route_cases(rng):
    """Pairs of measures on the line, shift, circle and product routes."""
    logistic, tent = LogisticMap(4.0), TentMap()
    for _ in range(8):
        seg_x = logistic.orbit_segment(float(rng.random()), int(rng.integers(5, 300)))
        seg_y = logistic.orbit_segment(float(rng.random()), int(rng.integers(5, 300)))
        yield logistic, empirical_measure(seg_x), empirical_measure(seg_y)
    for _ in range(8):
        # atoms on a dyadic grid, so that many pairs tie at each threshold
        k, m = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        mu = DiscreteMeasure(rng.integers(0, 9, k) / 8, rng.dirichlet(np.ones(k)))
        nu = DiscreteMeasure(rng.integers(0, 9, m) / 8, rng.dirichlet(np.ones(m)))
        yield tent, mu, nu
    for horizon in (1, 2, 3, 5, 30):
        shift = BinaryShift(horizon)
        for _ in range(6):
            seg_x = shift.orbit_segment(sample_point(shift, rng), int(rng.integers(5, 300)))
            seg_y = shift.orbit_segment(sample_point(shift, rng), int(rng.integers(5, 300)))
            yield shift, empirical_measure(seg_x), empirical_measure(seg_y)
    for system, a, b in ((tent, 0.25, 0.75), (BinaryShift(5), (0,) * 5, (1,) * 5)):
        for x, y in ((a, b), (b, a)):
            mu = empirical_measure(system.orbit_segment(sample_point(system, rng), 40))
            two = DiscreteMeasure([x, y], [0.3, 0.7])
            yield system, mu, DiscreteMeasure.dirac(x)
            yield system, mu, two
            yield system, two, mu
            yield system, mu, mu
    rot = CircleRotation(0.6180339887498949)
    for _ in range(4):
        seg_x = rot.orbit_segment(float(rng.random()), int(rng.integers(5, 300)))
        seg_y = rot.orbit_segment(float(rng.random()), int(rng.integers(5, 300)))
        yield rot, empirical_measure(seg_x), empirical_measure(seg_y)
    # nested prefixes of one orbit, as omega_hat_estimate compares them
    seg = rot.orbit_segment(float(rng.random()), 300)
    for a, b in ((5, 8), (8, 12), (12, 5), (12, 300), (45, 67), (150, 300), (300, 101)):
        yield rot, empirical_measure(seg.prefix(a)), empirical_measure(seg.prefix(b))
    product = ProductSystem(rot, tent)
    for _ in range(4):
        seg_x = product.orbit_segment(sample_point(product, rng), int(rng.integers(5, 120)))
        seg_y = product.orbit_segment(sample_point(product, rng), int(rng.integers(5, 12)))
        yield product, empirical_measure(seg_x), empirical_measure(seg_y)
        yield product, empirical_measure(seg_y), empirical_measure(seg_x)
    # only one measure keeps counts
    yield rot, empirical_measure(seg.prefix(9)), _random_measure(rng)


def _edge_weight_cases(rng):
    """Float pairs on the circle and rotation x tent whose measures each put
    weight exactly 0.0 on one atom and -1e-16, which the constructor still
    accepts, on another: capacities the flow LP must take as empty."""
    rot = CircleRotation(0.6180339887498949)
    for system in (rot, ProductSystem(rot, TentMap())):
        for _ in range(6):
            pair = []
            for k in rng.integers(3, 9, 2):
                weights = rng.dirichlet(np.ones(k))
                weights[:2] = 0.0
                weights /= weights.sum()
                weights[1] = -1e-16
                atoms = [sample_point(system, rng) for _ in range(k)]
                pair.append(DiscreteMeasure(atoms, weights))
            yield system, *pair


def test_line_and_shift_routes_match_lp_flow():
    for system, mu, nu in _route_cases(np.random.default_rng(27)):
        assert prokhorov(mu, nu, system) == pytest.approx(
            _flow_prokhorov(mu, nu, system), abs=1e-12)


def test_line_and_shift_routes_match_subset_oracle():
    checked = 0
    rng = np.random.default_rng(28)
    for system, mu, nu in itertools.chain(_route_cases(rng), _edge_weight_cases(rng)):
        if mu.support_size <= ORACLE_SUPPORT_LIMIT:
            assert prokhorov(mu, nu, system) == pytest.approx(
                prokhorov_oracle(mu, nu, system), abs=1e-12)
            checked += 1
    assert checked >= 25


def test_identical_measures_vanish_on_line_and_shift_routes():
    rng = np.random.default_rng(29)
    rot = CircleRotation(0.6180339887498949)
    for system in (LogisticMap(4.0), BinaryShift(30), rot, ProductSystem(rot, TentMap())):
        mu = empirical_measure(system.orbit_segment(sample_point(system, rng), 200))
        assert prokhorov(mu, mu, system) == 0.0


def _window_mass_cases(rng):
    """Window stacks at horizons 1, 2, 3, 12 and 30, each with counted and
    float masses: the windows of an orbit, which repeat at short horizons,
    and distinct random windows, so that the largest split of their sort
    lies below the horizon."""
    for horizon in (1, 2, 3, 12, 30):
        shift = BinaryShift(horizon)
        for _ in range(3):
            seg = shift.orbit_segment(sample_point(shift, rng), int(rng.integers(1, 150)))
            distinct = np.unique(rng.integers(0, 2, (int(rng.integers(1, 40)), horizon),
                                              dtype=np.uint8), axis=0)
            for windows in (shift._view(seg), rng.permutation(distinct)):
                yield horizon, windows, rng.integers(-5, 6, len(windows))
                yield horizon, windows, rng.normal(size=len(windows))


def test_cylinder_sums_match_windows_grouped_by_their_first_symbols():
    # every level k <= K against a dict keyed by the first k symbols, whose
    # sorted keys are the cylinders in lexicographic order; the levels
    # present are the least differing index over every pair of distinct windows
    below = 0
    for horizon, windows, mass in _window_mass_cases(np.random.default_rng(61)):
        order, split = measures._cylinder_order(windows)
        rows = [tuple(r) for r in windows.tolist()]
        below += bool(len(split)) and int(split.max()) < horizon
        for k in range(horizon + 1):
            groups = {}
            for row, w in zip(rows, mass.tolist()):
                groups[row[:k]] = groups.get(row[:k], 0) + w
            want = [groups[key] for key in sorted(groups)]
            got = measures._cylinder_sums(mass[order], split, k)
            if mass.dtype.kind == "i":
                assert got.tolist() == want, (horizon, k)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        firsts = {next(i for i, (a, b) in enumerate(zip(r, q)) if a != b)
                  for r, q in itertools.combinations(rows, 2) if r != q}
        assert measures._cuts(split, horizon).tolist() == sorted(firsts)
    assert below >= 10


def test_w1_shift_reads_every_level_present_against_assignment():
    # n windows against n on the cylinder tree, signs +1 and -1, give the
    # assignment total; distinct windows leave the largest split below K,
    # where dropping the top level of the splits present changes the total
    rng = np.random.default_rng(62)
    for horizon in (1, 2, 3, 8, 12, 30):
        shift = BinaryShift(horizon)
        for _ in range(4):
            n = int(rng.integers(1, 30))
            seg_x, seg_y = (shift.orbit_segment(sample_point(shift, rng), n) for _ in range(2))
            codes = rng.choice(2 ** horizon, 2 * min(n, 2 ** (horizon - 1)), replace=False)
            distinct = ((codes[:, None] >> np.arange(horizon)[::-1]) & 1).astype(np.uint8)
            half = len(distinct) // 2
            for X, Y in ((shift._view(seg_x), shift._view(seg_y)),
                         (distinct[:half], distinct[half:])):
                order, split = measures._cylinder_order(np.concatenate([X, Y]))
                got = measures._w1_shift(split, np.where(order < len(X), 1, -1), horizon)
                want = min_cost_assignment(shift._kernel_matrix(X, Y))[1]
                assert got == want, (horizon, len(X))
            assert (split < horizon).all()


def test_shift_prokhorov_sorts_once_and_probes_distances_among_the_atoms(monkeypatch):
    # prokhorov and example31's distance to the fixed-point segment each sort
    # their windows once, and search exactly the distances among the atoms
    rng = np.random.default_rng(63)
    cases = []
    for horizon in (1, 3, 12, 30):
        shift = BinaryShift(horizon)
        for _ in range(4):
            mu, nu = (empirical_measure(shift.orbit_segment(
                sample_point(shift, rng), int(rng.integers(5, 200)))) for _ in range(2))
            cases.append((shift, mu, nu, list(nu.atoms)))
        floats = DiscreteMeasure(nu.atoms, rng.dirichlet(np.ones(nu.support_size)))
        cases.append((shift, mu, floats, list(floats.atoms)))
    config = Example31Config(n_blocks=5)
    shift = BinaryShift(config.shift_horizon)
    x = build_example31_point("U", config.block_rule, config.n_blocks)
    meas = empirical_measure(shift.orbit_segment(x, sum(config.lengths())))
    ends = [(0,) * shift.horizon, (1,) * shift.horizon]
    cases.append((shift, meas, None, ends))

    sorts, searches = [], []
    cylinder_order, search = measures._cylinder_order, measures._breakpoint_search

    def spy_order(windows):
        sorts.append(len(windows))
        return cylinder_order(windows)

    def spy_search(D, deficiency):
        probed = []
        searches.append((set(np.ravel(D).tolist()), probed))
        return search(D, lambda t: probed.append(float(t)) or deficiency(t))
    monkeypatch.setattr(measures, "_cylinder_order", spy_order)
    monkeypatch.setattr(measures, "_breakpoint_search", spy_search)
    monkeypatch.setattr(analysis, "_breakpoint_search", spy_search)
    assert not hasattr(BinaryShift, "_distances")
    for system, mu, nu, others in cases:
        sorts.clear()
        searches.clear()
        if nu is None:
            analysis._distance_to_fixed_segment(mu, system, 0.01)
        else:
            prokhorov(mu, nu, system)
        atoms = list(mu.atoms) + others
        present = set(system.pairwise_dist(atoms, atoms).ravel().tolist())
        assert sorts == [len(atoms)]
        ((thresholds, probed),) = searches
        assert thresholds == present - {0.0}
        assert probed and set(probed) <= present | {0.0}


def test_prokhorov_of_equal_length_empiricals_is_least_threshold_fraction():
    # Delta_n(x, y, t) = n * def_t(mu, nu) for the length-n empirical measures:
    # both are what a maximum flow along the pairs within t leaves unsent.
    # This pits every deficiency rule against the threshold matching on the
    # orbits' cost matrix, the oracle of Delta_n.
    rng = np.random.default_rng(31)
    rot = CircleRotation(0.6180339887498949)
    for system in (LogisticMap(4.0), TentMap(), BinaryShift(5), BinaryShift(30), rot,
                   ProductSystem(rot, TentMap())):
        for _ in range(3):
            n = int(rng.integers(1, 26))
            x, y = sample_point(system, rng), sample_point(system, rng)
            seg_x, seg_y = system.orbit_segment(x, n), system.orbit_segment(y, n)
            mu, nu = empirical_measure(seg_x), empirical_measure(seg_y)
            C = cost_matrix(seg_x, seg_y)
            least = min(max(t, (n - max_matching_under_threshold(C, t)) / n)
                        for t in np.unique(np.append(C.entries, 0.0)).tolist())
            assert prokhorov(mu, nu, system) == pytest.approx(least, abs=1e-12)


def test_only_products_build_a_flow_network(monkeypatch):
    # the circle runs the arc rule on counts and float weights alike; only
    # products solve a flow, scipy's integer flow or the flow LP
    def no_flow(*args, **kwargs):
        raise AssertionError("flow network built")
    monkeypatch.setattr(measures, "_max_flow_lp", no_flow)
    monkeypatch.setattr(measures, "maximum_flow", no_flow)
    rng = np.random.default_rng(30)
    flows, circles = 0, []
    for system, mu, nu in itertools.chain(_route_cases(rng), _edge_weight_cases(rng)):
        if system.geometry == GEOMETRY_PRODUCT:
            with pytest.raises(AssertionError, match="flow network built"):
                prokhorov(mu, nu, system)
            flows += 1
        else:
            prokhorov(mu, nu, system)
            if system.geometry == GEOMETRY_CIRCLE:
                circles.append(mu.counts is not None and nu.counts is not None)
    assert flows == 14
    assert circles.count(True) == 11 and circles.count(False) == 7
    mu, nu = DiscreteMeasure([0.1, 0.6], [0.5, 0.5]), DiscreteMeasure.dirac(0.3)
    assert prokhorov(mu, nu, CircleRotation(0.3)) == pytest.approx(
        prokhorov_oracle(mu, nu, CircleRotation(0.3)), abs=1e-12)


def test_counted_flow_runs_only_below_the_int32_scale(monkeypatch):
    # scipy's max flow wraps capacities past int32 without an error, so
    # counts whose least common total reaches 2**31 go to the flow LP:
    # lcm(46349, 46331) = 2,147,395,519 < 2**31 <= lcm(46349, 46351)
    lp_runs = []
    max_flow = measures._max_flow_lp
    monkeypatch.setattr(measures, "_max_flow_lp",
                        lambda *args: lp_runs.append(1) or max_flow(*args))
    product = ProductSystem(CircleRotation(0.3), TentMap())
    mu = DiscreteMeasure.from_counts([(0.1, 0.2), (0.5, 0.7)], [46000, 349])
    for total, counted in ((46331, True), (46351, False)):
        nu = DiscreteMeasure.from_counts([(0.12, 0.25), (0.6, 0.75)], [total - 9000, 9000])
        lp_runs.clear()
        got = prokhorov(mu, nu, product)
        assert (not lp_runs) == counted
        assert got == pytest.approx(_flow_prokhorov(mu, nu, product), abs=1e-12)
        assert got > 0.1


def _arc_cases(rng):
    """Circle masses (D, wa, wb) for the arc rule, each pair in counts scaled
    to one unit and in float weights: dyadic-grid ties, nested orbit prefixes, one
    measure on a short arc and the other around the circle (rows with no
    pair and with every pair), Diracs; then float weights of 0.0 and -1e-16."""
    rot = CircleRotation(0.6180339887498949)
    seg = rot.orbit_segment(float(rng.random()), 30)
    pairs = [(empirical_measure(seg.prefix(a)), empirical_measure(seg.prefix(b)))
             for a, b in ((1, 7), (5, 8), (12, 5), (13, 21), (21, 13), (30, 29))]
    for _ in range(10):
        k, m = (int(v) for v in rng.integers(1, 13, 2))
        pairs.append(tuple(DiscreteMeasure.from_counts(rng.integers(0, 16, size) / 16,
                                                       rng.integers(1, 9, size))
                           for size in (k, m)))
    for _ in range(6):
        arc = (rng.random() + 0.05 * rng.random(int(rng.integers(2, 6)))) % 1
        around = rng.random(int(rng.integers(3, 10)))
        short, wide = (DiscreteMeasure.from_counts(atoms, rng.integers(1, 9, len(atoms)))
                       for atoms in (arc, around))
        pairs += [(short, wide), (wide, short)]
    one, other = DiscreteMeasure.dirac(0.875), pairs[-1][0]
    pairs += [(one, other), (other, one), (one, DiscreteMeasure.dirac(0.125)), (one, one)]
    for mu, nu in pairs:
        D = rot._kernel_matrix(mu.states(rot), nu.states(rot))
        yield (D, *measures._masses(mu, nu)[:2])
        yield D, mu.weights, nu.weights
    for system, mu, nu in _edge_weight_cases(rng):
        if system == rot:
            yield rot._kernel_matrix(mu.states(rot), nu.states(rot)), mu.weights, nu.weights


def test_arc_rule_matches_the_flow_at_every_threshold(monkeypatch):
    # counts exactly, float weights within 1e-12, and no probe falls back
    flow_unsent, fallbacks = measures._flow_unsent, []

    def counted_flow(*args):
        flow = flow_unsent(*args)
        return lambda t: fallbacks.append(t) or flow(t)
    monkeypatch.setattr(measures, "_flow_unsent", counted_flow)
    seen = Counter()
    for D, wa, wb in _arc_cases(np.random.default_rng(32)):
        arc, flow = measures._arc_unsent(D, wa, wb), flow_unsent(D, wa, wb)
        for t in np.unique(np.concatenate([[0.0, 0.5, 0.75], D.ravel()])).tolist():
            if wa.dtype.kind == "f":
                assert arc(t) == pytest.approx(flow(t), abs=1e-12)
            else:
                assert arc(t) == flow(t)
            pairs = np.count_nonzero(D <= t, axis=1)
            seen[wa.dtype.kind] += 1
            seen["beyond half"] += t >= 0.5
            seen["single atom"] += 1 in D.shape
            seen["empty and full rows"] += (pairs == 0).any() and (pairs == D.shape[1]).any()
            seen["zero weight"] += (wa == 0.0).any() and (wb == -1e-16).any()
    assert not fallbacks
    assert min(seen.values()) >= 50 and seen["i"] > 400 and seen["f"] > 400
    # a row whose pairs are two runs, and rows whose runs go round twice
    # (starts 0, 2, 1, 3 of four), take the flow and still equal it
    two_runs = np.where([[1, 0, 1, 0], [0, 1, 0, 0]], 0.0, 0.4)
    twice_round = np.where(np.eye(4, dtype=bool)[[0, 2, 1, 3]], 0.0, 0.4)
    for D, wa, wb in ((two_runs, [3, 2], [1, 1, 2, 1]), (twice_round, [1, 2, 3, 4], [4, 3, 2, 1])):
        total = sum(wa)
        for masses, tol in (((np.array(wa), np.array(wb)), 0.0),
                            ((np.array(wa) / total, np.array(wb) / total), 1e-12)):
            fallbacks.clear()
            got = measures._arc_unsent(D, *masses)(0.0)
            assert fallbacks == [0.0]
            assert got > 0 and abs(got - flow_unsent(D, *masses)(0.0)) <= tol


def _deficiency_cases(rng):
    """Counted pairs on the circle, line, shift(3), shift(30) and rotation x
    tent, each also with float weights: nested prefixes of one orbit, as
    ``omega_hat_estimate`` compares them, and prefixes of two orbits."""
    rot = CircleRotation(0.6180339887498949)
    for system in (rot, LogisticMap(4.0), BinaryShift(3), BinaryShift(30),
                   ProductSystem(rot, TentMap())):
        for _ in range(4):
            seg = system.orbit_segment(sample_point(system, rng), 150)
            other = system.orbit_segment(sample_point(system, rng), 40)
            a, b = (int(v) for v in rng.integers(1, 151, 2))
            for mu, nu in ((seg.prefix(a), seg.prefix(b)), (seg.prefix(a), other)):
                mu, nu = empirical_measure(mu), empirical_measure(nu)
                yield system, mu, nu
                yield system, mu, _float_weights_with_a_zero(nu, rng)
                weights = rng.dirichlet(np.ones(mu.support_size))
                yield system, DiscreteMeasure(mu.atoms, weights), nu


def test_one_deficiency_evaluation_decides_prokhorov_at_most_c():
    # def changes only at the support distances, so rho <= c iff def(c) <= c,
    # with def the unsent mass over the masses' total; probe c at rho, at its
    # ulps, at the least support distances and their ulps
    decisions = 0
    for system, mu, nu in _deficiency_cases(np.random.default_rng(41)):
        rho = prokhorov(mu, nu, system)
        wa, wb, total = measures._masses(mu, nu)
        unsent = measures._unsent(system, mu.states(system), wa, nu.states(system), wb)
        lefts = np.unique(np.append(system.pairwise_dist(mu.atoms, nu.atoms), 0.0))[:4].tolist()
        probes = {0.05, 0.2, 1.0}
        for c in [rho, *lefts]:
            probes |= {c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)}
        for c in probes:
            assert (unsent(c) / total <= c) == (rho <= c), (system, c, rho)
            decisions += 1
    assert decisions > 1000


def test_omega_hat_clusters_as_the_greedy_prokhorov_clustering():
    rot = CircleRotation(0.6180339887498949)
    schedule = Schedule.geometric(300, tail=8)
    rng = np.random.default_rng(43)
    for system in (rot, LogisticMap(4.0), BinaryShift(3), BinaryShift(30),
                   ProductSystem(rot, TentMap())):
        x = sample_point(system, rng)
        seg = system.orbit_segment(x, schedule.max_n)
        tail = [empirical_measure(seg.prefix(n)) for n in schedule.tail_checkpoints]
        # a tolerance equal to a distance the clustering meets, and its ulp below
        tie = prokhorov(tail[-1], tail[0], system)
        for tol in (0.0, 0.02, 0.05, 0.2, tie, np.nextafter(tie, 0)):
            reps = []
            for meas in tail:
                if not any(prokhorov(meas, rep, system) <= tol for rep in reps):
                    reps.append(meas)
            got = omega_hat_estimate(system, x, schedule, tol).members
            assert [(m.atoms, m.counts.tolist()) for m in got] == [
                (m.atoms, m.counts.tolist()) for m in reps]


def test_breakpoint_search_probes_each_threshold_once_for_the_least_value():
    # synthetic non-increasing step functions on a dyadic grid, so that
    # deficiencies tie with threshold ends; the brute force evaluates them all
    rng = np.random.default_rng(47)
    for _ in range(400):
        D = rng.integers(0, 17, size=rng.integers(1, 6, 2)) / 16
        lefts = np.unique(np.append(D, 0.0))
        steps = np.sort(rng.integers(0, 25, len(lefts)))[::-1] / 16

        def step(t):
            return float(steps[np.searchsorted(lefts, t, side="right") - 1])

        probed = []
        got = measures._breakpoint_search(D, lambda t: probed.append(float(t)) or step(t))
        assert got == min(max(t, step(t)) for t in lefts.tolist())
        assert len(probed) == len(set(probed))


@pytest.mark.parametrize("system, good, bad, error", [
    (TentMap(), 0.5, 1.5, ValueError),
    (TentMap(), 0.5, -0.25, ValueError),
    (BinaryShift(4), (0, 1, 1, 0), (0, 1, 1), InsufficientTailError),
    (BinaryShift(4), (0, 1, 1, 0), (0, 2, 1, 0), ValueError),
    (BinaryShift(4), (0, 1, 1, 0), (0, 1, -1, 0), ValueError),
])
def test_prokhorov_routes_reject_atoms_outside_the_domain(system, good, bad, error):
    inside = DiscreteMeasure.dirac(good)
    outside = DiscreteMeasure([good, bad], [0.5, 0.5])
    for mu, nu in ((inside, outside), (outside, inside)):
        with pytest.raises(error):
            prokhorov(mu, nu, system)


# -------------------------------------------------------------- hausdorff

def test_hausdorff_singletons_reduce_to_prokhorov():
    tent = TentMap()
    mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
    nu = DiscreteMeasure.dirac(0.0)
    direct = prokhorov(mu, nu, tent)
    assert hausdorff_measures(MeasureSet((mu,)), MeasureSet((nu,)), tent) == pytest.approx(
        direct, abs=PROKHOROV_TOL)


def test_hausdorff_equal_families_vanish():
    tent = TentMap()
    fam = MeasureSet((DiscreteMeasure.dirac(0.1), DiscreteMeasure.dirac(0.7)))
    assert hausdorff_measures(fam, fam, tent) == pytest.approx(0.0, abs=PROKHOROV_TOL)


def test_hausdorff_subset_is_one_sided():
    tent = TentMap()
    a = DiscreteMeasure.dirac(0.0)
    b = DiscreteMeasure.dirac(0.4)
    small = MeasureSet((a,))
    big = MeasureSet((a, b))
    # every member of small is inside big, so the distance is the unmatched side
    assert hausdorff_measures(small, big, tent) == pytest.approx(
        prokhorov(a, b, tent), abs=PROKHOROV_TOL)


def test_hausdorff_metric_axioms_on_random_families():
    rng = np.random.default_rng(26)
    tent = TentMap()
    for _ in range(15):
        fams = [MeasureSet(tuple(_random_measure(rng, max_atoms=4)
                                 for _ in range(int(rng.integers(1, 4)))))
                for _ in range(3)]
        d01 = hausdorff_measures(fams[0], fams[1], tent)
        d12 = hausdorff_measures(fams[1], fams[2], tent)
        d02 = hausdorff_measures(fams[0], fams[2], tent)
        assert d01 >= 0
        assert d01 == pytest.approx(hausdorff_measures(fams[1], fams[0], tent), abs=1e-12)
        assert d02 <= d01 + d12 + 1e-9


# -------------------------------------------------------------- omega hat

def test_omega_hat_fixed_point_single_dirac():
    ms = omega_hat_estimate(BinaryShift(), ShiftPoint.zeros(), Schedule.geometric(200))
    assert len(ms.members) == 1
    assert ms.members[0].support_size == 1
    assert ms.members[0].weights[0] == pytest.approx(1.0)
    for tol in (-0.05, float("nan")):
        with pytest.raises(ValueError):
            omega_hat_estimate(BinaryShift(), ShiftPoint.zeros(), Schedule.geometric(200), tol)


def test_omega_hat_period_two_orbit_clusters_to_one_measure():
    sched = Schedule((10, 20, 40, 80), tail_start=0)
    ms = omega_hat_estimate(DoublingMap(), Fraction(1, 3), sched)
    # even-length checkpoints see the exact half/half measure on {1/3, 2/3}
    assert len(ms.members) == 1
    m = ms.members[0]
    assert np.allclose(sorted(m.atoms), [1 / 3, 2 / 3])
    assert np.allclose(m.weights, 0.5)


def test_measure_set_requires_members():
    with pytest.raises(ValueError):
        MeasureSet(())
