import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from orbitmetric import (
    BinaryShift,
    CircleRotation,
    DiscreteMeasure,
    DoublingMap,
    InsufficientTailError,
    LogisticMap,
    MeasureSet,
    ProductSystem,
    Schedule,
    ShiftPoint,
    SizeLimitError,
    delta_n,
    empirical_measure,
    hausdorff_measures,
    min_cost_assignment,
    omega_hat_estimate,
    prokhorov,
    prokhorov_oracle,
    sample_point,
    wasserstein1,
    wasserstein1_fast_1d,
)
from orbitmetric import measures
from orbitmetric.measures import ORACLE_SUPPORT_LIMIT
from orbitmetric.systems import GEOMETRY_CIRCLE, GEOMETRY_LINE, GEOMETRY_PRODUCT, TentMap

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
    assert (measures._sorted_w1(GEOMETRY_CIRCLE, pts, counts) / 2
            == measures._sorted_w1(GEOMETRY_CIRCLE, pts, counts / 2) == 0.25)


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
        # the sizes of the benchmark's LP requests
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
        calls = []

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return linprog(*args, **kwargs)

        monkeypatch.setattr(measures, "linprog", spy)
        w1 = wasserstein1(mu, nu, rot)
        monkeypatch.undo()
        assert calls[0] == seed.sum() < 40 * 40 and len(calls) > 1
        assert abs(w1 - want) <= 1e-12
        assert abs(w1 - wasserstein1_fast_1d(mu, nu, GEOMETRY_CIRCLE)) <= 1e-12


def test_w1_lp_reaches_the_optimum_where_the_default_dual_tolerance_stops_short():
    # at HiGHS's default dual feasibility tolerance (1e-7) the restricted LP
    # of this pair stopped at a basis 1.1e-9 above the optimum
    logistic = LogisticMap(3.9)
    mu, nu = (empirical_measure(logistic.orbit_segment(x, 143))
              for x in (0.5710784961645261, 0.2834976840119148))
    assert abs(wasserstein1(mu, nu, logistic)
               - wasserstein1_fast_1d(mu, nu, GEOMETRY_LINE)) <= 1e-12


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
    """Prokhorov through the Dinic flow on the float weights, the oracle of
    every other route."""
    D = system.pairwise_dist(mu.atoms, nu.atoms)
    return measures._breakpoint_search(
        D, measures._flow_unsent(D, mu.weights, nu.weights, 1))


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


def test_line_and_shift_routes_match_dinic_flow():
    for system, mu, nu in _route_cases(np.random.default_rng(27)):
        assert prokhorov(mu, nu, system) == pytest.approx(
            _flow_prokhorov(mu, nu, system), abs=1e-12)


def test_line_and_shift_routes_match_subset_oracle():
    checked = 0
    for system, mu, nu in _route_cases(np.random.default_rng(28)):
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


def test_prokhorov_of_equal_length_empiricals_is_least_threshold_fraction():
    # Delta_n(x, y, t) = n * def_t(mu, nu) for the length-n empirical measures:
    # both are what a maximum flow along the pairs within t leaves unsent.
    # On the circle and products this pits scipy's flow against the matching.
    rng = np.random.default_rng(31)
    rot = CircleRotation(0.6180339887498949)
    for system in (LogisticMap(4.0), TentMap(), BinaryShift(5), BinaryShift(30), rot,
                   ProductSystem(rot, TentMap())):
        for _ in range(3):
            n = int(rng.integers(1, 26))
            x, y = sample_point(system, rng), sample_point(system, rng)
            mu = empirical_measure(system.orbit_segment(x, n))
            nu = empirical_measure(system.orbit_segment(y, n))
            D = system.pairwise_dist(mu.atoms, nu.atoms)
            least = min(max(t, delta_n(system, x, y, n, t) / n)
                        for t in np.unique(np.append(D, 0.0)).tolist())
            assert prokhorov(mu, nu, system) == pytest.approx(least, abs=1e-12)


def test_only_circle_and_products_build_a_flow_network(monkeypatch):
    # the Dinic flow runs only where a circle or product measure has no counts
    def no_flow(*args):
        raise AssertionError("flow network built")
    monkeypatch.setattr(measures, "_max_flow_bipartite", no_flow)
    dinic = 0
    for system, mu, nu in _route_cases(np.random.default_rng(30)):
        if (system.geometry in (GEOMETRY_CIRCLE, GEOMETRY_PRODUCT)
                and (mu.counts is None or nu.counts is None)):
            with pytest.raises(AssertionError, match="flow network built"):
                prokhorov(mu, nu, system)
            dinic += 1
        else:
            prokhorov(mu, nu, system)
    assert dinic == 1
    mu, nu = DiscreteMeasure([0.1, 0.6], [0.5, 0.5]), DiscreteMeasure.dirac(0.3)
    with pytest.raises(AssertionError, match="flow network built"):
        prokhorov(mu, nu, CircleRotation(0.3))


def test_counted_flow_runs_only_below_the_int32_scale(monkeypatch):
    # scipy's max flow wraps capacities past int32 without an error, so
    # counts whose least common total reaches 2**31 go to the Dinic flow:
    # lcm(46349, 46331) = 2,147,395,519 < 2**31 <= lcm(46349, 46351)
    dinic_runs = []
    max_flow = measures._max_flow_bipartite
    monkeypatch.setattr(measures, "_max_flow_bipartite",
                        lambda *args: dinic_runs.append(1) or max_flow(*args))
    rot = CircleRotation(0.3)
    mu = DiscreteMeasure.from_counts([0.1, 0.5], [46000, 349])
    for total, counted in ((46331, True), (46351, False)):
        nu = DiscreteMeasure.from_counts([0.12, 0.6], [total - 9000, 9000])
        dinic_runs.clear()
        got = prokhorov(mu, nu, rot)
        assert (not dinic_runs) == counted
        assert got == pytest.approx(_flow_prokhorov(mu, nu, rot), abs=1e-12)
        assert got > 0.1


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
