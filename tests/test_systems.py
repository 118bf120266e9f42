import ast
import json
from fractions import Fraction

import numpy as np
import pytest

import orbitmetric
from orbitmetric import (
    BinaryShift,
    CircleRotation,
    DoublingMap,
    InsufficientTailError,
    LogisticMap,
    ProductSystem,
    ShiftPoint,
    TentMap,
    build_example31_point,
    cost_matrix,
    ebar_n,
    product_system,
    system_from_dict,
    system_from_json,
)
from orbitmetric.systems import aligned_distances, block_lengths

GOLDEN = 0.6180339887498949


def test_shift_fixed_points_distance_one():
    shift = BinaryShift()
    assert shift.dist(ShiftPoint.zeros(), ShiftPoint.ones()) == 1.0


def test_circle_wraparound_distance():
    circle = CircleRotation(alpha=GOLDEN)
    assert circle.dist(0.1, 0.9) == pytest.approx(0.2, abs=1e-12)


def test_shift_mismatch_at_index_three():
    shift = BinaryShift()
    p = ShiftPoint.from_string("0001")
    q = ShiftPoint.zeros()
    assert shift.dist(p, q) == 0.125


def test_shift_distance_zero_past_horizon():
    shift = BinaryShift(horizon=8)
    # first mismatch at index 8, beyond what the metric can see
    p = ShiftPoint(prefix=(0,) * 8 + (1,), tail=(0,))
    assert shift.dist(p, ShiftPoint.zeros()) == 0.0


def test_rotation_orbit_states():
    circle = CircleRotation(alpha=GOLDEN)
    seg = circle.orbit_segment(0.0, 3)
    want = [0.0, GOLDEN, (2 * GOLDEN) % 1.0]
    for k, w in enumerate(want):
        assert seg.point(k) == pytest.approx(w, abs=1e-12)


def test_shift_fixed_point_orbit_windows():
    shift = BinaryShift(horizon=6)
    seg = shift.orbit_segment(ShiftPoint.zeros(), 5)
    for k in range(5):
        assert seg.point(k) == (0,) * 6


def test_doubling_orbit():
    doubling = DoublingMap()
    seg = doubling.orbit_segment(0.3, 3)
    assert [seg.point(k) for k in range(3)] == pytest.approx([0.3, 0.6, 0.2], abs=1e-12)


def test_doubling_fraction_orbit_is_exact():
    doubling = DoublingMap()
    seg = doubling.orbit_segment(Fraction(1, 3), 4)
    assert [seg.point(k) for k in range(4)] == [
        pytest.approx(1 / 3), pytest.approx(2 / 3),
        pytest.approx(1 / 3), pytest.approx(2 / 3)]


def _exact_rotation_state(x, alpha, k):
    v = float((Fraction(x) + k * Fraction(alpha)) % 1)
    return 0.0 if v == 1.0 else v


def test_rotation_orbit_matches_exact_oracle():
    rng = np.random.default_rng(7)
    # rng draws and full-mantissa bases (denominators 2**54..2**64) take the
    # uint64 route; 1e-300, 5e-324 and Fraction(1, 3) take the integer loop
    bases = [float(rng.random()) for _ in range(4)] + [
        0.001, 0.1, 0.9999999999999999, 2**-12 + 2**-64, 1e-300, 5e-324, Fraction(1, 3)]
    alphas = [0.0, 0.5, GOLDEN, float(rng.random()), 0.001, 2**-12 + 2**-64]
    for alpha in alphas:
        rot = CircleRotation(alpha)
        for x in bases:
            data = rot.orbit_segment(x, 400).data
            want = [_exact_rotation_state(x, alpha, k) for k in range(400)]
            assert data.tolist() == want, (alpha, x)


def test_rotation_state_rounding_to_one_wraps_to_zero(assignment_ebar):
    # the exact second state is 1 - 2**-55, which rounds to 1.0
    rot = CircleRotation(0.9999999999999999)
    x = 1.5 * 2**-54
    data = rot.orbit_segment(x, 3).data
    assert data.tolist() == [x, 0.0, 0.9999999999999999]
    assert rot.step(x) == 0.0
    assert ((data >= 0) & (data < 1)).all()
    assert ebar_n(rot, x, 0.25, 3) == assignment_ebar(rot, x, 0.25, 3)


def test_logistic_orbit_matches_iterated_step():
    rng = np.random.default_rng(8)
    for r in (3.7, 3.9, 4.0):
        logistic = LogisticMap(r)
        for x in (0.0, 1.0, float(rng.random())):
            want, p = [], x
            for _ in range(500):
                want.append(p)
                p = logistic.step(p)
            assert logistic.orbit_segment(x, 500).data.tolist() == want


def test_shift_symbols_match_symbol():
    rng = np.random.default_rng(9)
    for tail_len in range(1, 9):
        prefix = tuple(int(s) for s in rng.integers(0, 2, int(rng.integers(0, 12))))
        tail = tuple(int(s) for s in rng.integers(0, 2, tail_len))
        p = ShiftPoint(prefix, tail)
        for count in range(0, len(prefix) + 3 * tail_len + 2):
            got = p.symbols(count)
            assert got.dtype == np.uint8
            assert got.tolist() == [p.symbol(k) for k in range(count)]
        finite = ShiftPoint(prefix, None)
        assert finite.symbols(len(prefix)).tolist() == list(prefix)
        with pytest.raises(InsufficientTailError):
            finite.symbols(len(prefix) + 1)


def test_orbit_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        DoublingMap().orbit_segment(0.5, 0)


def test_orbit_length_must_be_an_integer():
    for system, x in ((DoublingMap(), 0.5), (BinaryShift(4), ShiftPoint.ones()),
                      (product_system(CircleRotation(0.3), TentMap()), (0.1, 0.2))):
        for n in (2.5, 3.0, np.float64(3), True):
            with pytest.raises(ValueError, match="orbit length must be an integer"):
                system.orbit_segment(x, n)
        assert system.orbit_segment(x, np.int64(3)).length == 3


def test_cost_matrix_zero_diagonal_on_equal_points():
    circle = CircleRotation(alpha=GOLDEN)
    seg = circle.orbit_segment(0.25, 6)
    C = cost_matrix(seg, seg)
    assert np.all(np.diagonal(C.entries) == 0.0)


def test_cost_matrix_shift_fixed_points_all_ones():
    shift = BinaryShift()
    sx = shift.orbit_segment(ShiftPoint.zeros(), 2)
    sy = shift.orbit_segment(ShiftPoint.ones(), 2)
    C = cost_matrix(sx, sy)
    assert np.all(C.entries == 1.0)


def test_cost_matrix_rotation_isometry_diagonal():
    circle = CircleRotation(alpha=GOLDEN)
    sx = circle.orbit_segment(0.0, 2)
    sy = circle.orbit_segment(0.1, 2)
    C = cost_matrix(sx, sy)
    assert C.entries[0, 0] == pytest.approx(0.1, abs=1e-12)
    assert C.entries[1, 1] == pytest.approx(0.1, abs=1e-12)
    assert C.entries[0, 1] == pytest.approx(circle.dist(0.0, (0.1 + GOLDEN) % 1), abs=1e-12)
    assert C.entries[1, 0] == pytest.approx(circle.dist(GOLDEN, 0.1), abs=1e-12)


def test_cost_matrix_rejects_mismatched_segments():
    circle = CircleRotation(alpha=GOLDEN)
    tent = TentMap()
    with pytest.raises(ValueError):
        cost_matrix(circle.orbit_segment(0.0, 3), tent.orbit_segment(0.0, 3))
    with pytest.raises(ValueError):
        cost_matrix(circle.orbit_segment(0.0, 3), circle.orbit_segment(0.0, 4))


def _numeric_systems():
    return [CircleRotation(alpha=GOLDEN), DoublingMap(), TentMap(), LogisticMap(r=3.7)]


def test_metric_axioms_numeric_systems():
    rng = np.random.default_rng(5)
    for system in _numeric_systems():
        for _ in range(50):
            p, q, r = rng.random(3)
            assert system.dist(p, q) == system.dist(q, p)
            assert system.dist(p, p) == 0.0
            assert system.dist(p, q) <= system.dist(p, r) + system.dist(r, q) + 1e-12
            assert 0.0 <= system.dist(p, q) <= system.diameter + 1e-15


def test_metric_axioms_shift_exact():
    rng = np.random.default_rng(6)
    shift = BinaryShift(horizon=12)
    for _ in range(50):
        pts = [ShiftPoint(tuple(rng.integers(0, 2, 16)), (int(rng.integers(0, 2)),))
               for _ in range(3)]
        p, q, r = pts
        assert shift.dist(p, q) == shift.dist(q, p)
        assert shift.dist(p, q) <= shift.dist(p, r) + shift.dist(r, q)


def test_rotation_is_isometry_along_long_orbits():
    circle = CircleRotation(alpha=GOLDEN)
    n = 10_001
    sx = circle.orbit_segment(0.123, n)
    sy = circle.orbit_segment(0.456, n)
    along = aligned_distances(circle, sx, sy)
    assert np.max(np.abs(along - circle.dist(0.123, 0.456))) <= 1e-12


# orbit windows of these two points disagree first at every index below the
# horizon, and agree through it, somewhere in the first 16 x 16 state pairs
SHIFT_X = ShiftPoint.from_string("10000111000010001100001100110111", "01")
SHIFT_Y = ShiftPoint.from_string("10011110100110000111000100011000", "1")


def _reference_dist(system, p, q):
    """The ground metric from its definition, one pair of orbit states at a time."""
    if isinstance(system, ProductSystem):
        return max(_reference_dist(system.first, p[0], q[0]),
                   _reference_dist(system.second, p[1], q[1]))
    if isinstance(system, BinaryShift):
        return next((2.0 ** -k for k in range(system.horizon) if p[k] != q[k]), 0.0)
    d = abs(p - q)
    return min(d, 1.0 - d) if isinstance(system, CircleRotation) else d


@pytest.mark.parametrize("system, x, y", [
    (CircleRotation(alpha=GOLDEN), 0.1, 0.85),
    (TentMap(), 0.2, 0.7),
    (DoublingMap(), Fraction(1, 7), Fraction(2, 9)),
    (LogisticMap(r=3.9), 0.3, 0.31),
    (BinaryShift(horizon=6), SHIFT_X, SHIFT_Y),
    (product_system(CircleRotation(alpha=0.25), BinaryShift(horizon=5)),
     (0.1, SHIFT_X), (0.6, SHIFT_Y)),
    (product_system(product_system(TentMap(), BinaryShift(horizon=4)),
                    CircleRotation(alpha=GOLDEN)),
     ((0.3, SHIFT_X), 0.2), ((0.35, SHIFT_Y), 0.9)),
], ids=["circle", "tent", "doubling", "logistic", "shift", "product", "nested"])
def test_every_distance_route_agrees_on_orbit_states(system, x, y):
    n = 16
    sx, sy = system.orbit_segment(x, n), system.orbit_segment(y, n)
    px, py = sx.points(), sy.points()
    C = cost_matrix(sx, sy).entries
    D = system.pairwise_dist(px, py)
    along = aligned_distances(system, sx, sy)
    assert C.shape == D.shape == (n, n)
    assert np.array_equal(np.diag(C), along)
    for i in range(n):
        for j in range(n):
            d = system.dist(px[i], py[j])
            assert d == C[i, j] == D[i, j] == _reference_dist(system, px[i], py[j])
            assert d == system.pairwise_dist([px[i]], [py[j]])[0, 0]
    assert len(set(C.ravel())) > 1


def test_shift_distance_quantization_under_horizon_change():
    rng = np.random.default_rng(7)
    coarse = BinaryShift(horizon=10)
    fine = BinaryShift(horizon=25)
    for _ in range(100):
        p = ShiftPoint(tuple(rng.integers(0, 2, 30)), (0,))
        q = ShiftPoint(tuple(rng.integers(0, 2, 30)), (0,))
        assert abs(coarse.dist(p, q) - fine.dist(p, q)) <= 2.0 ** -10


def test_shift_level_matches_the_dyadic_array_rule():
    # the least k <= cap with 2**-k <= t, as a count over the array of levels
    powers = [np.ldexp(1.0, -k) for k in range(-3, 1080)]
    probes = {0.0, 5e-324, 1.0, 3.0, np.inf}
    for p in powers:
        probes |= {p, np.nextafter(p, 0), np.nextafter(p, np.inf)}
    caps = np.arange(70)
    for t in probes:
        above = np.concatenate([[0], np.cumsum(np.ldexp(1.0, -caps) > t)])
        assert [BinaryShift._level(t, cap) for cap in caps.tolist()] == above[caps].tolist()


def test_block_point_prefixes():
    x = build_example31_point("U", (1, 2, 6), 3)
    y = build_example31_point("V", (1, 2, 6), 3)
    assert x.symbols(9).tolist() == [0, 1, 1, 0, 0, 0, 0, 0, 0]
    assert y.symbols(9).tolist() == [1, 0, 0, 1, 1, 1, 1, 1, 1]


def test_block_point_variants_are_complements():
    rng = np.random.default_rng(8)
    for _ in range(10):
        lengths = tuple(int(v) for v in rng.integers(1, 6, size=4))
        total = sum(lengths)
        x = build_example31_point("U", lengths, 4)
        y = build_example31_point("V", lengths, 4)
        assert np.all(x.symbols(total) + y.symbols(total) == 1)


def test_block_point_tail_continues_last_symbol():
    x = build_example31_point("U", (1, 2), 2)
    # last block is ones, so the tail keeps producing ones
    assert x.symbol(100) == 1


def test_block_lengths_must_be_integers():
    for rule in ([2.7, 3.9], [2, 3.0], [True, 2], [2, 0], [-1, 2]):
        with pytest.raises(ValueError, match="block length must be an integer"):
            block_lengths(rule, 2)
    for rule in (tuple(np.arange(2, 5)), np.array([2, 3, 4])):
        lengths = block_lengths(rule, 2)
        assert lengths == [2, 3] and all(type(a) is int for a in lengths)
    assert block_lengths("factorial", 3) == [1, 2, 6]
    for n_blocks in (True, 2.5, 3.0, 0, -1):
        with pytest.raises(ValueError, match="block count must be an integer"):
            block_lengths("factorial", n_blocks)
    assert block_lengths("factorial", np.int64(2)) == [1, 2]


def test_product_distance_is_max_metric():
    circle = CircleRotation(alpha=GOLDEN)
    prod = product_system(circle, circle)
    assert prod.dist((0.0, 0.1), (0.2, 0.1)) == pytest.approx(0.2, abs=1e-12)
    assert prod.dist((0.0, 0.0), (0.0, 0.0)) == 0.0


def test_product_orbit_matches_componentwise_orbits():
    circle = CircleRotation(alpha=GOLDEN)
    tent = TentMap()
    prod = product_system(circle, tent)
    seg = prod.orbit_segment((0.1, 0.3), 10)
    sc = circle.orbit_segment(0.1, 10)
    st = tent.orbit_segment(0.3, 10)
    for k in range(10):
        a, b = seg.point(k)
        assert a == pytest.approx(sc.point(k), abs=1e-15)
        assert b == pytest.approx(st.point(k), abs=1e-15)


def test_product_diameter_is_max_of_factors():
    circle = CircleRotation(alpha=GOLDEN)
    shift = BinaryShift()
    assert product_system(circle, shift).diameter == 1.0
    assert product_system(circle, circle).diameter == 0.5


def test_shift_point_without_tail_raises_when_exhausted():
    shift = BinaryShift(horizon=10)
    p = ShiftPoint(prefix=(0, 1, 0, 1), tail=None)
    with pytest.raises(InsufficientTailError):
        shift.orbit_segment(p, 50)


def test_shift_point_parsing_and_str():
    p = ShiftPoint.from_string("0110", "01")
    assert str(p) == "0110(01)*"
    assert p.symbols(8).tolist() == [0, 1, 1, 0, 0, 1, 0, 1]
    q = ShiftPoint.from_string("10")
    # default tail repeats the last prefix symbol
    assert q.symbol(7) == 0


def test_dist_rejects_wrong_point_type():
    with pytest.raises(ValueError):
        BinaryShift().dist(0.5, ShiftPoint.zeros())
    with pytest.raises(ValueError):
        CircleRotation(alpha=GOLDEN).dist(1.5, 0.2)


def test_shift_rejects_symbols_other_than_zero_and_one():
    shift = BinaryShift(4)
    for bad in ((2, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0.5, 1)):
        with pytest.raises(ValueError, match="shift symbols must be 0 or 1"):
            shift.dist(bad, (0, 0, 0, 0))
        with pytest.raises(ValueError, match="shift symbols must be 0 or 1"):
            shift.pairwise_dist([(0, 1, 0, 1), bad], [(0, 0, 0, 0)])
    with pytest.raises(ValueError, match="shift symbols must be 0 or 1"):
        BinaryShift(3).orbit_segment((0, 2, 0, 1, 1, 0, 1, 0), 3)
    # sequences of valid symbols keep working, whatever their dtype
    assert shift.dist(np.array([1, 0, 0, 0, 1]), (1.0, 0, 1, 1)) == 0.25


def test_parameter_validation():
    with pytest.raises(ValueError):
        CircleRotation(alpha=1.0)
    with pytest.raises(ValueError):
        LogisticMap(r=4.5)
    with pytest.raises(ValueError):
        BinaryShift(horizon=0)
    # bools are not numbers here, as in a system spec; numpy integers are counts
    for make in (lambda: BinaryShift(True), lambda: BinaryShift(5.0),
                 lambda: LogisticMap(True), lambda: LogisticMap(False),
                 lambda: CircleRotation(False)):
        with pytest.raises(ValueError):
            make()
    assert type(BinaryShift(np.int64(5)).horizon) is int


def test_serialization_round_trip():
    samples = [
        CircleRotation(alpha=GOLDEN),
        DoublingMap(),
        TentMap(),
        LogisticMap(r=3.9),
        BinaryShift(horizon=12),
        product_system(CircleRotation(alpha=0.25), BinaryShift()),
        BinaryShift(1),
        BinaryShift(np.int64(5)),
        LogisticMap(4),
        CircleRotation(0),
        product_system(LogisticMap(), product_system(TentMap(), BinaryShift(3))),
    ]
    for system in samples:
        clone = system_from_json(system.to_json())
        assert clone == system
        assert clone.to_dict() == system.to_dict()
    nested = json.loads(product_system(CircleRotation(alpha=0.25), BinaryShift()).to_json())
    assert nested["kind"] == "product"
    assert nested["first"]["kind"] == "circle_rotation"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        system_from_dict({"kind": "horseshoe"})


def test_system_spec_with_missing_or_ill_typed_fields_raises_value_error():
    bad = [
        {"kind": "circle_rotation"},
        {"kind": "circle_rotation", "alpha": None},
        {"kind": "circle_rotation", "alpha": "0.3"},
        {"kind": "logistic_map", "r": [3.9]},
        {"kind": "binary_shift", "shift_horizon": 12.5},
        {"kind": "binary_shift", "shift_horizon": True},
        {"kind": ["product"]},
        {"kind": "product", "first": {"kind": "tent_map"}, "second": None},
    ]
    for spec in bad:
        with pytest.raises(ValueError):
            system_from_dict(spec)
    assert system_from_dict({"kind": "logistic_map"}).r == 4.0
    assert system_from_dict({"kind": "binary_shift"}).horizon == 30


def test_product_round_trip_preserves_factors():
    prod = product_system(CircleRotation(alpha=GOLDEN), DoublingMap())
    clone = system_from_dict(prod.to_dict())
    assert isinstance(clone, ProductSystem)
    assert clone.first.kind == "circle_rotation"
    assert clone.second.kind == "doubling_map"


def test_all_lists_every_public_import():
    with open(orbitmetric.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not alias.name.startswith("_")}
    assert len(orbitmetric.__all__) == len(set(orbitmetric.__all__))
    assert set(orbitmetric.__all__) == imported | {"__version__"}
