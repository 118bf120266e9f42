import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitmetric import (
    DecompositionFailureError,
    NotBistochasticError,
    SizeLimitError,
    birkhoff_decompose,
    brute_force_assignment,
    max_matching_under_threshold,
    min_cost_assignment,
)

ASSIGN_TOL = 1e-12


def test_zero_diagonal_assignment():
    perm, cost = min_cost_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert cost == 0.0
    assert list(perm.mapping) == [0, 1]


def test_tied_assignment_cost():
    _, cost = min_cost_assignment(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert cost == pytest.approx(5.0, abs=ASSIGN_TOL)


def test_assignment_matches_brute_force_6x6():
    rng = np.random.default_rng(11)
    for _ in range(20):
        C = rng.random((6, 6))
        _, cost = min_cost_assignment(C)
        _, ref = brute_force_assignment(C)
        assert abs(cost - ref) <= ASSIGN_TOL


def test_assignment_permutation_attains_reported_cost():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        C = rng.random((n, n))
        perm, cost = min_cost_assignment(C)
        assert sorted(perm.mapping) == list(range(n))
        assert C[np.arange(n), perm.mapping].sum() == pytest.approx(cost, abs=ASSIGN_TOL)


def test_assignment_matches_brute_force_on_ties():
    # dyadic entries and constant matrices carry many tied optima; dyadic
    # totals are exact in float64, so the solver must equal the oracle exactly
    rng = np.random.default_rng(18)
    levels = np.array([0.0] + [2.0 ** -k for k in range(1, 6)])
    for n in range(2, 9):
        cases = [rng.choice(levels, size=(n, n)) for _ in range(5)]
        cases += [np.zeros((n, n)), np.full((n, n), 0.25)]
        for C in cases:
            perm, cost = min_cost_assignment(C)
            _, ref = brute_force_assignment(C)
            assert cost == ref
            assert C[np.arange(n), perm.mapping].sum() == cost


def test_brute_force_single_entry():
    _, cost = brute_force_assignment(np.array([[0.3]]))
    assert cost == 0.3


def test_brute_force_bounded_by_identity():
    rng = np.random.default_rng(13)
    C = rng.random((5, 5))
    _, cost = brute_force_assignment(C)
    assert cost <= np.trace(C) + ASSIGN_TOL


def test_brute_force_size_guard():
    with pytest.raises(SizeLimitError):
        brute_force_assignment(np.zeros((10, 10)))


def test_assignment_input_validation():
    with pytest.raises(ValueError):
        min_cost_assignment(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        min_cost_assignment(np.array([[0.5, -0.1], [0.2, 0.3]]))
    with pytest.raises(ValueError):
        min_cost_assignment(np.array([[np.inf, 0.0], [0.0, 0.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_assignment_scale_equivariance(n, seed):
    rng = np.random.default_rng(seed)
    C = rng.random((n, n))
    scale = 0.1 + 3.0 * rng.random()
    perm, cost = min_cost_assignment(C)
    perm_s, cost_s = min_cost_assignment(scale * C)
    assert cost_s == pytest.approx(scale * cost, rel=1e-12, abs=1e-12)
    # the scaled optimum must be attained by its permutation on the original too
    base = C[np.arange(n), perm_s.mapping].sum()
    assert base == pytest.approx(cost, rel=1e-12, abs=1e-12)


def _brute_max_matching(mask: np.ndarray) -> int:
    n, m = mask.shape
    best = 0
    cols = list(range(m))
    for perm in itertools.permutations(cols, n):
        best = max(best, sum(1 for i in range(n) if mask[i, perm[i]]))
    return best


def test_threshold_matching_no_admissible_edges():
    C = np.ones((4, 4))
    assert max_matching_under_threshold(C, 0.5) == 0


def test_threshold_matching_zero_diagonal():
    rng = np.random.default_rng(14)
    C = rng.random((5, 5))
    np.fill_diagonal(C, 0.0)
    assert max_matching_under_threshold(C, 0.0) == 5


def test_threshold_matching_rejects_negative_delta():
    for delta in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            max_matching_under_threshold(np.ones((2, 2)), delta)


def test_threshold_matching_vs_brute_force():
    rng = np.random.default_rng(15)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        C = rng.random((n, n))
        delta = float(rng.random())
        got = max_matching_under_threshold(C, delta)
        assert got == _brute_max_matching(C <= delta)


def test_threshold_matching_deep_augmenting_paths():
    # regression: this mask needs an augmenting path of five edges
    C = np.where(np.array([
        [0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 1, 1],
        [1, 1, 0, 1, 1, 1],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 0, 1, 0, 1, 0]]) == 1, 0.0, 1.0)
    assert max_matching_under_threshold(C, 0.5) == 5


def test_threshold_matching_deficient_known_size():
    # rows i < m own the edge (i, p(i)); every edge lands in the m columns
    # p[:m], so no matching exceeds m and the planted one reaches it
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(50, 301))
        m = int(rng.integers(0, n + 1))
        p = rng.permutation(n)
        mask = np.zeros((n, n), dtype=bool)
        mask[np.arange(m), p[:m]] = True
        if m:
            extra = rng.integers(0, m, size=(n, 3))
            mask[np.arange(n)[:, None], p[extra]] = True
        got = max_matching_under_threshold(np.where(mask, 0.0, 1.0), 0.5)
        assert type(got) is int
        assert got == m


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_threshold_matching_monotone_in_delta(n, seed):
    rng = np.random.default_rng(seed)
    C = rng.random((n, n))
    sizes = [max_matching_under_threshold(C, d) for d in np.linspace(0, 1, 7)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def _random_bistochastic(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    weights = rng.dirichlet(np.ones(k))
    B = np.zeros((n, n))
    for w in weights:
        perm = rng.permutation(n)
        B[np.arange(n), perm] += w
    return B


def test_birkhoff_identity_single_term():
    dec = birkhoff_decompose(np.eye(4))
    assert len(dec.weights) == 1
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert list(dec.permutations[0].mapping) == [0, 1, 2, 3]


def test_birkhoff_two_by_two_unique_decomposition():
    dec = birkhoff_decompose(np.array([[0.3, 0.7], [0.7, 0.3]]))
    terms = {tuple(p.mapping): w for w, p in zip(dec.weights, dec.permutations)}
    assert set(terms) == {(0, 1), (1, 0)}
    assert terms[(0, 1)] == pytest.approx(0.3, abs=1e-9)
    assert terms[(1, 0)] == pytest.approx(0.7, abs=1e-9)


def test_birkhoff_uniform_four_by_four():
    B = np.full((4, 4), 0.25)
    dec = birkhoff_decompose(B)
    assert len(dec.weights) <= 10
    assert np.max(np.abs(dec.reconstruct() - B)) <= 1e-7


def test_birkhoff_random_convex_combinations():
    rng = np.random.default_rng(16)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n * n + 1))
        B = _random_bistochastic(rng, n, k)
        dec = birkhoff_decompose(B)
        assert np.max(np.abs(dec.reconstruct() - B)) <= 1e-7
        assert abs(sum(dec.weights) - 1.0) <= 1e-9
        assert all(w > 0 for w in dec.weights)


def test_birkhoff_term_bound_for_sparse_combinations():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        k = max(1, n - 1)
        B = _random_bistochastic(rng, n, k)
        dec = birkhoff_decompose(B)
        assert len(dec.weights) <= (n - 1) ** 2 + 1


def test_birkhoff_rejects_non_bistochastic():
    with pytest.raises(NotBistochasticError):
        birkhoff_decompose(np.array([[0.6, 0.3], [0.4, 0.7]]))
    with pytest.raises(NotBistochasticError):
        birkhoff_decompose(np.array([[1.0, 0.0], [0.5, 0.5]]))


def test_birkhoff_residual_without_perfect_matching():
    # within the row/column tolerance, but after peeling the identity the
    # residual support is (0, 1) and (1, 1), both in column 1
    with pytest.raises(DecompositionFailureError, match="no perfect matching"):
        birkhoff_decompose(np.array([[1 - 5e-7, 5e-7], [0.0, 1.0]]))
