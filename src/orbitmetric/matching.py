"""Exact combinatorial solvers on square cost matrices.

``min_cost_assignment`` runs scipy's compiled shortest-augmenting-path
solver, ``brute_force_assignment`` is the independent enumeration oracle for
small n.  ``max_matching_under_threshold`` (the oracle of Delta_n) and
``birkhoff_decompose`` need a maximum matching on a 0/1 mask; they get it
from the same solver run on 0/1 costs, and ``birkhoff_decompose`` peels a
bistochastic matrix into a convex combination of permutations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DecompositionFailureError, NotBistochasticError, SizeLimitError

BRUTE_FORCE_LIMIT = 9

# row/column sums of a bistochastic matrix may be off by this much
BISTOCHASTIC_TOL = 1e-6

# residual entries below this are zeroed between peeling rounds
PEEL_CLAMP = 1e-9


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0, ..., n-1} stored as the image tuple."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError("mapping is not a bijection of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def matrix(self) -> np.ndarray:
        P = np.zeros((self.n, self.n))
        P[np.arange(self.n), list(self.mapping)] = 1.0
        return P


@dataclass(frozen=True)
class ConvexDecomposition:
    """Weights and permutations with sum(w_k * P_k) equal to the input."""

    weights: tuple[float, ...]
    permutations: tuple[Permutation, ...]

    def reconstruct(self) -> np.ndarray:
        n = self.permutations[0].n
        out = np.zeros((n, n))
        for w, p in zip(self.weights, self.permutations):
            out[np.arange(n), list(p.mapping)] += w
        return out


def _cost_entries(cost) -> np.ndarray:
    entries = cost.entries if hasattr(cost, "entries") else np.asarray(cost, dtype=np.float64)
    entries = np.asarray(entries, dtype=np.float64)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("cost matrix must be square")
    if entries.shape[0] == 0:
        raise ValueError("cost matrix must be non-empty")
    if not np.isfinite(entries).all():
        raise ValueError("cost entries must be finite")
    if (entries < 0).any():
        raise ValueError("cost entries must be non-negative")
    return entries


def min_cost_assignment(cost) -> tuple[Permutation, float]:
    """Exact minimum-cost perfect assignment and its total cost.

    Runs scipy's compiled shortest-augmenting-path solver
    (``scipy.optimize.linear_sum_assignment``, Crouse 2016), which is
    deterministic: the same matrix always gives the same permutation.  When
    several permutations are optimal (cost ties), the one returned may differ
    from another exact solver's choice, but the total cannot.
    """
    C = _cost_entries(cost)
    rows, perm = linear_sum_assignment(C)
    total = float(C[rows, perm].sum())
    return Permutation(tuple(perm.tolist())), total


def brute_force_assignment(cost) -> tuple[Permutation, float]:
    """Assignment oracle by full enumeration of permutations (n <= 9)."""
    C = _cost_entries(cost)
    n = C.shape[0]
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(f"enumeration oracle is limited to n <= {BRUTE_FORCE_LIMIT}")
    rows = range(n)
    best_perm = None
    best = np.inf
    for sigma in itertools.permutations(range(n)):
        total = sum(C[i, sigma[i]] for i in rows)
        if total < best:
            best = total
            best_perm = sigma
    return Permutation(best_perm), float(best)


def _mask_matching(mask: np.ndarray) -> tuple[int, np.ndarray]:
    """Maximum matching size on a square 0/1 mask, plus a row-to-column map.

    A minimum-cost assignment on costs 0 (edge) and 1 (non-edge) uses as many
    edges as possible, so the matching size is n minus its cost
    (König-Egerváry).  When the size is n, the map is a perfect matching on
    the mask.
    """
    A = (~mask).astype(np.float64)
    rows, cols = linear_sum_assignment(A)
    return mask.shape[0] - int(A[rows, cols].sum()), cols


def max_matching_under_threshold(cost, delta: float) -> int:
    """Size of a maximum matching on pairs with cost <= delta."""
    C = _cost_entries(cost)
    if not delta >= 0:
        raise ValueError("threshold must be non-negative")
    size, _ = _mask_matching(C <= delta)
    return size


def birkhoff_decompose(matrix) -> ConvexDecomposition:
    """Split a bistochastic matrix into a convex combination of permutations.

    Each round finds a perfect matching on the support of the residual,
    subtracts the minimum matched entry times that permutation, and zeroes
    entries below PEEL_CLAMP to stop float dust from accumulating.  The
    number of terms is at most (n-1)^2 + 1.
    """
    B = np.array(matrix, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    if (B < -BISTOCHASTIC_TOL).any():
        raise NotBistochasticError("matrix has negative entries")
    n = B.shape[0]
    if np.abs(B.sum(axis=1) - 1.0).max() > BISTOCHASTIC_TOL:
        raise NotBistochasticError("row sums are not 1 within tolerance")
    if np.abs(B.sum(axis=0) - 1.0).max() > BISTOCHASTIC_TOL:
        raise NotBistochasticError("column sums are not 1 within tolerance")
    R = np.clip(B, 0.0, None)
    weights: list[float] = []
    perms: list[Permutation] = []
    max_rounds = (n - 1) ** 2 + 1
    for _ in range(max_rounds + 1):
        R[R < PEEL_CLAMP] = 0.0
        if not R.any():
            break
        size, cols = _mask_matching(R > 0.0)
        if size < n:
            raise DecompositionFailureError(
                "residual support admits no perfect matching")
        rows = np.arange(n)
        w = float(R[rows, cols].min())
        weights.append(w)
        perms.append(Permutation(tuple(cols.tolist())))
        R[rows, cols] -= w
    else:
        raise DecompositionFailureError("peeling did not terminate in the term bound")
    return ConvexDecomposition(tuple(weights), tuple(perms))
