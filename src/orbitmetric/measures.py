"""Discrete measures on orbit state spaces and the distances between them.

The measures here are finitely supported probability measures whose atoms
are system states (numbers, symbol windows, or pairs).  Three distances are
provided: exact Wasserstein-1 via the transportation linear program, solved
by column generation; exact closed-form Wasserstein-1 for one-dimensional
geometries; and the exact one-sided Prokhorov metric.  Prokhorov runs one
monotone search over the thresholds (``_breakpoint_search``) on every
geometry, and the geometry gives only its deficiency rule: the shift sums
the surplus over the cylinders of its ultrametric (``_cylinder_surplus``),
the line runs a greedy sweep (``_line_unsent``) and the circle and products
a maximum flow (``_flow_unsent``), all in the mass unit ``_masses`` picks:
integer counts when both measures keep them (empirical measures do), so the
value is correctly rounded, and float weights with a Python Dinic flow
otherwise.  The Dinic flow and ``prokhorov_oracle`` check the other routes.
Delta_n of two length-n orbits is n times the deficiency of their
empirical measures, and ``pseudometrics`` counts it with the same two rules.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag
from scipy.optimize import linprog
from scipy.sparse.csgraph import maximum_flow

from .errors import SizeLimitError
from . import systems as _systems

ORACLE_SUPPORT_LIMIT = 12

WEIGHT_SUM_TOL = 1e-12

# residual capacities below this are treated as exhausted in max-flow
_FLOW_EPS = 1e-15

# scipy's maximum_flow keeps capacities in int32 and wraps larger ones
# without an error, so the integer flow runs only below this common scale
_INT_FLOW_LIMIT = 2 ** 31

# nearest pairs of each row and each column that seed the restricted W1 LP
_W1_SEED_NEIGHBOURS = 16
# a pair whose reduced cost falls below minus this joins the restricted W1 LP
_W1_PRICE_TOL = 1e-12


# ---------------------------------------------------------------------------
# measures and schedules


class DiscreteMeasure:
    """Finitely supported probability measure.

    Atoms are kept sorted and pairwise distinct (exactly equal atoms are
    merged on construction); weights are non-negative and sum to one within
    WEIGHT_SUM_TOL.  A measure built by ``from_counts`` also keeps its
    integer ``counts``, with weights = counts / counts.sum(); one built from
    float weights has ``counts = None``.  Instances are immutable by
    convention.
    """

    __slots__ = ("atoms", "weights", "counts")

    def __init__(self, atoms, weights) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        atoms = list(atoms)
        if len(atoms) != len(weights):
            raise ValueError("atoms and weights must have equal length")
        if len(atoms) == 0:
            raise ValueError("measure needs at least one atom")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        if (weights < -1e-15).any():
            raise ValueError("weights must be non-negative")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
        self.atoms, merged = _merge_atoms(atoms, weights.tolist())
        self.weights = np.asarray(merged, dtype=np.float64)
        self.counts = None

    @classmethod
    def from_counts(cls, atoms, counts) -> "DiscreteMeasure":
        """Measure with weight counts[i] / sum(counts) on atoms[i], counts kept."""
        counts = np.asarray(counts)
        atoms = list(atoms)
        if counts.shape != (len(atoms),):
            raise ValueError("atoms and counts must have equal length")
        if len(atoms) == 0:
            raise ValueError("measure needs at least one atom")
        if counts.dtype.kind not in "iu":
            raise ValueError("counts must be integers")
        if (counts < 0).any() or counts.sum() == 0:
            raise ValueError("counts must be non-negative with a positive sum")
        self = cls.__new__(cls)
        self.atoms, merged = _merge_atoms(atoms, counts.tolist())
        self.counts = np.asarray(merged, dtype=np.int64)
        self.weights = self.counts / self.counts.sum()
        return self

    @classmethod
    def dirac(cls, atom) -> "DiscreteMeasure":
        return cls.from_counts([atom], [1])

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        return f"DiscreteMeasure({self.support_size} atoms)"


def _merge_atoms(atoms: list, masses: list) -> tuple[tuple, list]:
    """Sorted distinct atoms and the summed masses of equal ones."""
    merged: dict = {}
    for a, w in zip(atoms, masses):
        key = float(a) if isinstance(a, (int, float, np.floating)) else a
        merged[key] = merged.get(key, 0) + w
    order = sorted(merged)
    return tuple(order), [merged[a] for a in order]


@dataclass(frozen=True)
class MeasureSet:
    """A finite family of measures, e.g. estimated orbit limit measures."""

    members: tuple

    def __post_init__(self) -> None:
        if len(self.members) == 0:
            raise ValueError("measure set must be non-empty")


@dataclass(frozen=True)
class Schedule:
    """Increasing orbit-length checkpoints plus the index where the tail starts."""

    checkpoints: tuple[int, ...]
    tail_start: int = 0

    def __post_init__(self) -> None:
        cps = self.checkpoints
        if len(cps) == 0:
            raise ValueError("schedule needs at least one checkpoint")
        if not all(map(_systems._is_count, (*cps, self.tail_start))):
            raise ValueError("checkpoints and tail_start must be integers")
        if cps[0] < 1 or any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing and >= 1")
        if not 0 <= self.tail_start < len(cps):
            raise ValueError("tail_start must index a checkpoint")

    @classmethod
    def geometric(cls, max_n: int, ratio: float = 1.5, tail: int = 5) -> "Schedule":
        """Checkpoints round(ratio**k) up to max_n, tail at the last ``tail``."""
        (max_n,) = _systems._counts([max_n], "max_n")
        if not ratio > 1:
            raise ValueError("ratio must be greater than 1")
        (tail,) = _systems._counts([tail], "tail length")
        vals = set()
        k = 0
        while True:
            v = round(ratio ** k)
            if v > max_n:
                break
            vals.add(max(1, v))
            k += 1
        vals.add(max_n)
        cps = tuple(sorted(vals))
        return cls(cps, max(0, len(cps) - tail))

    @property
    def max_n(self) -> int:
        return self.checkpoints[-1]

    @property
    def tail_checkpoints(self) -> tuple[int, ...]:
        return self.checkpoints[self.tail_start:]


def empirical_measure(seg: _systems.OrbitSegment) -> DiscreteMeasure:
    """Uniform measure on the first ``length`` orbit states, equal states merged.

    Shift states are merged iff their horizon-length windows agree, which is
    exactly distance zero under the truncated metric.
    """
    system = seg.system
    n = seg.length
    if system.geometry == _systems.GEOMETRY_SHIFT:
        windows = system._view(seg)
        order, split = _cylinder_order(windows)
        starts = np.flatnonzero(np.concatenate([[True], split < system.horizon]))
        return DiscreteMeasure.from_counts(map(tuple, windows[order[starts]].tolist()),
                                           np.diff(starts, append=n))
    if system.geometry == _systems.GEOMETRY_PRODUCT:
        counts = Counter(seg.point(k) for k in range(n))
        atoms = sorted(counts)
        return DiscreteMeasure.from_counts(atoms, [counts[a] for a in atoms])
    values, counts = np.unique(np.asarray(seg.data, dtype=np.float64),
                               return_counts=True)
    return DiscreteMeasure.from_counts([float(v) for v in values], counts)


# ---------------------------------------------------------------------------
# Wasserstein-1


def wasserstein1(mu: DiscreteMeasure, nu: DiscreteMeasure,
                 system: _systems.System) -> float:
    """Exact Wasserstein-1 via the transportation linear program.

    Supplies are mu's weights, demands nu's, and the cost of moving one unit
    from atom i to atom j is their ground distance.  The LP over all m*n
    pairs is solved by delayed column generation: a restricted LP over a few
    pairs (see ``_w1_seed``) is solved with the HiGHS simplex through scipy,
    its duals u, v price every pair, each pair with reduced cost
    D[i, j] - u[i] - v[j] below -_W1_PRICE_TOL joins, and the loop repeats
    until none does.  Pricing tests only the pairs outside the restricted
    LP, so HiGHS runs with dual feasibility tolerance 1e-10, the least it
    accepts: at its default 1e-7 a restricted solve could stop at a basis
    1.1e-9 above the optimum.  On exit every reduced cost is then at least
    -1e-10, and lowering u by the largest violation gives a feasible dual of
    the full LP within 1e-10 of the value returned (mu has mass one), so
    that value is the full LP optimum to within 1e-10, up to HiGHS's primal
    feasibility tolerance.  No closed form is used.  HiGHS presolve is off:
    on a transportation problem it removes only the one redundant balance
    row, and it made the restricted solves 1.05 to 1.6 times slower.
    """
    D = system.pairwise_dist(mu.atoms, nu.atoms)
    m, n = D.shape
    if m == 1:
        return float(D[0] @ nu.weights)
    if n == 1:
        return float(D[:, 0] @ mu.weights)
    b = np.concatenate([mu.weights, nu.weights])
    active = _w1_seed(D, mu.weights, nu.weights)
    while True:
        rows, cols = np.nonzero(active)
        # column k of the restricted LP has a one in row rows[k] and in m + cols[k]
        A = sparse.csc_array((np.ones(2 * len(rows)),
                              np.stack([rows, m + cols], axis=1).ravel(),
                              np.arange(0, 2 * len(rows) + 1, 2)), shape=(m + n, len(rows)))
        res = linprog(D[rows, cols], A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                      options={"presolve": False, "dual_feasibility_tolerance": 1e-10})
        if not res.success:
            raise RuntimeError(f"transportation solve failed: {res.message}")
        y = res.eqlin.marginals
        entering = (D - y[:m, None] - y[None, m:] < -_W1_PRICE_TOL) & ~active
        if not entering.any():
            return float(res.fun)
        active |= entering


def _w1_seed(D: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """The pairs the restricted LP of ``wasserstein1`` starts from, as a mask.

    The northwest-corner plan over the atoms in their stored order, which
    visits every row and column on a staircase from (0, 0) to (m-1, n-1)
    and so keeps the restricted LP feasible on every geometry, together with
    each row's and each column's _W1_SEED_NEIGHBOURS nearest pairs in D.
    """
    m, n = D.shape
    active = np.zeros((m, n), dtype=bool)
    # the staircase steps down at each cut of mu's CDF and right at each of nu's
    down = np.arange(m + n - 2) < m - 1
    steps = down[np.argsort(np.concatenate([np.cumsum(wa)[:-1], np.cumsum(wb)[:-1]]),
                            kind="stable")]
    active[np.cumsum(np.concatenate([[0], steps])),
           np.cumsum(np.concatenate([[0], ~steps]))] = True
    k = min(_W1_SEED_NEIGHBOURS, n)
    active[np.arange(m)[:, None], np.argpartition(D, k - 1, axis=1)[:, :k]] = True
    k = min(_W1_SEED_NEIGHBOURS, m)
    active[np.argpartition(D, k - 1, axis=0)[:k], np.arange(n)[None, :]] = True
    return active


def wasserstein1_fast_1d(mu: DiscreteMeasure, nu: DiscreteMeasure,
                         geometry: str) -> float:
    """Closed-form Wasserstein-1 on the line or circle.

    Line: integral of |F_mu - F_nu| between consecutive support points.
    Circle: min over c of the integral of |F_mu - F_nu - c|, minimized by a
    length-weighted median of the CDF difference; ground metric is the arc
    distance, so values agree with the transportation program exactly.
    """
    u = np.asarray(mu.atoms, dtype=np.float64)
    v = np.asarray(nu.atoms, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError("fast path needs scalar atoms")
    if geometry == _systems.GEOMETRY_LINE:
        return _w1_line(u, mu.weights, v, nu.weights)
    if geometry == _systems.GEOMETRY_CIRCLE:
        return _w1_circle(u, mu.weights, v, nu.weights)
    raise ValueError(f"no one-dimensional fast path for geometry {geometry!r}")


def _w1_line(u: np.ndarray, uw: np.ndarray, v: np.ndarray, vw: np.ndarray) -> float:
    return _merged_w1(_systems.GEOMETRY_LINE, u, uw, v, vw)


def _w1_circle(u: np.ndarray, uw: np.ndarray, v: np.ndarray, vw: np.ndarray) -> float:
    return _merged_w1(_systems.GEOMETRY_CIRCLE, u, uw, v, vw)


def _merged_w1(geometry: str, u: np.ndarray, uw: np.ndarray,
               v: np.ndarray, vw: np.ndarray) -> float:
    pts = np.concatenate([u, v])
    order = np.argsort(pts, kind="stable")
    return _sorted_w1(geometry, pts[order], np.concatenate([uw, -vw])[order])


def _sorted_w1(geometry: str, pts: np.ndarray, signed: np.ndarray) -> float:
    """W1 on the line or circle from the merged atoms of both measures in
    ascending order, with mu's weights positive and nu's negative.  Integer
    weights (counts) give an exact integer CDF and W1 times their scale."""
    if geometry == _systems.GEOMETRY_LINE:
        if not (0 <= pts[0] and pts[-1] <= 1):
            raise ValueError("line atoms must lie in [0, 1]")
        cdf_diff = np.cumsum(signed)[:-1]
        return float(np.abs(cdf_diff) @ np.diff(pts))
    if not (0 <= pts[0] and pts[-1] < 1):
        raise ValueError("circle atoms must lie in [0, 1)")
    g = np.cumsum(signed)
    lengths = np.empty_like(pts)
    lengths[:-1] = np.diff(pts)
    lengths[-1] = 1.0 - pts[-1] + pts[0]  # wrap segment, g there is ~0
    shift = _weighted_median(g, lengths)
    return float(np.abs(g - shift) @ lengths)


def _cylinder_order(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of a stack of 0/1 windows of length K, and
    ``split``: where each neighbouring pair in that order first differs (K if
    none).  Windows lie within 2**-k iff they share their first k symbols, so
    the length-k cylinders are the runs that ``split < k`` cuts apart."""
    K = windows.shape[1]
    # byte order is lexicographic order for 0/1 symbols
    order = np.argsort(np.ascontiguousarray(windows).view(f"V{K}").ravel(),
                       kind="stable")
    differ = np.diff(windows[order], axis=0) != 0
    return order, np.where(differ.any(axis=1), differ.argmax(axis=1), K)


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Least value whose cumulative weight, in ascending order, reaches half.

    Integer values (an unscaled CDF difference, within 2n of its minimum)
    are binned by ``bincount`` in place of a sort."""
    if values.dtype.kind == "i":
        low = values.min()
        cum = np.cumsum(np.bincount(values - low, weights=weights))
        return float(low + np.searchsorted(cum, 0.5 * cum[-1]))
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    half = 0.5 * cum[-1]
    idx = int(np.searchsorted(cum, half))
    return float(values[order][min(idx, len(values) - 1)])


# ---------------------------------------------------------------------------
# Prokhorov


def prokhorov(mu: DiscreteMeasure, nu: DiscreteMeasure,
              system: _systems.System) -> float:
    """One-sided Prokhorov distance, computed exactly.

    inf { eps > 0 : mu(B) <= nu(B^eps) + eps for every B }, with the open
    eps-hull.  For eps just above a threshold t the worst deficiency
    sup_B (mu(B) - nu(B^eps)) is def(t), the mass of mu that a maximum flow
    along the pairs at distance <= t leaves unsent, and the distance is the
    least max(t, def(t)) over the thresholds t that are pairwise support
    distances (0 included).  One monotone search over the sorted thresholds
    (``_breakpoint_search``) finds it on every geometry, and each geometry
    computes the unsent mass by its own rule:

    * shift: the window metric is an ultrametric, so def(t) sums the surplus
      mass of mu over the cylinders of level ``BinaryShift._level`` of t
      (``_shift_deficiency``), every level from one sort of the atoms, with
      no flow network; the thresholds are every window distance 2**-k,
      k < horizon, a superset of the support distances that leaves the least
      value unchanged, so no distance matrix is built;
    * line: a greedy sweep over the sorted atoms of both measures
      (``_line_unsent``);
    * circle and products: a max flow on the admissible pairs (``_flow_unsent``).

    Masses are in the unit of ``_masses``.  When both measures keep counts
    with least common total below 2**31, every rule sums integers and def(t)
    is one division, so the value is correctly rounded.
    """
    wa, wb, total = _masses(mu, nu)
    if system.geometry == _systems.GEOMETRY_SHIFT:
        D = np.ldexp(1.0, -np.arange(system.horizon))
        surplus = _shift_deficiency(system, mu.atoms, wa, nu.atoms, wb[:, None])
        unsent = lambda t: surplus(t)[0]
    elif system.geometry == _systems.GEOMETRY_LINE:
        D = system.pairwise_dist(mu.atoms, nu.atoms)
        sides = (list(map(float, mu.atoms)), wa.tolist(), list(map(float, nu.atoms)), wb.tolist())
        unsent = lambda t: _line_unsent(*sides, t)
    else:
        D = system.pairwise_dist(mu.atoms, nu.atoms)
        unsent = _flow_unsent(D, wa, wb, total)
    return _breakpoint_search(D, lambda t: unsent(t) / total)


def _masses(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray, int]:
    """The masses of mu and nu in one unit, and their common total: the
    counts scaled to L = lcm of their totals when both keep counts and L is
    below _INT_FLOW_LIMIT, else the float weights with total 1."""
    if mu.counts is not None and nu.counts is not None:
        na, nb = int(mu.counts.sum()), int(nu.counts.sum())
        if (total := math.lcm(na, nb)) < _INT_FLOW_LIMIT:
            return mu.counts * (total // na), nu.counts * (total // nb), total
    return mu.weights, nu.weights, 1


def _breakpoint_search(D: np.ndarray, deficiency) -> float:
    """Least max(t, deficiency(t)) over t in {0} and the entries of ``D``.

    ``deficiency`` must be non-increasing in t."""
    lefts = np.unique(np.concatenate([[0.0], D.ravel()]))
    n_iv = len(lefts)

    deficiency_cache: dict[int, float] = {}

    def deficiency_at(k: int) -> float:
        if k not in deficiency_cache:
            deficiency_cache[k] = float(deficiency(lefts[k]))
        return deficiency_cache[k]

    def feasible(k: int) -> bool:
        right = lefts[k + 1] if k + 1 < n_iv else np.inf
        return deficiency_at(k) <= right

    # deficiency is non-increasing and interval right ends increase, so the
    # feasible intervals form a suffix; find its first index
    if feasible(0):
        k0 = 0
    else:
        lo, hi = 0, 1
        while hi < n_iv - 1 and not feasible(hi):
            lo = hi
            hi = min(2 * hi, n_iv - 1)
        # invariant: feasible(hi) (the last interval always is), not feasible(lo)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        k0 = hi
    return max(float(lefts[k0]), deficiency_at(k0), 0.0)


def _flow_unsent(D: np.ndarray, wa: np.ndarray, wb: np.ndarray, total):
    """t -> total - maxflow from supplies ``wa`` to demands ``wb`` along the
    pairs with D <= t: the mass of ``wa`` that the flow leaves unsent.

    Integer masses (total below 2**31, the int32 capacities scipy works in)
    run scipy's max flow, each admissible pair an arc of capacity ``total``,
    so the flow is exact; float weights (total 1) run Dinic's algorithm.
    """
    if wa.dtype.kind == "f":
        return lambda t: total - _max_flow_bipartite(wa, wb, *np.nonzero(D <= t))
    m, n = D.shape
    sink = m + n + 1
    # node 0 is the source, 1..m the atoms of mu, m+1..m+n those of nu

    def unsent(t: float) -> int:
        rows, cols = np.nonzero(D <= t)
        degrees = np.concatenate([[m], np.bincount(rows, minlength=m), np.ones(n, int), [0]])
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        indices = np.concatenate([1 + np.arange(m), 1 + m + cols, np.full(n, sink)])
        caps = np.concatenate([wa, np.full(len(rows), total), wb])
        graph = sparse.csr_array((caps.astype(np.int32), indices.astype(np.int32),
                                  indptr.astype(np.int32)), shape=(sink + 1, sink + 1))
        return total - maximum_flow(graph, 0, sink).flow_value
    return unsent


def _shift_deficiency(system: _systems.BinaryShift, atoms_a, wa: np.ndarray,
                      atoms_b, wb: np.ndarray):
    """t -> the mass of mu (``atoms_a``, masses ``wa``) left unsent to each
    nu on ``atoms_b`` whose masses are a column of ``wb``, as an array.

    The pairs within t join each cylinder of level ``system._level`` of t to
    itself, so that mass is the sum over those cylinders C of (mu(C) - nu(C))+.
    """
    order, split = _cylinder_order(np.concatenate([system._states(atoms_a),
                                                   system._states(atoms_b)]))
    # one row per measure: a row sums pairwise as a 1-d array does; a column would not
    mass = block_diag(wa, wb.T)[:, order]
    return lambda t: _cylinder_surplus(mass, split, system._level(t, system.horizon))


def _cylinder_surplus(mass: np.ndarray, split: np.ndarray, k: int) -> np.ndarray:
    """Sum over the length-k cylinders C of (mass[0](C) - mass[r](C))+, for
    each later row r: the mass of row 0 that a maximum flow to row r along
    the pairs within 2**-k leaves unsent.  Columns are windows in the order
    of ``_cylinder_order``, and ``split`` is its second output."""
    starts = np.concatenate([[0], np.flatnonzero(split < k) + 1])
    cylinders = np.add.reduceat(mass, starts, axis=1)
    return np.maximum(cylinders[0] - cylinders[1:], 0).sum(axis=1)


def _line_unsent(xs: list, ws: list, ys: list, vs: list, t: float):
    """The mass of ``ws`` on the line points ``xs`` that a maximum flow to the
    masses ``vs`` on ``ys``, along the pairs with abs(x - y) <= t (the line
    kernel, so the pairs of ``D <= t``), leaves unsent; an int for int masses.

    Both point lists ascend.  The ys within t of an x form an interval whose
    ends rise with x (rounded subtraction is monotone), so sending each x's
    mass in turn to the leftmost ys with room is a maximum flow (Glover 1967).
    """
    free = list(vs)
    unsent = 0
    j, n = 0, len(ys)  # ys left of j are full or out of every later x's reach
    for x, w in zip(xs, ws):
        while j < n and x - ys[j] > t:
            j += 1
        while w > 0 and j < n and abs(x - ys[j]) <= t:
            if w < free[j]:
                free[j] -= w
                w = 0
            else:
                w -= free[j]
                j += 1
        unsent += w
    return unsent


def _max_flow_bipartite(wa: np.ndarray, wb: np.ndarray,
                        rows: np.ndarray, cols: np.ndarray) -> float:
    """Max flow from supplies ``wa`` to demands ``wb`` along admissible pairs.

    Dinic's algorithm on the 4-layer network; interior arcs get capacity 2,
    which no feasible flow can saturate since total supply is 1.
    """
    m, n = len(wa), len(wb)
    src, snk = 0, 1 + m + n
    adj: list[list[int]] = [[] for _ in range(m + n + 2)]
    to: list[int] = []
    cap: list[float] = []

    def add_edge(a: int, b: int, c: float) -> None:
        adj[a].append(len(to)); to.append(b); cap.append(c)
        adj[b].append(len(to)); to.append(a); cap.append(0.0)

    for i in range(m):
        add_edge(src, 1 + i, float(wa[i]))
    for j in range(n):
        add_edge(1 + m + j, snk, float(wb[j]))
    for i, j in zip(rows.tolist(), cols.tolist()):
        add_edge(1 + i, 1 + m + j, 2.0)

    total = 0.0
    while True:
        level = [-1] * len(adj)
        level[src] = 0
        queue = [src]
        for node in queue:
            for e in adj[node]:
                if cap[e] > _FLOW_EPS and level[to[e]] < 0:
                    level[to[e]] = level[node] + 1
                    queue.append(to[e])
        if level[snk] < 0:
            return total
        ptr = [0] * len(adj)
        while True:
            pushed = _dinic_dfs(src, snk, np.inf, adj, to, cap, level, ptr)
            if pushed <= 0.0:
                break
            total += pushed


def _dinic_dfs(node: int, snk: int, limit: float, adj, to, cap, level, ptr) -> float:
    # iterative blocking-flow step along the level graph
    stack = [(node, limit)]
    path: list[int] = []
    while stack:
        cur, lim = stack[-1]
        if cur == snk:
            for e in path:
                cap[e] -= lim
                cap[e ^ 1] += lim
            return lim
        advanced = False
        while ptr[cur] < len(adj[cur]):
            e = adj[cur][ptr[cur]]
            nxt = to[e]
            if cap[e] > _FLOW_EPS and level[nxt] == level[cur] + 1:
                stack.append((nxt, min(lim, cap[e])))
                path.append(e)
                advanced = True
                break
            ptr[cur] += 1
        if not advanced:
            level[cur] = -1
            stack.pop()
            if path:
                path.pop()
    return 0.0


def prokhorov_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure,
                     system: _systems.System) -> float:
    """Prokhorov by enumeration of all subsets of mu's support (<= 12 atoms).

    For each subset B the least feasible eps solves
    eps >= mu(B) - nu(B^eps) with nu(B^eps) a step function of eps; the
    answer is the maximum over subsets.  Independent of the flow solver.
    """
    m = mu.support_size
    if m > ORACLE_SUPPORT_LIMIT:
        raise SizeLimitError(
            f"subset oracle is limited to {ORACLE_SUPPORT_LIMIT} support atoms")
    D = system.pairwise_dist(mu.atoms, nu.atoms)
    wa, wb = mu.weights, nu.weights
    best = 0.0
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        mass = float(wa[idx].sum())
        dj = D[idx].min(axis=0)
        best = max(best, _least_feasible_eps(mass, dj, wb))
    return best


def _least_feasible_eps(mass: float, dj: np.ndarray, wb: np.ndarray) -> float:
    """inf { eps : mass <= sum of wb over {dj < eps} + eps }, literal scan."""
    lefts = np.unique(np.concatenate([[0.0], dj]))
    for k, left in enumerate(lefts):
        right = lefts[k + 1] if k + 1 < len(lefts) else np.inf
        covered = float(wb[dj <= left].sum())
        need = mass - covered
        if need <= right:
            return max(float(left), need, 0.0)
    raise AssertionError("final interval is always feasible")


# ---------------------------------------------------------------------------
# sets of measures


def hausdorff_measures(a, b, system: _systems.System) -> float:
    """Hausdorff distance between two finite measure families under Prokhorov."""
    members_a = a.members if isinstance(a, MeasureSet) else tuple(a)
    members_b = b.members if isinstance(b, MeasureSet) else tuple(b)
    if not members_a or not members_b:
        raise ValueError("measure families must be non-empty")
    R = np.array([[prokhorov(x, y, system) for y in members_b] for x in members_a])
    return float(max(R.min(axis=1).max(), R.min(axis=0).max()))


def omega_hat_estimate(system: _systems.System, x, schedule: Schedule,
                       cluster_tol: float = 0.05) -> MeasureSet:
    """Representatives of the orbit's tail empirical measures.

    Computes the empirical measure at each tail checkpoint and greedily
    clusters them under the Prokhorov metric with radius ``cluster_tol``;
    the first member of each cluster is its representative.
    """
    if not cluster_tol >= 0:
        raise ValueError("cluster tolerance must be non-negative")
    seg = system.orbit_segment(x, schedule.max_n)
    reps: list[DiscreteMeasure] = []
    for n in schedule.tail_checkpoints:
        meas = empirical_measure(seg.prefix(n))
        if not any(prokhorov(meas, rep, system) <= cluster_tol for rep in reps):
            reps.append(meas)
    return MeasureSet(tuple(reps))
