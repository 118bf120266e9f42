"""Discrete measures on orbit state spaces and the distances between them.

The measures here are finitely supported probability measures whose atoms
are system states (numbers, symbol windows, or pairs).  Three distances are
provided: exact Wasserstein-1, by the assignment solver for two uniform
measures of equal support size and otherwise by the transportation LP, solved
by column generation; exact closed-form Wasserstein-1 on the line and the
circle (``_w1_line``, ``_w1_circle``, which ``pseudometrics`` also runs for
ebar_n on the merged sort of two orbits); and the exact one-sided Prokhorov
metric.  Prokhorov runs one monotone search over the thresholds
(``_breakpoint_search``) on every geometry, and ``_unsent``, the one choice
of a rule by geometry, gives the mass left unsent: the shift sums the
surplus over the cylinders of its ultrametric (``_cylinder_surplus``), the
line runs a greedy sweep (``_line_unsent``), the circle one recurrence over
the arcs within reach of each atom (``_arc_unsent``), and products a maximum
flow (``_flow_unsent``), all in the mass unit ``_masses`` picks: integer
counts when both measures keep them (empirical measures do), so the value
is correctly rounded, and float weights otherwise, where products solve
each flow as one HiGHS LP.  ``prokhorov_oracle`` and the float flow check
the other routes.  def, the unsent mass over the total, changes only at
support distances, so ``omega_hat_estimate`` tests rho <= c as def(c) <= c.
Delta_n of two length-n orbits is n times the deficiency of their
empirical measures, and ``pseudometrics`` counts it with ``_unsent`` too.
Distances read atoms only through ``DiscreteMeasure.states``, validated once
per system.  Empirical measures, products included, start with their orbit's
distinct states, taken from one sort of the full orbit that every prefix
shares, and build the ``atoms`` tuple only when it is read, which only the
oracles do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.csgraph import maximum_flow

from .errors import SizeLimitError
from . import matching as _matching
from . import systems as _systems

ORACLE_SUPPORT_LIMIT = 12

WEIGHT_SUM_TOL = 1e-12

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
    merged on construction), so they must be hashable and mutually
    orderable: numbers, tuples of symbols for shift windows, or pairs of
    those; weights are non-negative and sum to one within WEIGHT_SUM_TOL.  A
    measure built by ``from_counts`` also keeps its integer ``counts``, with
    weights = counts / counts.sum(); one built from float weights has
    ``counts = None``.  Instances are immutable: ``atoms`` is a read-only
    property.  ``states`` validates atoms once per system.  An empirical
    measure begins with its orbit's states and builds the ``atoms`` tuple
    from them only when it is first read, which no distance does.
    """

    __slots__ = ("_atoms", "weights", "counts", "_kept")

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
        self._atoms, merged = _merge_atoms(atoms, weights.tolist())
        self.weights = np.asarray(merged, dtype=np.float64)
        self.counts = self._kept = None

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
        atoms, merged = _merge_atoms(atoms, counts.tolist())
        return cls._counted(atoms, np.asarray(merged, dtype=np.int64), None)

    @classmethod
    def _counted(cls, atoms, counts: np.ndarray, kept) -> "DiscreteMeasure":
        """Measure on sorted distinct ``atoms`` (None: built from ``kept`` on
        first read) with int64 ``counts``, unchecked."""
        self = cls.__new__(cls)
        self._atoms, self.counts, self._kept = atoms, counts, kept
        self.weights = counts / counts.sum()
        return self

    @classmethod
    def dirac(cls, atom) -> "DiscreteMeasure":
        return cls.from_counts([atom], [1])

    @property
    def atoms(self) -> tuple:
        """The sorted distinct atoms, built from the kept states if not given."""
        if self._atoms is None:
            self._atoms = _atoms_of(*self._kept)
        return self._atoms

    @property
    def support_size(self) -> int:
        return len(self.weights)

    def states(self, system: _systems.System):
        """The atoms as the state array of ``system._kernel``, kept per equal system."""
        if self._kept is None or self._kept[0] != system:
            self._kept = (system, system._states(self.atoms))
        return self._kept[1]

    def __repr__(self) -> str:
        return f"DiscreteMeasure({self.support_size} atoms)"


def _atoms_of(system: _systems.System, states) -> tuple:
    """The atoms whose states under ``system`` are ``states``, as Python values:
    floats, tuples of symbols for shift windows, and pairs on products."""
    if system.geometry == _systems.GEOMETRY_PRODUCT:
        return tuple(zip(_atoms_of(system.first, states[0]), _atoms_of(system.second, states[1])))
    rows = states.tolist()
    return tuple(map(tuple, rows)) if system.geometry == _systems.GEOMETRY_SHIFT else tuple(rows)


def _merge_atoms(atoms: list, masses: list) -> tuple[tuple, list]:
    """Sorted distinct atoms and the summed masses of equal ones."""
    merged: dict = {}
    try:
        for a, w in zip(atoms, masses):
            key = float(a) if isinstance(a, (int, float, np.floating)) else a
            merged[key] = merged.get(key, 0) + w
        order = sorted(merged)
    except TypeError:
        raise ValueError("atoms must be hashable and mutually orderable "
                         "(tuples for symbol windows)") from None
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
        if not (ratio > 1 and math.isfinite(ratio)):
            raise ValueError("ratio must be finite and greater than 1")
        (tail,) = _systems._counts([tail], "tail length")
        vals = set()
        k = 0
        while (v := round(ratio ** k)) <= max_n:
            vals.add(v)
            # every exponent up to the last with ratio**k <= v + 0.5 repeats v
            k = max(k + 1, math.floor(math.log(v + 0.5) / math.log(ratio)))
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
    exactly distance zero under the truncated metric.  The measure keeps the
    distinct states, in atom order, as its state array and their integer
    counts; it builds its ``atoms`` tuple only when that is read.
    """
    system = seg.system
    order, fresh = _sorted_runs(seg)
    starts = np.flatnonzero(fresh)
    states = _take(system._view(seg), order[starts])
    return DiscreteMeasure._counted(None, np.diff(starts, append=seg.length), (system, states))


def _sorted_runs(seg: _systems.OrbitSegment) -> tuple[np.ndarray, np.ndarray]:
    """The orbit indices k < length in ascending order of their states, and
    a mask of where each state in that order differs from the one before.

    Line, circle and shift read one sort of the full orbit, shared by every
    prefix view (``OrbitSegment.shared``): a prefix keeps its rows of it
    through one index array and, on the shift, takes the split between two
    kept windows as the least split between them.  Products sort their
    factors' ranks lexicographically, which is the order of their pairs.
    """
    system, n = seg.system, seg.length
    if system.geometry == _systems.GEOMETRY_PRODUCT:
        ranks = [_ranks(factor) for factor in seg.data]
        order = np.lexsort(ranks[::-1])
        differ = np.zeros(n - 1, dtype=bool)
        for r in ranks:
            differ |= np.diff(r[order]) != 0
        return order, np.concatenate([[True], differ])
    order, split = seg.shared(_orbit_sort)
    if n < len(order):
        rows = np.flatnonzero(order < n)
        order = order.take(rows)
        if split is not None:
            split = np.minimum.reduceat(split[:rows[-1]], rows[:-1])
    differ = np.diff(seg.data.take(order)) != 0 if split is None else split < system.horizon
    return order, np.concatenate([[True], differ])


def _orbit_sort(seg: _systems.OrbitSegment) -> tuple[np.ndarray, np.ndarray | None]:
    """The order of a line or circle orbit's states, with no splits, or
    ``_cylinder_order`` of a shift orbit's windows."""
    if seg.system.geometry == _systems.GEOMETRY_SHIFT:
        return _cylinder_order(seg.system._view(seg))
    return np.argsort(seg.data), None


def _ranks(seg: _systems.OrbitSegment) -> np.ndarray:
    """The rank of each orbit state among the segment's distinct states."""
    order, fresh = _sorted_runs(seg)
    ranks = np.empty(seg.length, dtype=np.intp)
    ranks[order] = np.cumsum(fresh) - 1
    return ranks


def _take(states, rows: np.ndarray):
    """The given rows of a state array, or of each factor's on products."""
    return tuple(_take(s, rows) for s in states) if isinstance(states, tuple) else states[rows]


# ---------------------------------------------------------------------------
# Wasserstein-1


def wasserstein1(mu: DiscreteMeasure, nu: DiscreteMeasure,
                 system: _systems.System) -> float:
    """Exact Wasserstein-1, by an assignment or the transportation LP.

    Supplies are mu's weights, demands nu's, and the cost of moving one unit
    from atom i to atom j is their ground distance.  When both measures keep
    counts, each puts equal counts on its atoms, and both have the same
    number n of atoms (every empirical measure of two length-n orbits whose
    states are distinct), the value is the minimum-cost assignment on the
    distance matrix divided by n: by Birkhoff-von Neumann the vertices of the
    transportation polytope with uniform marginals 1/n are the permutation
    matrices divided by n, so the LP optimum is attained at one.  Every other
    pair (float weights, unequal counts or support sizes) runs the priced LP
    ``_transport_lp``.  Neither route uses a closed form.
    """
    D = system._kernel_matrix(mu.states(system), nu.states(system))
    n = mu.support_size
    if nu.support_size == n and all(
            meas.counts is not None and (meas.counts == meas.counts[0]).all()
            for meas in (mu, nu)):
        return _matching.min_cost_assignment(D)[1] / n
    return _transport_lp(D, mu.weights, nu.weights)


def _transport_lp(D: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> float:
    """The transportation LP from supplies ``wa`` to demands ``wb`` at costs ``D``.

    The LP over all m*n pairs is solved by delayed column generation: a
    restricted LP over a few pairs (see ``_w1_seed``) is solved with the
    HiGHS simplex through scipy, its duals u, v price every pair, each pair
    with reduced cost D[i, j] - u[i] - v[j] below -_W1_PRICE_TOL joins, and
    the loop repeats until none does.  Pricing tests only the pairs outside
    the restricted LP, so HiGHS runs with dual feasibility tolerance 1e-10,
    the least it accepts: at its default 1e-7 a restricted solve could stop
    at a basis 1.1e-9 above the optimum.  On exit every reduced cost is then
    at least -1e-10, and lowering u by the largest violation gives a feasible
    dual of the full LP within 1e-10 of the value returned (wa has mass one),
    so that value is the full LP optimum to within 1e-10, up to HiGHS's
    primal feasibility tolerance.  HiGHS presolve is off: on a transportation
    problem it removes only the one redundant balance row, and it made the
    restricted solves 1.05 to 1.6 times slower.
    """
    m, n = D.shape
    if m == 1:
        return float(D[0] @ wb)
    if n == 1:
        return float(D[:, 0] @ wa)
    b = np.concatenate([wa, wb])
    active = _w1_seed(D, wa, wb)
    while True:
        rows, cols = np.nonzero(active)
        res = linprog(D[rows, cols], A_eq=_pair_incidence(rows, cols, m, n), b_eq=b,
                      bounds=(0, None), method="highs",
                      options={"presolve": False, "dual_feasibility_tolerance": 1e-10})
        if not res.success:
            raise RuntimeError(f"transportation solve failed: {res.message}")
        y = res.eqlin.marginals
        entering = (D - y[:m, None] - y[None, m:] < -_W1_PRICE_TOL) & ~active
        if not entering.any():
            return float(res.fun)
        active |= entering


def _pair_incidence(rows: np.ndarray, cols: np.ndarray, m: int, n: int) -> sparse.csc_array:
    """The (m + n) x k matrix whose column k has a one in row rows[k] and in
    row m + cols[k]: the supply and demand rows that the pair (rows[k],
    cols[k]) of an m x n transport or flow problem enters."""
    return sparse.csc_array((np.ones(2 * len(rows)), np.stack([rows, m + cols], axis=1).ravel(),
                             np.arange(0, 2 * len(rows) + 1, 2)), shape=(m + n, len(rows)))


def _w1_seed(D: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """The pairs the restricted LP of ``_transport_lp`` starts from, as a mask.

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
    """Closed-form Wasserstein-1 on the line or circle: one stable sort
    merges the two measures' atoms, mu's weights positive and nu's negative,
    and ``_w1_line`` or ``_w1_circle`` integrates their CDF difference.
    The ground metric is the arc distance on the circle, so values agree
    with the transportation program exactly.
    """
    u = np.asarray(mu.atoms, dtype=np.float64)
    v = np.asarray(nu.atoms, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError("fast path needs scalar atoms")
    closed_form = {_systems.GEOMETRY_LINE: _w1_line,
                   _systems.GEOMETRY_CIRCLE: _w1_circle}.get(geometry)
    if closed_form is None:
        raise ValueError(f"no one-dimensional fast path for geometry {geometry!r}")
    pts = np.concatenate([u, v])
    order = np.argsort(pts, kind="stable")
    return closed_form(pts[order], np.concatenate([mu.weights, -nu.weights])[order])


def _w1_line(pts: np.ndarray, signed: np.ndarray) -> float:
    """W1 on the line, the integral of |F_mu - F_nu|, from the merged atoms
    of both measures in ascending order with mu's weights positive and nu's
    negative.  Integer weights (counts) give an exact integer CDF and W1
    times their scale."""
    if not (0 <= pts[0] and pts[-1] <= 1):
        raise ValueError("line atoms must lie in [0, 1]")
    cdf_diff = np.cumsum(signed)[:-1]
    return float(np.abs(cdf_diff, out=cdf_diff) @ np.diff(pts))


def _w1_circle(pts: np.ndarray, signed: np.ndarray) -> float:
    """W1 on the circle from the input of ``_w1_line``: the least integral
    of |F_mu - F_nu - c| over c, at a length-weighted median c of the CDF
    difference, which is taken off that CDF in place, in its dtype."""
    if not (0 <= pts[0] and pts[-1] < 1):
        raise ValueError("circle atoms must lie in [0, 1)")
    g = np.cumsum(signed)
    lengths = np.empty_like(pts)
    np.subtract(pts[1:], pts[:-1], out=lengths[:-1])
    lengths[-1] = 1.0 - pts[-1] + pts[0]  # wrap segment, g there is ~0
    # the median of an integer CDF is an integer, so g stays integer in place
    g -= g.dtype.type(_weighted_median(g, lengths))
    return float(np.abs(g, out=g) @ lengths)


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
    (``_breakpoint_search``) finds it on every geometry, and ``_unsent``
    gives the unsent mass by the geometry's own rule:

    * shift: the window metric is an ultrametric, so def(t) sums the surplus
      mass of mu over the cylinders of level ``BinaryShift._level`` of t
      (``_shift_deficiency``), every level from one sort of the atoms, with
      no flow network; the thresholds are every window distance 2**-k,
      k < horizon, a superset of the support distances that leaves the least
      value unchanged, so no distance matrix is built;
    * line: a greedy sweep over the sorted atoms of both measures
      (``_line_unsent``);
    * circle: the atoms of nu within t of an atom of mu form one circular run
      whose ends rise with the atom, so one recurrence over mu's atoms gives
      def(t) (``_arc_unsent``), with no flow network;
    * products: a max flow on the admissible pairs (``_flow_unsent``),
      scipy's integer max flow on counts and a HiGHS LP on float weights.

    Masses are in the unit of ``_masses``.  When both measures keep counts
    with least common total below 2**31, every rule sums integers and def(t)
    is one division, so the value is correctly rounded; otherwise the value
    is exact up to float sums and the LP's tolerances.
    """
    wa, wb, total = _masses(mu, nu)
    sa, sb = mu.states(system), nu.states(system)
    D = None if system.geometry == _systems.GEOMETRY_SHIFT else system._kernel_matrix(sa, sb)
    unsent = _unsent(system, sa, wa, sb, wb, D)
    return _breakpoint_search(system._distances if D is None else D,
                              lambda t: unsent(t) / total)


def _unsent(system: _systems.System, sa, wa: np.ndarray, sb, wb: np.ndarray, D=None):
    """t -> the mass of ``wa`` on the states ``sa`` that a maximum flow to
    ``wb`` on ``sb`` along the pairs within t leaves unsent, in the masses'
    unit, by the geometry's rule.  Line and circle states must ascend.  The
    circle and products read the distance matrix ``D`` of ``sa`` against
    ``sb``, built here unless given; the line and the shift read none."""
    if system.geometry == _systems.GEOMETRY_SHIFT:
        surplus = _shift_deficiency(system, sa, wa, sb, wb[:, None])
        return lambda t: surplus(t)[0]
    if system.geometry == _systems.GEOMETRY_LINE:
        sides = (sa.tolist(), wa.tolist(), sb.tolist(), wb.tolist())
        return lambda t: _line_unsent(*sides, t)
    rule = _arc_unsent if system.geometry == _systems.GEOMETRY_CIRCLE else _flow_unsent
    return rule(system._kernel_matrix(sa, sb) if D is None else D, wa, wb)


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
    last = len(lefts) - 1
    # deficiency is non-increasing and the right ends lefts[k + 1] increase, so
    # the feasible intervals, deficiency(lefts[k]) <= lefts[k + 1], form a suffix
    # with the last; gallop, then bisect, for its first index hi, d once probed
    lo, hi, d = -1, 0, None
    while hi < last:
        d = float(deficiency(lefts[hi]))
        if d <= lefts[hi + 1]:
            break
        lo, hi, d = hi, min(max(2 * hi, 1), last), None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (d_mid := float(deficiency(lefts[mid]))) <= lefts[mid + 1]:
            hi, d = mid, d_mid
        else:
            lo = mid
    d = float(deficiency(lefts[hi])) if d is None else d
    return max(float(lefts[hi]), d, 0.0)


def _flow_unsent(D: np.ndarray, wa: np.ndarray, wb: np.ndarray):
    """t -> the mass of supplies ``wa`` that a maximum flow to demands ``wb``
    along the pairs with D <= t leaves unsent: their total minus the flow.

    Integer masses (total below 2**31, the int32 capacities scipy works in)
    run scipy's max flow, each admissible pair an arc of capacity ``total``,
    so the flow is exact; float weights solve the flow as one HiGHS LP
    (``_max_flow_lp``).  Products run it at every probe; the circle runs
    ``_arc_unsent`` and comes here only at a probe whose pairs are not arcs
    with rising ends, which rounding alone could cause.
    """
    total = wa.sum()
    if wa.dtype.kind == "f":
        return lambda t: total - _max_flow_lp(wa, wb, *np.nonzero(D <= t))
    m, n = D.shape
    sink = m + n + 1
    # node 0 is the source, 1..m the atoms of mu, m+1..m+n those of nu

    def unsent(t: float):
        rows, cols = np.nonzero(D <= t)
        degrees = np.concatenate([[m], np.bincount(rows, minlength=m), np.ones(n, int), [0]])
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        indices = np.concatenate([1 + np.arange(m), 1 + m + cols, np.full(n, sink)])
        caps = np.concatenate([wa, np.full(len(rows), total), wb])
        graph = sparse.csr_array((caps.astype(np.int32), indices.astype(np.int32),
                                  indptr.astype(np.int32)), shape=(sink + 1, sink + 1))
        return total - maximum_flow(graph, 0, sink).flow_value
    return unsent


def _shift_deficiency(system: _systems.BinaryShift, sa: np.ndarray, wa: np.ndarray,
                      sb: np.ndarray, wb: np.ndarray):
    """The rule t -> the mass of mu (windows ``sa``, masses ``wa``) left
    unsent to each nu on the windows ``sb`` whose masses are a column of
    ``wb``, as an array; it changes only at the window distances
    ``system._distances``.

    The pairs within t join each cylinder of level ``system._level`` of t to
    itself, so that mass is the sum over those cylinders C of (mu(C) - nu(C))+.
    """
    order, split = _cylinder_order(np.concatenate([sa, sb]))
    # one row per measure: a row sums pairwise as a 1-d array does; a column would not
    mass = np.zeros((1 + wb.shape[1], len(wa) + len(wb)), dtype=np.result_type(wa, wb))
    mass[0, :len(wa)], mass[1:, len(wa):] = wa, wb.T
    mass = mass[:, order]
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


def _arc_unsent(D: np.ndarray, wa: np.ndarray, wb: np.ndarray):
    """t -> the mass of ``wa`` that a maximum flow to ``wb`` along the pairs
    with D <= t leaves unsent, where the rows and columns of ``D`` are two
    measures' atoms on the circle in ascending order.

    Each row's pairs then form one circular run of columns [L_i, R_i), read
    off ``D <= t``, whose ends rise with the row.  The unsent mass is the
    largest mu(S) - nu(N(S)) over sets S of rows.  A row with no pair is
    always in S, and a row with every pair never: such an S leaves at most
    mu's total minus nu's, which is 0.  The rest of an optimal S splits into
    runs [p..q] of consecutive rows with disjoint neighbourhoods [L_p, R_q),
    so the mass is the best total of A(p) + B(q) over disjoint runs, with
    A(p) = C(L_p) - M_p and B(q) = M_{q+1} - C(R_q) for the cumulative masses
    M of the rows and C of the columns, both lifted periodically so that a
    run may wrap (in the spirit of circular convex bipartite matching, Liang
    & Blum 1995).  One pass of the recurrence over the rows starts outside a
    run; a second starts inside the run that wraps and closes it a lap on.
    Masses stay in their unit, so counts give an exact integer.  A probe
    whose row pairs are not one run, or whose lifted ends fall, which only
    rounding could cause, goes to ``_flow_unsent``.
    """
    m, n = D.shape
    flow = _flow_unsent(D, wa, wb)
    # C over three laps: lifted starts lie below 2n and ends below 3n
    lifted = np.concatenate([[0], np.cumsum(np.tile(wb, 3))])

    def unsent(t: float):
        mask = D <= t
        # a run starts at a column that is in while the one before it, cyclically,
        # is out, and ends at one that is out while the one before it is in
        before = np.roll(mask, 1, axis=1)
        starts, ends = np.flatnonzero(mask > before), np.flatnonzero(before > mask)
        rows = starts // n
        # a row with no run start has no pair or every pair
        flat = np.ones(m, dtype=bool)
        flat[rows] = False
        empty = wa[flat & ~mask[:, 0]].sum().item()
        if not len(rows):
            return empty
        if (rows[1:] == rows[:-1]).any():
            return flow(t)
        L = starts - rows * n
        R = L + (ends - starts) % n
        # lift each row by the fewest laps that keep both ends from falling:
        # ceil(back / n), as back < 2n
        back = np.maximum(L[:-1] - L[1:], R[:-1] - R[1:])
        laps = np.concatenate([[0], np.cumsum((back > 0).astype(np.int64) + (back > n))]) * n
        L += laps
        R += laps
        if L[-1] > L[0] + n or R[-1] > R[0] + n:
            return flow(t)
        M = np.concatenate([[0], np.cumsum(wa[rows])])
        A, B = (lifted[L] - M[:-1]).tolist(), (M[1:] - lifted[R]).tolist()
        _, outside = _best_runs(A, B, -math.inf, 0)
        inside, _ = _best_runs(A, B, 0, -math.inf)
        return empty + max(outside, inside + (M[-1] - lifted[n]).item())
    return unsent


def _best_runs(A: list, B: list, inside, outside):
    """The best totals of A(p) + B(q) over disjoint runs [p..q] after the
    last row, ending inside a run and outside one, from the given start."""
    for a, b in zip(A, B):
        if outside + a > inside:
            inside = outside + a
        if inside + b > outside:
            outside = inside + b
    return inside, outside


def _max_flow_lp(wa: np.ndarray, wb: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """Max flow from supplies ``wa`` to demands ``wb`` along the pairs
    (rows[k], cols[k]), as one LP solved by the HiGHS dual simplex: maximise
    the sum of the pair flows, each at least 0, with row sums at most ``wa``
    and column sums at most ``wb``.  Presolve is off: it slowed these solves."""
    if not len(rows):
        return 0.0
    res = linprog(-np.ones(len(rows)), A_ub=_pair_incidence(rows, cols, len(wa), len(wb)),
                  b_ub=np.concatenate([wa, wb]), bounds=(0, None), method="highs-ds",
                  options={"presolve": False})
    if not res.success:
        raise RuntimeError(f"max flow solve failed: {res.message}")
    return -res.fun


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
    the first member of each cluster is its representative.  Each test is one
    deficiency evaluation, exact as def changes only at support distances.
    """
    return _tail_clusters(system.orbit_segment(x, schedule.max_n), schedule, cluster_tol)


def _tail_clusters(seg: _systems.OrbitSegment, schedule: Schedule,
                   cluster_tol: float) -> MeasureSet:
    """``omega_hat_estimate`` on the orbit segment ``seg`` of length
    ``schedule.max_n``, which a caller may share with other work."""
    if not cluster_tol >= 0:
        raise ValueError("cluster tolerance must be non-negative")
    system = seg.system

    def apart(meas: DiscreteMeasure, rep: DiscreteMeasure) -> bool:
        wa, wb, total = _masses(meas, rep)
        unsent = _unsent(system, meas.states(system), wa, rep.states(system), wb)
        return unsent(cluster_tol) / total > cluster_tol

    reps: list[DiscreteMeasure] = []
    for n in schedule.tail_checkpoints:
        meas = empirical_measure(seg.prefix(n))
        if all(apart(meas, rep) for rep in reps):
            reps.append(meas)
    return MeasureSet(tuple(reps))
