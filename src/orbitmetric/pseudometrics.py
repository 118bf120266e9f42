"""Orbit pseudo-metrics at finite scale.

ebar_n is the min-cost matching average between two length-n orbit segments;
its limit superior over a checkpoint schedule is the mean orbital
pseudo-metric estimate.  Besicovitch averages match times identically, Weyl
profiles take the worst window anywhere in time, and the threshold count
delta_n feeds the sandwich inequalities tying matched averages to matching
cardinalities.  delta_n runs ``prokhorov``'s deficiency rule
(``measures._unsent``); threshold matching is only its oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import matching
from . import systems as _systems
from .errors import SizeLimitError
from .measures import Schedule, _cylinder_order, _unsent, _w1_circle, _w1_line, _w1_shift

# exact assignment builds a dense n x n float64 cost matrix (32 MB at the cap)
# for the compiled solver; products, which have no closed form, stop here
ASSIGNMENT_CAP = 2000

# the circle's and the products' deficiency rules read a dense n x n distance
# matrix, which stays manageable up to here
THRESHOLD_CAP = 4096

_FAST_GEOMETRIES = (_systems.GEOMETRY_CIRCLE, _systems.GEOMETRY_LINE,
                    _systems.GEOMETRY_SHIFT)


@dataclass(frozen=True)
class TailEstimate:
    """Checkpoint values of a limsup-type quantity plus its tail statistics."""

    schedule: Schedule
    values: tuple[float, ...]
    tail_sup: float
    tail_last: float

    def rows(self) -> list[tuple[int, float]]:
        return list(zip(self.schedule.checkpoints, self.values))


@dataclass(frozen=True)
class WeylProfile:
    horizon: int
    window_lengths: tuple[int, ...]
    sup_window_avg: dict[int, float]

    @property
    def sup(self) -> float:
        return max(self.sup_window_avg.values())


@dataclass(frozen=True)
class EtildeEstimate:
    """Grid bracket of the threshold pseudo-metric.

    value is the smallest grid epsilon whose tail exceedance fraction stays
    strictly below it; qualified is False when no grid point works, in which
    case value is the top of the grid.  precision is the grid resolution.
    """

    value: float
    qualified: bool
    precision: float


@dataclass(frozen=True)
class SandwichReport:
    lhs: float
    mid: float
    rhs: float
    holds: bool


def _orbit_key(seg: _systems.OrbitSegment) -> bytes:
    data = seg.data
    if isinstance(data, tuple):
        return _orbit_key(data[0]) + _orbit_key(data[1])
    return np.ascontiguousarray(data).tobytes()


def _segments(system: _systems.System, x, y, n, ebar: bool = False, delta: bool = False):
    """The length-n orbit segments of x and y, built only once n passes the
    integer rule and then the caps of the dense routes that the caller
    names: products' ebar_n (``ebar``) above ASSIGNMENT_CAP, and Delta_n
    (``delta``) on the circle and products above THRESHOLD_CAP."""
    (n,) = _systems._counts([n], "orbit length")
    geometry = system.geometry
    if ebar and geometry not in _FAST_GEOMETRIES and n > ASSIGNMENT_CAP:
        raise SizeLimitError(f"{geometry} ebar_n needs assignment, capped at n={ASSIGNMENT_CAP}")
    dense = geometry in (_systems.GEOMETRY_CIRCLE, _systems.GEOMETRY_PRODUCT)
    if delta and dense and n > THRESHOLD_CAP:
        raise SizeLimitError(f"{geometry} Delta_n is capped at n={THRESHOLD_CAP}")
    return system.orbit_segment(x, n), system.orbit_segment(y, n)


def _prefix_sorts(system: _systems.System, seg_x: _systems.OrbitSegment,
                  seg_y: _systems.OrbitSegment, checkpoints):
    """Yield ``(n, signs, key)`` for each checkpoint n, from one sort of the
    full segments' states or shift windows.  The checkpoints increase up to
    the segment length; they are yielded last first.

    Each checkpoint keeps the rows of the first n states of either segment,
    in the order of the full sort; a smaller checkpoint takes them from the
    next larger one through one index array, ``rows``.  The signs are
    integers +1 (x) and -1 (y).  On the line and circle ``key`` holds the
    sorted states; on the shift it holds the splits, and two kept windows
    first differ at the least split between them.
    """
    N = seg_x.length
    shift = system.geometry == _systems.GEOMETRY_SHIFT
    if shift:
        pos, key = _cylinder_order(
            np.concatenate([system._view(seg_x), system._view(seg_y)]))
    else:
        key = np.concatenate([seg_x.data, seg_y.data])
        pos = np.argsort(key)
        key = key[pos]
    signs = np.where(pos < N, 1, -1)
    pos %= N
    for n in reversed(checkpoints):
        if n < N:
            rows = np.flatnonzero(pos < n)
            signs, pos = signs.take(rows), pos.take(rows)
            key = (np.minimum.reduceat(key[:rows[-1]], rows[:-1]) if shift
                   else key.take(rows))
        yield n, signs, key


def _totals(system: _systems.System, seg_x: _systems.OrbitSegment,
            seg_y: _systems.OrbitSegment, checkpoints) -> list[float]:
    """n * ebar_n for each checkpoint n (increasing, the last one the segment
    length), on the route the geometry fixes.  The segments are put in a
    canonical order first, so swapping x and y reproduces the identical
    computation and ebar_n is exactly symmetric.

    Line, circle and shift: n * W1 by _w1_line, _w1_circle and _w1_shift on
    the merged sort of ``_prefix_sorts``, with signs +1 and -1.  Each counts
    in integers (the CDF difference on the line and circle, the cylinder
    imbalance on the shift), so its sums are exact and the order among tied
    points cannot change them; no stable order is needed.  _w1_line and
    _w1_circle are looked up in this module at each call, so a rebinding of
    either here takes effect.

    Products have no closed form: the exact assignment total on the leading
    n x n block of one cost matrix, whose cap ASSIGNMENT_CAP ``_segments``
    checks before the orbits are built.
    """
    if _orbit_key(seg_y) < _orbit_key(seg_x):
        seg_x, seg_y = seg_y, seg_x
    geometry = system.geometry
    if geometry not in _FAST_GEOMETRIES:
        C = _systems.cost_matrix(seg_x, seg_y).entries
        return [matching.min_cost_assignment(C[:n, :n])[1] for n in checkpoints]
    if geometry == _systems.GEOMETRY_SHIFT:
        w1 = partial(_w1_shift, horizon=system.horizon)
    else:
        w1 = _w1_line if geometry == _systems.GEOMETRY_LINE else _w1_circle
    sorts = _prefix_sorts(system, seg_x, seg_y, checkpoints)
    return [w1(key, signs) for _, signs, key in sorts][::-1]


def _ebar_values(system: _systems.System, seg_x: _systems.OrbitSegment,
                 seg_y: _systems.OrbitSegment, checkpoints) -> list[float]:
    """ebar_n at each checkpoint (increasing), from the totals of _totals."""
    totals = _totals(system, seg_x, seg_y, checkpoints)
    return [t / n for t, n in zip(totals, checkpoints)]


def ebar_n(system: _systems.System, x, y, n: int) -> float:
    """Best permutation-matched average distance between length-n segments.

    1-D geometries and the shift evaluate it as the Wasserstein-1 distance
    between the two empirical measures (the two quantities are equal for
    every n), which has no size limit; products solve the assignment
    exactly, capped at ASSIGNMENT_CAP.
    """
    return _ebar_values(system, *_segments(system, x, y, n, ebar=True), (n,))[0]


def ebar_estimate(system: _systems.System, x, y,
                  schedule: Schedule) -> TailEstimate:
    """ebar_n along the schedule; tail_sup is the mean pseudo-metric estimate."""
    segments = _segments(system, x, y, schedule.max_n, ebar=True)
    return _tail_estimate(schedule, _ebar_values(system, *segments, schedule.checkpoints))


def _tail_estimate(schedule: Schedule, values: list[float]) -> TailEstimate:
    tail = values[schedule.tail_start:]
    return TailEstimate(schedule, tuple(values), max(tail), values[-1])


def besicovitch_n(system: _systems.System, x, y, n: int) -> float:
    """Time-aligned average orbit distance; an upper bound for ebar_n."""
    seg_x = system.orbit_segment(x, n)
    seg_y = system.orbit_segment(y, n)
    return float(_systems.aligned_distances(system, seg_x, seg_y).mean())


def besicovitch_estimate(system: _systems.System, x, y,
                         schedule: Schedule) -> TailEstimate:
    n_max = schedule.max_n
    seg_x = system.orbit_segment(x, n_max)
    seg_y = system.orbit_segment(y, n_max)
    dists = _systems.aligned_distances(system, seg_x, seg_y)
    csum = np.concatenate([[0.0], np.cumsum(dists)])
    values = [float(csum[n]) / n for n in schedule.checkpoints]
    return _tail_estimate(schedule, values)


def weyl_profile(system: _systems.System, x, y, horizon: int,
                 window_lengths) -> WeylProfile:
    """Worst window average of aligned distances, per window length.

    sup_window_avg[l] maximizes over all start positions m with
    m + l <= horizon; prefix windows are included, so each value dominates
    the Besicovitch average at the same length.
    """
    lengths = tuple(_systems._counts(window_lengths, "window length"))
    if len(lengths) == 0:
        raise ValueError("need at least one window length")
    seg_x = system.orbit_segment(x, horizon)  # the integer rule before the comparison
    seg_y = system.orbit_segment(y, horizon)
    if max(lengths) > horizon:
        raise ValueError("window length exceeds horizon")
    dists = _systems.aligned_distances(system, seg_x, seg_y)
    csum = np.concatenate([[0.0], np.cumsum(dists)])
    sup = {l: float((csum[l:] - csum[:-l]).max()) / l for l in lengths}
    return WeylProfile(horizon, lengths, sup)


def _threshold_counter(system: _systems.System, seg_x: _systems.OrbitSegment,
                       seg_y: _systems.OrbitSegment):
    """``count(n, delta)``: Delta_n of the length-n prefixes of the two
    segments, as a Python int.  When the first n aligned distances all lie
    within delta it is 0, with no sort and no rule.  Otherwise it is n times
    the Prokhorov deficiency of the two length-n empirical measures, which
    ``prokhorov``'s rule ``measures._unsent`` gives on the prefix states
    with unit masses, sorted on the line and circle; each checkpoint builds
    its rule once.  An exact integer, it needs no canonical operand order.
    """
    reach = np.maximum.accumulate(_systems.aligned_distances(system, seg_x, seg_y))
    rules = {}

    def count(n: int, delta: float) -> int:
        if reach[n - 1] <= delta:
            return 0
        if n not in rules:
            sa, sb = (system._view(seg.prefix(n)) for seg in (seg_x, seg_y))
            if system.geometry in (_systems.GEOMETRY_LINE, _systems.GEOMETRY_CIRCLE):
                sa, sb = np.sort(sa), np.sort(sb)
            ones = np.ones(n, dtype=np.int64)
            rules[n] = _unsent(system, sa, ones, sb, ones)
        return int(rules[n](delta))
    return count


def delta_n(system: _systems.System, x, y, n: int, delta: float) -> int:
    """Minimum number of matched pairs forced above distance delta.

    Equals n minus the maximum matching on pairs within delta, which is n
    times the Prokhorov deficiency at delta of the two empirical measures.
    When the aligned pairs all lie within delta it is 0, with no sort and
    no distance matrix.  Otherwise it runs the deficiency rule ``prokhorov``
    runs on the geometry: the line and the shift with no size limit, the
    circle and products on a dense distance matrix, capped at THRESHOLD_CAP.
    """
    if not delta >= 0:
        raise ValueError("delta must be non-negative")
    return _threshold_counter(system, *_segments(system, x, y, n, delta=True))(n, delta)


def etilde_estimate(system: _systems.System, x, y, schedule: Schedule,
                    eps_grid) -> EtildeEstimate:
    """Smallest grid epsilon with tail exceedance fraction strictly below it.

    The fraction delta_n/n is nonincreasing in epsilon while the right side
    grows, so the qualifying grid points form a suffix and a binary search
    over the grid suffices.  Every tail checkpoint is a prefix of the
    longest tail segments, generated once, and builds its rule once.
    """
    grid = [float(e) for e in eps_grid]
    if len(grid) == 0:
        raise ValueError("epsilon grid must be non-empty")
    if not all(b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be strictly increasing")
    if not (grid[0] > 0 and grid[-1] <= system.diameter + 1e-12):
        raise ValueError("epsilon grid must lie in (0, diameter]")

    tail = schedule.tail_checkpoints
    count = _threshold_counter(system, *_segments(system, x, y, tail[-1], delta=True))

    def qualifies(eps: float) -> bool:
        return all(count(n, eps) / n < eps for n in tail)

    precision = max(np.diff(grid)) if len(grid) > 1 else grid[0]
    if not qualifies(grid[-1]):
        return EtildeEstimate(grid[-1], False, float(precision))
    lo, hi = -1, len(grid) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if qualifies(grid[mid]):
            hi = mid
        else:
            lo = mid
    return EtildeEstimate(grid[hi], True, float(precision))


def sandwich_check(system: _systems.System, x, y, n: int,
                   delta: float) -> SandwichReport:
    """delta*Delta_n <= n*ebar_n <= Delta_n*diam + delta*(n - Delta_n).

    The middle term is the raw total n*ebar_n of _totals, not a rounded-back
    average, and Delta_n takes delta_n's route, on the same two segments.
    """
    if not 0 <= delta < np.inf:  # delta * Delta_n is nan at delta = inf
        raise ValueError("delta must be non-negative and finite")
    seg_x, seg_y = _segments(system, x, y, n, ebar=True, delta=True)
    mid = _totals(system, seg_x, seg_y, (n,))[0]
    dn = _threshold_counter(system, seg_x, seg_y)(n, delta)
    lhs = delta * dn
    rhs = dn * system.diameter + delta * (n - dn)
    slack = 1e-12 * max(1.0, n)
    return SandwichReport(lhs, mid, rhs, lhs <= mid + slack and mid <= rhs + slack)
