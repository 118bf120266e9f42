"""Orbit pseudo-metrics at finite scale.

ebar_n is the min-cost matching average between two length-n orbit segments;
its limit superior over a checkpoint schedule is the mean orbital
pseudo-metric estimate.  Besicovitch averages match times identically, Weyl
profiles take the worst window anywhere in time, and the threshold count
delta_n feeds the sandwich inequalities tying matched averages to matching
cardinalities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matching
from . import systems as _systems
from .errors import SizeLimitError
from .measures import Schedule, _cylinder_order, _sorted_w1
# unused here; orbitbench's tracer wraps these two names in this module
from .measures import _w1_circle, _w1_line  # noqa: F401

# exact assignment builds a dense n x n float64 cost matrix (32 MB at the cap)
# for the compiled solver; products, which have no closed form, stop here
ASSIGNMENT_CAP = 2000

# dense cost matrices for threshold matching stay manageable up to here
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


def _ordered_segments(system: _systems.System, x, y, n: int):
    """Orbit segments in a canonical operand order, so swapping x and y
    reproduces the identical computation and ebar_n is exactly symmetric."""
    seg_x = system.orbit_segment(x, n)
    seg_y = system.orbit_segment(y, n)
    if _orbit_key(seg_y) < _orbit_key(seg_x):
        seg_x, seg_y = seg_y, seg_x
    return seg_x, seg_y


def _fast_values(system: _systems.System, seg_x: _systems.OrbitSegment,
                 seg_y: _systems.OrbitSegment, checkpoints) -> list[float]:
    """ebar_n for each checkpoint n (increasing, the last one the segment
    length) from one sort of the full segments' states or shift windows.

    Each checkpoint keeps the rows of the first n states of either segment,
    in the order of the full sort; two kept shift windows first differ at
    the least split between them.  The signs are integers +1 (x) and -1 (y).

    Line and circle: n * W1 from the CDF difference, which is an integer
    count of signs, so its sums are exact and the order among tied points
    cannot change them; no stable order is needed.  W1 is scaled by 1/n
    once, at the end.

    Shift: n * W1 between the window empiricals by cylinder counting.  The
    window metric is an ultrametric, so the transport optimum has the closed
    tree form: every length-k cylinder contributes its occupancy imbalance
    times that level's edge length.  The matching identity makes this equal
    to the minimum assignment total.  All counts are integers and all
    lengths are dyadic, so the accumulation below is exact.  Cylinders
    change only at the levels k = s + 1 of the splits s < K present, and the
    edge lengths of levels k..K sum to 2**(K - k) units of 2**-K, so each
    such level adds its growth in total imbalance times 2**(K - k).
    """
    N = seg_x.length
    shift = system.geometry == _systems.GEOMETRY_SHIFT
    if shift:
        K = system.horizon
        pos, split = _cylinder_order(
            np.concatenate([system._view(seg_x), system._view(seg_y)]))
    else:
        pts = np.concatenate([seg_x.data, seg_y.data])
        pos = np.argsort(pts)
        pts = pts[pos]
    signs = np.where(pos < N, 1, -1)
    pos %= N
    values = []
    for n in reversed(checkpoints):
        keep = pos < n
        signs, pos = signs[keep], pos[keep]
        if not shift:
            pts = pts[keep]
            values.append(_sorted_w1(system.geometry, pts, signs) / n)
            continue
        rows = np.flatnonzero(keep)
        split = np.minimum.reduceat(split[:rows[-1]], rows[:-1])
        units = imbalance = 0  # units in 2**-K
        for k in (np.flatnonzero(np.bincount(split, minlength=K)[:K]) + 1).tolist():
            starts = np.concatenate([[0], np.flatnonzero(split < k) + 1])
            level = int(np.abs(np.add.reduceat(signs, starts)).sum())
            units += (level - imbalance) << K - k
            imbalance = level
        values.append(float(units) * 2.0 ** -K / n)
    return values[::-1]


def _ebar_values(system: _systems.System, x, y, checkpoints) -> list[float]:
    """ebar_n at each checkpoint (increasing), on the route the geometry fixes.

    Line, circle and shift use the closed forms of _fast_values, which have
    no size limit; products solve the assignment exactly on prefixes of one
    cost matrix, capped at ASSIGNMENT_CAP.
    """
    n_max = checkpoints[-1]
    fast = system.geometry in _FAST_GEOMETRIES
    if not fast and n_max > ASSIGNMENT_CAP:
        raise SizeLimitError(
            f"{system.geometry} systems need exact assignment, capped at "
            f"n={ASSIGNMENT_CAP}")
    seg_x, seg_y = _ordered_segments(system, x, y, n_max)
    if fast:
        return _fast_values(system, seg_x, seg_y, checkpoints)
    C = _systems.cost_matrix(seg_x, seg_y).entries
    return [matching.min_cost_assignment(C[:n, :n])[1] / n for n in checkpoints]


def ebar_n(system: _systems.System, x, y, n: int) -> float:
    """Best permutation-matched average distance between length-n segments.

    1-D geometries and the shift evaluate it as the Wasserstein-1 distance
    between the two empirical measures (the two quantities are equal for
    every n), which has no size limit; products solve the assignment
    exactly, capped at ASSIGNMENT_CAP.
    """
    return _ebar_values(system, x, y, (n,))[0]


def ebar_estimate(system: _systems.System, x, y,
                  schedule: Schedule) -> TailEstimate:
    """ebar_n along the schedule; tail_sup is the mean pseudo-metric estimate."""
    return _tail_estimate(schedule, _ebar_values(system, x, y, schedule.checkpoints))


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
    lengths = tuple(window_lengths)
    if len(lengths) == 0:
        raise ValueError("need at least one window length")
    if not all(_systems._is_count(l) and l >= 1 for l in lengths):
        raise ValueError("each window length must be an integer >= 1")
    lengths = tuple(map(int, lengths))
    if max(lengths) > horizon:
        raise ValueError("window length exceeds horizon")
    seg_x = system.orbit_segment(x, horizon)
    seg_y = system.orbit_segment(y, horizon)
    dists = _systems.aligned_distances(system, seg_x, seg_y)
    csum = np.concatenate([[0.0], np.cumsum(dists)])
    sup = {l: float((csum[l:] - csum[:-l]).max()) / l for l in lengths}
    return WeylProfile(horizon, lengths, sup)


def delta_n(system: _systems.System, x, y, n: int, delta: float) -> int:
    """Minimum number of matched pairs forced above distance delta.

    Equals n minus the maximum matching on pairs within delta.  Needs the
    dense cost matrix, so n is capped at THRESHOLD_CAP.
    """
    if not delta >= 0:
        raise ValueError("delta must be non-negative")
    return _threshold_count(_threshold_costs(system, x, y, n), n, delta)


def _threshold_costs(system: _systems.System, x, y, n: int) -> np.ndarray:
    """The cost matrix of the length-n segments, capped at THRESHOLD_CAP."""
    if n > THRESHOLD_CAP:
        raise SizeLimitError(f"threshold matching is capped at n={THRESHOLD_CAP}")
    return _systems.cost_matrix(*_ordered_segments(system, x, y, n)).entries


def _threshold_count(C: np.ndarray, n: int, delta: float) -> int:
    """Delta_n from the leading n x n block of a cost matrix.

    Orbit segments of length n are prefixes of longer ones, so that block is
    the cost matrix of the length-n segments, up to a transpose that leaves
    the matching size unchanged.
    """
    block = C[:n, :n]
    if (np.diagonal(block) <= delta).all():
        return 0
    return n - matching.max_matching_under_threshold(block, delta)


def etilde_estimate(system: _systems.System, x, y, schedule: Schedule,
                    eps_grid) -> EtildeEstimate:
    """Smallest grid epsilon with tail exceedance fraction strictly below it.

    The fraction delta_n/n is nonincreasing in epsilon while the right side
    grows, so the qualifying grid points form a suffix and a binary search
    over the grid suffices.
    """
    grid = [float(e) for e in eps_grid]
    if len(grid) == 0:
        raise ValueError("epsilon grid must be non-empty")
    if not all(b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be strictly increasing")
    if not (grid[0] > 0 and grid[-1] <= system.diameter + 1e-12):
        raise ValueError("epsilon grid must lie in (0, diameter]")

    tail = schedule.tail_checkpoints
    C = _threshold_costs(system, x, y, tail[-1])

    def qualifies(eps: float) -> bool:
        worst = max(_threshold_count(C, n, eps) / n for n in tail)
        return worst < eps

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

    All three numbers are evaluated on the same cost matrix; the middle term
    is the raw assignment total, not a rounded-back average.
    """
    if not delta >= 0:
        raise ValueError("delta must be non-negative")
    if n > ASSIGNMENT_CAP:
        raise SizeLimitError(f"sandwich check needs assignment, capped at {ASSIGNMENT_CAP}")
    C = _systems.cost_matrix(*_ordered_segments(system, x, y, n)).entries
    _, mid = matching.min_cost_assignment(C)
    dn = _threshold_count(C, n, delta)
    lhs = delta * dn
    rhs = dn * system.diameter + delta * (n - dn)
    slack = 1e-12 * max(1.0, n)
    return SandwichReport(lhs, mid, rhs, lhs <= mid + slack and mid <= rhs + slack)
