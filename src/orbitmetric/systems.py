"""Concrete dynamical systems: state spaces, ground metrics, orbit segments.

Systems on offer:

* ``CircleRotation(alpha)``, arc metric ``min(|x-y|, 1-|x-y|)``, diameter 1/2.
* ``DoublingMap``, ``TentMap``, ``LogisticMap(r)`` on the unit interval with
  metric ``|x-y|``, diameter 1.
* ``BinaryShift(horizon)``, the full one-sided shift on two symbols with the
  first-disagreement metric ``2**-k`` truncated below ``2**-horizon``.
* ``product_system(a, b)`` with the max metric on pairs.

Each geometry's ground metric lives in one kernel, ``_kernel(a, b)``, which
maps two broadcastable state arrays to distances: floats on the line and the
circle, stacks of horizon-length symbol windows on the shift, and pairs of
factor states on products.  ``System.dist``, ``pairwise_dist``,
``cost_matrix`` and ``aligned_distances`` are thin calls to it.  Atoms from
outside reach the kernel through one validator per geometry, ``_states``, so
``dist``, ``pairwise_dist`` and the measures share one domain rule: the
circle takes points of [0, 1), the line points of [0, 1], the shift windows
of at least ``horizon`` symbols (a shorter finite window raises
``InsufficientTailError``), and a product pairs of factor atoms.  Anything
else raises ``ValueError``.  Measures validate their atoms once per system
(``DiscreteMeasure.states``); empirical ones start with their orbit's states.

Orbit states are generated as exactly as double precision permits.  A
rotation state is (x + k*alpha) mod 1 computed exactly over the common
denominator ``den`` of base and angle and rounded once: in masked uint64
arithmetic when ``den`` is a power of two <= 2**64 (every float base and
angle from 2**-12 up), otherwise by stepping a Python integer.  A state that
rounds up to 1.0 wraps to 0.0, the same point of the circle.  Doubling and
tent accept ``fractions.Fraction`` bases for exact rational orbits, and
shifts are exact by construction.  The logistic map is iterated in plain
double precision; its orbits are shadowing-free approximations and any
diagnostic built on them is qualitative by nature.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InsufficientTailError

DEFAULT_HORIZON = 30

GEOMETRY_CIRCLE = "circle"
GEOMETRY_LINE = "line"
GEOMETRY_SHIFT = "shift"
GEOMETRY_PRODUCT = "product"


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class ShiftPoint:
    """One-sided binary sequence stored as a finite prefix plus periodic tail.

    ``tail`` is repeated forever after the prefix, so every index has a
    deterministic symbol.  ``tail=None`` marks a point with no continuation
    rule; asking for symbols past the prefix then raises
    ``InsufficientTailError``.
    """

    prefix: tuple[int, ...] = ()
    tail: tuple[int, ...] | None = (0,)

    def __post_init__(self) -> None:
        if any(s not in (0, 1) for s in self.prefix):
            raise ValueError("shift symbols must be 0 or 1")
        if self.tail is not None:
            if len(self.tail) == 0:
                raise ValueError("periodic tail must be non-empty (or None)")
            if any(s not in (0, 1) for s in self.tail):
                raise ValueError("shift symbols must be 0 or 1")

    @classmethod
    def zeros(cls) -> "ShiftPoint":
        return cls((), (0,))

    @classmethod
    def ones(cls) -> "ShiftPoint":
        return cls((), (1,))

    @classmethod
    def from_string(cls, prefix: str, tail: str | None = None) -> "ShiftPoint":
        """Parse '0'/'1' strings; default tail repeats the last prefix symbol."""
        pref = tuple(int(c) for c in prefix)
        if tail is None:
            t = (pref[-1],) if pref else (0,)
        elif tail == "":
            t = None
        else:
            t = tuple(int(c) for c in tail)
        return cls(pref, t)

    def symbol(self, k: int) -> int:
        if k < 0:
            raise ValueError("symbol index must be non-negative")
        if k < len(self.prefix):
            return self.prefix[k]
        if self.tail is None:
            raise InsufficientTailError(
                f"point defines {len(self.prefix)} symbols, index {k} requested"
            )
        return self.tail[(k - len(self.prefix)) % len(self.tail)]

    def symbols(self, count: int) -> np.ndarray:
        """First ``count`` symbols as a uint8 array."""
        if count <= len(self.prefix):
            return np.asarray(self.prefix[:count], dtype=np.uint8)
        if self.tail is None:
            raise InsufficientTailError(
                f"point defines {len(self.prefix)} symbols, {count} requested"
            )
        reps = -(-(count - len(self.prefix)) // len(self.tail))
        tail = np.tile(np.asarray(self.tail, dtype=np.uint8), reps)
        return np.concatenate([np.asarray(self.prefix, dtype=np.uint8), tail])[:count]

    def __str__(self) -> str:
        pref = "".join(str(s) for s in self.prefix)
        if self.tail is None:
            return pref or "(empty)"
        return pref + "(" + "".join(str(s) for s in self.tail) + ")*"


def _shift_symbols(point, count: int) -> np.ndarray:
    """Symbols of a shift point given as ShiftPoint, str, or int sequence.

    A sequence is returned unchecked; pass the result, or a stack of such
    results, through ``_binary`` once.
    """
    if isinstance(point, ShiftPoint):
        return point.symbols(count)
    if isinstance(point, str):
        return ShiftPoint.from_string(point).symbols(count)
    arr = np.asarray(point)
    if arr.ndim != 1:
        raise ValueError("shift point must be a one-dimensional symbol sequence")
    if len(arr) < count:
        raise InsufficientTailError(
            f"finite symbol window of length {len(arr)} cannot supply {count} symbols"
        )
    return arr[:count]


def _binary(symbols: np.ndarray) -> np.ndarray:
    """``symbols`` as a uint8 array; any symbol other than 0 or 1 raises."""
    if not ((symbols == 0) | (symbols == 1)).all():
        raise ValueError("shift symbols must be 0 or 1")
    return symbols.astype(np.uint8, copy=False)


def _as_unit_scalar(p, closed_right: bool = False):
    """Validate a point of a one-dimensional system; Fractions pass through."""
    if isinstance(p, Fraction):
        v = p
    elif isinstance(p, (int, float, np.floating, np.integer)):
        v = float(p)
        if math.isnan(v) or math.isinf(v):
            raise ValueError("point must be finite")
    else:
        raise ValueError(f"expected a number in the unit interval, got {type(p).__name__}")
    hi_ok = v <= 1 if closed_right else v < 1
    if not (0 <= v and hi_ok):
        raise ValueError(f"point {p!r} outside the unit interval")
    return v


def _unit_states(atoms, closed_right: bool) -> np.ndarray:
    """Float array of the points ``atoms`` under the ``_as_unit_scalar`` rule."""
    arr = np.asarray(atoms)
    if arr.dtype == object:  # Fractions or mixed types: check each exactly
        return np.array([float(_as_unit_scalar(p, closed_right)) for p in atoms],
                        dtype=np.float64)
    if arr.ndim != 1 or arr.dtype.kind not in "biuf":
        raise ValueError("expected a sequence of numbers in the unit interval")
    arr = arr.astype(np.float64, copy=False)
    if not ((arr >= 0) & ((arr <= 1) if closed_right else (arr < 1))).all():
        raise ValueError(f"points must lie in [0, {'1]' if closed_right else '1)'}")
    return arr


def _outer(states, axis: int):
    """Insert a broadcast axis at ``axis`` (1 for the rows, 0 for the columns
    of a distance matrix); product states are pairs of factor states."""
    if isinstance(states, tuple):
        return tuple(_outer(s, axis) for s in states)
    return np.expand_dims(states, axis)


def _is_count(value) -> bool:
    """Whether ``value`` is an integer: Python or numpy, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether ``value`` is a Python int or float (numpy floats are), but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _counts(values, what: str, least: int = 1) -> list[int]:
    """``values`` as Python ints; ``ValueError`` unless each is an integer
    (the ``_is_count`` rule) of at least ``least``."""
    values = list(values)
    if not all(_is_count(v) and v >= least for v in values):
        raise ValueError(f"each {what} must be an integer >= {least}, got {values!r}")
    return [int(v) for v in values]


# ---------------------------------------------------------------------------
# orbit segments


@dataclass(frozen=True)
class OrbitSegment:
    """First ``length`` states of an orbit, stored in bulk form.

    ``data`` holds a float array of positions for one-dimensional systems, a
    symbol array of length ``length + horizon`` for shifts (windows are views
    into it), and a pair of factor segments for products.  ``shared`` gives
    a value computed once from the full orbit, such as the sort of its
    states that ``measures.empirical_measure`` reads, and every ``prefix``
    view shares it.
    """

    system: "System"
    base: object
    length: int
    data: object
    # the full orbit's segment and its values by builder, shared with every prefix view
    _full: "OrbitSegment | None" = field(default=None, compare=False, repr=False)
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def point(self, k: int):
        if not 0 <= k < self.length:
            raise ValueError(f"orbit index {k} out of range [0, {self.length})")
        return self.system._segment_point(self, k)

    def points(self) -> list:
        return [self.point(k) for k in range(self.length)]

    def prefix(self, m: int) -> "OrbitSegment":
        """View of the first ``m`` states; shares the underlying arrays."""
        if not 1 <= m <= self.length:
            raise ValueError(f"prefix length {m} out of range [1, {self.length}]")
        if m == self.length:
            return self
        return OrbitSegment(self.system, self.base, m, self.system._prefix_data(self.data, m),
                            self._full or self, self._memo)

    def shared(self, build):
        """``build(full)`` for the full orbit segment, computed on first use
        and kept once a prefix view asks, so a segment alone keeps nothing."""
        if build in self._memo:
            return self._memo[build]
        value = build(self._full or self)
        if self._full is not None:
            self._memo[build] = value
        return value


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise orbit distance matrix ``entries[i][j] = d(T^i x, T^j y)``."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# systems


class System:
    """Common interface: ground metric, one orbit step, bulk orbit segments."""

    kind: str = ""
    geometry: str = ""
    diameter: float = 1.0

    def dist(self, p, q) -> float:
        return float(self._kernel(self._states([p]), self._states([q]))[0])

    def step(self, p):
        raise NotImplementedError

    def orbit_segment(self, x, n: int) -> OrbitSegment:
        if not _is_count(n):
            raise ValueError(f"orbit length must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("orbit length must be at least 1")
        return self._segment(x, n)

    def pairwise_dist(self, atoms_a, atoms_b) -> np.ndarray:
        """Dense distance matrix between two atom collections.

        Each geometry binds this in its own class body, so that it can be
        timed per geometry.
        """
        return self._kernel_matrix(self._states(atoms_a), self._states(atoms_b))

    def to_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    # the ground metric, one implementation per geometry
    def _kernel(self, a, b) -> np.ndarray:
        """Distances between two broadcastable state arrays."""
        raise NotImplementedError

    def _kernel_matrix(self, a, b) -> np.ndarray:
        """Distances from each state of ``a`` (rows) to each of ``b`` (columns)."""
        return self._kernel(_outer(a, 1), _outer(b, 0))

    def _states(self, atoms):
        """Validate a sequence of atoms into the state array of ``_kernel``."""
        raise NotImplementedError

    def _view(self, seg: OrbitSegment):
        """The states of an orbit segment as the state array of ``_kernel``."""
        raise NotImplementedError

    # segment plumbing, one implementation per geometry
    def _segment(self, x, n: int) -> OrbitSegment:
        raise NotImplementedError

    def _segment_point(self, seg: OrbitSegment, k: int):
        raise NotImplementedError

    def _prefix_data(self, data, m: int):
        raise NotImplementedError


class _NumericSystem(System):
    """Shared plumbing for systems whose states are numbers in [0, 1]."""

    def _segment(self, x, n: int) -> OrbitSegment:
        return OrbitSegment(self, x, n, self._orbit_array(x, n))

    def _orbit_array(self, x, n: int) -> np.ndarray:
        raise NotImplementedError

    def _segment_point(self, seg: OrbitSegment, k: int) -> float:
        return float(seg.data[k])

    def _prefix_data(self, data, m: int):
        return data[:m]

    def _view(self, seg: OrbitSegment) -> np.ndarray:
        return seg.data


@dataclass(frozen=True)
class CircleRotation(_NumericSystem):
    """Rotation x -> x + alpha (mod 1) on the circle with the arc metric."""

    alpha: float = 0.0
    kind = "circle_rotation"
    geometry = GEOMETRY_CIRCLE
    diameter = 0.5

    def __post_init__(self) -> None:
        if not (_is_number(self.alpha) and 0 <= self.alpha < 1):
            raise ValueError("rotation angle must lie in [0, 1)")

    def _kernel(self, a, b) -> np.ndarray:
        d = np.subtract(a, b)
        np.abs(d, out=d)
        return np.minimum(d, 1.0 - d, out=d)

    def _states(self, atoms) -> np.ndarray:
        return _unit_states(atoms, closed_right=False)

    pairwise_dist = System.pairwise_dist

    def step(self, p):
        if isinstance(p, Fraction):
            return (p + Fraction(self.alpha)) % 1
        return (float(p) + self.alpha) % 1.0

    def _orbit_array(self, x, n: int) -> np.ndarray:
        x = _as_unit_scalar(x)
        if isinstance(x, Fraction):
            a = Fraction(self.alpha)
            den = math.lcm(x.denominator, a.denominator)
            base, inc = x.numerator * (den // x.denominator), a.numerator * (den // a.denominator)
        else:
            xn, xd = float(x).as_integer_ratio()
            an, ad = float(self.alpha).as_integer_ratio()
            den = max(xd, ad)  # both are powers of two
            base, inc = xn * (den // xd), an * (den // ad)
        if den & (den - 1) == 0 and den <= 2**64:
            s = np.arange(n, dtype=np.uint64)
            s *= np.uint64(inc)  # wraps mod 2**64, a multiple of den
            s += np.uint64(base)
            s &= np.uint64(den - 1)
            out = s.astype(np.float64)
            out /= den
        else:
            out = np.empty(n, dtype=np.float64)
            s = base % den
            for k in range(n):
                out[k] = s / den
                s += inc
                if s >= den:
                    s -= den
        out[out == 1.0] = 0.0  # states within half an ulp below 1 round up
        return out

    def to_dict(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha}


class _IntervalSystem(_NumericSystem):
    """Interval maps: iterate ``step`` from the base point."""

    geometry = GEOMETRY_LINE
    diameter = 1.0

    def _kernel(self, a, b) -> np.ndarray:
        d = np.subtract(a, b)
        return np.abs(d, out=d)

    def _states(self, atoms) -> np.ndarray:
        return _unit_states(atoms, closed_right=True)

    pairwise_dist = System.pairwise_dist

    def _orbit_array(self, x, n: int) -> np.ndarray:
        p = _as_unit_scalar(x, closed_right=True)
        out = np.empty(n, dtype=np.float64)
        for k in range(n):
            out[k] = float(p)
            p = self.step(p)
        return out


@dataclass(frozen=True)
class DoublingMap(_IntervalSystem):
    """x -> 2x (mod 1).  Fraction bases are iterated exactly."""

    kind = "doubling_map"

    def step(self, p):
        if isinstance(p, Fraction):
            return (2 * p) % 1
        return (2.0 * float(p)) % 1.0

    def to_dict(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class TentMap(_IntervalSystem):
    """x -> 2x for x <= 1/2, else 2 - 2x.  Fraction bases stay exact."""

    kind = "tent_map"

    def step(self, p):
        if isinstance(p, Fraction):
            return 2 * p if p <= Fraction(1, 2) else 2 - 2 * p
        p = float(p)
        return 2.0 * p if p <= 0.5 else 2.0 - 2.0 * p

    def to_dict(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class LogisticMap(_IntervalSystem):
    """x -> r x (1 - x) in double precision."""

    r: float = 4.0
    kind = "logistic_map"

    def __post_init__(self) -> None:
        if not (_is_number(self.r) and 0 <= self.r <= 4):
            raise ValueError("logistic parameter must lie in [0, 4]")

    def step(self, p):
        p = float(p)
        return self.r * p * (1.0 - p)

    def _orbit_array(self, x, n: int) -> np.ndarray:
        p = float(_as_unit_scalar(x, closed_right=True))
        r = self.r
        out = np.empty(n, dtype=np.float64)
        buf = memoryview(out)  # item stores through it are about 2x faster
        for k in range(n):
            buf[k] = p
            p = r * p * (1.0 - p)
        return out

    def to_dict(self) -> dict:
        return {"kind": self.kind, "r": self.r}


@dataclass(frozen=True)
class BinaryShift(System):
    """Full one-sided shift on {0,1} with horizon-truncated metric.

    d(x, y) = 2**-k for the first index k < horizon where the sequences
    differ, and 0 when they agree through the horizon.  All distances are
    therefore quantized to powers of two down to ``2**-horizon``.
    """

    horizon: int = DEFAULT_HORIZON
    kind = "binary_shift"
    geometry = GEOMETRY_SHIFT
    diameter = 1.0

    def __post_init__(self) -> None:
        if not (_is_count(self.horizon) and self.horizon >= 1):
            raise ValueError("shift horizon must be a positive integer")
        object.__setattr__(self, "horizon", int(self.horizon))

    def _kernel(self, a, b) -> np.ndarray:
        """2**-(first index where two windows differ) over window stacks."""
        K = self.horizon
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        first = np.full(shape, K, dtype=np.int32)
        undecided = np.ones(shape, dtype=bool)
        for k in range(K):
            hit = undecided & (a[..., k] != b[..., k])
            first[hit] = k
            undecided &= ~hit
            if not undecided.any():
                break
        d = np.ldexp(1.0, -first)
        d[first == K] = 0.0
        return d

    @property
    def _distances(self) -> np.ndarray:
        """Every positive value of ``_kernel``: 2**-k for k < horizon."""
        return np.ldexp(1.0, -np.arange(self.horizon))

    @staticmethod
    def _level(t: float, cap: int) -> int:
        """The least k <= cap with 2**-k <= t, cap if none; under ``_kernel``,
        windows lie within t >= 0 iff their first _level(t, horizon) symbols agree.
        For 0 < t <= 1, t = f * 2**e with 1/2 <= f < 1, and 2**-k <= t iff k >= 1 - e."""
        return cap if t <= 0 else min(1 - math.frexp(min(t, 1.0))[1], cap)

    def _states(self, atoms) -> np.ndarray:
        rows = [_shift_symbols(p, self.horizon) for p in atoms]
        if not rows:
            return np.zeros((0, self.horizon), dtype=np.uint8)
        return _binary(np.stack(rows))

    def _view(self, seg: OrbitSegment) -> np.ndarray:
        windows = np.lib.stride_tricks.sliding_window_view(seg.data, self.horizon)
        return windows[:seg.length]

    pairwise_dist = System.pairwise_dist

    def step(self, p):
        if isinstance(p, ShiftPoint):
            if p.prefix:
                return ShiftPoint(p.prefix[1:], p.tail)
            if p.tail is None:
                raise InsufficientTailError("cannot shift an empty finite point")
            return ShiftPoint((), p.tail[1:] + p.tail[:1])
        raise ValueError("step requires a ShiftPoint")

    def _segment(self, x, n: int) -> OrbitSegment:
        return OrbitSegment(self, x, n, _binary(_shift_symbols(x, n + self.horizon)))

    def _segment_point(self, seg: OrbitSegment, k: int) -> tuple[int, ...]:
        return tuple(int(s) for s in seg.data[k:k + self.horizon])

    def _prefix_data(self, data, m: int):
        return data[: m + self.horizon]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "shift_horizon": self.horizon}


@dataclass(frozen=True)
class ProductSystem(System):
    """Product of two systems with the max metric on state pairs."""

    first: System
    second: System
    kind = "product"
    geometry = GEOMETRY_PRODUCT

    @property
    def diameter(self) -> float:  # type: ignore[override]
        return max(self.first.diameter, self.second.diameter)

    def _split(self, p) -> tuple:
        if not (isinstance(p, tuple) and len(p) == 2):
            raise ValueError("product point must be a pair")
        return p

    def _kernel(self, a, b) -> np.ndarray:
        d = self.first._kernel(a[0], b[0])  # a fresh array, so the max goes into it
        return np.maximum(d, self.second._kernel(a[1], b[1]), out=d)

    def _states(self, atoms) -> tuple:
        pairs = [self._split(p) for p in atoms]
        return (self.first._states([p[0] for p in pairs]),
                self.second._states([p[1] for p in pairs]))

    def _view(self, seg: OrbitSegment) -> tuple:
        sa, sb = seg.data
        return (self.first._view(sa), self.second._view(sb))

    pairwise_dist = System.pairwise_dist

    def step(self, p):
        p1, p2 = self._split(p)
        return (self.first.step(p1), self.second.step(p2))

    def _segment(self, x, n: int) -> OrbitSegment:
        x1, x2 = self._split(x)
        return OrbitSegment(self, x, n, (self.first.orbit_segment(x1, n),
                                         self.second.orbit_segment(x2, n)))

    def _segment_point(self, seg: OrbitSegment, k: int):
        sa, sb = seg.data
        return (sa.point(k), sb.point(k))

    def _prefix_data(self, data, m: int):
        sa, sb = data
        return (sa.prefix(m), sb.prefix(m))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "first": self.first.to_dict(),
                "second": self.second.to_dict()}


def product_system(a: System, b: System) -> ProductSystem:
    return ProductSystem(a, b)


# ---------------------------------------------------------------------------
# module-level operations


def dist(system: System, p, q) -> float:
    return system.dist(p, q)


def orbit_segment(system: System, x, n: int) -> OrbitSegment:
    return system.orbit_segment(x, n)


def cost_matrix(seg_x: OrbitSegment, seg_y: OrbitSegment) -> CostMatrix:
    """All pairwise distances between two orbit segments of equal length."""
    if seg_x.system != seg_y.system:
        raise ValueError("orbit segments come from different systems")
    if seg_x.length != seg_y.length:
        raise ValueError("orbit segments must have equal length")
    system = seg_x.system
    return CostMatrix(system._kernel_matrix(system._view(seg_x), system._view(seg_y)))


def aligned_distances(system: System, seg_x: OrbitSegment, seg_y: OrbitSegment) -> np.ndarray:
    """The sequence d(T^k x, T^k y) for k < length, as a float array."""
    if seg_x.system != seg_y.system or seg_x.length != seg_y.length:
        raise ValueError("orbit segments must share system and length")
    return system._kernel(system._view(seg_x), system._view(seg_y))


def build_example31_point(variant: str, block_rule, n_blocks: int) -> ShiftPoint:
    """Block point for the slow-alternation construction on the binary shift.

    The point is a concatenation of constant blocks whose lengths follow
    ``block_rule`` (the name "factorial" or an explicit length sequence).
    Variant "U" uses symbol 0 on odd-indexed blocks (1-based) and 1 on even
    ones; variant "V" is the complement.  The tail repeats the last block's
    symbol forever.
    """
    if variant not in ("U", "V"):
        raise ValueError("variant must be 'U' or 'V'")
    lengths = block_lengths(block_rule, n_blocks)
    prefix: list[int] = []
    sym = 0
    for i, a in enumerate(lengths, start=1):
        odd = i % 2 == 1
        sym = (0 if odd else 1) if variant == "U" else (1 if odd else 0)
        prefix.extend([sym] * a)
    return ShiftPoint(tuple(prefix), (sym,))


def block_lengths(block_rule, n_blocks: int) -> list[int]:
    (n_blocks,) = _counts([n_blocks], "block count")
    if isinstance(block_rule, str) and block_rule == "factorial":
        return [math.factorial(i) for i in range(1, n_blocks + 1)]
    lengths = _counts(block_rule, "block length")[:n_blocks]
    if len(lengths) < n_blocks:
        raise ValueError(f"block rule supplies {len(lengths)} lengths, {n_blocks} needed")
    return lengths


# ---------------------------------------------------------------------------
# serialization

def _number(d: dict, key: str, default=None):
    """A numeric field of a system spec; a missing or ill-typed one raises."""
    value = d.get(key, default)
    if not _is_number(value):
        raise ValueError(f"{d['kind']} spec needs a number in field {key!r}, "
                         f"got {value!r}")
    return value


_KINDS = {
    "circle_rotation": lambda d: CircleRotation(alpha=float(_number(d, "alpha"))),
    "doubling_map": lambda d: DoublingMap(),
    "tent_map": lambda d: TentMap(),
    "logistic_map": lambda d: LogisticMap(r=float(_number(d, "r", 4.0))),
    "binary_shift": lambda d: BinaryShift(
        horizon=_number(d, "shift_horizon", DEFAULT_HORIZON)),
}


def system_from_dict(d: dict) -> System:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError("system spec must be an object with a 'kind' field")
    kind = d["kind"]
    if not isinstance(kind, str):
        raise ValueError(f"system kind must be a string, got {kind!r}")
    if kind == "product":
        if "first" not in d or "second" not in d:
            raise ValueError("product spec needs 'first' and 'second' sub-specs")
        return ProductSystem(system_from_dict(d["first"]), system_from_dict(d["second"]))
    if kind not in _KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    return _KINDS[kind](d)


def system_from_json(text: str) -> System:
    return system_from_dict(json.loads(text))
