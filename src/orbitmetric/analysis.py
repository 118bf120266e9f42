"""Finite-scale diagnostics for the continuity and rigidity dichotomies.

Every diagnostic samples points or pairs from a seeded generator, evaluates
the relevant pseudo-metric or measure statistics along a checkpoint
schedule, and returns a DiagnosticReport: parameters, an observation table,
a verdict, and witnesses when something is violated.  Verdict thresholds are
configuration, not mathematics; reports always carry the full trace so the
numbers can be judged directly.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import systems as _systems
from .errors import SamplingError, SizeLimitError
from .measures import (
    DiscreteMeasure,
    Schedule,
    empirical_measure,
    hausdorff_measures,
    omega_hat_estimate,
    prokhorov,
    _breakpoint_search,
    _shift_deficiency,
    _tail_clusters,
)
from .pseudometrics import (
    ASSIGNMENT_CAP,
    besicovitch_estimate,
    ebar_estimate,
    ebar_n,
    weyl_profile,
    _ebar_values,
    _segments,
    _tail_estimate,
)
from .systems import ShiftPoint

VERDICT_CONSISTENT = "consistent"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

DEFAULT_THRESHOLD = 0.02

_SHIFT_PREFIX_LEN = 64
_SHIFT_TAIL_LEN = 8
_CLOSE_ATTEMPTS = 64


@dataclass
class DiagnosticReport:
    name: str
    parameters: dict
    observations: list = field(default_factory=list)
    verdict: str = VERDICT_INCONCLUSIVE
    witnesses: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """Observation table as CSV; column order is first-seen, stable."""
        cols: list[str] = []
        for row in self.observations:
            for k in row:
                if k not in cols:
                    cols.append(k)
        lines = [",".join(cols)]
        for row in self.observations:
            lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
        return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _verdict(score: float, threshold: float) -> str:
    if score <= threshold:
        return VERDICT_CONSISTENT
    if score >= 10 * threshold:
        return VERDICT_VIOLATED
    return VERDICT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# sampling


def sample_point(system: _systems.System, rng: np.random.Generator):
    g = system.geometry
    if g in (_systems.GEOMETRY_CIRCLE, _systems.GEOMETRY_LINE):
        return float(rng.random())
    if g == _systems.GEOMETRY_SHIFT:
        prefix = rng.integers(0, 2, size=_SHIFT_PREFIX_LEN)
        tail = rng.integers(0, 2, size=_SHIFT_TAIL_LEN)
        return ShiftPoint(tuple(int(s) for s in prefix), tuple(int(s) for s in tail))
    if g == _systems.GEOMETRY_PRODUCT:
        return (sample_point(system.first, rng), sample_point(system.second, rng))
    raise ValueError(f"cannot sample from geometry {g!r}")


def _sample_points(system: _systems.System, count: int, seed: int) -> list:
    """The shift's two fixed points first, then draws seeded by ``seed``
    until there are at least ``count`` points."""
    rng = np.random.default_rng(seed)
    shift = system.geometry == _systems.GEOMETRY_SHIFT
    points = [ShiftPoint.zeros(), ShiftPoint.ones()] if shift else []
    while len(points) < count:
        points.append(sample_point(system, rng))
    return points


def _close_candidate(system: _systems.System, delta: float, rng: np.random.Generator):
    g = system.geometry
    if g == _systems.GEOMETRY_CIRCLE:
        x = float(rng.random())
        off = (2.0 * rng.random() - 1.0) * min(delta, 0.5) * 0.999
        return x, (x + off) % 1.0
    if g == _systems.GEOMETRY_LINE:
        x = float(rng.random())
        off = (2.0 * rng.random() - 1.0) * min(delta, 1.0) * 0.999
        return x, min(max(x + off, 0.0), 1.0)
    if g == _systems.GEOMETRY_SHIFT:
        x = sample_point(system, rng)
        k0 = system._level(np.nextafter(delta, 0), _SHIFT_PREFIX_LEN)  # least 2**-k < delta
        if k0 >= _SHIFT_PREFIX_LEN:
            return x, x
        suffix = rng.integers(0, 2, size=_SHIFT_PREFIX_LEN - k0)
        tail = rng.integers(0, 2, size=_SHIFT_TAIL_LEN)
        y = ShiftPoint(x.prefix[:k0] + tuple(int(s) for s in suffix),
                       tuple(int(s) for s in tail))
        return x, y
    if g == _systems.GEOMETRY_PRODUCT:
        x1, y1 = _close_candidate(system.first, delta, rng)
        x2, y2 = _close_candidate(system.second, delta, rng)
        return (x1, x2), (y1, y2)
    raise ValueError(f"cannot sample from geometry {g!r}")


def sample_close_pair(system: _systems.System, delta: float,
                      rng: np.random.Generator):
    """A pair with dist < delta, built directly per geometry."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    for _ in range(_CLOSE_ATTEMPTS):
        x, y = _close_candidate(system, delta, rng)
        if system.dist(x, y) < delta:
            return x, y
    raise SamplingError(
        f"could not sample a pair at distance < {delta} after {_CLOSE_ATTEMPTS} tries")


def _close_pairs(system: _systems.System, delta: float, pair_samples: int,
                 seed: int) -> list:
    """pair_samples random close pairs, preceded by the curated ones."""
    rng = np.random.default_rng(seed)
    pairs = _curated_close_pairs(system, delta)
    pairs.extend(sample_close_pair(system, delta, rng)
                 for _ in range(pair_samples))
    return pairs


def _curated_close_pairs(system: _systems.System, delta: float) -> list:
    """Adversarial near-pairs that random sampling would almost never hit.

    For the shift, (all-zeros, zeros then all-ones) is the canonical witness
    that small symbol distance does not control matched orbit averages.  The
    pair sits at the largest dyadic distance not exceeding delta, so a
    dyadic delta includes its own boundary witness.
    """
    if system.geometry != _systems.GEOMETRY_SHIFT or not delta > 0:
        return []
    k0 = max(1, system._level(delta, _SHIFT_PREFIX_LEN))
    probe = ShiftPoint((0,) * k0, (1,))
    zeros = ShiftPoint.zeros()
    if system.dist(zeros, probe) <= delta:
        return [(zeros, probe)]
    return []


def _point_jsonable(system: _systems.System, p):
    if system.geometry == _systems.GEOMETRY_SHIFT:
        if isinstance(p, ShiftPoint):
            return str(p)
        return "".join(str(int(s)) for s in p)
    if system.geometry == _systems.GEOMETRY_PRODUCT:
        return [_point_jsonable(system.first, p[0]),
                _point_jsonable(system.second, p[1])]
    return float(p)


def _pair_jsonable(system: _systems.System, pair) -> list:
    return [_point_jsonable(system, pair[0]), _point_jsonable(system, pair[1])]


# ---------------------------------------------------------------------------
# diagnostics


def _parameters(system: _systems.System, schedule: Schedule | None = None,
                **values) -> dict:
    """A report's parameters: the system, the schedule if there is one, and
    the named values."""
    params = {"system": system.to_dict(), **values}
    if schedule is not None:
        params["schedule"] = list(schedule.checkpoints)
        params["tail_start"] = schedule.tail_start
    return params


def _pair_report(name: str, params: dict, system: _systems.System, pairs,
                 observe, summary_key: str, threshold: float) -> DiagnosticReport:
    """The loop shared by the sampled-pair diagnostics.

    ``observe(i, pair)`` returns the observation rows of the i-th pair and
    its statistic.  The largest statistic is the summary, a pair whose
    statistic reaches 10x the threshold is a witness, and the summary
    against the threshold gives the verdict.  Without a pair the report
    stays inconclusive, with no summary.
    """
    report = DiagnosticReport(name, params)
    if not pairs:
        return report
    score = 0.0
    for i, pair in enumerate(pairs):
        rows, stat = observe(i, pair)
        report.observations.extend(rows)
        score = max(score, stat)
        if stat >= 10 * threshold:
            report.witnesses.append(_pair_jsonable(system, pair))
    report.summary[summary_key] = score
    report.verdict = _verdict(score, threshold)
    return report


def continuity_modulus(system: _systems.System, delta: float, pair_samples: int,
                       schedule: Schedule, seed: int = 0,
                       threshold: float = DEFAULT_THRESHOLD) -> DiagnosticReport:
    """Empirical modulus of the mean pseudo-metric over pairs with d < delta.

    Samples close pairs (plus curated adversarial pairs for the shift),
    estimates each pair's tail value, and reports the maximum.
    """
    (pair_samples,) = _systems._counts([pair_samples], "pair sample count", least=0)
    params = _parameters(system, schedule, delta=delta, pair_samples=pair_samples,
                         seed=seed, threshold=threshold)
    if not delta > 0:
        return DiagnosticReport("continuity_modulus", params)

    def observe(i, pair):
        tail = ebar_estimate(system, pair[0], pair[1], schedule).tail_sup
        return [{"pair": i, "dist": system.dist(*pair), "ebar_tail": tail}], tail

    return _pair_report("continuity_modulus", params, system,
                        _close_pairs(system, delta, pair_samples, seed), observe,
                        "modulus", threshold)


def empirical_equicontinuity(system: _systems.System, delta: float,
                             pair_samples: int, n_list, seed: int = 0,
                             threshold: float = DEFAULT_THRESHOLD) -> DiagnosticReport:
    """Worst Prokhorov distance between empirical measures of close pairs."""
    n_list = _systems._counts(n_list, "n in n_list")
    (pair_samples,) = _systems._counts([pair_samples], "pair sample count", least=0)
    params = _parameters(system, delta=delta, pair_samples=pair_samples,
                         n_list=n_list, seed=seed, threshold=threshold)
    if not delta > 0 or not n_list:
        return DiagnosticReport("empirical_equicontinuity", params)
    n_max = max(n_list)

    def observe(i, pair):
        seg_x = system.orbit_segment(pair[0], n_max)
        seg_y = system.orbit_segment(pair[1], n_max)
        rhos = [prokhorov(empirical_measure(seg_x.prefix(n)),
                          empirical_measure(seg_y.prefix(n)), system)
                for n in n_list]
        d0 = system.dist(*pair)
        return ([{"pair": i, "dist": d0, "n": n, "rho": r}
                 for n, r in zip(n_list, rhos)], max(rhos))

    return _pair_report("empirical_equicontinuity", params, system,
                        _close_pairs(system, delta, pair_samples, seed), observe,
                        "max_rho", threshold)


def unique_ergodicity_diagnostic(system: _systems.System, point_samples: int,
                                 schedule: Schedule, seed: int = 0,
                                 threshold: float = DEFAULT_THRESHOLD) -> DiagnosticReport:
    """Empirical diameter of the mean pseudo-metric over sampled points.

    A uniquely ergodic system must have diameter zero; the fixed points of
    the shift are always included as the canonical counterexample pair.
    """
    (point_samples,) = _systems._counts([point_samples], "point sample count", least=2)
    params = _parameters(system, schedule, point_samples=point_samples,
                         seed=seed, threshold=threshold)
    points = _sample_points(system, point_samples, seed)
    indexed = list(itertools.combinations(range(len(points)), 2))
    pairs = [(points[i], points[j]) for i, j in indexed]

    def observe(k, pair):
        tail = ebar_estimate(system, pair[0], pair[1], schedule).tail_sup
        i, j = indexed[k]
        return [{"i": i, "j": j, "ebar_tail": tail}], tail

    report = _pair_report("unique_ergodicity", params, system, pairs, observe,
                          "ebar_diameter", threshold)
    # a sample where every point coincides says nothing about the diameter
    if all(system.dist(*pair) == 0 for pair in pairs):
        report.verdict = VERDICT_INCONCLUSIVE
    return report


def omega_distance(system: _systems.System, x, y, schedule: Schedule,
                   cluster_tol: float = 0.05,
                   rho_threshold: float = 0.1,
                   small_ebar: float = 0.01) -> DiagnosticReport:
    """Hausdorff distance between tail-measure estimates, next to the pair's
    mean pseudo-metric tail.

    Small tail must force small Hausdorff distance; the verdict checks that
    implication only, so a pair with a large tail is unconstrained and the
    report stays inconclusive.  Each point's orbit is built once, for both
    the matched averages and its tail measures.
    """
    params = _parameters(system, schedule, x=_point_jsonable(system, x),
                         y=_point_jsonable(system, y), cluster_tol=cluster_tol,
                         rho_threshold=rho_threshold, small_ebar=small_ebar)
    report = DiagnosticReport("omega_distance", params)
    seg_x, seg_y = _segments(system, x, y, schedule.max_n, ebar=True)
    values = _ebar_values(system, seg_x, seg_y, schedule.checkpoints)
    ebar_tail = _tail_estimate(schedule, values).tail_sup
    omx, omy = (_tail_clusters(seg, schedule, cluster_tol) for seg in (seg_x, seg_y))
    rho_h = hausdorff_measures(omx, omy, system)
    report.observations.append({"ebar_tail": ebar_tail, "rho_hausdorff": rho_h,
                                "clusters_x": len(omx.members),
                                "clusters_y": len(omy.members)})
    if ebar_tail <= small_ebar:
        if rho_h <= rho_threshold:
            report.verdict = VERDICT_CONSISTENT
        else:
            report.verdict = VERDICT_VIOLATED
            report.witnesses.append(_pair_jsonable(system, (x, y)))
    else:
        report.verdict = VERDICT_INCONCLUSIVE
    return report


# ---------------------------------------------------------------------------
# observables and Birkhoff averages


def _bump(u: np.ndarray) -> np.ndarray:
    t = 2.0 * u - 1.0
    out = np.zeros_like(u)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


_NUMERIC_OBSERVABLES = {
    "coordinate": lambda a: a,
    "cos2pi": lambda a: np.cos(2.0 * np.pi * a),
    "bump": _bump,
    "one": lambda a: np.ones_like(a),
}


def observable_values(system: _systems.System, seg: _systems.OrbitSegment,
                      name: str) -> np.ndarray:
    """f(T^k x) for k < length, for a named observable.

    Numeric systems know coordinate, cos2pi, bump, and one; the shift knows
    symbol0 (leading symbol) and cyl:<word> (indicator that the window
    starts with the given block).
    """
    n = seg.length
    if system.geometry == _systems.GEOMETRY_SHIFT:
        data = seg.data
        if name == "symbol0":
            return data[:n].astype(np.float64)
        if name == "one":
            return np.ones(n)
        if name.startswith("cyl:"):
            word = name[4:]
            if not word or any(c not in "01" for c in word):
                raise ValueError("cylinder observable needs a binary word, e.g. cyl:01")
            w = np.frombuffer(word.encode(), dtype=np.uint8) - ord("0")
            if len(w) > system.horizon:
                raise ValueError("cylinder word longer than the shift horizon")
            hits = np.ones(n, dtype=bool)
            for k, s in enumerate(w):
                hits &= data[k:k + n] == s
            return hits.astype(np.float64)
        raise ValueError(f"unknown shift observable {name!r}")
    if system.geometry == _systems.GEOMETRY_PRODUCT:
        raise ValueError("product systems have no built-in observables")
    fn = _NUMERIC_OBSERVABLES.get(name)
    if fn is None:
        raise ValueError(f"unknown observable {name!r}; "
                         f"choose from {sorted(_NUMERIC_OBSERVABLES)}")
    return fn(np.asarray(seg.data[:n], dtype=np.float64))


def birkhoff_profile(system: _systems.System, observable: str,
                     point_samples: int, schedule: Schedule, seed: int = 0,
                     threshold: float = DEFAULT_THRESHOLD) -> DiagnosticReport:
    """Spread of Birkhoff averages across sampled points, per checkpoint.

    Uniform convergence forces the spread to shrink; the windowed rows track
    the worst window average anywhere in time (start positions up to the
    horizon), the stronger of the two uniformity surrogates.
    """
    (point_samples,) = _systems._counts([point_samples], "point sample count")
    params = _parameters(system, schedule, observable=observable,
                         point_samples=point_samples, seed=seed, threshold=threshold)
    report = DiagnosticReport("birkhoff_profile", params)
    points = _sample_points(system, point_samples, seed)
    csums = []
    for p in points:
        vals = observable_values(system, system.orbit_segment(p, schedule.max_n), observable)
        csums.append(np.concatenate([[0.0], np.cumsum(vals)]))
    spread_last = 0.0
    for n in schedule.checkpoints:
        avgs = np.array([cs[n] / n for cs in csums])
        spread = float(avgs.max() - avgs.min())
        report.observations.append({
            "n": n, "kind": "prefix", "spread": spread,
            "max_abs_avg": float(np.abs(avgs).max()),
        })
        spread_last = spread
    for ell in schedule.tail_checkpoints:
        sups, infs = [], []
        for cs in csums:
            win = (cs[ell:] - cs[:-ell]) / ell
            sups.append(win.max())
            infs.append(win.min())
        report.observations.append({
            "n": ell, "kind": "window",
            "spread": float(max(sups) - min(infs)),
            "max_abs_avg": float(max(abs(v) for v in sups + infs)),
        })
    report.summary["final_spread"] = spread_last
    report.verdict = _verdict(spread_last, threshold)
    return report


def mean_equicontinuity_diagnostic(system: _systems.System, delta: float,
                                   pair_samples: int, schedule: Schedule,
                                   seed: int = 0,
                                   threshold: float = DEFAULT_THRESHOLD) -> DiagnosticReport:
    """Three equivalent views of mean equicontinuity on close pairs.

    For each close pair (x, y): the Besicovitch tail, the Weyl worst-window
    sup, and the mean pseudo-metric tail between the product points (x, y)
    and (x, x) under the product map, which moves the time average into a
    single product orbit.
    """
    (pair_samples,) = _systems._counts([pair_samples], "pair sample count", least=0)
    params = _parameters(system, schedule, delta=delta, pair_samples=pair_samples,
                         seed=seed, threshold=threshold)
    if not delta > 0 or delta > system.diameter:
        return DiagnosticReport("mean_equicontinuity", params)
    if schedule.max_n > ASSIGNMENT_CAP:
        raise SizeLimitError(
            f"product-system assignment needs max checkpoint <= {ASSIGNMENT_CAP}")
    prod = _systems.ProductSystem(system, system)

    def observe(i, pair):
        x, y = pair
        bes = besicovitch_estimate(system, x, y, schedule).tail_sup
        weyl = weyl_profile(system, x, y, schedule.max_n,
                            schedule.tail_checkpoints).sup
        prod_tail = ebar_estimate(prod, (x, y), (x, x), schedule).tail_sup
        row = {"pair": i, "dist": system.dist(x, y), "besicovitch_tail": bes,
               "weyl_sup": weyl, "product_ebar_tail": prod_tail}
        return [row], max(bes, weyl, prod_tail)

    return _pair_report("mean_equicontinuity", params, system,
                        _close_pairs(system, delta, pair_samples, seed), observe,
                        "max_statistic", threshold)


def en_equicontinuity_diagnostic(system: _systems.System, delta: float,
                                 pair_samples: int, n_list, seed: int = 0,
                                 threshold: float = DEFAULT_THRESHOLD) -> DiagnosticReport:
    """Uniform-in-n modulus: worst ebar_n over close pairs and every listed n."""
    n_list = _systems._counts(n_list, "n in n_list")
    (pair_samples,) = _systems._counts([pair_samples], "pair sample count", least=0)
    params = _parameters(system, delta=delta, pair_samples=pair_samples,
                         n_list=n_list, seed=seed, threshold=threshold)
    if not delta > 0 or not n_list:
        return DiagnosticReport("en_equicontinuity", params)

    def observe(i, pair):
        vals = [ebar_n(system, pair[0], pair[1], n) for n in n_list]
        d0 = system.dist(*pair)
        return ([{"pair": i, "dist": d0, "n": n, "ebar_n": v}
                 for n, v in zip(n_list, vals)], max(vals))

    return _pair_report("en_equicontinuity", params, system,
                        _close_pairs(system, delta, pair_samples, seed), observe,
                        "max_ebar_n", threshold)


# ---------------------------------------------------------------------------
# the block counterexample


@dataclass(frozen=True)
class Example31Config:
    """Parameters for the slow-alternation counterexample report."""

    block_rule: object = "factorial"
    n_blocks: int = 6
    shift_horizon: int = 30
    k_grid_step: float = 0.01
    cluster_tol: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.k_grid_step <= 1:
            raise ValueError("k_grid_step must lie in (0, 1]")

    def lengths(self) -> list[int]:
        return _systems.block_lengths(self.block_rule, self.n_blocks)


def _distance_to_fixed_segment(meas: DiscreteMeasure, system: _systems.BinaryShift,
                               step: float) -> float:
    """min over the alpha grid k/m of the Prokhorov distance to
    alpha*delta(all zeros) + (1-alpha)*delta(all ones): one search over the
    least deficiency across the grid, as the minima over alpha and t commute,
    in integer masses over N*m (counts*m against k*N and (m-k)*N)."""
    K, m = system.horizon, int(round(1.0 / step))
    N, k = int(meas.counts.sum()), np.arange(m + 1)
    surplus = _shift_deficiency(system, meas.states(system), meas.counts * m,
                                np.uint8([[0] * K, [1] * K]), np.stack([k * N, (m - k) * N]))
    return _breakpoint_search(system._distances, lambda t: surplus(t).min() / (N * m))


def example31_report(config: Example31Config = Example31Config()) -> DiagnosticReport:
    """Exact finite-scale audit of the slow-alternation pair.

    The matched orbit average between the two block points stays large (the
    per-block lower bound approaches 1), while both orbits' tail measure
    estimates cling to the same segment of fixed-point mixtures, so measure
    proximity cannot force orbit proximity.
    """
    lengths = config.lengths()
    b = np.cumsum(lengths).tolist()
    system = _systems.BinaryShift(horizon=config.shift_horizon)
    x = _systems.build_example31_point("U", config.block_rule, config.n_blocks)
    y = _systems.build_example31_point("V", config.block_rule, config.n_blocks)
    tail_start = max(0, len(b) - 2)
    schedule = Schedule(tuple(b), tail_start)

    params = _parameters(system, block_lengths=lengths, checkpoints=b,
                         k_grid_step=config.k_grid_step,
                         cluster_tol=config.cluster_tol)
    report = DiagnosticReport("example31", params)

    est = ebar_estimate(system, x, y, schedule)
    failures: list[str] = []
    for i, (n, value) in enumerate(zip(b, est.values)):
        prev_b = b[i - 1] if i > 0 else 0
        bound = (lengths[i] - prev_b) / n
        ok = value >= bound - 1e-12
        report.observations.append({
            "block": i + 1, "n": n, "ebar_n": value,
            "lower_bound": bound, "bound_holds": bool(ok),
        })
        if i > 0 and not ok:
            failures.append(f"bound fails at block {i + 1}")

    seg_x = system.orbit_segment(x, b[-1])
    seg_y = system.orbit_segment(y, b[-1])
    rho_x = _distance_to_fixed_segment(empirical_measure(seg_x), system,
                                       config.k_grid_step)
    rho_y = _distance_to_fixed_segment(empirical_measure(seg_y), system,
                                       config.k_grid_step)

    omx = omega_hat_estimate(system, x, schedule, config.cluster_tol)
    omy = omega_hat_estimate(system, y, schedule, config.cluster_tol)
    rho_h = hausdorff_measures(omx, omy, system)

    report.summary["rho_x_to_segment"] = rho_x
    report.summary["rho_y_to_segment"] = rho_y
    report.summary["rho_hausdorff"] = rho_h
    report.summary["ebar_tail"] = est.tail_sup

    if failures:
        report.verdict = VERDICT_VIOLATED
        report.witnesses = failures
    else:
        report.verdict = VERDICT_CONSISTENT
    return report
