"""Layer spans for the traced benchmark run.

The tracer wraps every name by which the layers of ``orbitmetric`` (and the
benchmark's own workload module) look each other up, records one span per
wrapped call made while a request is active, and derives per-layer self
times and exact work counts from the spans once the run is over.  The
library source is never modified: wrappers are installed by rebinding module
and class attributes and removed again by ``uninstall``.

Only calls made inside a request are recorded.  Input generation and output
checks run with no active request, so they pass straight through.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("systems", "matching", "pseudometrics", "measures", "analysis")


def _n_states(args, kwargs, out):
    # product segments generate no states of their own; their factors do
    return {"states": 0 if out.system.geometry == "product" else out.length}


def _n_entries(args, kwargs, out):
    return {"entries": out.entries.size}


def _n_assignment(args, kwargs, out):
    perm, _ = out
    return {"n_sum": perm.n}


def _n_checkpoints(args, kwargs, out):
    return {"checkpoints": len(out.values) if hasattr(out, "values") else 1}


def _n_atoms(args, kwargs, out):
    return {"atoms": out.support_size}


def _n_support_pairs(args, kwargs, out):
    mu, nu = args[0], args[1]
    return {"support_pairs": mu.support_size * nu.support_size}


# group -> (module, function names, work counter).  A group is the unit the
# per-layer metrics are reported for; its first dotted part is the layer.
FUNCTION_GROUPS = {
    "systems.cost_matrix": ("systems", ("cost_matrix",), _n_entries),
    "systems.aligned_distances": ("systems", ("aligned_distances",), None),
    "systems.other": ("systems", ("build_example31_point", "block_lengths"), None),
    "matching.min_cost_assignment": ("matching", ("min_cost_assignment",), _n_assignment),
    "matching.max_matching_under_threshold": (
        "matching", ("max_matching_under_threshold",), None),
    "pseudometrics.ebar": ("pseudometrics", ("ebar_n", "ebar_estimate"), _n_checkpoints),
    "pseudometrics.threshold": (
        "pseudometrics", ("delta_n", "etilde_estimate", "sandwich_check"), None),
    "pseudometrics.time_average": (
        "pseudometrics", ("besicovitch_n", "besicovitch_estimate", "weyl_profile"), None),
    "measures.empirical_measure": ("measures", ("empirical_measure",), _n_atoms),
    "measures.prokhorov": ("measures", ("prokhorov",), _n_support_pairs),
    "measures.wasserstein1": ("measures", ("wasserstein1",), None),
    "measures.wasserstein1_fast_1d": ("measures", ("wasserstein1_fast_1d",), None),
    "measures.omega_hat_estimate": ("measures", ("omega_hat_estimate",), None),
    "measures.hausdorff_measures": ("measures", ("hausdorff_measures",), None),
    "analysis.diagnostics": ("analysis", (
        "birkhoff_profile", "empirical_equicontinuity", "example31_report",
        "mean_equicontinuity_diagnostic", "omega_distance",
        "unique_ergodicity_diagnostic"), None),
}

# The closed-form 1-d transport is imported into pseudometrics by name; there
# it is ebar work.  Inside measures the same functions stay self time of
# wasserstein1_fast_1d, so only the pseudometrics binding is wrapped.
NAMESPACE_ONLY = {
    "pseudometrics.ebar": ("pseudometrics", ("_w1_line", "_w1_circle")),
}

# group -> (module, class names, method names, work counter)
METHOD_GROUPS = {
    "systems.orbit_segment": ("systems", ("System",), ("orbit_segment",), _n_states),
    "systems.pairwise_dist": ("systems", (
        "CircleRotation", "_IntervalSystem", "BinaryShift", "ProductSystem"),
        ("pairwise_dist",), None),
    "analysis.report_emit": ("analysis", ("DiagnosticReport",), ("to_json", "to_csv"), None),
}

# per-group counters reported as per-layer metrics, in report order
COUNTED = {
    "systems.orbit_segment": ("calls", "states"),
    "systems.cost_matrix": ("calls", "entries"),
    "matching.min_cost_assignment": ("calls", "n_sum"),
    "matching.max_matching_under_threshold": ("calls",),
    "pseudometrics.ebar": ("calls", "checkpoints"),
    "measures.empirical_measure": ("calls", "atoms"),
    "measures.prokhorov": ("calls", "support_pairs"),
}

# groups whose self time is reported on its own; the analysis groups are
# reported as analysis.self_s and analysis.report_emit_s
TIMED = (
    "systems.orbit_segment", "systems.cost_matrix", "systems.aligned_distances",
    "systems.pairwise_dist",
    "matching.min_cost_assignment", "matching.max_matching_under_threshold",
    "pseudometrics.ebar", "pseudometrics.threshold", "pseudometrics.time_average",
    "measures.empirical_measure", "measures.prokhorov", "measures.wasserstein1",
    "measures.wasserstein1_fast_1d", "measures.omega_hat_estimate",
    "measures.hausdorff_measures",
)


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        # span: [group, start_ns, end_ns, parent index or -1, request id]
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._errors: dict[str, int] = defaultdict(int)
        self._last_error: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, namespaces: dict[str, object], extra_namespaces=()) -> None:
        """Wrap every binding of the traced functions and methods.

        ``namespaces`` maps the layer module names (systems, matching, ...)
        to the imported modules; ``extra_namespaces`` are further modules,
        such as the package itself and the benchmark's workload module, whose
        bindings of the same function objects are wrapped as well.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        scan = list(namespaces.values()) + list(extra_namespaces)
        for group, (module, names, counter) in FUNCTION_GROUPS.items():
            for name in names:
                original = getattr(namespaces[module], name)
                wrapped = self._wrap(original, group, counter, counted=True)
                for ns in scan:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapped)
        for group, (module, names) in NAMESPACE_ONLY.items():
            ns = namespaces[module]
            for name in names:
                self._patch(ns, name, self._wrap(getattr(ns, name), group, None,
                                                 counted=False))
        for group, (module, classes, methods, counter) in METHOD_GROUPS.items():
            for cls_name in classes:
                cls = getattr(namespaces[module], cls_name)
                for method in methods:
                    original = vars(cls)[method]
                    self._patch(cls, method, self._wrap(original, group, counter,
                                                        counted=True))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, fn, group: str, counter, counted: bool):
        """Span-recording stand-in for ``fn``; ``counted`` wrappers add to
        the group's call and work counts."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            idx = tracer._open(group)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                tracer._record_error(group, exc)
                raise
            tracer._close(idx)
            if not counted:
                return out
            counts = tracer._counts[group]
            counts["calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    counts[key] += int(value)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", group)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- spans ------------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self.request = request_id

    def end_request(self) -> None:
        self.request = None
        self._stack.clear()

    def _open(self, group: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([group, time.perf_counter_ns(), 0, parent, self.request])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _record_error(self, group: str, exc: BaseException) -> None:
        # an exception unwinds through every enclosing span; charge it once,
        # to the layer of the innermost span it left
        if exc is not self._last_error:
            self._last_error = exc
            self._errors[group.split(".")[0]] += 1

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per group: span time minus child span time."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (group, start, end, _, _), children in zip(self.spans, child_ns):
            out[group] += (end - start - children) * 1e-9
        return out

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        selfs = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for group, keys in COUNTED.items():
            for key in keys:
                out[f"{group}.{key}"] = (self._counts[group][key], "count")
        for group in TIMED:
            out[f"{group}.self_s"] = (selfs.get(group, 0.0), "s")
        for layer in LAYERS:
            if layer != "analysis":
                total = sum(v for g, v in selfs.items() if g.split(".")[0] == layer)
                out[f"{layer}.self_s"] = (total, "s")
        out["analysis.self_s"] = (selfs.get("analysis.diagnostics", 0.0), "s")
        out["analysis.report_emit_s"] = (selfs.get("analysis.report_emit", 0.0), "s")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self._errors[layer], "count")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for group, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": group, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": request}) + "\n")
