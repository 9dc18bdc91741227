"""Outside-in span tracing of the rangevol layers.

The tracer wraps every public function of the six layer modules (plus the
few private functions that are called across a layer boundary) and installs
each wrapper wherever a module looks the name up: the defining module, the
package namespace and every module that imported the name with
``from .x import name``.  No library file changes; :meth:`Tracer.uninstall`
puts the original functions back.

A span is (name, start_ns, end_ns, parent).  Spans are kept in memory and
written out once, at the end of a run.  A span's self time is its duration
minus the durations of its direct children, so the self times of all spans
add up to the time covered by the top-level spans.

Calls made inside pool worker processes are not seen: workers forked from a
traced process record into their own memory, which is discarded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import types

LAYERS = ("paths", "estimators", "montecarlo", "densities", "analytics", "cli")

# Private functions that another layer calls, with their span names.
BOUNDARY = {
    "cli": {"cmd_estimate": "estimate", "cmd_simulate": "simulate", "_emit_ticks": "emit"},
    "densities": {
        "_hlc_series_grid": "_hlc_series_grid",
        "_range_close_series_grid": "_range_close_series_grid",
    },
}

ESTIMATOR_KERNELS = ("parkinson_value", "garman_klass_value", "rogers_satchell_value", "bridge_value")


class Tracer:
    """Records spans and the counts read from call arguments and results."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name_id, start_ns, end_ns, parent]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.density_values: dict[int, object] = {}  # span index -> DensityValue
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, name: str, fn, on_result=None):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(index, args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer functions of ``package`` (the imported rangevol)."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            targets = {}
            for attr in getattr(module, "__all__", None) or dir(module):
                obj = getattr(module, attr, None)
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[attr] = attr
            targets.update(BOUNDARY.get(layer, {}))
            for attr, short in targets.items():
                fn = getattr(module, attr)
                wrapper = self.wrap(f"{layer}.{short}", fn, self._hook(layer, attr))
                for holder in modules:
                    if getattr(holder, attr, None) is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
        # analytics calls ``integrate.quad`` through its module attribute.
        analytics = package.analytics
        real = analytics.integrate
        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(real.__dict__)
        proxy.quad = self.wrap("analytics.quad", real.quad, self._on_quad)
        self._patches.append((analytics, "integrate", real))
        analytics.integrate = proxy

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- result hooks --------------------------------------------------------

    def _hook(self, layer: str, attr: str):
        if layer == "densities":
            return self._on_density
        if layer == "estimators" and attr in ESTIMATOR_KERNELS:
            return self._on_estimator_kernel
        if layer == "paths" and attr == "bar_from_samples":
            return self._on_bar
        if layer == "montecarlo" and attr == "run_experiment":
            return self._on_run_experiment
        if layer == "cli" and attr in ("cmd_estimate", "cmd_simulate"):
            return self._on_command
        if layer == "cli" and attr == "_emit_ticks":
            return self._on_emit
        return None

    def _on_density(self, index, args, kwargs, result):
        if hasattr(result, "terms_used"):
            self.density_values[index] = result

    def _on_estimator_kernel(self, index, args, kwargs, result):
        self.add("estimators.values", float(getattr(result, "size", 1)))

    def _on_bar(self, index, args, kwargs, result):
        self.add("paths.bar_ticks", float(len(args[0])))

    def _on_run_experiment(self, index, args, kwargs, result):
        cfg = args[0]
        self.add("montecarlo.batches", float(-(-cfg.n_paths // cfg.batch_size)))

    def _on_command(self, index, args, kwargs, result):
        cli_args = args[0]
        if getattr(cli_args, "input", None):
            self.add("cli.bytes_read", float(os.path.getsize(cli_args.input)))
        if cli_args.out != "-":
            self.add("cli.bytes_written", float(os.path.getsize(cli_args.out)))

    def _on_emit(self, index, args, kwargs, result):
        self.add("cli.bytes_written", float(os.path.getsize(args[1])))

    def _on_quad(self, index, args, kwargs, result):
        key = "analytics.quad.abserr_max"
        self.counts[key] = max(self.counts.get(key, 0.0), float(result[1]))

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name."""
        n = len(self.spans)
        child_time = [0] * n
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_time[i]
        return {"calls": calls, "self_s": {k: v * 1e-9 for k, v in self_ns.items()}}

    def has_ancestor(self, index: int, prefix: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.names[self.spans[parent][0]].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced operation that took ``wall_s``."""
    summary = tracer.summary()
    calls, self_s = summary["calls"], summary["self_s"]

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    out: dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = total(layer + ".", self_s)
        attributed += out[f"{layer}.self_s"]
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - attributed

    for name in ("run_experiment", "goodness_of_fit", "histogram_vs_pdf"):
        out[f"montecarlo.{name}.self_s"] = self_s.get(f"montecarlo.{name}", 0.0)
    out["montecarlo.goodness_of_fit.calls"] = calls.get("montecarlo.goodness_of_fit", 0)
    out["montecarlo.batches"] = tracer.counts.get("montecarlo.batches", 0.0)

    out["estimators.calls"] = total("estimators.", calls)
    out["estimators.values"] = tracer.counts.get("estimators.values", 0.0)

    bars = calls.get("paths.bar_from_samples", 0)
    out["paths.bar_from_samples.calls"] = bars
    out["paths.bar_from_samples.self_s"] = self_s.get("paths.bar_from_samples", 0.0)
    out["paths.bar_from_samples.us_per_call"] = (
        1e6 * out["paths.bar_from_samples.self_s"] / bars if bars else 0.0
    )

    out["cli.estimate.self_s"] = self_s.get("cli.estimate", 0.0)
    out["cli.emit.self_s"] = self_s.get("cli.emit", 0.0)
    out["cli.bytes_read"] = tracer.counts.get("cli.bytes_read", 0.0)
    out["cli.bytes_written"] = tracer.counts.get("cli.bytes_written", 0.0)
    bar_id = tracer._name_ids.get("paths.bar_from_samples")
    windows = sum(
        1 for i, span in enumerate(tracer.spans)
        if span[0] == bar_id and tracer.has_ancestor(i, "cli.estimate")
    )
    out["cli.windows"] = windows
    out["cli.ticks_per_window"] = (
        tracer.counts.get("paths.bar_ticks", 0.0) / bars if bars else 0.0
    )

    for name in ("range_pdf", "bridge_range_pdf", "parkinson_estimator_pdf", "bridge_estimator_pdf"):
        out[f"densities.{name}.calls"] = calls.get(f"densities.{name}", 0)
        out[f"densities.{name}.self_s"] = self_s.get(f"densities.{name}", 0.0)
    density_calls = total("densities.", calls)
    out["densities.us_per_call"] = (
        1e6 * out["densities.self_s"] / density_calls if density_calls else 0.0
    )
    # Telemetry counts come from the innermost density call, so that an
    # estimator density and the range density it wraps count once.
    has_density_child = {
        span[3] for span in tracer.spans
        if span[3] >= 0 and tracer.names[span[0]].startswith("densities.")
    }
    leaves = [v for i, v in tracer.density_values.items() if i not in has_density_child]
    out["densities.shells"] = sum(v.terms_used for v in leaves)
    out["densities.floor_hits"] = sum(1 for v in leaves if not v.converged)
    out["densities.clamps"] = sum(1 for v in leaves if v.clamped)

    for name in ("theoretical_moments", "interval_probability", "coverage_probability",
                 "garman_klass_mean", "rogers_satchell_mean"):
        out[f"analytics.{name}.calls"] = calls.get(f"analytics.{name}", 0)
        out[f"analytics.{name}.self_s"] = self_s.get(f"analytics.{name}", 0.0)
    out["analytics.quad.calls"] = calls.get("analytics.quad", 0)
    out["analytics.quad.self_s"] = self_s.get("analytics.quad", 0.0)
    out["analytics.quad.max_abserr"] = tracer.counts.get("analytics.quad.abserr_max", 0.0)
    results = density_under = 0
    for i, span in enumerate(tracer.spans):
        name = tracer.names[span[0]]
        if name.startswith("analytics.") and name != "analytics.quad":
            if not tracer.has_ancestor(i, "analytics."):
                results += 1
        elif name.startswith("densities.") and tracer.has_ancestor(i, "analytics."):
            density_under += 1
    out["analytics.density_calls_per_result"] = density_under / results if results else 0.0
    return {k: float(v) for k, v in out.items()}
