"""Span tracing of hyperclust's public functions, installed from outside.

The tracer replaces every public function of the layer modules, in every
``hyperclust`` namespace that binds it (``harness.complete_linkage``,
``spectral.hollowed_gram``, ``hyperclust.run_grid`` ...), by a wrapper that
records a span: name, thread, parent span, start, end. Each thread keeps its
own span stack, so the replicates a thread pool runs side by side nest
correctly. A span's self time is its duration minus its children's. Time the
tracer spends on its own bookkeeping inside a span (counting distinct points,
starting tracemalloc) is subtracted from the enclosing spans, so only the
wrapper calls themselves remain as overhead. Spans stay in memory until
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

LAYER_MODULES = ("sampling", "core", "spectral", "cluster", "harness", "fileio", "svgplot", "cli")
MIB = float(2**20)

# tracemalloc peaks are taken on these top-level stages only; tracing every
# allocation of the whole pipeline would distort the Python-heavy sampler
PEAK_STAGES = ("spectral.diagnostics", "cluster.complete_linkage")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    unit: int
    start: float
    end: float
    ms: float = 0.0
    self_ms: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class _Frame:
    span: Span
    children_s: float = 0.0
    hidden_s: float = 0.0  # tracer bookkeeping inside this frame's interval


def _nnz(args, kwargs, result):
    h = kwargs.get("h", args[0] if args else None)
    return {"nnz": sum(len(e) for e in h.interactions)}


def _linkage_sizes(args, kwargs, result):
    import numpy as np

    points = np.asarray(kwargs.get("points", args[0] if args else None), dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    m = points.shape[0]
    return {
        "points": m,
        "distinct_points": int(np.unique(points, axis=0).shape[0]),
        "dist_matrix_mb_computed": m * m * 8 / MIB,
    }


def _dense_size(args, kwargs, result):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return {"dense_mb_computed": spec.n * spec.m * 8 / MIB}


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


# counts taken at the span boundary, from the arguments a layer receives
EXTRAS = {
    "core.incidence_matrix": _nnz,
    "cluster.complete_linkage": _linkage_sizes,
    "spectral.diagnostics": _dense_size,
    "fileio.read_interactions": _file_bytes,
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.unit = -1
        # tracemalloc slows every allocation, so peaks are taken in units of
        # their own and those units give no times
        self.memory = False
        self.memory_units: set[int] = set()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        extra_fn = EXTRAS.get(name)
        peak = name in PEAK_STAGES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            stack = self._stack()
            parent = stack[-1] if stack else None
            if name == "cli.main":
                argv = kwargs.get("argv", args[0] if args else None) or sys.argv[1:]
                label = f"cli.main.{argv[0] if argv else ''}"
            else:
                label = name
            span = Span(
                id=next(self._ids),
                parent=parent.span.id if parent else None,
                name=label,
                thread=threading.get_ident(),
                unit=self.unit,
                start=0.0,
                end=0.0,
            )
            frame = _Frame(span)
            stack.append(frame)
            tracing_memory = peak and self.memory and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if tracing_memory:
                    span.extra["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
            if extra_fn is not None:
                span.extra.update(extra_fn(args, kwargs, result))
            span.ms = 1000.0 * (span.end - span.start - frame.hidden_s)
            span.self_ms = span.ms - 1000.0 * frame.children_s
            with self._lock:
                self.spans.append(span)
            if parent is not None:
                parent.children_s += span.ms / 1000.0
                parent.hidden_s += (time.perf_counter() - entered) - span.ms / 1000.0
            return result

        return traced

    def install(self, unit: int, memory: bool) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        self.unit, self.memory = unit, memory
        if memory:
            self.memory_units.add(unit)
        namespaces = [mod for name, mod in sorted(sys.modules.items()) if name.split(".")[0] == "hyperclust"]
        for layer in LAYER_MODULES:
            mod = sys.modules[f"hyperclust.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrappers.get(id(fn))
                if wrapper is None:
                    wrapper = self._wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


# metric name -> (span name, quantity, unit, better)
LAYER_METRICS = {
    "sampling.generate_design.self_ms": ("sampling.generate_design", "self_ms", "ms", "lower"),
    "sampling.sample_hyper_sbm.ms": ("sampling.sample_hyper_sbm", "ms", "ms", "lower"),
    "core.incidence_matrix.ms": ("core.incidence_matrix", "ms", "ms", "lower"),
    "core.incidence.nnz": ("core.incidence_matrix", "nnz", "count", "lower"),
    "core.type_matrix.ms": ("core.type_matrix", "ms", "ms", "lower"),
    "spectral.hollowed_gram.ms": ("spectral.hollowed_gram", "ms", "ms", "lower"),
    "spectral.hollowed_gram.calls": ("spectral.hollowed_gram", "calls", "count", "lower"),
    "spectral.select_signal_eigenpairs.self_ms": ("spectral.select_signal_eigenpairs", "self_ms", "ms", "lower"),
    "spectral.embed_interactions.self_ms": ("spectral.embed_interactions", "self_ms", "ms", "lower"),
    "spectral.diagnostics.self_ms": ("spectral.diagnostics", "self_ms", "ms", "lower"),
    "spectral.expected_gram.ms": ("spectral.expected_gram", "ms", "ms", "lower"),
    "spectral.diagnostics.peak_alloc_mb": ("spectral.diagnostics", "peak_alloc_mb", "MiB", "lower"),
    "spectral.diagnostics.dense_mb_computed": ("spectral.diagnostics", "dense_mb_computed", "MiB", "lower"),
    "cluster.complete_linkage.ms": ("cluster.complete_linkage", "ms", "ms", "lower"),
    "cluster.complete_linkage.peak_alloc_mb": ("cluster.complete_linkage", "peak_alloc_mb", "MiB", "lower"),
    "cluster.complete_linkage.points": ("cluster.complete_linkage", "points", "count", "lower"),
    "cluster.complete_linkage.distinct_points": ("cluster.complete_linkage", "distinct_points", "count", "lower"),
    "cluster.dist_matrix_mb_computed": ("cluster.complete_linkage", "dist_matrix_mb_computed", "MiB", "lower"),
    "cluster.cut_at_k.ms": ("cluster.cut_at_k", "ms", "ms", "lower"),
    "cluster.cut_at_k.calls": ("cluster.cut_at_k", "calls", "count", "lower"),
    "cluster.choose_k_by_gap.ms": ("cluster.choose_k_by_gap", "ms", "ms", "lower"),
    "cluster.adjusted_rand_index.ms": ("cluster.adjusted_rand_index", "ms", "ms", "lower"),
    "harness.run_cell.self_ms": ("harness.run_cell", "self_ms", "ms", "lower"),
    "harness.type_partition.ms": ("harness.type_partition", "ms", "ms", "lower"),
    "harness.embed_file.self_ms": ("harness.embed_file", "self_ms", "ms", "lower"),
    "fileio.read_interactions.ms": ("fileio.read_interactions", "ms", "ms", "lower"),
    "fileio.write_interactions.ms": ("fileio.write_interactions", "ms", "ms", "lower"),
    "svgplot.plot_scatter.ms": ("svgplot.plot_scatter", "ms", "ms", "lower"),
    "cli.main.simulate.self_ms": ("cli.main.simulate", "self_ms", "ms", "lower"),
    "cli.main.embed.self_ms": ("cli.main.embed", "self_ms", "ms", "lower"),
    "cli.main.plot.self_ms": ("cli.main.plot", "self_ms", "ms", "lower"),
}
# quantities derived from several spans or from the run itself
DERIVED_METRICS = {
    "fileio.read_interactions.mb_per_s": ("MiB/s", "higher"),
    "harness.run_grid.pool_busy_ratio": ("ratio", "higher"),
    "harness.run_grid.replicates_dropped": ("count", "lower"),
    "cluster.ari_true_k_mean": ("ari", "higher"),
    "cluster.ari_gap_k_mean": ("ari", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unit_ms": ("ms", "lower"),
}
COUNT_QUANTITIES = ("calls", "nnz", "points", "distinct_points", "dist_matrix_mb_computed", "dense_mb_computed")


def _per_unit(spans: list[Span]) -> dict[int, dict[tuple[str, str], float]]:
    """Sum every span quantity within each unit."""
    units: dict[int, dict[tuple[str, str], float]] = {}
    for s in spans:
        sums = units.setdefault(s.unit, {})
        for quantity, value in (("ms", s.ms), ("self_ms", s.self_ms), ("calls", 1), *s.extra.items()):
            key = (s.name, quantity)
            if quantity == "peak_alloc_mb":
                sums[key] = max(sums.get(key, 0.0), value)
            else:
                sums[key] = sums.get(key, 0.0) + value
    return units


def layer_metrics(tracer: Tracer, threads: int) -> dict[str, float]:
    """Per-unit layer figures: medians over traced units for times, over
    memory units for peaks; counts from the first traced unit, so they repeat
    exactly for a seed. A layer that does not run on the workload, and a peak
    not taken (threaded workloads), reports 0."""
    units = _per_unit(tracer.spans)
    ordered = [units[u] for u in sorted(units) if u not in tracer.memory_units]
    peaks = [units[u] for u in sorted(units) if u in tracer.memory_units]
    out: dict[str, float] = {}
    for metric, (span, quantity, _, _) in LAYER_METRICS.items():
        key = (span, quantity)
        if quantity in COUNT_QUANTITIES:
            out[metric] = ordered[0].get(key, 0)
        else:
            source = peaks if quantity == "peak_alloc_mb" else ordered
            out[metric] = statistics.median(u.get(key, 0.0) for u in source) if source else 0.0

    rates = [
        u[("fileio.read_interactions", "bytes")] / MIB / (u[("fileio.read_interactions", "ms")] / 1000.0)
        for u in ordered
        if u.get(("fileio.read_interactions", "ms"), 0.0) > 0.0
    ]
    out["fileio.read_interactions.mb_per_s"] = statistics.median(rates) if rates else 0.0
    busy = [
        u.get(("harness.run_cell", "ms"), 0.0) / (u[("harness.run_grid", "ms")] * threads)
        for u in ordered
        if u.get(("harness.run_grid", "ms"), 0.0) > 0.0
    ]
    out["harness.run_grid.pool_busy_ratio"] = statistics.median(busy) if busy else 0.0
    return out
