"""Timing spans around the public functions of each decoguard module.

`Tracer.install()` wraps every public function of the six layers and
rebinds the wrapper at every binding site in the package: modules that
import a name directly (`from .qmath import check_density`) hold their own
reference, so patching the defining module alone would miss those calls.
Spans (id, parent, name, start, end) stay in memory until `write_spans`.
A span's self time is its duration minus the durations of its direct
children. Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from pathlib import Path

LAYERS = ("cli", "optimize", "schemes", "measurements", "channels", "qmath")
POSTSELECTED = frozenset({"schemes.run_wmqmr", "schemes.run_qffc_ps",
                          "schemes.run_composite", "schemes.run_ent_wmqmr"})

# Per-layer metrics reported by a traced run, with their unit and direction.
_CALLS_SELF = {
    "optimize": ("optimize_qfbc", "optimize_qffc_rot", "optimize_scheme"),
    "schemes": ("run_wmqmr", "run_qfbc", "run_qffc_ps", "run_qffc_rot",
                "run_composite", "run_ent_wmqmr"),
    "measurements": ("rotation", "measure", "partial_measure"),
    "channels": ("make_channel", "apply_channel"),
    "qmath": ("check_density", "eig_hermitian", "fidelity", "concurrence"),
}


def _per_layer_spec() -> dict[str, tuple[str, str]]:
    spec = {}
    for layer in LAYERS:
        spec[f"{layer}.self_s"] = ("s", "lower")
    for layer, names in _CALLS_SELF.items():
        for name in names:
            spec[f"{layer}.{name}.calls"] = ("count", "lower")
            spec[f"{layer}.{name}.self_s"] = ("s", "lower")
    spec.update({
        "optimize.sweep_fig6.s": ("s", "lower"),
        "optimize.sweep_optimal.s": ("s", "lower"),
        "optimize.cell_p50_ms": ("ms", "lower"),
        "optimize.cell_tail_ms": ("ms", "lower"),
        "optimize.pool_speedup": ("x", "higher"),
        "schemes.accept_ratio": ("frac", "higher"),
        "measurements.povm_axis.calls": ("count", "lower"),
        "cli.main.self_s": ("s", "lower"),
        "cli.csv_bytes": ("bytes", "lower"),
        "trace.overhead_frac": ("frac", "lower"),
    })
    return spec


PER_LAYER = _per_layer_spec()

_TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> tuple[float, float]:
    """(q, value) for the highest percentile with at least ten samples beyond it."""
    n = len(values)
    for q in _TAIL_PERCENTILES:
        if n * (1 - q / 100.0) >= 10:
            return q, percentile(values, q)
    return 100.0, max(values)


class Tracer:
    """Span recorder for one process; install() once, uninstall() to restore."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.success: list[float] = []
        self._stack: list[int] = []
        self._ps_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        postselected = name in POSTSELECTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            outer = postselected and self._ps_depth == 0
            self._ps_depth += postselected
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._ps_depth -= postselected
                spans[sid] = (name, t0, t1, parent)
            if outer:
                self.success.append(out.success_prob)
            return out
        return traced

    def install(self):
        """Wrap each layer's public functions and rebind them package-wide."""
        package = importlib.import_module("decoguard")
        modules = [package] + [importlib.import_module(f"decoguard.{m}") for m in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"decoguard.{layer}")
            for fname, fn in vars(mod).items():
                if inspect.isfunction(fn) and _is_public(package, mod, fname, fn):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write_spans(self, path: Path):
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{t0 - t_base:.9f},{t1 - t_base:.9f}\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times; cell latencies from optimizer spans."""
        calls, self_s, inclusive = aggregate(self.spans)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.startswith(layer + "."))
        for layer, names in _CALLS_SELF.items():
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = calls.get(key, 0)
                out[f"{key}.self_s"] = self_s.get(key, 0.0)
        out["measurements.povm_axis.calls"] = calls.get("measurements.povm_axis", 0)
        out["optimize.sweep_fig6.s"] = inclusive.get("optimize.sweep_fig6", 0.0)
        out["optimize.sweep_optimal.s"] = inclusive.get("optimize.sweep_optimal", 0.0)
        out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
        out["schemes.accept_ratio"] = (sum(self.success) / len(self.success)
                                       if self.success else 0.0)
        cells = self.cell_times()
        out["optimize.cell_p50_ms"] = 1e3 * percentile(cells, 50) if cells else 0.0
        out["optimize.cell_tail_ms"] = 1e3 * tail(cells)[1] if cells else 0.0
        return out

    def cell_times(self) -> list[float]:
        """Seconds per optimizer cell, one cell being an optimize_scheme call or
        an optimize_qfbc call plus the optimize_qffc_rot call after it (one
        fig6 row, one library-mixed state). Only the outermost optimizer
        call of a nest counts."""
        is_opt = [s[0] in _CELL_NAMES for s in self.spans]
        cells, pending = [], None
        for name, t0, t1, parent in self.spans:
            if name not in _CELL_NAMES or (parent >= 0 and _has_opt_ancestor(
                    self.spans, is_opt, parent)):
                continue
            if name == "optimize.optimize_qfbc":
                pending = t1 - t0
            elif name == "optimize.optimize_qffc_rot" and pending is not None:
                cells.append(pending + t1 - t0)
                pending = None
            else:
                cells.append(t1 - t0)
        return cells


def aggregate(spans) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
    """Calls, self seconds and inclusive seconds per span name. Self time is
    a span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    for sid, (name, t0, t1, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[sid]
        inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
    return calls, self_s, inclusive


_CELL_NAMES = frozenset({"optimize.optimize_qfbc", "optimize.optimize_qffc_rot",
                         "optimize.optimize_scheme"})


def _has_opt_ancestor(spans, is_opt, sid: int) -> bool:
    while sid >= 0:
        if is_opt[sid]:
            return True
        sid = spans[sid][3]
    return False


def _is_public(package, mod, fname: str, fn) -> bool:
    """Defined in mod and exported from the package, or one of the layer entry
    points that the package does not re-export (state validation, the CLI)."""
    return fn.__module__ == mod.__name__ and (
        getattr(package, fname, None) is fn or (mod.__name__, fname) in _EXTRA_PUBLIC)


_EXTRA_PUBLIC = {("decoguard.qmath", "check_density"), ("decoguard.cli", "main"),
                 ("decoguard.cli", "build_parser")}
