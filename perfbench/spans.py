"""Span tracing of covwave from outside the program.

``Tracer.install`` replaces every public function of the covwave modules,
wherever a covwave module has bound it by name, with a wrapper that records
a span: name, start, end, parent span and a few counts computed from the
call's arguments.  Spans stay in memory; ``write`` saves them at the end.
The per-layer figures are derived from the spans by ``layer_metrics``.
"""
from __future__ import annotations

import bisect
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("cli", "spectral", "covariance", "windowing", "photon", "entropy", "numerics", "io")

# span name -> layer whose self time it adds to
LAYER = {
    "cli.main": "cli",
    "photon.synthesize_photon_field": "photon.field",
    "entropy.density_from_spectral": "entropy.density",
    "entropy.density_from_photon": "entropy.density",
    "spectral.gaussian_spectrum": "spectral.factory",
    "spectral.flat_spectrum": "spectral.factory",
    "spectral.spectrum_from_samples": "spectral.factory",
    "windowing.apply_window": "windowing",
    "windowing.boost_window": "windowing",
    "windowing.invariant_ratio": "windowing",
    "windowing.translate_window": "windowing",
}

COMPLEX_BYTES, REAL_BYTES = 16, 8


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kept(args, kwargs, result):
    g, win = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "win")
    nodes = g.grid.nodes
    kept = np.searchsorted(nodes, win.upper, "right") - np.searchsorted(nodes, win.lower, "left")
    return {"kept": int(kept), "nodes": nodes.size}


# computed counts per span name: arguments and result -> {count: value}
COUNTERS = {
    "spectral.synthesize": lambda a, k, r: {
        "pairs": _arg(a, k, 0, "g").grid.count * r.grid.count},
    "photon.synthesize_photon_field": lambda a, k, r: {
        "pairs": _arg(a, k, 0, "a").grid.count * r.grid.count},
    # trapezoid quadrature reads complex128 samples and float64 weights
    "numerics.integrate": lambda a, k, r: {
        "bytes": _arg(a, k, 0, "f").grid.count * (COMPLEX_BYTES + REAL_BYTES)},
    "io.write_signal": lambda a, k, r: {
        "rows": _arg(a, k, 1, "f").grid.count,
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "windowing.apply_window": _kept,
}


class Tracer:
    """Wraps covwave's public functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"covwave.{m}") for m in MODULES]
        holders = [m for n, m in sys.modules.items() if n == "covwave" or n.startswith("covwave.")]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def write(self, path: Path, invocation_starts: list[int], env: dict) -> None:
        """Save the spans as JSON lines after one environment line.

        ``invocation_starts`` holds the id of each traced invocation's first span.
        """
        with open(path, "w") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                inv = bisect.bisect_right(invocation_starts, i) - 1
                fh.write(json.dumps({"inv": inv, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "counts": counts}) + "\n")


def invocation_summary(spans: list[list], first_id: int) -> dict:
    """Self seconds per layer and summed counts of one invocation's spans.

    ``spans`` were recorded during the invocation, starting at span id
    ``first_id``.  A span's self time is its duration minus the durations of
    its direct children, which never overlap in this single-threaded program.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent - first_id] += end - start
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for (name, start, end, _, span_counts), children in zip(spans, child_time):
        layer = LAYER.get(name, name)
        self_s[layer] += end - start - children
        counts[f"{layer}.calls"] += 1
        for key, value in (span_counts or {}).items():
            counts[f"{layer}.{key}"] += value
    return {"self": self_s, "counts": counts}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _per(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(summaries: list[dict], traced_s: list[float], untraced_s: list[float],
                  health: dict) -> dict:
    """Per-layer metrics: median self seconds and counts per invocation.

    Layers that did no work in this workload read 0.  Counts are computed
    from call arguments and file sizes, not measured by the program.
    """
    def self_s(layer):
        return _median(s["self"].get(layer, 0.0) for s in summaries)

    def count(key):
        return _median(s["counts"].get(key, 0.0) for s in summaries)

    def rate(layer, key, scale):
        return _median(
            _per(s["self"].get(layer, 0.0), s["counts"].get(f"{layer}.{key}", 0.0), scale)
            for s in summaries
        )

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    put("spectral.synthesize.s", self_s("spectral.synthesize"), "s")
    put("spectral.synthesize.calls", count("spectral.synthesize.calls"), "count")
    put("spectral.synthesize.pairs", count("spectral.synthesize.pairs"), "count")
    put("spectral.synthesize.ns_per_pair", rate("spectral.synthesize", "pairs", 1e9), "ns")
    put("photon.field.s", self_s("photon.field"), "s")
    put("photon.field.pairs", count("photon.field.pairs"), "count")
    put("photon.field.ns_per_pair", rate("photon.field", "pairs", 1e9), "ns")
    for layer in ("entropy.density", "entropy.entropy", "spectral.mean_momentum",
                  "spectral.norm_squared", "covariance.boost_spectral", "windowing",
                  "numerics.integrate"):
        put(f"{layer}.s", self_s(layer), "s")
    put("numerics.integrate.calls", count("numerics.integrate.calls"), "count")
    put("numerics.integrate.bytes", count("numerics.integrate.bytes"), "B")
    put("windowing.kept_ratio", _median(
        _per(s["counts"].get("windowing.kept", 0.0), s["counts"].get("windowing.nodes", 0.0), 1.0)
        for s in summaries), "ratio")
    put("io.write_signal.s", self_s("io.write_signal"), "s")
    put("io.write_signal.rows", count("io.write_signal.rows"), "count")
    put("io.write_signal.bytes", count("io.write_signal.bytes"), "B")
    put("io.write_signal.us_per_row", rate("io.write_signal", "rows", 1e6), "us")
    put("spectral.factory.s", self_s("spectral.factory"), "s")
    put("cli.self_s", self_s("cli"), "s")
    for layer in ("photon.to_photon", "photon.invariant_norm", "spectral.edge_leakage"):
        put(f"{layer}.s", self_s(layer), "s")
    put("spectral.plancherel_resid", health["spectral.plancherel_resid"], "ratio")
    put("photon.bridge_gap", health["photon.bridge_gap"], "ratio")
    put("entropy.delta_s_spread", health["entropy.delta_s_spread"], "nats")
    put("entropy.delta_s_oracle_err", health["entropy.delta_s_oracle_err"], "nats")
    put("windowing.w_over_p_spread", health["windowing.w_over_p_spread"], "ratio")
    put("trace.overhead_ratio", _median(traced_s) / _median(untraced_s), "ratio")
    return out
