"""Spans around the public functions of each endotorus layer.

The benchmark measures the library from outside: it replaces each public
function listed in LAYERS by a wrapper that records one span per call and
a few counters taken from the function's return value.  The wrapper is
installed on every endotorus module that holds the function, so module-level
imports, `sg.`-style attribute calls and the function-local imports in
surface.py and torus.py (which resolve at call time) all reach it.  A
wrapped function keeps its `cache_info`/`cache_clear`, so the word search's
cache behaves and can be inspected as before.

Spans stay in memory in the worker and travel to the parent process with the
sample's result; `summarize` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _periodic_search_counts(hit):
    return {"words.periodic_search_hits": int(hit is not None)}


def _stabilize_counts(result):
    if not hasattr(result, "fold_log"):  # an obstruction, not a representative
        return {}
    return {"nielsen.folds": len(result.fold_log),
            "nielsen.unstable": int(not result.stable)}


def _scan_counts(result):
    (tt, pinps) = result
    return {"nielsen.pinps": len(pinps),
            "graphmap.prepared_vertices": tt.gm.graph.nv,
            "graphmap.prepared_edges": len(tt.gm.graph.edges)}


def _train_track_counts(result):
    if not hasattr(result, "gate_map"):  # witness, certificate or Unknown
        return {}
    return {"traintrack.tt_edges": len(result.gm.graph.edges)}


def _fiber_chain_counts(chain):
    return {"torus.chain_terms": len(chain["terms"])}


# (module, public function, span name, counters from the return value)
LAYERS = (
    ("cli", "parse", "cli.parse", None),
    ("cli", "run", "cli.run", None),
    ("words", "periodic_conjugacy_search", "words.periodic_search",
     _periodic_search_counts),
    ("nielsen", "stabilize", "nielsen.stabilize", _stabilize_counts),
    ("nielsen", "scan_pinps", "nielsen.scan_pinps", _scan_counts),
    ("nielsen", "nielsen_loops", "nielsen.loops", None),
    ("traintrack", "find_train_track", "traintrack.find_tt", _train_track_counts),
    ("traintrack", "is_finite_order", "traintrack.finite_order", None),
    ("subgroups", "is_injective", "subgroups.is_injective", None),
    ("subgroups", "free_factor_containment", "subgroups.free_factor", None),
    ("subgroups", "preimage", "subgroups.preimage", None),
    ("surface", "classify", "surface.classify", None),
    ("surface", "reduction_search", "surface.reduction_search", None),
    ("surface", "realize_surface", "surface.realize", None),
    ("torus", "chi_zero_report", "torus.report", None),
    ("torus", "minimality_check", "torus.minimality", None),
    ("torus", "fiber_chain", "torus.fiber_chain", _fiber_chain_counts),
)

SPAN_NAMES = tuple(name for (_, _, name, _) in LAYERS)
COUNTER_NAMES = (
    "words.periodic_search_hits", "nielsen.pinps", "nielsen.folds",
    "nielsen.unstable", "graphmap.prepared_vertices",
    "graphmap.prepared_edges", "traintrack.tt_edges", "torus.chain_terms",
)


class Tracer:
    """Records spans as dicts: name, start, end, parent (index), counts."""

    def __init__(self, input_id: str):
        self.input_id = input_id
        self.spans: list = []
        self._open: list = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "input": self.input_id, "start": clock(),
                    "end": None,
                    "parent": self._open[-1] if self._open else None,
                    "counts": {}}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self):
        """Replace every LAYERS function, wherever an endotorus module holds
        it, by its traced wrapper.  Call after `import endotorus.cli`."""
        modules = [m for (name, m) in list(sys.modules.items())
                   if name.startswith("endotorus.") and m is not None]
        for (module, attr, name, counts) in LAYERS:
            original = getattr(sys.modules[f"endotorus.{module}"], attr)
            traced = self.wrap(name, original, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def summarize(spans: list) -> dict:
    """Per-span-name inclusive time, self time and call count, plus the
    summed counters, for the spans of one sample.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only spans with no ancestor of the same
    name, so a nested call is not counted twice."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = 0.0
        out[f"{name}_self_s"] = 0.0
        out[f"{name}_calls"] = 0
    for name in COUNTER_NAMES:
        out[name] = 0
    for i, span in enumerate(spans):
        name = span["name"]
        duration = span["end"] - span["start"]
        out[f"{name}_self_s"] += duration - child_time[i]
        out[f"{name}_calls"] += 1
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            out[f"{name}_s"] += duration
        for key, value in span["counts"].items():
            out[key] += value
    return out


def metric_units() -> dict:
    """Every per-layer metric name that `summarize` emits, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
        units[f"{name}_calls"] = "count"
    for name in COUNTER_NAMES:
        units[name] = "count"
    return units
