"""Spans and work counters around trispin's public functions, from outside src/.

install() wraps every public function of each layer module at every place
its name is bound in a loaded trispin module (``trispin.engine.expm_generator``
as well as ``trispin.linalg.expm_generator``), plus ``numpy.linalg.eigh``.
Spans stay in memory; summary() turns them into per-layer self times, and
the counters come from call arguments and return values.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("engine", "linalg", "spinsys", "sequences", "broadband", "pulseprog", "metrics", "cli")

# span record fields
NAME, LAYER, START, END, PARENT, OP = range(6)


def _count_propagator(counts, parent, args, kwargs, out):
    events = (args[0] if args else kwargs["p"]).events
    counts["engine.events"] += len(events)
    counts["engine.unitaries_built"] += len(set(events))
    if parent is not None and parent[NAME] == "engine.evolve":
        counts["engine.rf_scales"] += 1


def _count_broadband(counts, parent, args, kwargs, out):
    # only calls entering the layer from outside, so nested transforms are
    # not counted twice
    if parent is None or parent[LAYER] != "broadband":
        counts["broadband.calls"] += 1
        counts["broadband.events_out"] += len(getattr(out, "events", ()))


def _count_eta_curve(counts, parent, args, kwargs, out):
    counts["metrics.points"] += len(out)


def _count_serialize(counts, parent, args, kwargs, out):
    counts["pulseprog.bytes_out"] += len(out)


def _count_parse(counts, parent, args, kwargs, out):
    counts["pulseprog.bytes_in"] += len(args[0] if args else kwargs["text"])


COUNTERS = {
    "engine.propagator_of": _count_propagator,
    "metrics.eta_curve": _count_eta_curve,
    "pulseprog.serialize_program": _count_serialize,
    "pulseprog.parse_program": _count_parse,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._patches: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        count = COUNTERS.get(name) or (_count_broadband if layer == "broadband" else None)
        calls_key = f"{name}.calls"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [name, layer, 0.0, 0.0, parent, self.op]
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            counts[calls_key] += 1
            if count is not None:
                count(counts, parent, args, kwargs, out)
            return out

        return traced

    def _wrap_eigh(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def eigh(a, *args, **kwargs):
            shape = np.shape(a)
            counts["linalg.eigh_calls"] += 1
            counts["linalg.eigh_matrices"] += math.prod(shape[:-2])
            return fn(a, *args, **kwargs)

        return eigh

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"trispin.{layer}")
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(layer, f"{layer}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "trispin" and not modname.startswith("trispin."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        self._patches.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self._wrap_eigh(np.linalg.eigh)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def summary(self) -> tuple[dict, dict]:
        """(self seconds per layer and per pulseprog function, counters)."""
        child = {}
        for rec in self.spans:
            if rec[PARENT] is not None:
                key = id(rec[PARENT])
                child[key] = child.get(key, 0.0) + rec[END] - rec[START]
        self_s = Counter()
        for rec in self.spans:
            own = rec[END] - rec[START] - child.get(id(rec), 0.0)
            self_s[rec[LAYER]] += own
            if rec[LAYER] == "pulseprog":
                self_s[rec[NAME]] += own
        counts = dict(self.counts)
        events = counts.get("engine.events", 0)
        built = counts.get("engine.unitaries_built", 0)
        counts["engine.cache_hit_ratio"] = 1.0 - built / events if events else 0.0
        return dict(self_s), counts

    def span_rows(self) -> list[list]:
        """Spans as [name, start, end, parent index, op id] rows for a file."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [[r[NAME], r[START], r[END],
                 index[id(r[PARENT])] if r[PARENT] is not None else -1, r[OP]]
                for r in self.spans]
