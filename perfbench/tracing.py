"""Spans and memory peaks around the calls a workload makes into dmc.

`patched` swaps every public dmc function, wherever a dmc module binds it,
for a wrapper, so calls the library makes to itself are recorded too and a
span's self time can be taken as its duration minus its children's.  Nothing
in dmc changes; the originals are restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import tracemalloc
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

MODULES = (
    "space", "calculus", "semigroup", "decompose", "stein", "ewens",
    "ustat", "inequalities", "limits", "randomized", "cli",
)


def _public_functions() -> dict:
    """id(function) -> (span name, function) for every public function dmc defines."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"dmc.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                found[id(obj)] = (f"{short}.{attr}", obj)
    return found


@contextlib.contextmanager
def patched(make_wrapper):
    """Within the block, dmc's public functions run through make_wrapper(name, fn)."""
    from dmc.space import ProductSpace

    found = _public_functions()
    wrappers = {key: make_wrapper(name, fn) for key, (name, fn) in found.items()}
    saved = []
    for short in MODULES:
        mod = sys.modules[f"dmc.{short}"]
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and found[id(obj)][1] is obj:
                saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
    method = ProductSpace.from_evaluator
    ProductSpace.from_evaluator = make_wrapper("space.from_evaluator", method)
    try:
        yield
    finally:
        ProductSpace.from_evaluator = method
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)


def _integrate_out_bytes(args, kwargs, result):
    # computed, not measured: one full-grid read and one full-grid write
    return {"bytes_computed": 16 * args[0].config_count}


def _anova_kept(args, kwargs, result):
    return {"kept": len(result.components), "enumerated": 2 ** len(args[1].deps)}


COUNTERS = {"space.integrate_out": _integrate_out_bytes, "calculus.anova": _anova_kept}


class SpanRecorder:
    """Spans (name, start, end, parent) held in flat arrays until `dump`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counters = defaultdict(lambda: defaultdict(int))

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def wrap(self, name, fn):
        name_id = self._name_id(name)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[name][key] += value
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name):
        idx = self._open(self._name_id(name))
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def __len__(self):
        return len(self.name)

    def dump(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """name -> {calls, busy_ms, self_ms, p50_ms} over spans lo..hi-1.

        The range must hold whole root spans, so every parent lies in it.
        """
        hi = len(self.name) if hi is None else hi
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi]) / 1e6
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent] - lo, dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        self_ms = np.bincount(name, weights=own, minlength=k)
        order = np.argsort(name, kind="stable")
        groups = np.split(dur[order], np.cumsum(calls)[:-1])
        out = {}
        for i, label in enumerate(self.names):
            if calls[i]:
                out[label] = {
                    "calls": int(calls[i]),
                    "busy_ms": float(busy[i]),
                    "self_ms": float(self_ms[i]),
                    "p50_ms": float(np.median(groups[i])),
                }
        return out


class PeakTracker:
    """Largest tracemalloc growth inside each call, nested calls included.

    tracemalloc has one peak counter; each call resets it on entry after
    folding the enclosing call's peak so far into that call's running max.
    """

    def __init__(self):
        self.peaks: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []

    def _enter(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._stack.append([current, current])

    def _exit(self, name):
        _, peak = tracemalloc.get_traced_memory()
        base, running = self._stack.pop()
        top = max(running, peak)
        self.peaks[name] = max(self.peaks[name], top - base)
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], top)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def tracked(*args, **kwargs):
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)

        return tracked

    @contextlib.contextmanager
    def root(self, name):
        self._enter()
        try:
            yield
        finally:
            self._exit(name)
