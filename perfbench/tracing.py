"""Span tracing of radialcal's public layer functions, applied from outside.

``Tracer.install`` replaces every public module-level function of the traced
modules with a wrapper that records one span (name, start, end, parent) per
call, in every ``radialcal.*`` namespace that binds the function. Classes,
methods and ``_private`` functions stay unwrapped, so the trace does not
depend on private code. Nothing under ``src/`` changes.

Spans live in flat typed arrays (24 bytes each) until the run ends. A span's
index is its start order, so every span opened during one benchmark
operation falls in one contiguous index range.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# The library layers, plus the CLI that calls them.
LAYERS = ("geometry", "distortion", "cubic", "calibration", "localize", "synth", "fileio", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # (span index, n_iterations) for each calibration.refine call.
        self.refine_iterations: list[tuple[int, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, qualname: str, fn):
        nid = self.name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        iterations = self.refine_iterations if qualname == "calibration.refine" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if iterations is not None:
                iterations.append((idx, result.n_iterations))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer in LAYERS."""
        bound = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "radialcal" or key.startswith("radialcal.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"radialcal.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in bound:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
                            self._patched.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """Array view of a tracer's spans with self times resolved."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        # Views, not copies: while they live the tracer cannot record more.
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.start = np.frombuffer(tracer.start, dtype=np.float64)
        self.end = np.frombuffer(tracer.end, dtype=np.float64)
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        # Children run nested on one thread, so their intervals never overlap.
        covered = np.bincount(
            self.parent[has_parent],
            weights=self.duration[has_parent],
            minlength=len(self.duration),
        )
        self.self_time = self.duration - covered

    def write(self, path: Path) -> None:
        """Write every span to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), name=self.name, parent=self.parent,
                 start=self.start, end=self.end)

    @staticmethod
    def select(ranges) -> np.ndarray:
        """Indices of the spans in a list of (begin, end) index ranges."""
        if not ranges:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([np.arange(a, b) for a, b in ranges])

    def layer_totals(self, idx: np.ndarray) -> dict[str, tuple[float, int]]:
        """Per layer: (self seconds, call count) over the spans ``idx``."""
        k = len(self.names)
        self_s = np.bincount(self.name[idx], weights=self.self_time[idx], minlength=k)
        calls = np.bincount(self.name[idx], minlength=k)
        out = {layer: (0.0, 0) for layer in LAYERS}
        for nid, qualname in enumerate(self.names):
            layer = qualname.split(".", 1)[0]
            s, c = out[layer]
            out[layer] = (s + float(self_s[nid]), c + int(calls[nid]))
        return out

    def function_totals(self, qualname: str, idx: np.ndarray) -> tuple[float, int]:
        """(inclusive seconds, call count) of one function over the spans ``idx``."""
        if qualname not in self.names:
            return 0.0, 0
        hit = idx[self.name[idx] == self.names.index(qualname)]
        return float(self.duration[hit].sum()), int(hit.size)
