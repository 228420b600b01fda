"""Span tracing of the program's public functions, from outside the program.

``Tracer.install`` wraps every public function of the traced modules and
puts the wrapper wherever a ``bonematch`` module looks that function up
(``bonematch.harness.deficiency`` as well as ``bonematch.matching.deficiency``),
so calls between modules and within one module are both seen.  Spans
(name, parent, start, end) are kept in flat integer arrays and written out
when the run ends; self times are derived from them afterwards.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("graphs", "matching", "structure", "lm", "harness", "families")


class Tracer:
    def __init__(self, bone_check):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._bone_check = bone_check
        self.bone_hits = 0
        self.bad_bones = 0
        self.search_iterations = 0
        self.search_feasible = 0

    def spans_within(self, t0: int, t1: int) -> tuple[int, int]:
        """Index range of the spans that started between wall stamps ``t0`` and ``t1``.

        Span indices are handed out as calls start, so start times rise with them.
        """
        return bisect_left(self.start, t0), bisect_right(self.start, t1)

    def install(self, bm) -> None:
        wrappers = {}
        for short in LAYERS:
            mod = getattr(bm, short)
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        for key, mod in list(sys.modules.items()):
            if key != "bonematch" and not key.startswith("bonematch."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def wrap(self, label: str, fn):
        idx = len(self.names)
        self.names.append(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        hook = {"structure.find_induced_bone": self._on_bone,
                "harness.extremal_search": self._on_search}.get(label)

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _on_bone(self, args, kwargs, emb) -> None:
        if emb is None:
            return
        self.bone_hits += 1
        G, i = args[0], args[1] if len(args) > 1 else kwargs["i"]
        if emb.index != i or not self._bone_check(G.adj, emb.path, emb.pendants_left,
                                                  emb.pendants_right):
            self.bad_bones += 1

    def _on_search(self, args, kwargs, report) -> None:
        self.search_iterations += report.iterations
        self.search_feasible += report.feasible_seen

    def totals(self, lo: int, hi: int) -> dict[str, tuple[int, int]]:
        """``label -> (calls, self ns)`` over spans ``lo..hi-1``.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        self_ns = array("q", (self.end[i] - self.start[i] for i in range(lo, hi)))
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                self_ns[p - lo] -= self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        own = [0] * len(self.names)
        for k, i in enumerate(range(lo, hi)):
            calls[self.name[i]] += 1
            own[self.name[i]] += self_ns[k]
        return {label: (calls[j], own[j]) for j, label in enumerate(self.names)}

    def dump(self, path: Path) -> None:
        """One JSON header line, then the name, parent, start and end arrays
        as little-endian int64, in that order."""
        header = {"names": self.names, "count": len(self.start),
                  "fields": ["name", "parent", "start_ns", "end_ns"],
                  "format": "int64 little-endian arrays, one per field, in field order"}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                if sys.byteorder != "little":
                    arr = array("q", arr)
                    arr.byteswap()
                arr.tofile(fh)
