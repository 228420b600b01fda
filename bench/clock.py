"""Speed-normalised timing: wall time rescaled by an interleaved probe.

The machine the benchmark was tuned on changes speed by up to 2x over
seconds to minutes, for identical work (see README.md, "Why times are
normalised").  A short fixed piece of pure-Python work, the probe, runs
before and after every round and set-up, and between items once
``PROBE_EVERY_NS`` have passed since the last probe.  Each stretch of wall
time between two probes is rescaled by ``PROBE_REF_NS`` over the median
duration of the ``2 * PROBE_WINDOW`` probes around it, so a stretch run
while the machine is slow counts for less; the median keeps one disturbed
probe from setting a stretch's rate.  Probe time itself counts for nothing.
Every reported time is such a normalised time: the time the same work would
take at the speed where one probe takes ``PROBE_REF_NS``.

Use: call ``probe()`` before the first stamp, take stamps with
``perf_counter_ns`` only between probes, record items with ``item`` (it
probes when one is due), call ``probe()`` after the last stamp, then
``finish()`` and convert stamps with ``virtual``.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from itertools import combinations
from statistics import median
from time import perf_counter_ns

PROBE_LOOPS = 10_000
PROBE_GRAPH = (2000, 6)
PROBE_SUBSETS = (12, 6)
PROBE_REF_NS = 5_000_000
PROBE_EVERY_NS = 100_000_000
PROBE_WINDOW = 3


def _probe_graph() -> list[set[int]]:
    n, d = PROBE_GRAPH
    rng = random.Random(0)
    return [set(rng.sample(range(n), d)) for _ in range(n)]


def _probe_work(adj: list[set[int]]) -> int:
    """Integer arithmetic, a breadth-first search, and a scan of small
    vertex subsets that builds a set and a dict per subset: the three kinds
    of work the program does, so that the probe slows down with each."""
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    seen, queue = {0: 0}, [0]
    for u in queue:
        du = seen[u] + 1
        for w in adj[u]:
            if w not in seen:
                seen[w] = du
                queue.append(w)
    for subset in combinations(range(PROBE_SUBSETS[0]), PROBE_SUBSETS[1]):
        inside = set(subset)
        deg = {u: len(adj[u] & inside) for u in subset}
        total += sum(deg.values())
    return total + len(seen)


class Timeline:
    def __init__(self):
        self.probe_start = array("q")
        self.probe_end = array("q")
        self.item_start = array("q")
        self.item_end = array("q")
        self.due = 0
        self._adj = _probe_graph()
        self._v_end: list[float] = []
        self._rate: list[float] = []

    def probe(self) -> None:
        t0 = perf_counter_ns()
        _probe_work(self._adj)
        t1 = perf_counter_ns()
        self.probe_start.append(t0)
        self.probe_end.append(t1)
        self.due = t1 + PROBE_EVERY_NS

    def item(self, t0: int, t1: int) -> None:
        self.item_start.append(t0)
        self.item_end.append(t1)
        if t1 >= self.due:
            self.probe()

    def finish(self) -> None:
        """Build the wall-to-normalised mapping from the probes so far."""
        ps, pe = self.probe_start, self.probe_end
        dur = [e - s for s, e in zip(ps, pe)]
        self._rate = [PROBE_REF_NS / median(dur[max(0, k + 1 - PROBE_WINDOW):k + 1 + PROBE_WINDOW])
                      for k in range(len(dur) - 1)]
        v, self._v_end = 0.0, []
        for k in range(len(dur)):
            self._v_end.append(v)
            if k + 1 < len(dur):
                v += (ps[k + 1] - pe[k]) * self._rate[k]

    def virtual(self, t: int) -> float:
        """Normalised ns of wall stamp ``t``, taken between the first and last probe."""
        k = bisect_right(self.probe_end, t) - 1
        if k < 0 or k >= len(self._rate) or t > self.probe_start[k + 1]:
            raise ValueError("stamp taken outside the probed stretch or inside a probe")
        return self._v_end[k] + (t - self.probe_end[k]) * self._rate[k]

    def span(self, t0: int, t1: int) -> float:
        """Normalised seconds between two wall stamps."""
        return (self.virtual(t1) - self.virtual(t0)) / 1e9

    def item_ns(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Normalised durations of items ``lo..hi-1``, in ns."""
        hi = len(self.item_end) if hi is None else hi
        return [self.virtual(self.item_end[i]) - self.virtual(self.item_start[i])
                for i in range(lo, hi)]

    def slowness(self) -> float:
        """Median probe duration over ``PROBE_REF_NS``: above 1 means slower than reference."""
        dur = sorted(e - s for s, e in zip(self.probe_start, self.probe_end))
        return dur[len(dur) // 2] / PROBE_REF_NS
