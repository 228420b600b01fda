"""Maximum matchings, deficiency, pendant reduction, and deficiency-criticality.

The production maximum-matching path is a hand-written blossom algorithm
(augmenting paths with cycle contraction).  It returns a maximum matching,
deterministic for a labelled graph and start matching; no output reads which
one.

A search that fails leaves a Hungarian tree (Edmonds 1965), which every later
search skips.  In the tree ``T`` of a failed search from ``r``, the queued
vertices are outer and the others inner; the outer ones form odd blossoms,
one holding ``r`` and one per inner vertex, whose base it is matched to.  The
queue ran dry, so every edge at an outer vertex stays in its blossom or ends
at an inner vertex, and ``T - r`` is matched within ``T``.  So an augmenting
path that meets ``T`` has an end outside it.  Walk it from there: it enters
``T`` at an inner vertex by a free edge, takes its matched edge to a blossom's
base, and leaves that blossom only by a free edge to another inner vertex, so
it stays in ``T`` and ends at ``r``.  Augmenting it would saturate ``T``, and
each odd blossom would need a vertex matched out of it, to an inner vertex of
its own: one more than there are.  So no augmenting path meets ``T``, later
augmentations leave the matching on ``T`` as it is, and the argument holds
again for every later tree in the graph without ``T``.  The argument reads
the matching only as a matching, so it holds from any start: the greedy one,
or one a caller passes (``extremal_search`` passes the matching of the graph
it edits).

Two independent exponential oracles, ``brute_force_matching_size`` and
``berge_tutte_deficiency``, exist purely so tests can cross-check the
blossom on small graphs; they are never called by other production code.

``reduce_pendants`` is the degree-one rule of Karp and Sipser (1981): a
pendant vertex leaves with its neighbour, and the deficiency stays the same.

Criticality (``is_deficiency_critical``) never builds a table over all 2^n
vertex sets.  One scan grows every connected vertex set once from its lowest
vertex, adding one neighbour at a time (Wernicke's ESU enumeration), and
keeps a matching of the set as it grows: a new vertex w is matched to its
partner in one maximum matching M of G if that partner is in the set and
still free, else to its lowest free neighbour in the set, else left free.
Any matching of G[S] leaves at least kd(S) vertices of S free, so the free
count is an exact upper bound on kd(S), and the blossom runs only on the
sets where it reaches the deficiency sought.  The bound holds whichever
maximum matching M is, so M decides only which sets the blossom runs on,
never which ones it confirms: the verdict and the witness do not depend on M.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import GuardExceededError
from .graphs import Graph, build_graph, induced_subgraph, is_connected

__all__ = [
    "MatchingResult",
    "maximum_matching",
    "deficiency",
    "brute_force_matching_size",
    "berge_tutte_deficiency",
    "PendantReduction",
    "reduce_pendants",
    "CriticalityResult",
    "is_deficiency_critical",
]

_BRUTE_FORCE_MAX = 16
_BERGE_TUTTE_MAX = 14
# Connected vertex sets the criticality scan may visit; a graph on at most
# 18 vertices has at most 2^18 - 19 of two or more vertices.
_CRITICALITY_BUDGET = 1 << 18


@dataclass(frozen=True)
class MatchingResult:
    """A maximum matching: its edges, the unsaturated vertices, and their count."""

    edges: frozenset[tuple[int, int]]
    unsaturated: frozenset[int]
    deficiency: int


def _blossom(n: int, adj: Sequence[Iterable[int]] | Mapping[int, Iterable[int]],
             start: list[int] | None = None) -> list[int]:
    # Edmonds' blossom search: grow an alternating BFS tree from each exposed
    # vertex, contracting odd cycles onto their base.  A search resets and
    # relabels only the t vertices its tree reaches (``reached``; no other one
    # leaves its own base), so it costs their degrees plus O(t) per contraction.
    # The tree of a failed search is dead to every later one (module docstring).
    # ``adj[v]`` is any iterable of the neighbours of ``v``, read only for the
    # vertices the greedy pass or a search reaches.  ``start``, a matching of
    # the graph as a mate list, is extended greedily and then augmented; it is
    # not changed.
    match = [-1] * n if start is None else start[:]
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break

    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    dead = [False] * n
    reached: list[int] = []

    def lca(a: int, b: int) -> int:
        seen: set[int] = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: set[int]) -> None:
        while base[v] != b:
            in_blossom.add(base[v])
            in_blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        for i in reached:
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        reached[:] = [root]
        in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if dead[to] or base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # Odd cycle: contract everything onto the common base.
                    cur = lca(v, to)
                    in_blossom: set[int] = set()
                    mark_path(v, cur, to, in_blossom)
                    mark_path(to, cur, v, in_blossom)
                    for i in reached:
                        if base[i] in in_blossom:
                            base[i] = cur
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    reached.append(to)
                    if match[to] == -1:
                        return to
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
                        queue.append(match[to])
                        reached.append(match[to])
        return -1

    for root in range(n):
        if match[root] != -1:
            continue
        v = find_augmenting(root)
        if v == -1:
            for i in reached:
                dead[i] = True
        while v != -1:
            pv = parent[v]
            nxt = match[pv]
            match[v] = pv
            match[pv] = v
            v = nxt
    return match


def maximum_matching(G: Graph) -> MatchingResult:
    """A maximum matching of ``G`` (deterministic for a fixed labelled graph)."""
    adj = [sorted(s) for s in G.adj]
    match = _blossom(G.n, adj)
    edges = frozenset((v, match[v]) for v in range(G.n) if v < match[v])
    unsat = frozenset(v for v in range(G.n) if match[v] == -1)
    return MatchingResult(edges, unsat, len(unsat))


def deficiency(G: Graph) -> int:
    """Number of vertices missed by a maximum matching.

    Every maximum matching misses the same number, so the blossom reads the
    neighbour sets unsorted and no ``MatchingResult`` is built.
    """
    return _blossom(G.n, G.adj).count(-1)


def brute_force_matching_size(G: Graph) -> int:
    """Test oracle: exhaustive branch over the edges at the lowest live vertex.

    Limited to 16 vertices.  Shares no code with the blossom path.
    """
    if G.n > _BRUTE_FORCE_MAX:
        raise GuardExceededError(f"brute force matching limited to {_BRUTE_FORCE_MAX} vertices")
    masks = G.adjacency_masks()

    @lru_cache(maxsize=None)
    def best(avail: int) -> int:
        rest = avail
        while rest:
            v = (rest & -rest).bit_length() - 1
            nb = masks[v] & avail
            if nb:
                break
            rest &= rest - 1
        else:
            return 0
        out = best(avail & ~(1 << v))
        while nb:
            u = (nb & -nb).bit_length() - 1
            cand = 1 + best(avail & ~(1 << v) & ~(1 << u))
            if cand > out:
                out = cand
            nb &= nb - 1
        return out

    result = best((1 << G.n) - 1)
    best.cache_clear()
    return result


def _components(masks: list[int], keep: int) -> list[int]:
    """Vertex masks of the components of the subgraph induced by ``keep``."""
    comps = []
    while keep:
        comp = reach = keep & -keep
        while reach:
            low = reach & -reach
            grown = masks[low.bit_length() - 1] & keep & ~comp
            comp |= grown
            reach ^= low | grown
        comps.append(comp)
        keep &= ~comp
    return comps


def berge_tutte_deficiency(G: Graph) -> int:
    """Test oracle: maximise (odd components of G - S) - |S| over all S.

    Limited to 14 vertices.
    """
    if G.n > _BERGE_TUTTE_MAX:
        raise GuardExceededError(f"Berge-Tutte oracle limited to {_BERGE_TUTTE_MAX} vertices")
    masks = G.adjacency_masks()
    full = (1 << G.n) - 1
    best = 0
    for s in range(full + 1):
        value = sum(c.bit_count() & 1 for c in _components(masks, full & ~s)) - s.bit_count()
        if value > best:
            best = value
    return best


class PendantReduction(NamedTuple):
    """Result of peeling pendant edges; the reduction preserves deficiency.

    ``vertex_map[i]`` is the original id of vertex ``i`` of the reduced graph;
    ``removed_pairs`` lists ``(support, pendant)`` pairs in removal order using
    original ids; ``isolated_count`` counts degree-zero vertices left behind.
    """

    graph: Graph
    vertex_map: tuple[int, ...]
    removed_pairs: tuple[tuple[int, int], ...]
    isolated_count: int


def reduce_pendants(G: Graph) -> PendantReduction:
    """Repeatedly delete a pendant vertex together with its support vertex.

    Always removes the smallest pendant first, so the result is deterministic,
    until no vertex of degree one remains.  Degrees only fall, so a heap of the
    vertices that reach degree one finds each pendant once, in O(m + n log n).
    """
    adj = {v: set(G.adj[v]) for v in range(G.n)}
    pendants = [v for v in adj if len(adj[v]) == 1]  # ascending, so already a heap
    removed: list[tuple[int, int]] = []
    while pendants:
        pend = heappop(pendants)
        if len(adj.get(pend, ())) != 1:  # removed, or left isolated
            continue
        (sup,) = adj.pop(pend)
        for w in adj.pop(sup):
            if w != pend:
                adj[w].discard(sup)
                if len(adj[w]) == 1:
                    heappush(pendants, w)
        removed.append((sup, pend))
    keep = list(adj)
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u in keep for v in adj[u] if u < v]
    reduced = build_graph(len(keep), edges, name=G.name)
    isolated = sum(1 for v in keep if not adj[v])
    return PendantReduction(reduced, tuple(keep), tuple(removed), isolated)


def _mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


class _MaskLists(dict):
    """The neighbour lists of the graph with the neighbour masks ``masks``,
    indexed by vertex as ``_blossom`` reads them; each list is made, in
    ascending order, on its first read."""

    def __init__(self, masks: list[int]) -> None:
        super().__init__()
        self.masks = masks

    def __missing__(self, v: int) -> tuple[int, ...]:
        out = self[v] = _mask_vertices(self.masks[v])
        return out


def _set_deficiency(masks: list[int], S: int) -> int:
    vs = _mask_vertices(S)
    index = {v: i for i, v in enumerate(vs)}
    adj = [[index[u] for u in _mask_vertices(masks[v] & S)] for v in vs]
    return _blossom(len(vs), adj).count(-1)


def _connected_sets(masks: list[int], match: list[int], floor: int):
    # For each start vertex v in turn, the masks of the connected sets of two
    # or more vertices with lowest vertex v whose deficiency bound (see the
    # module docstring) reaches floor.  Each popped entry visits one set per
    # bit of ext, and the scan stops before it would exceed the budget.
    budget = _CRITICALITY_BUDGET
    for v in range(len(masks)):
        above = -1 << (v + 1)
        found = []
        stack = [(1 << v, masks[v] & above, masks[v] | 1 << v, 1 << v)]
        while stack:
            S, ext, closed, free = stack.pop()
            budget -= ext.bit_count()
            if budget < 0:
                raise GuardExceededError("exhaustive criticality limited to "
                                         f"{_CRITICALITY_BUDGET} connected vertex sets")
            while ext:
                w = ext & -ext
                ext ^= w
                i = w.bit_length() - 1
                nb = masks[i] & free
                if match[i] >= 0 and nb >> match[i] & 1:
                    grown = free ^ (1 << match[i])
                elif nb:
                    grown = free ^ (nb & -nb)
                else:
                    grown = free | w
                if grown.bit_count() >= floor:
                    found.append(S | w)
                ext2 = ext | (masks[i] & above & ~closed)
                if ext2:
                    stack.append((S | w, ext2, closed | masks[i], grown))
        yield found


@dataclass(frozen=True)
class CriticalityResult:
    """Verdict on whether every proper connected induced subgraph has smaller deficiency.

    ``verdict`` is ``"critical"``, ``"not-critical"`` (with the vertices of a
    witness subgraph whose deficiency is at least that of the whole graph), or
    ``"partial-pass"`` for the delete-one mode when no single deletion
    produced a witness.
    """

    verdict: str
    mode: str
    deficiency: int
    witness_vertices: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict[str, Any]:
        """The verdict as every artefact writes it; the deficiency is recorded beside it."""
        return {"verdict": self.verdict, "mode": self.mode,
                "witness_vertices": self.witness_vertices}


def is_deficiency_critical(G: Graph, mode: str = "exhaustive") -> CriticalityResult:
    """Check deficiency-criticality.

    ``exhaustive`` scans every proper connected induced subgraph (guard: 2^18
    connected vertex sets visited) and reports the lexicographically smallest
    witness on failure.
    ``delete-one`` only tries removing single vertices and can return
    ``partial-pass``, never ``critical``.
    """
    if mode not in ("exhaustive", "delete-one"):
        raise ValueError(f"unknown mode {mode!r}")
    match = _blossom(G.n, G.adj)  # any maximum matching bounds the scan (module docstring)
    kd = match.count(-1)
    if mode == "delete-one":
        for v in range(G.n):
            rest = [u for u in range(G.n) if u != v]
            if not rest:
                continue
            H, vmap = induced_subgraph(G, rest)
            if is_connected(H) and deficiency(H) >= kd:
                return CriticalityResult("not-critical", mode, kd, vmap)
        return CriticalityResult("partial-pass", mode, kd)

    if kd <= 1 and G.n >= 2:  # vertex 0 alone: deficiency 1, the smallest vertex tuple
        return CriticalityResult("not-critical", mode, kd, (0,))
    masks = G.adjacency_masks()
    full = (1 << G.n) - 1
    # every set grown from a lower vertex has a smaller sorted vertex tuple
    for found in _connected_sets(masks, match, kd):
        for S in sorted(found, key=_mask_vertices):
            if S != full and _set_deficiency(masks, S) >= kd:
                return CriticalityResult("not-critical", mode, kd, _mask_vertices(S))
    return CriticalityResult("critical", mode, kd)

