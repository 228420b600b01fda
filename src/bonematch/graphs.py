"""Immutable simple graphs with BFS levellings and level-based queries.

Vertices are dense integers ``0..n-1``, and one breadth-first search serves
``is_connected`` and ``levelling``.  Every operation here is pure: inputs are
never mutated and all outputs are plain immutable values, so graphs and
levellings can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

__all__ = [
    "Graph",
    "Levelling",
    "SnailHorn",
    "build_graph",
    "induced_subgraph",
    "is_connected",
    "levelling",
    "children",
    "snail_horns",
    "is_clean_level",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbour set of ``v``.  Instances are immutable and
    hashable; ``name`` is a display label and does not affect equality.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    name: str | None = field(default=None, compare=False)

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` pairs with ``u < v``, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbour bitmasks (bit ``u`` of entry ``v`` set iff ``uv`` is an edge)."""
        return [_mask(s) for s in self.adj]

    def with_name(self, name: str | None) -> "Graph":
        return Graph(self.n, self.adj, name)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.edge_count()}>"


def _mask(vs: Iterable[int]) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def build_graph(n: int, edges: Iterable[tuple[int, int]], name: str | None = None) -> Graph:
    """Construct a graph from an edge list.

    Duplicate edges are ignored.  Raises ``ValueError`` on a negative vertex
    count, an endpoint outside ``0..n-1``, or a self-loop.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        sets[u].add(v)
        sets[v].add(u)
    return Graph(n, tuple(frozenset(s) for s in sets), name)


def induced_subgraph(G: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices``, relabelled to ``0..k-1`` in ascending order.

    Returns ``(H, vmap)`` where ``vmap[i]`` is the original id of the new
    vertex ``i``.
    """
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < G.n):
        raise ValueError(f"vertex set not contained in 0..{G.n - 1}")
    index = {v: i for i, v in enumerate(vs)}
    adj = tuple(frozenset(index[u] for u in G.adj[v] if u in index) for v in vs)
    return Graph(len(vs), adj, G.name), tuple(vs)


def _distances(G: Graph, root: int) -> list[int]:
    """BFS distance of every vertex from ``root``; -1 for a vertex it does not reach."""
    dist = [-1] * G.n
    dist[root] = 0
    order = [root]
    for u in order:  # the list is the queue: the loop reaches what it appends
        d = dist[u] + 1
        for v in G.adj[u]:
            if dist[v] < 0:
                dist[v] = d
                order.append(v)
    return dist


def is_connected(G: Graph) -> bool:
    """True for connected graphs; the empty graph and a single vertex count as connected."""
    return G.n <= 1 or min(_distances(G, 0)) >= 0


@dataclass(frozen=True)
class Levelling:
    """BFS distance partition of a connected graph from a fixed root.

    ``levels[i]`` is the set of vertices at distance ``i`` from the root and
    ``level_of[v]`` the distance of ``v``.  ``N`` is the index of the deepest
    level.
    """

    graph: Graph
    root: int
    level_of: tuple[int, ...]
    levels: tuple[frozenset[int], ...]

    @property
    def N(self) -> int:
        return len(self.levels) - 1


def levelling(G: Graph, root: int) -> Levelling:
    """Level ``G`` by BFS distance from ``root``.

    Raises ``ValueError`` if the root is out of range or the graph is not
    connected (every vertex must receive a level).
    """
    if not (0 <= root < G.n):
        raise ValueError(f"root {root} out of range for n={G.n}")
    dist = _distances(G, root)
    if min(dist) < 0:
        raise ValueError("levelling requires a connected graph")
    depth = max(dist)
    levels = [set() for _ in range(depth + 1)]
    for v, d in enumerate(dist):
        levels[d].add(v)
    return Levelling(G, root, tuple(dist), tuple(frozenset(s) for s in levels))


def children(L: Levelling, u: int) -> frozenset[int]:
    """Neighbours of ``u`` one level further from the root (empty at the deepest level)."""
    if not (0 <= u < L.graph.n):
        raise ValueError(f"vertex {u} out of range")
    lev = L.level_of[u]
    if lev == L.N:
        return frozenset()
    return L.graph.adj[u] & L.levels[lev + 1]


class SnailHorn(NamedTuple):
    """A vertex (``head``) with at least two degree-one neighbours (``beards``)."""

    head: int
    beards: tuple[int, ...]


def snail_horns(G: Graph) -> list[SnailHorn]:
    """All snail horns, one entry per head, heads ascending with all beards listed."""
    horns = []
    for x in range(G.n):
        beards = sorted(y for y in G.adj[x] if G.degree(y) == 1)
        if len(beards) >= 2:
            horns.append(SnailHorn(x, tuple(beards)))
    return horns


def is_clean_level(L: Levelling, i: int) -> bool:
    """True iff every vertex one level above ``i`` has a clique as its child set.

    ``i`` must satisfy ``1 <= i <= N``.
    """
    if not (1 <= i <= L.N):
        raise ValueError(f"level {i} out of range 1..{L.N}")
    adj = L.graph.adj
    for u in L.levels[i - 1]:
        kids = sorted(children(L, u))
        for a in range(len(kids)):
            for b in range(a + 1, len(kids)):
                if kids[b] not in adj[kids[a]]:
                    return False
    return True
