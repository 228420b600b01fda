"""Deterministic constructors for the extremal graph families.

Every builder assigns vertex ids in a fixed documented order, so repeated
calls give identical labelled graphs.  Family names are recorded on the
returned graphs and a registry maps family ids to builders for the CLI,
each with its vertex and edge counts as a function of the parameters, so an
instance too large to build is refused before any list is allocated.
"""

from __future__ import annotations

from itertools import chain, cycle, islice
from typing import Any, Callable, Iterable, Sequence

from .graphs import Graph, build_graph
from .serialize import _VERTEX_CAP

__all__ = [
    "attach_broom",
    "broom",
    "bs",
    "s_family",
    "t_family",
    "e_family",
    "e_plus_family",
    "t_tree",
    "skeleton_tree",
    "y_delta",
    "f_family",
    "path_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "family_label",
    "FAMILIES",
    "build_family",
]


def attach_broom(G: Graph, v: int, n: int, p: int) -> Graph:
    """Attach a broom at ``v``: a path on ``p`` vertices whose free end carries
    ``n`` pendants, with ``v`` playing the near end of the path.

    Adds ``p - 1 + n`` vertices.  With ``p = 1`` the pendants land on ``v``
    itself.  New path vertices come first, then the pendants, all appended
    after the existing ids.
    """
    if not (0 <= v < G.n):
        raise ValueError(f"attach vertex {v} out of range")
    if n < 1 or p < 1:
        raise ValueError(f"broom needs n >= 1 and p >= 1, got n={n}, p={p}")
    edges = G.edges()
    tip = v
    base = G.n
    for k in range(p - 1):
        edges.append((tip, base + k))
        tip = base + k
    first_pendant = base + p - 1
    for j in range(n):
        edges.append((tip, first_pendant + j))
    return build_graph(G.n + p - 1 + n, edges, name=G.name)


def broom(n: int, p: int) -> Graph:
    """The standalone broom: a path on ``p`` vertices with ``n`` pendants at one end.

    Vertex 0 is the free end (the attachment point when used as a gadget).
    """
    return attach_broom(build_graph(1, []), 0, n, p).with_name(f"D({n},{p})")


def bs(n: int, p: int) -> Graph:
    """Double broom: a path on ``p >= 2`` vertices with ``n`` pendants at each end.

    Ids: path ``0..p-1``, pendants ``p..p+n-1`` at vertex 0, then
    ``p+n..p+2n-1`` at vertex ``p-1``.  With ``n = 2`` this is the bone of
    index ``p``.
    """
    if p < 2:
        raise ValueError(f"double broom needs p >= 2, got {p}")
    g = path_graph(p)
    g = attach_broom(g, 0, n, 1)
    g = attach_broom(g, p - 1, n, 1)
    return g.with_name(f"BS({n},{p})")


def s_family(n: int, p: int) -> Graph:
    """``n`` brooms with ``n - 1`` pendants each, glued at a common free end.

    Vertex 0 is the gluing vertex; total ``1 + n(p + n - 2)`` vertices.
    """
    if n < 2:
        raise ValueError(f"spider family needs n >= 2, got {n}")
    g = build_graph(1, [])
    for _ in range(n):
        g = attach_broom(g, 0, n - 1, p)
    return g.with_name(f"S({n},{p})")


def t_family(n: int, p: int) -> Graph:
    """Complete bipartite core ``K(2, n)`` with a broom on each of the two
    degree-``n`` vertices.

    Ids: 0 and 1 are the broom-carrying side, ``2..n+1`` the other side;
    total ``2p + 3n`` vertices.
    """
    if n < 1 or p < 1:
        raise ValueError(f"t_family needs n >= 1 and p >= 1, got n={n}, p={p}")
    edges = [(side, w) for side in (0, 1) for w in range(2, n + 2)]
    g = build_graph(n + 2, edges)
    g = attach_broom(g, 0, n, p)
    g = attach_broom(g, 1, n, p)
    return g.with_name(f"T({n},{p})")


def e_family(m: int, n: int, p: int) -> Graph:
    """Clique ``K_m`` with a broom attached at every clique vertex.

    Total ``m(p + n)`` vertices; clique ids ``0..m-1``.
    """
    if m < 1:
        raise ValueError(f"e_family needs m >= 1, got {m}")
    g = complete_graph(m)
    for v in range(m):
        g = attach_broom(g, v, n, p)
    return g.with_name(f"E({m},{n},{p})")


def e_plus_family(m: int, n: int, p: int) -> Graph:
    """``e_family`` plus one extra vertex tied to two consecutive vertices at
    the clique end of the first broom: clique vertex 0 and its first path
    vertex.

    Requires ``p >= 2`` (with ``p = 1`` there is no path vertex next to the
    clique).  The attachment choice is recorded in the name annotation.
    """
    if p < 2:
        raise ValueError(f"e_plus_family needs p >= 2, got {p}")
    g = e_family(m, n, p)
    first_path_vertex = m  # first id created when attaching at clique vertex 0
    extra = g.n
    edges = g.edges()
    edges.append((0, extra))
    edges.append((first_path_vertex, extra))
    return build_graph(g.n + 1, edges, name=f"E+({m},{n},{p})@clique-end")


def t_tree(m: int, n: int) -> Graph:
    """Layered tree: high-degree and degree-2 levels alternate, leaves at the bottom.

    ``m`` odd and at least 3, ``n > 3``.  For ``m = 3`` this is the star
    ``K(1, n-1)``.  Otherwise levels ``0..m-2``: even levels below the leaves
    have degree ``n - 1``, odd ones degree 2, and level ``m - 2`` holds the
    leaves.  Ids are assigned level by level.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"t_tree needs odd m >= 3, got {m}")
    if n <= 3:
        raise ValueError(f"t_tree needs n > 3, got {n}")
    if m == 3:
        return star_graph(n - 1).with_name(f"T_tree({m},{n})")
    fan_outs = [n - 1] + [1 if i % 2 else n - 2 for i in range(1, m - 2)]
    return _layered_tree(fan_outs, f"T_tree({m},{n})")


def skeleton_tree(*branch_levels: int) -> Graph:
    """Rooted tree whose vertices branch in two exactly at the given levels.

    ``branch_levels`` must be strictly ascending positive integers
    ``a_1 < ... < a_r``.  The root has three children; vertices at levels
    ``a_1..a_{r-1}`` have two children each; leaves sit at level ``a_r``;
    everything else has one child.  Ids are assigned level by level.
    """
    a = list(branch_levels)
    if not a:
        raise ValueError("skeleton tree needs at least one level argument")
    if any(x < 1 for x in a) or any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
        raise ValueError(f"branch levels must be strictly ascending positive, got {a}")
    splitting = set(a[:-1])
    fan_outs = [3] + [2 if i in splitting else 1 for i in range(1, a[-1])]
    return _layered_tree(fan_outs, "T(" + ",".join(str(x) for x in a) + ")")


def _layered_tree(fan_outs: Sequence[int], name: str) -> Graph:
    """Tree grown from root 0 level by level, each vertex of level ``i`` getting
    ``fan_outs[i]`` children; ids follow levels, and a parent's children are
    consecutive."""
    edges: list[tuple[int, int]] = []
    level: Sequence[int] = [0]
    for k in fan_outs:
        parents = [u for u in level for _ in range(k)]
        level = range(len(edges) + 1, len(edges) + 1 + len(parents))
        edges += zip(parents, level)
    return build_graph(len(edges) + 1, edges, name=name)


def y_delta(G: Graph, v: int) -> Graph:
    """Replace the degree-3 vertex ``v`` by a triangle.

    ``v`` keeps its id as one corner; the two new corners take ids ``n`` and
    ``n + 1``.  The three old neighbours, in ascending order, attach to ``v``,
    ``n``, and ``n + 1`` respectively.
    """
    if not (0 <= v < G.n):
        raise ValueError(f"vertex {v} out of range")
    if G.degree(v) != 3:
        raise ValueError(f"y_delta needs a degree-3 vertex, degree({v}) = {G.degree(v)}")
    a, b, c = sorted(G.adj[v])
    y, z = G.n, G.n + 1
    edges = [(s, t) for s, t in G.edges() if v not in (s, t)]
    edges += [(v, y), (y, z), (v, z), (a, v), (b, y), (c, z)]
    return build_graph(G.n + 2, edges, name=G.name)


def f_family(*branch_levels: int) -> Graph:
    """Skeleton tree with every degree-3 vertex blown up into a triangle and
    two pendants added at every leaf.

    The result is triangle-rich but contains no odd bone.
    """
    T = skeleton_tree(*branch_levels)
    branch_vertices = [v for v in range(T.n) if T.degree(v) == 3]
    leaves = [v for v in range(T.n) if T.degree(v) == 1]
    g = T
    for v in branch_vertices:
        g = y_delta(g, v)
    for leaf in leaves:
        g = attach_broom(g, leaf, 2, 1)
    name = "F(" + ",".join(str(x) for x in branch_levels) + ")"
    return g.with_name(name)


def path_graph(k: int) -> Graph:
    if k < 0:
        raise ValueError(f"path length must be non-negative, got {k}")
    return build_graph(k, [(i, i + 1) for i in range(k - 1)], name=f"P{k}")


def star_graph(k: int) -> Graph:
    """``K(1, k)``: centre 0 with ``k`` leaves."""
    if k < 0:
        raise ValueError(f"leaf count must be non-negative, got {k}")
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)], name=f"K(1,{k})")


def complete_graph(k: int) -> Graph:
    if k < 0:
        raise ValueError(f"vertex count must be non-negative, got {k}")
    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)], name=f"K{k}")


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise ValueError("side sizes must be non-negative")
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)], name=f"K({a},{b})")


def family_label(family: str, params: dict[str, int | Sequence[int]]) -> str:
    """``family(k=v,...)``; a list-valued parameter prints as the CLI takes it (``1:3``)."""
    inner = ",".join(f"{k}={':'.join(map(str, _levels(v)))}" for k, v in params.items())
    return f"{family}({inner})"


def _levels(a: int | Sequence[int]) -> Sequence[int]:
    # list-valued parameters: a single integer is the one-level list
    return [a] if isinstance(a, int) else a


def _layered_size(fan_outs: Iterable[int]) -> int:
    """Vertex count of ``_layered_tree(fan_outs)``, counted only until it passes the cap."""
    total = level = 1
    for k in fan_outs:
        level *= k
        total += level
        if total > _VERTEX_CAP:
            break
    return total


def _t_tree_vertices(m: int, n: int) -> int:
    if m < 5 or n < 4:  # the star K(1, n - 1), or parameters t_tree refuses
        return n
    # fan-outs n - 1, then 1 and n - 2 in turn: the levels double at least
    # every two levels, so the count passes the cap within 40 of them
    return _layered_size(chain([n - 1], islice(cycle([1, n - 2]), m - 3)))


def _skeleton_counts(a: int | Sequence[int]) -> tuple[int, int]:
    """Vertices and leaves of ``skeleton_tree(*a)``, the vertices counted only
    until they pass the cap: levels ``a_(j-1) + 1 .. a_j`` hold ``3 * 2^(j-1)``
    vertices each (``a_0 = 0``)."""
    total, width, prev = 1, 3, 0
    for x in _levels(a):
        total += width * (x - prev)
        if total > _VERTEX_CAP:
            break
        width, prev = 2 * width, x
    return total, width // 2


def _f_size(a: int | Sequence[int]) -> tuple[int, int]:
    # the skeleton's L - 2 degree-3 vertices each become a triangle (two more
    # vertices, three more edges) and its L leaves each get two pendants
    t, leaves = _skeleton_counts(a)
    return t + 4 * leaves - 4, t + 5 * leaves - 7


def _tree(vertices: int) -> tuple[int, int]:
    return vertices, vertices - 1


# family id -> (parameter names, builder taking keyword arguments,
#               (vertices, edges) from the same keyword arguments)
FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., Graph],
                          Callable[..., tuple[int, int]]]] = {
    "d": (("n", "p"), broom, lambda n, p: _tree(n + p)),
    "bs": (("n", "p"), bs, lambda n, p: _tree(p + 2 * n)),
    "s": (("n", "p"), s_family, lambda n, p: _tree(1 + n * (p + n - 2))),
    "t": (("n", "p"), t_family, lambda n, p: (2 * p + 3 * n, 4 * n + 2 * p - 2)),
    "e": (("m", "n", "p"), e_family,
          lambda m, n, p: (m * (p + n), m * (m - 1) // 2 + m * (p - 1 + n))),
    "e_plus": (("m", "n", "p"), e_plus_family,
               lambda m, n, p: (m * (p + n) + 1, m * (m - 1) // 2 + m * (p - 1 + n) + 2)),
    "t_tree": (("m", "n"), t_tree, lambda m, n: _tree(_t_tree_vertices(m, n))),
    "skeleton": (("a",), lambda a: skeleton_tree(*_levels(a)),
                 lambda a: _tree(_skeleton_counts(a)[0])),
    "f": (("a",), lambda a: f_family(*_levels(a)), _f_size),
    "path": (("k",), path_graph, lambda k: (k, max(k - 1, 0))),
    "star": (("k",), star_graph, lambda k: (k + 1, k)),
    "complete": (("k",), complete_graph, lambda k: (k, k * (k - 1) // 2)),
    "complete_bipartite": (("a", "b"), complete_bipartite_graph, lambda a, b: (a + b, a * b)),
}


def _refuse_oversized(family: str, params: dict[str, Any]) -> None:
    """Raise ``ValueError`` if the instance has more than ``_VERTEX_CAP``
    vertices or edges, from its counts alone; ``params`` holds the family's
    parameter names."""
    names, _, size = FAMILIES[family]
    vertices, edges = size(**{k: params[k] for k in names})
    if vertices > _VERTEX_CAP or edges > _VERTEX_CAP:
        raise ValueError(f"{family_label(family, params)} has more than {_VERTEX_CAP} "
                         "vertices or edges, the cap on family instances")


def build_family(family: str, params: dict[str, object]) -> Graph:
    """Instantiate a registered family; raises ``ValueError`` on unknown ids,
    wrong parameter names, or an instance over the size cap."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(sorted(FAMILIES))}")
    names, builder, _ = FAMILIES[family]
    if set(params) != set(names):
        raise ValueError(f"family {family!r} takes parameters {names}, got {tuple(sorted(params))}")
    _refuse_oversized(family, params)
    return builder(**{k: params[k] for k in names})
