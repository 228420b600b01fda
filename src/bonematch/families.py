"""Deterministic constructors for the extremal graph families.

Every builder assigns vertex ids in a fixed documented order, so repeated
calls give identical labelled graphs, and ends with one ``build_graph`` call
on an edge list; ``e_family``, ``e_plus_family`` and ``f_family`` build a
graph before it.  Family names are recorded on the returned graphs and a
registry maps family ids to builders for the CLI, each with its parameter
kinds and its vertex and edge counts as a function of the parameters, so an
instance with malformed parameters or too large to build is refused before
any list is allocated.
"""

from __future__ import annotations

from itertools import chain, cycle, islice
from typing import Any, Callable, Iterable, Sequence

from .graphs import Graph, build_graph
from .serialize import _VERTEX_CAP

__all__ = [
    "broom",
    "bs",
    "s_family",
    "t_family",
    "e_family",
    "e_plus_family",
    "t_tree",
    "skeleton_tree",
    "f_family",
    "path_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "family_label",
    "FAMILIES",
    "build_family",
]


def _broom(edges: list[tuple[int, int]], v: int, first: int, n: int, p: int) -> int:
    """Append to ``edges`` a broom hung at ``v``: a path on ``p`` vertices whose
    free end carries ``n`` pendants, with ``v`` playing the near end of the path.

    With ``p = 1`` the pendants land on ``v`` itself.  New ids run from
    ``first``, the path vertices before the pendants; returns the next free id.
    """
    if n < 1 or p < 1:
        raise ValueError(f"broom needs n >= 1 and p >= 1, got n={n}, p={p}")
    path = [v, *range(first, first + p - 1)]
    edges += zip(path, path[1:])
    first += p - 1
    edges += ((path[-1], w) for w in range(first, first + n))
    return first + n


def broom(n: int, p: int) -> Graph:
    """The standalone broom: a path on ``p`` vertices with ``n`` pendants at one end.

    Vertex 0 is the free end (the attachment point when used as a gadget).
    """
    edges: list[tuple[int, int]] = []
    return build_graph(_broom(edges, 0, 1, n, p), edges, name=f"D({n},{p})")


def bs(n: int, p: int) -> Graph:
    """Double broom: a path on ``p >= 2`` vertices with ``n`` pendants at each end.

    Ids: path ``0..p-1``, pendants ``p..p+n-1`` at vertex 0, then
    ``p+n..p+2n-1`` at vertex ``p-1``.  With ``n = 2`` this is the bone of
    index ``p``.
    """
    if p < 2:
        raise ValueError(f"double broom needs p >= 2, got {p}")
    edges = [(i, i + 1) for i in range(p - 1)]
    end = _broom(edges, p - 1, _broom(edges, 0, p, n, 1), n, 1)
    return build_graph(end, edges, name=f"BS({n},{p})")


def s_family(n: int, p: int) -> Graph:
    """``n`` brooms with ``n - 1`` pendants each, glued at a common free end.

    Vertex 0 is the gluing vertex; total ``1 + n(p + n - 2)`` vertices.
    """
    if n < 2:
        raise ValueError(f"spider family needs n >= 2, got {n}")
    edges: list[tuple[int, int]] = []
    end = 1
    for _ in range(n):
        end = _broom(edges, 0, end, n - 1, p)
    return build_graph(end, edges, name=f"S({n},{p})")


def t_family(n: int, p: int) -> Graph:
    """Complete bipartite core ``K(2, n)`` with a broom on each of the two
    degree-``n`` vertices.

    Ids: 0 and 1 are the broom-carrying side, ``2..n+1`` the other side;
    total ``2p + 3n`` vertices.
    """
    if n < 1 or p < 1:
        raise ValueError(f"t_family needs n >= 1 and p >= 1, got n={n}, p={p}")
    edges = [(side, w) for side in (0, 1) for w in range(2, n + 2)]
    end = _broom(edges, 1, _broom(edges, 0, n + 2, n, p), n, p)
    return build_graph(end, edges, name=f"T({n},{p})")


def e_family(m: int, n: int, p: int) -> Graph:
    """Clique ``K_m`` with a broom attached at every clique vertex.

    Total ``m(p + n)`` vertices; clique ids ``0..m-1``.
    """
    if m < 1:
        raise ValueError(f"e_family needs m >= 1, got {m}")
    edges = complete_graph(m).edges()
    end = m
    for v in range(m):
        end = _broom(edges, v, end, n, p)
    return build_graph(end, edges, name=f"E({m},{n},{p})")


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
    # the extra vertex g.n; m is the first id of the broom at clique vertex 0
    return build_graph(g.n + 1, g.edges() + [(0, g.n), (m, g.n)],
                       name=f"E+({m},{n},{p})@clique-end")


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
    return _layered_tree(_t_tree_fan_outs(m, n), f"T_tree({m},{n})")


def _t_tree_fan_outs(m: int, n: int) -> Iterable[int]:
    # the root has n - 1 children, then levels of fan-out 1 and n - 2 alternate
    return chain([n - 1], islice(cycle([1, n - 2]), m - 3))


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


def _layered_tree(fan_outs: Iterable[int], name: str) -> Graph:
    """Tree grown from root 0 level by level, each vertex of level ``i`` getting
    as many children as entry ``i`` of ``fan_outs``; ids follow levels, and a
    parent's children are consecutive."""
    edges: list[tuple[int, int]] = []
    level: Sequence[int] = [0]
    for k in fan_outs:
        parents = [u for u in level for _ in range(k)]
        level = range(len(edges) + 1, len(edges) + 1 + len(parents))
        edges += zip(parents, level)
    return build_graph(len(edges) + 1, edges, name=name)


def f_family(*branch_levels: int) -> Graph:
    """Skeleton tree with every degree-3 vertex blown up into a triangle and
    two pendants added at every leaf.

    The result is triangle-rich but contains no odd bone.
    """
    T = skeleton_tree(*branch_levels)
    adj = [set(s) for s in T.adj]
    for v in (v for v in range(T.n) if T.degree(v) == 3):
        # ``v`` keeps its smallest current neighbour ``a`` and becomes one
        # corner; ``b`` and ``c`` move to the new corners ``y`` and ``y + 1``
        a, b, c = sorted(adj[v])
        y = len(adj)
        adj[v] = {a, y, y + 1}
        adj[b] ^= {v, y}
        adj[c] ^= {v, y + 1}
        adj += [{v, y + 1, b}, {v, y, c}]
    edges = [(u, w) for u in range(len(adj)) for w in adj[u] if u < w]
    end = len(adj)
    for leaf in (v for v in range(T.n) if T.degree(v) == 1):
        end = _broom(edges, leaf, end, 2, 1)
    return build_graph(end, edges, name="F(" + ",".join(map(str, branch_levels)) + ")")


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
    # the levels double at least every two levels, so the count passes the
    # cap within 40 of them
    return _layered_size(_t_tree_fan_outs(m, n))


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


# family id -> ({parameter name: int, or list for levels, where one integer
#                is the one-level list}, builder taking keyword arguments,
#               (vertices, edges) from the same keyword arguments)
FAMILIES: dict[str, tuple[dict[str, type], Callable[..., Graph],
                          Callable[..., tuple[int, int]]]] = {
    "d": ({"n": int, "p": int}, broom, lambda n, p: _tree(n + p)),
    "bs": ({"n": int, "p": int}, bs, lambda n, p: _tree(p + 2 * n)),
    "s": ({"n": int, "p": int}, s_family, lambda n, p: _tree(1 + n * (p + n - 2))),
    "t": ({"n": int, "p": int}, t_family, lambda n, p: (2 * p + 3 * n, 4 * n + 2 * p - 2)),
    "e": ({"m": int, "n": int, "p": int}, e_family,
          lambda m, n, p: (m * (p + n), m * (m - 1) // 2 + m * (p - 1 + n))),
    "e_plus": ({"m": int, "n": int, "p": int}, e_plus_family,
               lambda m, n, p: (m * (p + n) + 1, m * (m - 1) // 2 + m * (p - 1 + n) + 2)),
    "t_tree": ({"m": int, "n": int}, t_tree, lambda m, n: _tree(_t_tree_vertices(m, n))),
    "skeleton": ({"a": list}, lambda a: skeleton_tree(*_levels(a)),
                 lambda a: _tree(_skeleton_counts(a)[0])),
    "f": ({"a": list}, lambda a: f_family(*_levels(a)), _f_size),
    "path": ({"k": int}, path_graph, lambda k: (k, max(k - 1, 0))),
    "star": ({"k": int}, star_graph, lambda k: (k + 1, k)),
    "complete": ({"k": int}, complete_graph, lambda k: (k, k * (k - 1) // 2)),
    "complete_bipartite": ({"a": int, "b": int}, complete_bipartite_graph,
                           lambda a, b: (a + b, a * b)),
}


def _check_instance(family: str, params: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``family`` is registered, ``params`` gives
    exactly its parameters, each of the kind the registry states, and the
    instance has at most ``_VERTEX_CAP`` vertices and edges, counted without
    building it."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(sorted(FAMILIES))}")
    kinds, _, size = FAMILIES[family]
    if set(params) != set(kinds):
        raise ValueError(f"family {family!r} takes parameters {tuple(kinds)}, "
                         f"got {tuple(sorted(params))}")
    for name, kind in kinds.items():
        value = params[name]
        levels = value if kind is list and isinstance(value, (list, tuple)) else [value]
        if not all(isinstance(x, int) for x in levels):
            raise ValueError(f"parameter {name!r} of family {family!r} takes "
                             f"{'integers' if kind is list else 'an integer'}, got {value!r}")
    vertices, edges = size(**params)
    if vertices > _VERTEX_CAP or edges > _VERTEX_CAP:
        raise ValueError(f"{family_label(family, params)} has more than {_VERTEX_CAP} "
                         "vertices or edges, the cap on family instances")


def build_family(family: str, params: dict[str, Any]) -> Graph:
    """Instantiate a registered family; raises ``ValueError`` on unknown ids,
    wrong parameter names or kinds, or an instance over the size cap."""
    _check_instance(family, params)
    return FAMILIES[family][1](**params)
