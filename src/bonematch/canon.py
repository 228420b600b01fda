"""Canonical form and automorphism count by individualisation and refinement.

The search follows McKay & Piperno, "Practical graph isomorphism II" (JSC 60,
2014), with first-path automorphism pruning.  The unit partition is refined
to an equitable ordered partition; while a cell has more than one vertex,
each vertex of the first such cell is individualised in turn and the
partition is refined again.  Every leaf is a discrete ordered partition, that
is a relabelling of the graph, and the canonical code is the largest
relabelled adjacency bit-string over all leaves.

Refinement and the choice of target cell never depend on vertex names, so an
automorphism maps each subtree onto one with the same leaf codes, and a leaf
with the first leaf's code yields the automorphism between the two.  The
search descends the first path (first vertex of every target cell) and
climbs back up it.  At a first-path node it skips each child in the orbit of
an earlier child under the automorphisms found so far, which all fix that
node; any other child is left at its first leaf that yields an automorphism,
as its subtree is then the image of the first child's.  Pruned subtrees are
automorphic images of explored ones, so the best code is unchanged, and every
child in the orbit of the first child under the stabiliser of the node has
yielded an automorphism, so ``|Aut(G)|`` is the product of these orbit sizes
down the first path (orbit-stabiliser).  The automorphisms found generate
``Aut(G)``: those found at or below a first-path node fix it, so each factor
is at most the first child's orbit under the stabiliser of the node in the
group they generate, and by orbit-stabiliser in that group the product,
``|Aut(G)|``, is at most its order.  The search is iterative and counts its nodes against ``_CANON_BUDGET``;
``K_n`` takes ``n (n + 1) / 2`` nodes.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GuardExceededError
from .graphs import Graph

__all__ = ["CanonicalForm", "canonical_form"]

_CANON_BUDGET = 200_000


class CanonicalForm(NamedTuple):
    """Isomorphism invariant of a graph on ``n`` vertices.

    ``code`` concatenates the adjacency rows of the canonical relabelling,
    row 0 in the highest ``n`` bits; two graphs on ``n`` vertices are
    isomorphic iff their codes are equal.  ``automorphisms`` is ``|Aut(G)|``.
    """

    n: int
    code: int
    automorphisms: int

    def graph(self) -> Graph:
        """The canonical relabelling itself, decoded from ``code``."""
        n = self.n
        full = (1 << n) - 1
        return Graph(n, tuple(frozenset(_decode_row(self.code >> n * i & full, n))
                              for i in range(n - 1, -1, -1)))


def _decode_row(row: int, n: int) -> tuple[int, ...]:
    """The vertices of a code row of ``n`` bits: vertex ``u`` is bit ``n - 1 - u``."""
    return tuple(u for u in range(n) if row >> (n - 1 - u) & 1)


def _refine(adj: list[int], cells: list[list[int]], queue: list[int]) -> list[list[int]]:
    # Split cells by the number of neighbours their vertices have in a
    # splitter, fragments in ascending order of that number, and queue every
    # fragment as a splitter.  The result is equitable if the input was
    # equitable towards every cell left out of the queue: counts into such a
    # cell, or into the rest of a cell whose other part is queued, stay
    # uniform while cells only get finer.
    n = len(adj)
    while queue and len(cells) < n:
        w = queue.pop()
        out: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                k = (adj[v] & w).bit_count()
                if k in groups:
                    groups[k].append(v)
                else:
                    groups[k] = [v]
            if len(groups) == 1:
                out.append(cell)
                continue
            for k in sorted(groups):
                frag = groups[k]
                out.append(frag)
                m = 0
                for v in frag:
                    m |= 1 << v
                queue.append(m)
        cells = out
    return cells


def _individualise(adj: list[int], cells: list[list[int]], t: int, v: int) -> list[list[int]]:
    rest = [u for u in cells[t] if u != v]
    return _refine(adj, cells[:t] + [[v], rest] + cells[t + 1:], [1 << v])


def _code(adj: list[int], order: list[int]) -> int:
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = n - 1 - i
    code = 0
    for v in order:
        row = 0
        m = adj[v]
        while m:
            low = m & -m
            row |= 1 << pos[low.bit_length() - 1]
            m ^= low
        code = code << n | row
    return code


def _search(adj: list[int]) -> tuple[int, int, list[dict[int, int]], list[int]]:
    """Canonical code, ``|Aut|``, generators of ``Aut`` and canonical order of
    the graph with neighbour masks ``adj``.  A generator ``g`` maps ``v`` to
    ``g[v]``; the generators generate ``Aut`` (module docstring).  The order is
    the leaf with the canonical code: vertex ``j`` of the canonical
    relabelling is its ``j``-th vertex.
    """
    n = len(adj)
    budget = _CANON_BUDGET
    cells = _refine(adj, [list(range(n))], [(1 << n) - 1]) if n else []
    path = []  # (cells, target cell) of every inner node of the first path
    while len(cells) < n:
        t = next(i for i, cell in enumerate(cells) if len(cell) > 1)
        path.append((cells, t))
        cells = _individualise(adj, cells, t, cells[t][0])
    # the first path's nodes are checked with the first node off it, which the
    # last inner node of the path always has
    nodes = len(path) + 1
    first = [cell[0] for cell in cells]
    best = first_code = _code(adj, first)
    best_order = first
    # orbits of the generators found so far: a union-find whose root is the
    # least vertex of its orbit, with the orbit's size at the root
    parent = list(range(n))
    size = [1] * n
    gens: list[dict[int, int]] = []
    count = 1
    for cells, t in reversed(path):
        cell = cells[t]
        for w in cell[1:]:
            if parent[w] != w:
                continue
            stack = [(cells, t, w)]
            while stack:
                node = _individualise(adj, *stack.pop())
                nodes += 1
                if nodes > budget:
                    raise GuardExceededError(f"canonical form search exceeded {budget} nodes")
                if len(node) < n:
                    i = next(j for j, cell in enumerate(node) if len(cell) > 1)
                    stack += [(node, i, v) for v in reversed(node[i])]
                    continue
                order = [c[0] for c in node]
                code = _code(adj, order)
                if code == first_code:
                    gens.append(dict(zip(first, order)))
                    for a, b in zip(first, order):
                        while parent[a] != a:
                            a = parent[a]
                        while parent[b] != b:
                            b = parent[b]
                        if a != b:
                            a, b = min(a, b), max(a, b)
                            parent[b] = a
                            size[a] += size[b]
                    break
                if code > best:
                    best, best_order = code, order
        count *= size[cell[0]]
    return best, count, gens, best_order


def canonical_form(G: Graph) -> CanonicalForm:
    """Canonical code and automorphism count of ``G``.

    Raises ``GuardExceededError`` when the search tree exceeds
    ``_CANON_BUDGET`` nodes.
    """
    code, count, _, _ = _search(G.adjacency_masks())
    return CanonicalForm(G.n, code, count)
