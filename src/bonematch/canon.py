"""Canonical form and automorphism count by individualisation and refinement.

The search follows McKay & Piperno, "Practical graph isomorphism II" (JSC 60,
2014), without automorphism pruning.  The unit partition is refined to an
equitable ordered partition; while a cell has more than one vertex, each
vertex of the first such cell is individualised in turn and the partition is
refined again.  Every leaf of this tree is a discrete ordered partition, that
is a relabelling of the graph, and the canonical code is the largest
relabelled adjacency bit-string over all leaves.

Refinement and the choice of target cell depend on the ordered partition
only, never on vertex names, so ``Aut(G)`` maps leaves to leaves and acts on
them without fixed points, and two leaves with the same code differ by an
automorphism.  Hence ``|Aut(G)|`` is exactly the number of leaves that reach
the canonical code.  The search is iterative and counts its nodes against
``_CANON_BUDGET``; highly symmetric graphs (``K_n`` has ``n!`` leaves) trip it
with ``GuardExceededError``.
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
        rows = [self.code >> (n * (n - 1 - i)) for i in range(n)]
        return Graph(n, tuple(frozenset(u for u in range(n) if row >> (n - 1 - u) & 1)
                              for row in rows))


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


def _children(adj: list[int], cells: list[list[int]], t: int):
    head, cell, tail = cells[:t], cells[t], cells[t + 1:]
    for v in cell:
        rest = [u for u in cell if u != v]
        yield _refine(adj, head + [[v], rest] + tail, [1 << v])


def canonical_form(G: Graph) -> CanonicalForm:
    """Canonical code and automorphism count of ``G``.

    Raises ``GuardExceededError`` when the search tree exceeds
    ``_CANON_BUDGET`` nodes.
    """
    n = G.n
    adj = G.adjacency_masks()
    budget = _CANON_BUDGET
    root = _refine(adj, [list(range(n))], [(1 << n) - 1]) if n else []
    best, count, nodes = -1, 0, 0
    stack = [iter((root,))]
    while stack:
        cells = next(stack[-1], None)
        if cells is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise GuardExceededError(f"canonical form search exceeded {budget} nodes")
        if len(cells) < n:
            t = next(i for i, cell in enumerate(cells) if len(cell) > 1)
            stack.append(_children(adj, cells, t))
            continue
        order = [cell[0] for cell in cells]
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
        if code > best:
            best, count = code, 1
        elif code == best:
            count += 1
    return CanonicalForm(n, best, count)
