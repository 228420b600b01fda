"""Structural parameters: local independence and clique numbers, induced bones.

A bone of index ``i`` is a path on ``i`` vertices with two extra pendant
vertices hanging off each end, so it has ``i + 4`` vertices and ``i + 3``
edges.  The admitting set of a graph collects the indices of all bones it
contains as induced subgraphs.

One depth-first search over induced paths answers every bone query.  It
starts from each claw centre ``s`` (below) in increasing order, grows
induced spines from ``s``, and at each wanted spine length tries to close
the spine into a bone by picking a pendant pair at each end.  It records the
first bone of each index and drops an index once found.

The search closes a spine only at a tail ``t > s``, so each bone is found
from its smaller end.  A close that would succeed at start ``s`` with a tail
``t < s`` is a bone with spine ends ``t`` and ``s``.  Reversed, it is a bone
whose spine starts at ``t``, and the search from ``t`` reaches that spine
and can close it there.  So the first start that reaches a bone of index
``i`` is the least smaller end of such bones, and at that start a close at
``t < s`` would be a bone with smaller end ``t < s``, which is a
contradiction.  Every skipped close would have failed, and each index is
first found at the same node, with the same embedding, as when both
directions are closed.

Each end of the spine of an induced bone is the centre of an induced claw
``K_{1,3}``: its spine neighbour and its two pendants are pairwise
non-adjacent.  The search is given the claw centres as a mask, and skips
work that holds no successful close at a tail above the start:

- it starts only from claw centres, and ends once none lies above the start;
- it closes only at a tail that is a claw centre;
- it extends a spine with tail ``w`` only while some claw centre above the
  start lies off the spine and outside the neighbourhoods of the spine
  vertices before ``w``.  The spine stays induced, so no later tail is
  adjacent to a vertex before ``w``; with no claw centre left there, no
  close further along the spine can succeed.

So the closes that succeed, and their order, are those of the search
without these skips: every result and every early stop is the same.  The
search visits a subset of that search's nodes, in the same order, so its
node count never grows.

A vertex ``w`` is a claw centre iff ``alpha(G[N(w)]) >= 3``, so whether it
is one depends on ``G[N(w)]`` alone.  Toggling one pair ``uv`` changes
``G[N(w)]`` only for ``w`` in ``{u, v} | (N(u) & N(v))``, so a caller that
edits a graph one pair at a time carries the mask and re-tests only those
vertices (``_claw_centres(masks, among)``).  ``extremal_search`` does so;
``find_induced_bone`` and ``admitting_set`` test every vertex.

A close also needs two right candidates.  The neighbours of the tail off
the spine and not adjacent to its other vertices are both its right
candidates and the vertices that keep the spine induced one step further.
The search keeps the union of the neighbourhoods of the spine per depth and
gives them as one mask, so a close with fewer than two is skipped before
any list is built.

The search's admitting constraints name indices to stop at (``_bone_scan``'s
``stop``).  Every hypothesis of the form "no bone of these indices" is
anti-monotone: one induced bone of a refuting index decides it, so the
search returns at the first such bone and visits a prefix of the nodes of
the full search.  A stopped result holds that index and the indices found
before it; a result without an index of ``stop`` is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any

from .errors import GuardExceededError
from .graphs import Graph, snail_horns
from .matching import _mask_vertices

__all__ = [
    "local_independence_number",
    "clique_number",
    "BoneEmbedding",
    "find_induced_bone",
    "admitting_set",
    "StructureProfile",
    "structure_profile",
]

_MIS_MAX = 40
_BONE_BUDGET = 2_000_000


def _alpha_of_mask(masks: list[int], avail: int, best: int = 0) -> int:
    # max(best, independence number of ``avail``) by exact branch and bound on
    # bitmasks; a branch that cannot beat ``best`` is pruned.  Vertices of
    # degree <= 1 inside the candidate set are taken greedily (always safe for
    # size); otherwise branch on a maximum-degree vertex.
    def rec(avail: int, size: int) -> None:
        nonlocal best
        while True:
            if avail == 0:
                if size > best:
                    best = size
                return
            if size + avail.bit_count() <= best:
                return
            max_deg = -1
            max_v = -1
            reduced = False
            scan = avail
            while scan:
                bit = scan & -scan
                v = bit.bit_length() - 1
                scan ^= bit
                deg = (masks[v] & avail).bit_count()
                if deg <= 1:
                    avail &= ~(masks[v] | bit)
                    size += 1
                    reduced = True
                    break
                if deg > max_deg:
                    max_deg = deg
                    max_v = v
            if reduced:
                continue
            bit = 1 << max_v
            rec(avail & ~(masks[max_v] | bit), size + 1)
            rec(avail & ~bit, size)
            return

    rec(avail, 0)
    return best


def local_independence_number(G: Graph) -> int:
    """Largest ``t`` such that some vertex has an independent set of size ``t``
    in its neighbourhood; equivalently the largest induced star centre size.

    Zero on graphs without edges.  A graph is claw-free iff this is below 3.
    """
    masks = G.adjacency_masks()
    best = 0
    for v in range(G.n):
        if G.degree(v) > _MIS_MAX:
            raise GuardExceededError(f"neighbourhood of {v} exceeds {_MIS_MAX} vertices")
        if G.degree(v) > best:
            best = _alpha_of_mask(masks, masks[v], best)
    return best


def _alpha_exceeds(masks: list[int], among: int, k: int) -> bool:
    # Whether some vertex w of the mask ``among`` has alpha(N(w)) > k.  The
    # degree guard of ``local_independence_number`` is checked on every vertex
    # of ``among`` first, in ascending order, so on all vertices it trips
    # exactly when, and with the message, that function's does.  A vertex of
    # degree <= k cannot exceed k, and k is the floor of each search.
    heavy = []
    for w in _mask_vertices(among):
        degree = masks[w].bit_count()
        if degree > _MIS_MAX:
            raise GuardExceededError(f"neighbourhood of {w} exceeds {_MIS_MAX} vertices")
        if degree > k:
            heavy.append(w)
    return any(_alpha_of_mask(masks, masks[w], k) > k for w in heavy)


def clique_number(G: Graph) -> int:
    """Clique number, computed as the independence number of the complement
    (guard: 40 vertices)."""
    if G.n > _MIS_MAX:
        raise GuardExceededError(f"clique number limited to {_MIS_MAX} vertices")
    return _clique_of_masks(G.adjacency_masks())


def _clique_of_masks(masks: list[int]) -> int:
    full = (1 << len(masks)) - 1
    return _alpha_of_mask([full & ~(m | 1 << v) for v, m in enumerate(masks)], full)


@dataclass(frozen=True)
class BoneEmbedding:
    """An induced bone: the spine path plus the two pendant pairs at each end."""

    path: tuple[int, ...]
    pendants_left: tuple[int, int]
    pendants_right: tuple[int, int]

    @property
    def index(self) -> int:
        return len(self.path)

    def vertices(self) -> frozenset[int]:
        return frozenset(self.path) | set(self.pendants_left) | set(self.pendants_right)


def _claw_centres(masks: list[int], among: int | None = None) -> int:
    # Bitmask of the vertices (of the mask ``among``, by default all) with
    # three pairwise non-adjacent neighbours a < b < c: the centres of
    # induced claws.
    centres = 0
    for v in range(len(masks)) if among is None else _mask_vertices(among):
        rest = masks[v]
        if rest.bit_count() < 3:
            continue
        while rest and not centres >> v & 1:
            a = rest & -rest
            rest ^= a
            far = rest & ~masks[a.bit_length() - 1]
            while far:
                b = far & -far
                far ^= b
                if far & ~masks[b.bit_length() - 1]:
                    centres |= 1 << v
                    break
    return centres


def _close(masks: list[int], path: list[int], left: int, right: int) -> BoneEmbedding | None:
    # First pendant pair at each end, in ascending order.  ``left`` already
    # excludes every neighbour of the later spine vertices, and ``right``
    # (neighbours of the tail off the spine and not adjacent to its other
    # vertices) excludes every neighbour of ``path[0]``, so the pairs are disjoint.
    right_list = _mask_vertices(right)
    for a1, a2 in combinations(_mask_vertices(left), 2):
        if masks[a1] >> a2 & 1:
            continue
        blocked = masks[a1] | masks[a2]
        for b1, b2 in combinations(right_list, 2):
            if not (masks[b1] >> b2 & 1 or blocked >> b1 & 1 or blocked >> b2 & 1):
                return BoneEmbedding(tuple(path), (a1, a2), (b1, b2))
    return None


def _bone_scan(masks: list[int], centres: int, wanted: set[int],
               stop: frozenset[int] = frozenset()) -> dict[int, BoneEmbedding]:
    # One depth-first search over the induced paths of the graph with the
    # neighbour masks ``masks`` and the claw centres ``centres`` (as
    # ``_claw_centres`` gives them), from every claw centre that has a claw
    # centre above it, recording the first bone of each wanted index; it
    # returns at once after recording an index in ``stop``.  ``hi`` is the
    # claw centres above the start.  ``left`` is the start's private-pendant candidates:
    # neighbours off the path and not adjacent to any later spine vertex; a
    # branch with fewer than two is dropped.
    # ``near`` is the union of the neighbourhoods of the spine before its
    # tail; ``reach`` adds the tail's, so a new tail ``w`` has the right
    # candidates ``masks[w] & ~(body | reach)``, which are also the vertices
    # that keep its spine induced.  Only a tail in ``hi`` is closed, only
    # with two right candidates, and a node is extended only while ``hi``
    # has a vertex outside ``body | reach`` (see the module docstring).
    # Every node visited counts against ``_BONE_BUDGET``.  ``cands`` holds the
    # unvisited candidates of each spine vertex as a mask, popped lowest bit
    # first, so a long spine cannot hit Python's recursion limit.
    n = len(masks)
    if n - 4 in wanted and sum(m.bit_count() for m in masks) != 2 * (n - 1):
        wanted = wanted - {n - 4}  # a spanning bone is a tree
    found: dict[int, BoneEmbedding] = {}
    if not wanted:
        return found
    budget = _BONE_BUDGET
    missing = set(wanted)
    top = max(missing)
    nodes = 0
    hi = centres
    while hi & (hi - 1):  # a start needs a claw centre above it
        start = hi & -hi
        hi ^= start
        v0 = start.bit_length() - 1
        path, body = [v0], start
        cands, lefts, nears = [masks[v0]], [masks[v0]], [0]
        while cands:
            todo = cands.pop()
            reach = nears[-1] | masks[path[-1]]
            free = hi & ~(body | reach)
            while todo:
                bit = todo & -todo
                todo ^= bit
                w = bit.bit_length() - 1
                left = lefts[-1] & ~(masks[w] | bit)
                if left.bit_count() < 2:
                    continue
                nodes += 1
                if nodes > budget:
                    raise GuardExceededError(f"bone search exceeded {budget} DFS nodes")
                path.append(w)
                body |= bit
                right = masks[w] & ~(body | reach)
                if len(path) in missing and hi & bit and right.bit_count() >= 2:
                    emb = _close(masks, path, left, right)
                    if emb is not None:
                        found[emb.index] = emb
                        missing.discard(emb.index)
                        if not missing or emb.index in stop:
                            return found
                        top = max(missing)
                if len(path) < top and free:
                    cands += (todo, right)
                    lefts.append(left)
                    nears.append(reach)
                    break
                path.pop()
                body ^= bit
            else:
                lefts.pop()
                nears.pop()
                body ^= 1 << path.pop()
    return found


def find_induced_bone(G: Graph, i: int) -> BoneEmbedding | None:
    """First induced bone of index ``i`` in deterministic scan order, or ``None``.

    Raises ``GuardExceededError`` when the search exceeds its node budget.
    """
    if i < 2:
        raise ValueError(f"bone index must be at least 2, got {i}")
    if i + 4 > G.n:
        return None
    masks = G.adjacency_masks()
    return _bone_scan(masks, _claw_centres(masks), {i}).get(i)


def admitting_set(G: Graph, i_max: int | None = None) -> frozenset[int]:
    """Indices ``i`` in ``2..i_max`` for which an induced bone exists.

    The cap defaults to (and is clamped at) ``n - 4``, beyond which no bone
    fits, so the default is the complete admitting set.  One search covers
    every index; it raises ``GuardExceededError`` past its node budget.
    """
    cap = G.n - 4 if i_max is None else min(i_max, G.n - 4)
    if cap == G.n - 4 and G.edge_count() != G.n - 1:
        cap -= 1  # a spanning bone is a tree (as in _bone_scan), known before masks are built
    if cap < 2:
        return frozenset()
    masks = G.adjacency_masks()
    return frozenset(_bone_scan(masks, _claw_centres(masks), set(range(2, cap + 1))))


@dataclass(frozen=True)
class StructureProfile:
    """Summary of the structural parameters used by the deficiency bounds.

    ``omega`` and ``triangle_free`` are ``None`` when the clique number's
    40-vertex guard tripped.
    """

    alpha_l: int
    omega: int | None
    admitting: frozenset[int]
    admitting_cap: int
    snail_horn_count: int
    claw_free: bool
    triangle_free: bool | None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "alpha_l": self.alpha_l,
            "omega": self.omega,
            "admitting": sorted(self.admitting),
            "admitting_cap": self.admitting_cap,
            "snail_horns": self.snail_horn_count,
            "claw_free": self.claw_free,
            "triangle_free": self.triangle_free,
        }


def structure_profile(G: Graph, i_max: int | None = None) -> StructureProfile:
    """Compute all structural parameters at once.

    ``i_max`` caps the bone search (below 2 it searches none); the recorded
    cap tells a truncated admitting set from a complete one.  Above its
    40-vertex guard the clique number is unknown, not an error.
    """
    cap = G.n - 4 if i_max is None else min(i_max, G.n - 4)
    alpha_l = local_independence_number(G)
    try:
        omega = clique_number(G)
    except GuardExceededError:
        omega = None
    return StructureProfile(
        alpha_l=alpha_l,
        omega=omega,
        admitting=admitting_set(G, cap),
        admitting_cap=cap,
        snail_horn_count=len(snail_horns(G)),
        claw_free=alpha_l < 3,
        triangle_free=None if omega is None else omega < 3,
    )
