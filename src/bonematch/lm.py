"""Level-by-level matching: the two-level lemma and the full bound computation.

The driver levels a graph from a snail-horn head and walks the levels top
down.  Each step solves a two-level subproblem on two level sets of the
graph, in the graph's own vertex ids, by local search over two kinds of
improving moves; the terminal matching is guaranteed (and verified at
runtime) to leave every residual lower vertex with two private witnesses,
which feeds the next level.  The sum of the leftover sets bounds the
deficiency from above.

The local search is incremental.  Every upper vertex keeps a count of its
unmatched lower neighbours, and a move is legal iff no unmatched upper vertex
whose count it lowers drops to 0: an unmatched upper ``y`` off an edge ``e``
dies iff its count equals the number of lower ends of ``e`` that it sees, so
legality is tested without changing any state.  This is exact because
coverage holds before every move: the precondition gives it for the empty
matching, accepted moves keep it, and unmatching a traded edge only raises
counts while its freed upper end sees its freed lower one.  Only the vertices
with an edge in ``X | Y`` and those edges are indexed: any other lower vertex
is never matched, and never residual, as it sees no upper vertex.

A trade pass starts from a state ``M`` where no edge can be added, so every
free edge ``e`` has a non-empty lost set ``L(e)``: the vertices it would kill.
So it has a lower end, as an edge between upper vertices lowers no count.
Trading ``old`` for ``e1, e2`` is legal iff ``M - old + e1 + e2`` keeps
coverage, a condition symmetric in ``e1`` and ``e2``.  ``old`` itself is never
a member, as that trade would be an add.  Unmatching ``old`` raises only the
counts of ``R``, the upper neighbours of its lower ends.  Call an edge special
if it touches an end of ``old``, or if it is free in ``M`` and ``L(e)`` meets
``R``.  Two facts bound the pairs worth checking:

1. A member ``e`` that is not special is free in ``M`` and leaves ``L(e)`` at
   count 0, so the other member ``f`` must match all of it.  For ``v`` in
   ``L(e)``, ``f = vt``, and a free ``f`` would have a lower end ``t``: a free
   lower neighbour of ``v`` outside ``e``.  So ``f`` touches ``old`` at ``t``,
   and ``L(e) = {v}``.
2. If a member loses a vertex ``y`` once ``old`` is unmatched, the other member
   is ``yw``, and ``w`` is no lower vertex, as it would be a free lower
   neighbour of ``y`` off the first member.  So the other member joins two
   upper vertices and loses nothing; as no free edge could be added to ``M``,
   it touches ``old``.

So every legal pair has a special member that loses nothing (by 1 there is a
special member, and by 2 if it loses a vertex its partner is one), and its
partner is special or an edge whose lost set is one of its ends.  A pass
lists these pairs for each ``old`` in sorted order and checks them exactly
and in index order, so its move is the smallest legal pair, as when every
pair is tried.  Every legal pair has a special member, so an ``old`` with
none is skipped before it is unmatched: unmatching it changes neither
``L(e)``, read in ``M``, nor the other end of an edge at an end of ``old``.
Two free edges with ``L(e1) <= e2`` and ``L(e2) <= e1`` cannot even be
disjoint, by the argument of 1.

The postcondition check reads everything off the terminal matching.  The
residual upper set is ``Y`` minus the saturated vertices, and each of its
vertices meets the free lower vertices once: that one set gives rule (1), the
residual lower set, and, once rule (2) holds, the private witnesses.  Rule (4)
is counted through the witnesses: a matched lower vertex spoils ``x`` iff it
sees all but at most one of ``x``'s witnesses, so only their neighbours count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

from .errors import PostconditionError
from .graphs import Graph, is_clean_level, levelling, snail_horns
from .matching import deficiency
from .structure import StructureProfile, find_induced_bone

__all__ = [
    "TwoLevelResult",
    "two_level_matching",
    "LMLevel",
    "LMTrace",
    "lm_run",
    "lm_root_sweep",
    "TraceViolation",
    "validate_trace",
]

Edge = tuple[int, int]


@dataclass(frozen=True)
class TwoLevelResult:
    """Terminal state of the two-level local search.

    ``x_residual`` is the set of unmatched lower-side vertices that still see
    an unmatched upper vertex.  ``private`` maps each, sorted by vertex, to its
    two smallest private witnesses: upper vertices whose only unmatched
    neighbour is that vertex.  The postcondition check derives both residual
    sets and this one map from the terminal matching alone, checks the rules
    on them and returns the result.
    """

    matching: frozenset[Edge]
    x_residual: frozenset[int]
    y_residual: frozenset[int]
    private: tuple[tuple[int, tuple[int, int]], ...]


def two_level_matching(H: Graph, X: Iterable[int], Y: Iterable[int]) -> TwoLevelResult:
    """Run the two-level local search on the subgraph of ``H`` induced by ``X | Y``.

    Requirements: ``X`` and ``Y`` are disjoint vertex sets of ``H``, ``X`` is
    non-empty, and every ``Y`` vertex has a neighbour in ``X``; the result
    names vertices of ``H``.  Starting from the empty matching, two moves are
    applied in lexicographic order until neither fits: (a) add an edge
    between unmatched endpoints, (b) trade one matched edge touching ``X``
    for two new edges.  Both moves must keep every unmatched ``Y`` vertex
    adjacent to an unmatched ``X`` vertex.

    The check derives the residual sets and the private witnesses from the
    terminal matching and returns the result; a failure raises
    ``PostconditionError`` and indicates a bug.
    """
    Xs, Ys = frozenset(X), frozenset(Y)
    if not Xs:
        raise ValueError("two-level matching requires a non-empty lower side")
    if Xs & Ys:
        raise ValueError("sides overlap")
    S = Xs | Ys
    if min(S) < 0 or max(S) >= H.n:
        raise ValueError(f"sides must be vertices of a graph on {H.n} vertices")
    adj = H.adj
    free: dict[int, int] = {}  # unmatched lower neighbours of each upper vertex
    for y in Ys:
        if not (c := len(adj[y] & Xs)):
            raise ValueError(f"upper vertex {y} has no lower neighbour")
        free[y] = c
    nbr = {u: ns for u in S if (ns := adj[u] & S)}  # the vertices with an edge in S
    edges = sorted((u, v) for u, ns in nbr.items() for v in ns if u < v)
    matched: set[int] = set()
    matching: set[Edge] = set()
    upper = {w: tuple(ns & Ys) if w in Xs else () for w, ns in nbr.items()}
    at: dict[int, list[int]] = {v: [] for v in nbr}
    touch = []
    for k, (a, b) in enumerate(edges):
        at[a].append(k)
        at[b].append(k)
        ua, ub = upper[a], upper[b]  # both non-empty: two lower ends
        touch.append(tuple({y: (y in ua) + (y in ub) for y in ua + ub}.items()) if ua and ub
                     else tuple([(y, 1) for y in ua + ub if y != a and y != b]))
    ix = _Index(edges, at, touch, upper, Xs)
    start = 0  # no edge before ``start`` can be added

    def try_add() -> bool:
        # An add only matches its ends and lowers counts of upper vertices
        # that see them, so an earlier edge it blocked stays blocked unless
        # the add matched the vertex that blocked it: an upper end ``y`` in
        # the edge's touch, so the edge is at a lower neighbour of ``y``.
        nonlocal start
        for k in range(start, len(edges)):
            u, v = edges[k]
            if u in matched or v in matched:
                continue
            for y, c in touch[k]:
                if free[y] == c and y not in matched:
                    break
            else:
                _set_matched(ix, matched, free, edges[k], True)
                matching.add(edges[k])
                start = k + 1
                for y in edges[k]:
                    if y in Ys:
                        for x in nbr[y]:
                            if x in Xs and at[x][0] < start:
                                start = at[x][0]
                return True
        return False

    def try_trade() -> bool:
        nonlocal start
        move = _best_trade(ix, matching, matched, free)
        if move is None:
            return False
        old, i, j = move
        start = 0
        _set_matched(ix, matched, free, old, False)
        matching.discard(old)
        for e in (edges[i], edges[j]):
            _set_matched(ix, matched, free, e, True)
            matching.add(e)
        return True

    while try_add() or try_trade():
        pass

    return _verify_two_level(H, Xs, Ys, frozenset(matching))


class _Index(NamedTuple):
    """The fixed part of one two-level search."""

    edges: list[Edge]  # every edge of the searched subgraph, in the order moves are tried
    at: dict[int, list[int]]  # indices of the edges at each vertex with one, ascending
    # per edge: (y, c) for each upper y off it that sees c of its lower ends
    touch: list[tuple[tuple[int, int], ...]]
    upper: dict[int, tuple[int, ...]]  # same keys; upper neighbours of a lower vertex, else ()
    lower: frozenset[int]


def _set_matched(ix: _Index, matched: set[int], free: dict[int, int], e: Edge, on: bool) -> None:
    (matched.update if on else matched.difference_update)(e)
    step = -1 if on else 1
    for y in ix.upper[e[0]] + ix.upper[e[1]]:
        free[y] += step


def _best_trade(ix: _Index, matching: set[Edge], matched: set[int],
                free: dict[int, int]) -> tuple[Edge, int, int] | None:
    """First legal trade from a state where no edge can be added, or ``None``.

    Returns ``(old, i, j)``: the first matched edge ``old`` in sorted order
    that touches the lower side and can be traded, and the smallest index
    pair ``i < j`` of edges that can replace it.  Only the candidate pairs
    of the module docstring are checked.  The state is left as it was.
    """
    edges, at, touch, upper, lower = ix
    olds = [e for e in sorted(matching) if e[0] in lower or e[1] in lower]
    if not olds:
        return None

    def lost(k: int) -> list[int]:
        # unmatched upper vertices that matching edge k would leave with no free lower neighbour
        return [y for y, c in touch[k] if free[y] == c and y not in matched]

    # every edge listed below is unmatched once old is, so only disjointness is checked
    losing: dict[int, list[int]] = {}  # upper vertex -> free edges that lose it
    single_at: dict[int, list[int]] = {}  # upper vertex -> free edges that lose only it
    for k, (u, v) in enumerate(edges):
        if u in matched or v in matched:
            continue
        ls = lost(k)
        for y in ls:
            losing.setdefault(y, []).append(k)
        if len(ls) == 1:
            single_at.setdefault(ls[0], []).append(k)

    for old in olds:
        # edges at an end of old whose other end is unmatched, and rescued edges
        special = {k for v in old for k in at[v]
                   if edges[k] != old and sum(edges[k]) - v not in matched}
        for y in upper[old[0]] + upper[old[1]]:
            special.update(losing.get(y, ()))
        if not special:
            continue
        _set_matched(ix, matched, free, old, False)
        pairs = set()
        for s in special:
            if lost(s):
                continue
            a, b = edges[s]
            for t in (*special, *single_at.get(a, ()), *single_at.get(b, ())):
                if a not in edges[t] and b not in edges[t]:
                    pairs.add((s, t) if s < t else (t, s))
        for i, j in sorted(pairs):
            e1, e2 = edges[i], edges[j]
            drop: dict[int, int] = dict(touch[i])
            for y, c in touch[j]:
                drop[y] = drop.get(y, 0) + c
            if not any(free[y] == c and y not in matched and y not in e1 and y not in e2
                       for y, c in drop.items()):
                _set_matched(ix, matched, free, old, True)
                return old, i, j
        _set_matched(ix, matched, free, old, True)
    return None


def _verify_two_level(H: Graph, X: frozenset[int], Y: frozenset[int],
                      matching: frozenset[Edge]) -> TwoLevelResult:
    """Check a terminal matching on its one private-witness map and return the result.

    The residual sets are read off the matching: ``Y`` minus the saturated
    vertices, and the free lower vertices that one of those sees.  Each
    residual lower vertex is listed with its two smallest witnesses, ascending.
    """
    adj = H.adj
    saturated = {v for e in matching for v in e}
    for u, v in matching:
        if v not in adj[u]:
            raise PostconditionError(f"matching edge ({u}, {v}) not in graph")
    if len(saturated) != 2 * len(matching):
        raise PostconditionError("matching edges share vertices")
    y_res = Y - saturated
    free_lower = X - saturated
    sees = {y: adj[y] & free_lower for y in y_res}
    # (1) every residual upper vertex sees a residual lower vertex
    for y, xs in sees.items():
        if not xs:
            raise PostconditionError(f"uncovered residual upper vertex {y}")
    x_res = frozenset().union(*sees.values())
    # (2) residual upper set is independent
    for y in y_res:
        if adj[y] & y_res:
            raise PostconditionError("residual upper set is not independent")
    # (3) two private witnesses each: private[x] holds the residual upper y
    # whose only free neighbour in X | Y is x, and by (2) those are sees[y]
    private: dict[int, list[int]] = {}
    for y, xs in sees.items():
        if len(xs) == 1:
            private.setdefault(next(iter(xs)), []).append(y)
    pairs = []
    for x in sorted(x_res):
        witnesses = sorted(private.get(x, ()))
        if len(witnesses) < 2:
            raise PostconditionError(f"residual vertex {x} has {len(witnesses)} private witnesses")
        pairs.append((x, (witnesses[0], witnesses[1])))
    # (4) each matched lower vertex can spoil at most one residual vertex: v
    # spoils x iff it sees all but at most one of private[x], at least one by (3)
    lower = X.intersection(saturated)
    spoils: dict[int, int] = {}
    for ws in private.values():
        seen: dict[int, int] = {}
        for y in ws:
            for v in adj[y] & lower:
                seen[v] = seen.get(v, 0) + 1
        for v, c in seen.items():
            if c >= len(ws) - 1:
                spoils[v] = spoils.get(v, 0) + 1
    if bad := [v for v, c in spoils.items() if c > 1]:
        v = min(bad)
        raise PostconditionError(f"matched vertex {v} spoils {spoils[v]} residual vertices")
    return TwoLevelResult(matching, x_res, y_res, tuple(pairs))


@dataclass(frozen=True)
class LMLevel:
    """One step of the level walk, in the vertex ids of the walked graph.

    ``matching`` is the local-search matching, ``witness_matching`` the extra
    edges pairing each residual vertex of the level above with its smallest
    private witness, and ``leftover`` the vertices of this level saturated by
    neither.
    """

    level: int
    matching: tuple[Edge, ...]
    witness_matching: tuple[Edge, ...]
    x_residual: tuple[int, ...]
    y_residual: tuple[int, ...]
    leftover: tuple[int, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "level": self.level,
            "M": [list(e) for e in self.matching],
            "M_prime": [list(e) for e in self.witness_matching],
            "X_residual": list(self.x_residual),
            "Y_residual": list(self.y_residual),
            "Z": list(self.leftover),
        }


@dataclass(frozen=True)
class LMTrace:
    """Full record of a level walk; ``bound`` is the sum of leftover sizes."""

    root: int
    depth: int
    levels: tuple[LMLevel, ...]
    bound: int

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "depth": self.depth,
            "bound": self.bound,
            "levels": [lv.to_json_dict() for lv in self.levels],
        }


def _is_horn_head(G: Graph, v: int) -> bool:
    return 0 <= v < G.n and sum(G.degree(y) == 1 for y in G.adj[v]) >= 2


def _horn_heads(G: Graph) -> list[int]:
    horns = snail_horns(G)
    if not horns:
        raise ValueError("graph has no snail horn; no valid root exists")
    return [h.head for h in horns]


def lm_run(G: Graph, root: int | None = None) -> LMTrace:
    """Compute the level-by-level deficiency bound from a snail-horn head.

    With ``root=None`` the smallest snail-horn head is used.  Processes the
    levelling from the deepest level up; at each level the two-level search
    runs on the previous level plus the still-unsaturated part of the current
    one.  Returns the full per-level trace.
    """
    if root is None:
        root = _horn_heads(G)[0]
    elif not _is_horn_head(G, root):
        raise ValueError(f"root {root} is not a snail-horn head")
    L = levelling(G, root)
    records: list[LMLevel] = []
    upper_saturated: frozenset[int] = frozenset()
    for i in range(L.N, 0, -1):
        res = two_level_matching(G, L.levels[i - 1], L.levels[i] - upper_saturated)
        m_edges = tuple(sorted(res.matching))
        x_res = tuple(sorted(res.x_residual))
        y_res = tuple(sorted(res.y_residual))
        w_edges = tuple(sorted((min(x, y), max(x, y)) for x, (y, _) in res.private))
        upper_saturated = frozenset(v for e in m_edges + w_edges for v in e)
        leftover = tuple(sorted(set(y_res) - upper_saturated))
        records.append(LMLevel(i, m_edges, w_edges, x_res, y_res, leftover))
    return LMTrace(root, L.N, tuple(records), sum(len(r.leftover) for r in records))


def lm_root_sweep(G: Graph) -> list[tuple[int, int]]:
    """Bound from every snail-horn head, as ``(root, bound)`` pairs, roots ascending."""
    return [(r, lm_run(G, r).bound) for r in _horn_heads(G)]


class TraceViolation(NamedTuple):
    """A failed guarantee of a level walk, tagged with the rule and level."""

    rule: str
    level: int | None
    message: str

    def __str__(self) -> str:
        where = f" at level {self.level}" if self.level is not None else ""
        return f"[{self.rule}]{where}: {self.message}"


def validate_trace(G: Graph, trace: LMTrace, profile: StructureProfile) -> list[TraceViolation]:
    """Check a level walk against every guarantee the theory promises.

    ``profile`` is read for alpha_l only, so ``structure_profile(G, 0)``
    will do.  An empty return value means the trace is fully consistent.

    The level rules need two-level rules (1)-(3), not (4).  A leftover vertex
    at level ``i`` sees a residual lower ``x`` (1) and is not the witness
    matched to ``x``, distinct by (3).  Leftover bounds: ``x``'s residual upper
    neighbours are independent (2), also with its BFS parent, which sees no
    level-``i`` vertex, so ``x`` sees at most ``alpha_l - 1`` leftover vertices
    at the root and ``alpha_l - 2`` below; the cap counts the distinct ids of
    ``X_residual`` on level ``i - 1``, and residual-level flags any other.
    clean-level: ``x``'s two witnesses (3) are non-adjacent (2) children.
    admitting-membership: from a snail-horn head, a level ``i >= 2`` that is
    not clean holds an induced bone of index ``i``: a shortest root path to
    some ``u`` at level ``i - 1`` (induced, ``i`` vertices), the root's two
    beards, which see only the root, and two non-adjacent children of ``u``,
    which see no other path vertex, as those lie at level ``i - 2`` or lower.
    So only a leftover on a clean level, which clean-level flags, or a root
    that is no horn head takes a bone search.
    soundness: with no matching-edges or matching-disjoint hit, the ``M`` and
    ``M'`` edges form one matching of ``G`` saturating ``s`` vertices, so
    ``kd(G) <= G.n - s``, and kd is computed only for a bound below that.
    """
    L = levelling(G, trace.root)
    if trace.depth != L.N or [r.level for r in trace.levels] != list(range(L.N, 0, -1)):
        raise ValueError("trace does not match the levelling of this graph from its root")

    out: list[TraceViolation] = []
    alpha = profile.alpha_l

    seen: set[int] = set()
    for u, v in (e for rec in trace.levels for e in (*rec.matching, *rec.witness_matching)):
        if not (0 <= u < G.n and 0 <= v < G.n and v in G.adj[u]):
            out.append(TraceViolation("matching-edges", None, f"({u}, {v}) is not an edge"))
        if u in seen or v in seen:
            out.append(TraceViolation("matching-disjoint", None, f"({u}, {v}) reuses a vertex"))
        seen.update((u, v))

    covered = seen | {v for rec in trace.levels for v in rec.leftover}
    missing, outside = set(range(G.n)) - covered, covered - set(range(G.n))
    if missing or outside:
        gaps = [f"vertices {sorted(missing)} unaccounted for"] if missing else []
        gaps += [f"ids {sorted(outside)} outside the graph"] if outside else []
        out.append(TraceViolation("coverage", None, "; ".join(gaps)))

    for rec in trace.levels:
        z = len(rec.leftover)
        lower = L.levels[rec.level - 1]
        stray = sorted(set(rec.x_residual) - lower)
        if stray:
            out.append(TraceViolation(
                "residual-level", rec.level,
                f"X_residual ids {stray} are not at level {rec.level - 1}"))
        if rec.level == 1:
            if z > alpha - 1:
                out.append(TraceViolation(
                    "first-level-leftover", 1,
                    f"|Z| = {z} exceeds alpha_l - 1 = {alpha - 1}"))
        else:
            cap = (alpha - 2) * len(lower.intersection(rec.x_residual))
            if z > cap:
                out.append(TraceViolation(
                    "leftover-vs-residual", rec.level,
                    f"|Z| = {z} exceeds (alpha_l - 2)|X| = {cap}"))
        clean = z > 0 and is_clean_level(L, rec.level)
        if clean:
            out.append(TraceViolation("clean-level", rec.level, f"clean level has |Z| = {z}"))
        if (z > 0 and rec.level != 1 and (clean or not _is_horn_head(G, trace.root))
                and find_induced_bone(G, rec.level) is None):
            out.append(TraceViolation("admitting-membership", rec.level,
                                      f"leftover at level {rec.level} outside the admitting set"))

    if trace.bound < G.n - len(seen) or any(v.rule.startswith("matching-") for v in out):
        exact = deficiency(G)
        if trace.bound < exact:
            out.append(TraceViolation(
                "soundness", None,
                f"bound {trace.bound} is below the exact deficiency {exact}"))
    if trace.bound != sum(len(r.leftover) for r in trace.levels):
        out.append(TraceViolation("bound-sum", None, "bound does not equal the leftover total"))
    return out
