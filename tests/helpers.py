"""Independent test oracles.

Everything here is deliberately written from scratch with a different
algorithmic approach than the package (plain BFS, subset scans, permutation
backtracking) so that agreement between the two is meaningful evidence of
correctness rather than a tautology.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, permutations
from math import factorial
from typing import Any

from bonematch import (
    BoneEmbedding,
    CanonicalForm,
    CheckResult,
    Graph,
    GuardExceededError,
    LMLevel,
    LMTrace,
    PendantReduction,
    PostconditionError,
    TheoremSpec,
    TwoLevelResult,
    admitting_set,
    build_graph,
    check_theorem,
    clique_number,
    deficiency,
    induced_subgraph,
    is_connected,
    is_deficiency_critical,
    levelling,
    local_independence_number,
    snail_horns,
)


# ---------------------------------------------------------------------------
# stdlib blossom


def blossom_reference(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum-matching size oracle above the reach of the brute force, in the stdlib.

    A frozen copy of the blossom before its searches kept a reached list:
    every search resets all n vertices and every contraction scans all n.
    The package's blossom may return another maximum matching, so tests
    compare the size of its ``match`` list with this one, not the list.
    """
    # Classic O(V^3) blossom search: repeatedly grow an alternating BFS tree
    # from each exposed vertex, contracting odd cycles onto their base.
    match = [-1] * n
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
    in_blossom = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        for i in range(n):
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # Odd cycle: contract everything onto the common base.
                    cur = lca(v, to)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
                        queue.append(match[to])
        return -1

    for root in range(n):
        if match[root] != -1:
            continue
        finish = find_augmenting(root)
        v = finish
        while v != -1:
            pv = parent[v]
            nxt = match[pv]
            match[v] = pv
            match[pv] = v
            v = nxt
    return match


# ---------------------------------------------------------------------------
# deterministic random instance builders (independent of bonematch.harness)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Random labelled tree: attach each new vertex to a uniform earlier one."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return build_graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.15) -> Graph:
    """Random tree plus each remaining pair independently with prob ``extra``."""
    tree = random_tree(rng, n)
    edges = set(tree.edges())
    for u, v in combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < extra:
            edges.add((u, v))
    return build_graph(n, sorted(edges))


def random_connected_fallback_reference(n: int, edge_prob: float,
                                        rng: random.Random) -> Graph:
    """The spanning-tree fallback of ``harness.random_connected`` as it stood
    when it oriented, deduplicated and sorted its edges itself, run from the
    random state in which the fallback starts."""
    pairs = list(combinations(range(n), 2))
    order = list(range(n))
    rng.shuffle(order)
    edges_set = set()
    for i in range(1, n):
        j = rng.randrange(i)
        a, b = order[i], order[j]
        edges_set.add((a, b) if a < b else (b, a))
    for e in pairs:
        if rng.random() < edge_prob:
            edges_set.add(e)
    return build_graph(n, sorted(edges_set))


def layered_graph(rng: random.Random, n: int):
    """Sparse random graph with a fixed BFS level profile from its root.

    Levels 0..9 hold 1, 3, 9 vertices and then equal shares of the rest;
    each vertex below the root gets a random parent one level up, and
    ``0.15 * n`` more edges join vertices of the same or adjacent levels.
    Two pendants on the root make it a snail-horn head.  Vertex ids are a
    random permutation.  Returns ``(G, root)``.
    """
    body = n - 2
    sizes = [1, 3, 9]
    depth = 10
    rest, wide = body - sum(sizes), depth - len(sizes)
    sizes += [rest // wide + (1 if k < rest % wide else 0) for k in range(wide)]
    levels, start = [], 0
    for s in sizes:
        levels.append(range(start, start + s))
        start += s
    edges = {(rng.choice(levels[k - 1]), v) for k in range(1, depth) for v in levels[k]}
    target = len(edges) + int(0.15 * n)
    while len(edges) < target:
        k = rng.randrange(1, depth)
        a, b = rng.choice(levels[k]), rng.choice(levels[k - rng.randrange(2)])
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges |= {(0, body), (0, body + 1)}
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)), perm[0]


# ---------------------------------------------------------------------------
# plain-BFS levelling oracle


def bfs_levels(G: Graph, root: int) -> dict[int, int]:
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in sorted(G.adj[u]):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


# ---------------------------------------------------------------------------
# matching oracles


def is_valid_matching(G: Graph, edges) -> bool:
    seen: set[int] = set()
    for u, v in edges:
        if u == v or not G.has_edge(u, v):
            return False
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def matching_number_subsets(G: Graph) -> int:
    """Maximum matching size by scanning edge subsets (tiny graphs only)."""
    edge_list = G.edges()
    best = 0
    for size in range(len(edge_list), 0, -1):
        if size <= best:
            break
        for subset in combinations(edge_list, size):
            used: set[int] = set()
            ok = True
            for u, v in subset:
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                best = size
                break
    return best


def reduce_pendants_reference(G: Graph) -> PendantReduction:
    """``matching.reduce_pendants`` as it stood before its pendant heap: every
    removal re-sorts and rescans all remaining vertices for the smallest pendant."""
    adj = {v: set(G.adj[v]) for v in range(G.n)}
    removed: list[tuple[int, int]] = []
    while True:
        pend = next((y for y in sorted(adj) if len(adj[y]) == 1), None)
        if pend is None:
            break
        (sup,) = adj[pend]
        for w in adj[sup]:
            if w != pend:
                adj[w].discard(sup)
        del adj[pend]
        del adj[sup]
        removed.append((sup, pend))
    keep = sorted(adj)
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u in keep for v in adj[u] if u < v]
    reduced = build_graph(len(keep), edges, name=G.name)
    isolated = sum(1 for v in keep if not adj[v])
    return PendantReduction(reduced, tuple(keep), tuple(removed), isolated)


# ---------------------------------------------------------------------------
# local independence oracle


def has_independent_neighbors(G: Graph, v: int, t: int) -> bool:
    """True when some ``t`` neighbors of ``v`` are pairwise nonadjacent."""
    nbrs = sorted(G.adj[v])
    for subset in combinations(nbrs, t):
        chosen = set(subset)
        if all(not (G.adj[u] & chosen) for u in subset):
            return True
    return False


# ---------------------------------------------------------------------------
# generic isomorphism + bone detection by subset scan


def are_isomorphic(G: Graph, H: Graph) -> bool:
    if G.n != H.n or G.edge_count() != H.edge_count():
        return False
    if sorted(len(a) for a in G.adj) != sorted(len(a) for a in H.adj):
        return False
    hv_by_deg: dict[int, list[int]] = {}
    for v in range(H.n):
        hv_by_deg.setdefault(len(H.adj[v]), []).append(v)

    order = sorted(range(G.n), key=lambda v: -len(G.adj[v]))
    assign: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        g = order[k]
        for h in hv_by_deg.get(len(G.adj[g]), []):
            if h in used:
                continue
            ok = True
            for g2, h2 in assign.items():
                if (g2 in G.adj[g]) != (h2 in H.adj[h]):
                    ok = False
                    break
            if ok:
                assign[g] = h
                used.add(h)
                if extend(k + 1):
                    return True
                del assign[g]
                used.discard(h)
        return False

    return extend(0)


def reference_bone(i: int) -> Graph:
    """Path on ``i`` vertices with two pendant vertices on each end."""
    edges = [(k, k + 1) for k in range(i - 1)]
    edges += [(0, i), (0, i + 1), (i - 1, i + 2), (i - 1, i + 3)]
    return build_graph(i + 4, edges)


def induced_on(G: Graph, subset) -> Graph:
    verts = sorted(subset)
    pos = {v: k for k, v in enumerate(verts)}
    edges = [
        (pos[u], pos[v]) for u, v in combinations(verts, 2) if G.has_edge(u, v)
    ]
    return build_graph(len(verts), edges)


def induced_subgraph_reference(G: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """``graphs.induced_subgraph`` as first written: filter the sorted edge list."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < G.n):
        raise ValueError(f"vertex set not contained in 0..{G.n - 1}")
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in G.edges() if u in index and v in index]
    return build_graph(len(vs), edges, name=G.name), tuple(vs)


def has_induced_bone_subsets(G: Graph, i: int) -> bool:
    bone = reference_bone(i)
    if i + 4 > G.n:
        return False
    for subset in combinations(range(G.n), i + 4):
        if are_isomorphic(induced_on(G, subset), bone):
            return True
    return False


def admitting_set_by_path_enum(G: Graph, cap: int | None = None) -> set[int]:
    """Bone indices by enumerating induced paths between candidate ends.

    A bone end always has three pairwise-nonadjacent neighbours (two pendants
    plus the path), so only such vertices can terminate the spine.  For each
    induced path between two candidates we look for a pendant quadruple that
    is disjoint from and nonadjacent to the rest of the figure.
    """
    cap = G.n - 4 if cap is None else min(cap, G.n - 4)
    ends = [v for v in range(G.n) if has_independent_neighbors(G, v, 3)]
    endset = set(ends)
    found: set[int] = set()

    def pendant_pair_exists(u: int, w: int, pathset: set[int]) -> bool:
        au = [
            x
            for x in sorted(G.adj[u])
            if x not in pathset and not (G.adj[x] & (pathset - {u}))
        ]
        aw = [
            x
            for x in sorted(G.adj[w])
            if x not in pathset and not (G.adj[x] & (pathset - {w}))
        ]
        for p1, p2 in combinations(au, 2):
            if G.has_edge(p1, p2):
                continue
            for q1, q2 in combinations(aw, 2):
                if {q1, q2} & {p1, p2} or G.has_edge(q1, q2):
                    continue
                if any(G.has_edge(a, b) for a in (p1, p2) for b in (q1, q2)):
                    continue
                return True
        return False

    def dfs(path: list[int], pathset: set[int]) -> None:
        head = path[-1]
        if len(path) >= 2 and head in endset and len(path) not in found:
            if pendant_pair_exists(path[0], head, pathset):
                found.add(len(path))
        if len(path) >= cap:
            return
        interior = pathset - {head}
        for nxt in sorted(G.adj[head]):
            if nxt in pathset or (G.adj[nxt] & interior):
                continue
            path.append(nxt)
            pathset.add(nxt)
            dfs(path, pathset)
            pathset.discard(nxt)
            path.pop()

    for u in ends:
        dfs([u], {u})
    return {i for i in found if 2 <= i <= cap}


def bone_scan_reference(G: Graph, wanted: set[int]) -> tuple[dict[int, BoneEmbedding], int]:
    """The bone scan as it stood before it closed spines in one direction only
    and stopped early: ``({index: first embedding}, DFS nodes)``, in the
    order the indices were found.  It closes every spine of a wanted length
    at both ends and has no node budget."""
    if G.n - 4 in wanted and G.edge_count() != G.n - 1:
        wanted = wanted - {G.n - 4}
    found: dict[int, BoneEmbedding] = {}
    if not wanted:
        return found, 0
    masks = G.adjacency_masks()
    nbrs = [sorted(s) for s in G.adj]

    def close(path: list[int], body: int, left: int) -> BoneEmbedding | None:
        tail = path[-1]
        inner = body ^ (1 << tail)
        right = [w for w in nbrs[tail] if not (body >> w & 1 or masks[w] & inner)]
        if len(right) < 2:
            return None
        for a1, a2 in combinations([w for w in nbrs[path[0]] if left >> w & 1], 2):
            if masks[a1] >> a2 & 1:
                continue
            blocked = masks[a1] | masks[a2]
            for b1, b2 in combinations(right, 2):
                if not (masks[b1] >> b2 & 1 or blocked >> b1 & 1 or blocked >> b2 & 1):
                    return BoneEmbedding(tuple(path), (a1, a2), (b1, b2))
        return None

    missing = set(wanted)
    top = max(missing)
    nodes = 0
    for v0 in range(G.n):
        if len(nbrs[v0]) < 3:
            continue
        path, body, lefts, todo = [v0], 1 << v0, [masks[v0]], [iter(nbrs[v0])]
        while todo:
            inner = body ^ (1 << path[-1])
            for w in todo[-1]:
                bit = 1 << w
                left = lefts[-1] & ~(masks[w] | bit)
                if body & bit or masks[w] & inner or left.bit_count() < 2:
                    continue
                nodes += 1
                path.append(w)
                body |= bit
                if len(path) in missing:
                    emb = close(path, body, left)
                    if emb is not None:
                        found[emb.index] = emb
                        missing.discard(emb.index)
                        if not missing:
                            return found, nodes
                        top = max(missing)
                if len(path) < top:
                    lefts.append(left)
                    todo.append(iter(nbrs[w]))
                    break
                path.pop()
                body ^= bit
            else:
                todo.pop()
                lefts.pop()
                body ^= 1 << path.pop()
    return found, nodes


def close_reference(masks: list[int], path: list[int], left: int,
                    right: int) -> BoneEmbedding | None:
    """The bone scan's close as it stood before it walked the candidate
    masks: the first left pair, then the first right pair, in
    ``combinations`` order over the sorted candidates."""
    right_list = [v for v in range(len(masks)) if right >> v & 1]
    for a1, a2 in combinations([v for v in range(len(masks)) if left >> v & 1], 2):
        if masks[a1] >> a2 & 1:
            continue
        blocked = masks[a1] | masks[a2]
        for b1, b2 in combinations(right_list, 2):
            if not (masks[b1] >> b2 & 1 or blocked >> b1 & 1 or blocked >> b2 & 1):
                return BoneEmbedding(tuple(path), (a1, a2), (b1, b2))
    return None


def tree_admitting_oracle(T: Graph) -> set[int]:
    """For a tree: bone indices are path distances between branch vertices."""
    out: set[int] = set()
    branch = [v for v in range(T.n) if len(T.adj[v]) >= 3]
    for u in branch:
        dist = bfs_levels(T, u)
        for w in branch:
            if w != u and dist[w] + 1 >= 2:
                out.add(dist[w] + 1)
    return out


# ---------------------------------------------------------------------------
# labelled sweep: every connected labelled graph, one check each


def labelled_sweep(n_max: int, spec):
    """Check ``spec`` on every connected labelled graph on ``1..n_max`` vertices.

    Returns the labelled counts under their ``SweepReport.to_json_dict``
    keys, and each violating graph with its result JSON.
    """
    counts = {"connected": 0, "checked": 0, "hypotheses_met": 0, "vacuous": 0,
              "indeterminate": 0, "max_deficiency_met": None}
    violations = []
    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            G = build_graph(n, [pairs[i] for i in range(len(pairs)) if code >> i & 1])
            if len(bfs_levels(G, 0)) < n:
                continue
            counts["connected"] += 1
            counts["checked"] += 1
            result = check_theorem(G, spec)
            if result.verdict == "indeterminate":
                counts["indeterminate"] += 1
            elif result.verdict == "vacuous":
                counts["vacuous"] += 1
            else:
                counts["hypotheses_met"] += 1
                kd, top = result.actual_deficiency, counts["max_deficiency_met"]
                if kd is not None and (top is None or kd > top):
                    counts["max_deficiency_met"] = kd
                if result.verdict == "fail":
                    violations.append((G, result.to_json_dict()))
    return counts, violations


# ---------------------------------------------------------------------------
# independent postcondition inspection for two-level matchings


def check_two_level_postconditions(H: Graph, X, Y, result) -> list[str]:
    """Re-derive every guaranteed property of a two-level matching from the
    graph alone and report human-readable discrepancies (empty == all good).
    """
    errs: list[str] = []
    X, Y = set(X), set(Y)
    mate: dict[int, int] = {}
    for u, v in result.matching:
        if not H.has_edge(u, v):
            errs.append(f"matching uses non-edge {(u, v)}")
        if u in mate or v in mate:
            errs.append(f"matching overlaps at {(u, v)}")
        mate[u] = v
        mate[v] = u

    y_m = {y for y in Y if y not in mate}
    x_m = {x for x in X if x not in mate and H.adj[x] & y_m}
    if set(result.y_residual) != y_m:
        errs.append("reported Y residual differs from recomputation")
    if set(result.x_residual) != x_m:
        errs.append("reported X residual differs from recomputation")

    for y in sorted(y_m):
        if not (H.adj[y] & x_m):
            errs.append(f"(1) residual {y} has no residual X neighbor")
    for a in sorted(y_m):
        for b in sorted(y_m):
            if a < b and H.has_edge(a, b):
                errs.append(f"(2) residual Y vertices {a},{b} adjacent")

    def private_to(x: int, avoiding: int | None = None) -> set[int]:
        out = set()
        for y in y_m:
            if x not in H.adj[y]:
                continue
            if avoiding is not None and avoiding in H.adj[y]:
                continue
            if H.adj[y] & x_m == {x}:
                out.add(y)
        return out

    pmap = dict(result.private)
    for x in sorted(x_m):
        priv = private_to(x)
        if len(priv) < 2:
            errs.append(f"(3) {x} has only {len(priv)} private witnesses")
        reported = pmap.get(x)
        if reported is None:
            errs.append(f"(3) no witness pair reported for {x}")
        elif not set(reported) <= priv:
            errs.append(f"(3) reported witnesses for {x} are not private")

    for v in sorted(set(mate) & X):
        spoiled = [x for x in sorted(x_m) if len(private_to(x, avoiding=v)) < 2]
        if len(spoiled) > 1:
            errs.append(f"(4) matched {v} spoils {len(spoiled)} residuals")
    return errs


# ---------------------------------------------------------------------------
# reference two-level local search: the plain move loop with a full coverage
# rescan per candidate move and every pair of free edges per trade


def two_level_matching_reference(H: Graph, X, Y) -> TwoLevelResult:
    """The two-level local search as first written, for differential tests.

    Same moves in the same order as ``bonematch.lm.two_level_matching``, but
    every candidate move re-checks coverage over all upper vertices.  Input
    validation and the runtime postcondition check are left to the package.
    """
    Xs, Ys = frozenset(X), frozenset(Y)
    adj = H.adj
    edges = H.edges()
    matched: dict[int, int] = {}
    matching: set[tuple[int, int]] = set()

    def coverage_ok() -> bool:
        # every unmatched upper vertex must keep an unmatched lower neighbour
        return all(
            any(w in Xs and w not in matched for w in adj[y])
            for y in Ys if y not in matched
        )

    def try_add() -> bool:
        for u, v in edges:
            if u in matched or v in matched:
                continue
            matched[u] = v
            matched[v] = u
            if coverage_ok():
                matching.add((u, v))
                return True
            del matched[u]
            del matched[v]
        return False

    def try_trade() -> bool:
        for old in sorted(matching):
            if not (old[0] in Xs or old[1] in Xs):
                continue
            del matched[old[0]]
            del matched[old[1]]
            free_edges = [e for e in edges if e[0] not in matched and e[1] not in matched]
            for e1, e2 in combinations(free_edges, 2):
                if len({e1[0], e1[1], e2[0], e2[1]}) != 4:
                    continue
                for a, b in (e1, e2):
                    matched[a] = b
                    matched[b] = a
                if coverage_ok():
                    matching.discard(old)
                    matching.add(e1)
                    matching.add(e2)
                    return True
                for a, b in (e1, e2):
                    del matched[a]
                    del matched[b]
            matched[old[0]] = old[1]
            matched[old[1]] = old[0]
        return False

    while try_add() or try_trade():
        pass

    y_res = frozenset(y for y in Ys if y not in matched)
    x_res = frozenset(x for x in Xs if x not in matched and adj[x] & y_res)
    private = []
    for x in sorted(x_res):
        witnesses = sorted(
            y for y in y_res
            if x in adj[y] and all(w in matched for w in adj[y] if w != x)
        )
        private.append((x, (witnesses[0], witnesses[1])))
    return TwoLevelResult(frozenset(matching), x_res, y_res, tuple(private))


def verify_two_level_frozen(H: Graph, X: frozenset[int], Y: frozenset[int],
                            res: TwoLevelResult) -> None:
    """The two-level postcondition check as it stood with a triple loop for
    rule (4), kept to pin the package's check to the same outcomes.

    Verbatim but for reading the witness pairs as ``dict(res.private)``.
    """
    adj = H.adj
    saturated = {v for e in res.matching for v in e}
    for u, v in res.matching:
        if v not in adj[u]:
            raise PostconditionError(f"matching edge ({u}, {v}) not in graph")
    if len(saturated) != 2 * len(res.matching):
        raise PostconditionError("matching edges share vertices")
    # (1) every residual upper vertex sees a residual lower vertex
    for y in res.y_residual:
        if not (adj[y] & res.x_residual):
            raise PostconditionError(f"uncovered residual upper vertex {y}")
    # (2) residual upper set is independent
    for y in res.y_residual:
        if adj[y] & res.y_residual:
            raise PostconditionError("residual upper set is not independent")
    # (3) two private witnesses each, checked against the full residual graph
    live = (X | Y) - saturated
    pmap = dict(res.private)
    if set(pmap) != set(res.x_residual):
        raise PostconditionError("private witness map keys do not match the residual set")
    for x, (y1, y2) in pmap.items():
        for y in (y1, y2):
            if y not in res.y_residual or (adj[y] & live) != {x}:
                raise PostconditionError(f"witness {y} of {x} is not private")
    # (4) each matched lower vertex can spoil at most one residual vertex
    for v in sorted(v for v in saturated if v in X):
        spoiled = 0
        for x in res.x_residual:
            surviving = [
                y for y in res.y_residual
                if (adj[y] & live) == {x} and v not in adj[y]
            ]
            if len(surviving) < 2:
                spoiled += 1
        if spoiled > 1:
            raise PostconditionError(f"matched vertex {v} spoils {spoiled} residual vertices")


def lm_run_reference(G: Graph, root: int) -> LMTrace:
    """The level walk as it stood when each level pair was a relabelled subgraph.

    Each step builds ``induced_subgraph`` of the two levels, relabelled to
    ``0..k-1``, runs ``two_level_matching_reference`` and the frozen
    postcondition check on it, and translates every output back through the
    subgraph's vertex map, so a ``PostconditionError`` names relabelled ids.
    The root is given: no snail-horn head is chosen or checked.
    """
    L = levelling(G, root)
    records: list[LMLevel] = []
    upper_saturated: frozenset[int] = frozenset()
    for i in range(L.N, 0, -1):
        lower = L.levels[i - 1]
        upper = L.levels[i] - upper_saturated
        H, vmap = induced_subgraph(G, lower | upper)
        X = frozenset(k for k, v in enumerate(vmap) if v in lower)
        Y = frozenset(k for k, v in enumerate(vmap) if v in upper)
        res = two_level_matching_reference(H, X, Y)
        verify_two_level_frozen(H, X, Y, res)
        # vmap is increasing, so a matching edge (a, b) of H with a < b stays ordered
        m_edges = tuple(sorted((vmap[a], vmap[b]) for a, b in res.matching))
        x_res = tuple(sorted(vmap[x] for x in res.x_residual))
        y_res = tuple(sorted(vmap[y] for y in res.y_residual))
        w_edges = tuple(sorted(tuple(sorted((vmap[x], vmap[y]))) for x, (y, _) in res.private))
        upper_saturated = frozenset(v for e in m_edges + w_edges for v in e)
        leftover = tuple(sorted(set(y_res) - upper_saturated))
        records.append(LMLevel(i, m_edges, w_edges, x_res, y_res, leftover))
    return LMTrace(root, L.N, tuple(records), sum(len(r.leftover) for r in records))


# ---------------------------------------------------------------------------
# reference criticality: the matching size of every one of the 2^n vertex
# sets, then a scan over all masks, as the exhaustive scans stood before they
# visited connected vertex sets only


def _matching_size_table(masks: list[int], n: int) -> list[int]:
    # f[mask] = maximum matching size of the induced subgraph on `mask`,
    # filled bottom-up by branching at the lowest vertex of the mask.
    f = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        best = f[rest]
        nb = masks[v] & rest
        while nb:
            u = nb & -nb
            cand = 1 + f[rest ^ u]
            if cand > best:
                best = cand
            nb ^= u
        f[mask] = best
    return f


def _mask_connected(masks: list[int], mask: int) -> bool:
    if mask == 0:
        return False
    comp = mask & -mask
    frontier = comp
    while frontier:
        grow = 0
        f = frontier
        while f:
            b = f & -f
            grow |= masks[b.bit_length() - 1]
            f &= f - 1
        frontier = grow & mask & ~comp
        comp |= frontier
    return comp == mask


def _lex_less(a: int, b: int) -> bool:
    # Whether the sorted vertex tuple of mask a precedes that of mask b (a != b).
    # Both agree below d, the lowest differing bit; the mask holding d comes
    # first unless the other one stops there (then it is a prefix).
    d = (a ^ b) & -(a ^ b)
    if a & d:
        return bool(b & -(d << 1))
    return not (a & -(d << 1))


def _mask_tuple(mask: int) -> tuple[int, ...] | None:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1) or None


def criticality_table_reference(G: Graph):
    """``(kd, witness)`` of ``G`` from one 2^n table: ``witness`` is the
    vertex tuple ``is_deficiency_critical`` reports (``None`` when critical).
    The mask loop is the package's as it stood; kd comes from the table, not
    the blossom."""
    masks = G.adjacency_masks()
    f = _matching_size_table(masks, G.n)
    full = (1 << G.n) - 1
    kd = G.n - 2 * f[full]
    best = 0
    for mask in range(1, full):
        if (mask.bit_count() - 2 * f[mask] >= kd and (not best or _lex_less(mask, best))
                and _mask_connected(masks, mask)):
            best = mask
    return kd, _mask_tuple(best)


# ---------------------------------------------------------------------------
# the canonical form and class generation as they stood before automorphism
# pruning: every leaf of the search tree is visited, and every non-empty
# neighbourhood of every class is canonicalised


_CANON_BUDGET_REFERENCE = 200_000


def _canon_refine(adj: list[int], cells: list[list[int]], queue: list[int]) -> list[list[int]]:
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


def _canon_children(adj: list[int], cells: list[list[int]], t: int):
    head, cell, tail = cells[:t], cells[t], cells[t + 1:]
    for v in cell:
        rest = [u for u in cell if u != v]
        yield _canon_refine(adj, head + [[v], rest] + tail, [1 << v])


def canonical_form_reference(G: Graph) -> CanonicalForm:
    """Canonical code and automorphism count of ``G`` from the unpruned tree:
    ``|Aut(G)|`` is the number of leaves that reach the canonical code."""
    n = G.n
    adj = G.adjacency_masks()
    budget = _CANON_BUDGET_REFERENCE
    root = _canon_refine(adj, [list(range(n))], [(1 << n) - 1]) if n else []
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
            stack.append(_canon_children(adj, cells, t))
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


def connected_classes_reference(n_max: int):
    """``(G, labelled)`` once per class of connected graphs on ``1..n_max``
    vertices, in the order ``harness._connected_classes`` yields them."""
    forms = [canonical_form_reference(build_graph(1, []))]
    for n in range(1, n_max + 1):
        if n > 1:
            new = n - 1
            found: dict[int, CanonicalForm] = {}
            for H in graphs:
                for nbrs in range(1, 1 << new):
                    adj = tuple(a | {new} if nbrs >> v & 1 else a for v, a in enumerate(H.adj))
                    adj += (frozenset(v for v in range(new) if nbrs >> v & 1),)
                    form = canonical_form_reference(Graph(n, adj))
                    found.setdefault(form.code, form)
            forms = [found[code] for code in sorted(found)]
        graphs = [form.graph() for form in forms]
        for G, form in zip(graphs, forms):
            yield G, factorial(n) // form.automorphisms


# ---------------------------------------------------------------------------
# reference theorem checks: one function per check, dispatched by an if chain,
# as they stood before the checks became one table


def _need(spec: TheoremSpec, name: str) -> int:
    value = getattr(spec, name)
    if value is None:
        raise ValueError(f"{spec.id} requires parameter {name}")
    return value


def _auto_n(spec: TheoremSpec, alpha_l: int) -> int:
    # The star-freeness parameter defaults to the smallest legal value that
    # the graph satisfies, so sweeps can run without per-graph parameters.
    return spec.n if spec.n is not None else max(alpha_l + 1, 4)


def _finish(spec: TheoremSpec, hyps: list[tuple[str, bool]], bound: int | None,
            actual: int | None, ok_when_met: bool, note: str = "",
            details: dict[str, Any] | None = None) -> CheckResult:
    met = all(v for _, v in hyps)
    return CheckResult(
        theorem=spec.id,
        hypotheses=tuple(hyps),
        verdict="vacuous" if not met else "pass" if ok_when_met else "fail",
        bound_value=bound,
        actual_deficiency=actual,
        note=note,
        details=tuple(sorted((details or {}).items())),
    )


def _check_clawfree(G: Graph, spec: TheoremSpec) -> CheckResult:
    alpha_l = local_independence_number(G)
    hyps = [("connected", is_connected(G)), ("alpha_l < 3", alpha_l < 3)]
    actual = deficiency(G)
    return _finish(spec, hyps, 1, actual, actual <= 1, details={"alpha_l": alpha_l})


def _check_bonefree(G: Graph, spec: TheoremSpec) -> CheckResult:
    alpha_l = local_independence_number(G)
    n = _auto_n(spec, alpha_l)
    admitting = admitting_set(G)
    hyps = [
        ("connected", is_connected(G)),
        ("n > 3", n > 3),
        ("alpha_l < n", alpha_l < n),
        ("no bones", not admitting),
    ]
    actual = deficiency(G)
    return _finish(spec, hyps, n - 2, actual, actual <= n - 2,
                   details={"alpha_l": alpha_l, "n": n, "admitting": sorted(admitting)})


def _pair_sum_condition(admitting: frozenset[int], m: int) -> bool:
    high = [a for a in admitting if a >= m]
    for p in high:
        for q in high:
            if p + q + 1 in admitting or p + q - 1 in admitting:
                return False
    return True


def _check_main(G: Graph, spec: TheoremSpec, m: int) -> CheckResult:
    if m < 3 or m % 2 == 0:
        raise ValueError(f"{spec.id} needs odd m >= 3, got {m}")
    alpha_l = local_independence_number(G)
    n = _auto_n(spec, alpha_l)
    admitting = admitting_set(G)
    hyps = [
        ("connected", is_connected(G)),
        ("n > 3", n > 3),
        ("alpha_l < n", alpha_l < n),
        ("admitting all odd", all(a % 2 == 1 for a in admitting)),
        ("no p+q+-1 in admitting", _pair_sum_condition(admitting, m)),
    ]
    bound = 2 * n - 5 if m == 3 else m * (n - 3) * (n - 2) ** ((m - 3) // 2) + 1
    actual = deficiency(G)
    return _finish(spec, hyps, bound, actual, actual <= bound,
                   details={"alpha_l": alpha_l, "n": n, "m": m, "admitting": sorted(admitting)})


def _check_two_odd(G: Graph, spec: TheoremSpec, delta: int) -> CheckResult:
    p = _need(spec, "p")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"{spec.id} needs odd p >= 3, got {p}")
    q = 2 * p + delta
    alpha_l = local_independence_number(G)
    n = _auto_n(spec, alpha_l)
    admitting = admitting_set(G)
    hyps = [
        ("connected", is_connected(G)),
        ("n > 3", n > 3),
        ("alpha_l < n", alpha_l < n),
        (f"admitting within {{{p},{q}}}", admitting <= {p, q}),
    ]
    bound = 3 * n - 8 if delta == 1 else n * n - 3 * n + 1
    actual = deficiency(G)
    return _finish(spec, hyps, bound, actual, actual <= bound,
                   details={"alpha_l": alpha_l, "n": n, "p": p, "admitting": sorted(admitting)})


def _check_single_even(G: Graph, spec: TheoremSpec) -> CheckResult:
    m = _need(spec, "m")
    p = _need(spec, "p")
    if m <= 3:
        raise ValueError(f"{spec.id} needs m > 3, got {m}")
    if p < 1:
        raise ValueError(f"{spec.id} needs p >= 1, got {p}")
    alpha_l = local_independence_number(G)
    omega = clique_number(G)
    n = _auto_n(spec, alpha_l)
    admitting = admitting_set(G)
    hyps = [
        ("connected", is_connected(G)),
        ("n > 3", n > 3),
        ("alpha_l < n", alpha_l < n),
        ("omega < m", omega < m),
        (f"admitting within {{{2 * p}}}", admitting <= {2 * p}),
    ]
    bound = (m - 1) * (n - 3) + 1
    actual = deficiency(G)
    return _finish(spec, hyps, bound, actual, actual <= bound,
                   details={"alpha_l": alpha_l, "omega": omega, "n": n,
                            "admitting": sorted(admitting)})


def _check_all_even(G: Graph, spec: TheoremSpec) -> CheckResult:
    alpha_l = local_independence_number(G)
    omega = clique_number(G)
    n = _auto_n(spec, alpha_l)
    admitting = admitting_set(G)
    hyps = [
        ("connected", is_connected(G)),
        ("n > 3", n > 3),
        ("alpha_l < n", alpha_l < n),
        ("omega < 3", omega < 3),
        ("admitting all even", all(a % 2 == 0 for a in admitting)),
    ]
    bound = 2 * n - 6
    actual = deficiency(G)
    return _finish(spec, hyps, bound, actual, actual <= bound,
                   details={"alpha_l": alpha_l, "omega": omega, "n": n,
                            "admitting": sorted(admitting)})


def _check_tree_value(G: Graph, spec: TheoremSpec) -> CheckResult:
    m = _need(spec, "m")
    n = _need(spec, "n")
    if m < 3 or m % 2 == 0 or n <= 3:
        raise ValueError(f"{spec.id} needs odd m >= 3 and n > 3")
    hyps = [("connected", is_connected(G))]
    target = (n - 1) * (n - 2) ** ((m - 3) // 2) - 1
    actual = deficiency(G)
    return _finish(spec, hyps, target, actual, actual == target,
                   note="equality check", details={"m": m, "n": n})


def _check_snailhorn(G: Graph, spec: TheoremSpec) -> CheckResult:
    crit = is_deficiency_critical(G, "exhaustive")
    hyps = [
        ("connected", is_connected(G)),
        ("nontrivial", G.n >= 2),
        ("deficiency-critical", crit.verdict == "critical"),
    ]
    horns = len(snail_horns(G))
    return _finish(spec, hyps, None, crit.deficiency, horns >= 1,
                   details={"snail_horns": horns})


def _check_mod(G: Graph, spec: TheoremSpec) -> CheckResult:
    m = _need(spec, "m")
    n = _need(spec, "n")
    if m <= 3 or n <= 3:
        raise ValueError(f"{spec.id} needs m, n > 3")
    alpha_l = local_independence_number(G)
    omega = clique_number(G)
    hyps = [
        ("connected", is_connected(G)),
        ("alpha_l < n", alpha_l < n),
        ("omega < m", omega < m),
    ]
    actual = deficiency(G)
    return _finish(spec, hyps, None, actual, actual % (n - 3) == 1 % (n - 3),
                   note="congruence report, not an asserted bound",
                   details={"alpha_l": alpha_l, "omega": omega, "mod_base": n - 3})


def check_theorem_reference(G: Graph, spec: TheoremSpec) -> CheckResult:
    """``check_theorem`` as eleven functions and an ``if`` chain, for differential tests."""
    try:
        if spec.id == "thm-1.2-clawfree":
            return _check_clawfree(G, spec)
        if spec.id == "thm-1.3-bonefree":
            return _check_bonefree(G, spec)
        if spec.id == "thm-1.4-main":
            return _check_main(G, spec, _need(spec, "m"))
        if spec.id == "thm-1.4-m3":
            return _check_main(G, spec, 3)
        if spec.id == "thm-1.6-q=2p+1":
            return _check_two_odd(G, spec, 1)
        if spec.id == "thm-1.6-q=2p-1":
            return _check_two_odd(G, spec, -1)
        if spec.id == "thm-1.8-single-even":
            return _check_single_even(G, spec)
        if spec.id == "thm-1.8-all-even":
            return _check_all_even(G, spec)
        if spec.id == "cor-1.3":
            return _check_tree_value(G, spec)
        if spec.id == "cor-2.3-snailhorn":
            return _check_snailhorn(G, spec)
        if spec.id == "prop-5.1-mod":
            return _check_mod(G, spec)
    except GuardExceededError as exc:
        return CheckResult(
            theorem=spec.id, hypotheses=(), verdict="indeterminate",
            bound_value=None, actual_deficiency=None, note=str(exc))
    raise ValueError(f"unknown theorem id {spec.id!r}")
