"""Independent admitting-set oracle and the stored expectation it produces.

A bone B_i is an induced path s_1..s_i with two pendants on s_1 and two on
s_i.  The oracle grows induced paths from every start vertex in one
depth-first search and carries the set of vertices that can still serve as
a private pendant of s_1 (a neighbour of s_1 that is off the path and not
adjacent to any later path vertex).  A branch dies once fewer than two such
candidates remain.  At every path end it looks for two non-adjacent pendants
on each side with no edge across, and records the path length.  This shares
no code and no search order with ``bonematch.structure``, which restarts one
search per index and only tests pendants at full length.

Every index the oracle reports comes with a witness, and ``--write``
re-checks each witness against ``networkx.is_isomorphic`` before storing it.

Regenerate the stored expectation (run from the repository root)::

    python3 bench/oracle.py --write

This rewrites ``bench/expected_admitting.json`` from the same inputs the
``analyze_mid`` workload uses (the 34 family instances and the base graphs
of the random pool, before the seeded relabelling, which cannot change an
admitting set).
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import combinations
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_admitting.json"


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def edge_digest(n: int, edges) -> str:
    """Stable fingerprint of a labelled graph, used to key stored expectations."""
    text = f"{n}:" + ";".join(f"{u}-{v}" for u, v in sorted(tuple(sorted(e)) for e in edges))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pendant_pairs(adj: list[set[int]], cands: set[int]):
    for a, b in combinations(sorted(cands), 2):
        if b not in adj[a]:
            yield a, b


def _close(adj, left: set[int], right: set[int]):
    """Two non-adjacent pendants on each side with no edge between the sides."""
    for a1, a2 in _pendant_pairs(adj, left):
        blocked = adj[a1] | adj[a2]
        for b1, b2 in _pendant_pairs(adj, right):
            if b1 not in blocked and b2 not in blocked:
                return (a1, a2), (b1, b2)
    return None


def bone_witnesses(adj: list[set[int]]) -> dict[int, tuple]:
    """Map each bone index in ``2..n-4`` to one witness ``(path, left, right)``.

    Beyond ``n - 4`` no bone fits.
    """
    n = len(adj)
    cap = n - 4
    found: dict[int, tuple] = {}
    if cap < 2:
        return found
    wanted = set(range(2, cap + 1))

    def grow(path: list[int], on_path: set[int], left: set[int]) -> bool:
        end = path[-1]
        k = len(path)
        if k >= 2 and k not in found:
            right = {w for w in adj[end]
                     if w not in on_path and not (adj[w] & (on_path - {end}))}
            hit = _close(adj, left, right)
            if hit is not None:
                found[k] = (tuple(path), hit[0], hit[1])
                if wanted <= found.keys():
                    return True
        if k == cap:
            return False
        inner = on_path - {end}
        for w in sorted(adj[end]):
            if w in on_path or adj[w] & inner:
                continue
            nxt_left = left - adj[w] - {w}
            if len(nxt_left) < 2:
                continue
            path.append(w)
            on_path.add(w)
            done = grow(path, on_path, nxt_left)
            path.pop()
            on_path.discard(w)
            if done:
                return True
        return False

    for v in range(n):
        left = set(adj[v])
        if len(left) >= 2 and grow([v], {v}, left):
            break
    return found


def admitting(n: int, edges) -> frozenset[int]:
    return frozenset(bone_witnesses(adjacency(n, edges)))


def is_induced_bone(adj, path, left, right) -> bool:
    """Direct check that the given vertices induce exactly a bone on ``path``."""
    verts = list(path) + list(left) + list(right)
    if len(set(verts)) != len(verts) or len(path) < 2:
        return False
    want = {frozenset(p) for p in zip(path, path[1:])}
    want |= {frozenset((path[0], a)) for a in left}
    want |= {frozenset((path[-1], b)) for b in right}
    have = {frozenset((u, v)) for u, v in combinations(verts, 2) if v in adj[u]}
    return have == want


def _confirm_with_networkx(n: int, edges, witnesses: dict[int, tuple]) -> None:
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    for i, (path, left, right) in witnesses.items():
        bone = nx.path_graph(i)
        bone.add_edges_from([(0, i), (0, i + 1), (i - 1, i + 2), (i - 1, i + 3)])
        sub = G.subgraph(list(path) + list(left) + list(right))
        if not nx.is_isomorphic(sub, bone):
            raise SystemExit(f"oracle witness for B_{i} is not an induced bone")


def write_expected() -> None:
    import inputs

    bm = inputs.import_program()
    entries = []
    for name, G in inputs.analyze_instances(bm, seed=None):
        edges = G.edges()
        witnesses = bone_witnesses(adjacency(G.n, edges))
        _confirm_with_networkx(G.n, edges, witnesses)
        entries.append({"name": name, "n": G.n, "digest": edge_digest(G.n, edges),
                        "admitting": sorted(witnesses)})
        print(f"{name:<24} n={G.n:<3} admitting={sorted(witnesses)}", flush=True)
    EXPECTED_PATH.write_text(json.dumps(
        {"regenerate": "python3 bench/oracle.py --write", "instances": entries},
        indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH.name} ({len(entries)} instances)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python3 bench/oracle.py --write")
    write_expected()
