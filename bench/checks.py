"""Correctness checks computed apart from the program.

They run after the timed phase.  Matchings, cliques, independence numbers
and connectivity come from networkx; admitting sets from ``oracle.py`` (live
for small graphs, stored for the ``analyze_mid`` inputs); the labelled-graph
counts from an enumeration written here.  Each function returns a list of
failure messages, empty when everything holds.
"""

from __future__ import annotations

import json
from itertools import combinations

import networkx as nx

import oracle

# Connected labelled graphs on 1..6 vertices (OEIS A001187).
A001187 = [1, 1, 4, 38, 728, 26704]


def to_nx(G) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


def nx_deficiency(H: nx.Graph) -> int:
    return H.number_of_nodes() - 2 * len(nx.max_weight_matching(H, maxcardinality=True))


def nx_clique_number(H: nx.Graph) -> int:
    return max((len(c) for c in nx.find_cliques(H)), default=0)


def nx_local_independence(H: nx.Graph) -> int:
    best = 0
    for v in H:
        nbrs = list(H[v])
        if len(nbrs) > best:
            best = max(best, nx_clique_number(nx.complement(H.subgraph(nbrs))))
    return best


def small_graph_census():
    """Enumerate every labelled graph on 1..6 vertices by edge bitmask.

    Returns per-order connected counts plus, over the connected graphs, the
    number that are claw-free and the number that are exactly the bone B_2
    (the only bone that fits in six vertices).
    """
    connected = []
    claw_free = bone2 = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        count = 0
        for code in range(1 << len(pairs)):
            nb = [0] * n
            for k, (u, v) in enumerate(pairs):
                if code >> k & 1:
                    nb[u] |= 1 << v
                    nb[v] |= 1 << u
            seen, frontier = 1, 1
            while frontier:
                grow = 0
                for v in range(n):
                    if frontier >> v & 1:
                        grow |= nb[v]
                frontier = grow & ~seen
                seen |= frontier
            if seen != (1 << n) - 1:
                continue
            count += 1
            if not any(_claw_at(nb, v) for v in range(n)):
                claw_free += 1
            degs = sorted(bin(m).count("1") for m in nb)
            if n == 6 and degs == [1, 1, 1, 1, 3, 3] and code.bit_count() == 5:
                bone2 += 1
        connected.append(count)
    return connected, claw_free, bone2


def _claw_at(nb, v) -> bool:
    ns = [u for u in range(len(nb)) if nb[v] >> u & 1]
    return any(not (nb[a] >> b & 1 or nb[a] >> c & 1 or nb[b] >> c & 1)
               for a, b, c in combinations(ns, 3))


def lm_trace_errors(label, H: nx.Graph, trace, kd: int) -> list[str]:
    """Matching edges exist and are disjoint, edges plus leftovers cover V,
    the bound is the leftover total and at least kd."""
    errs = []
    used: set[int] = set()
    for lv in trace.levels:
        for u, v in list(lv.matching) + list(lv.witness_matching):
            if not H.has_edge(u, v):
                errs.append(f"{label}: LM edge ({u}, {v}) not in the graph")
            if u in used or v in used:
                errs.append(f"{label}: LM edge ({u}, {v}) reuses a vertex")
            used |= {u, v}
    leftover = {v for lv in trace.levels for v in lv.leftover}
    if used & leftover:
        errs.append(f"{label}: leftover vertices are matched")
    if used | leftover != set(H):
        errs.append(f"{label}: {H.number_of_nodes() - len(used | leftover)} vertices uncovered")
    if trace.bound != sum(len(lv.leftover) for lv in trace.levels):
        errs.append(f"{label}: bound is not the leftover total")
    if trace.bound < kd:
        errs.append(f"{label}: LM bound {trace.bound} below kd {kd}")
    return errs


def closed_form_deficiency(name: str):
    """Exact kd (acceptance criteria 2-5) or a lower bound (criterion 6) of a
    family instance, from its name; ``None`` when no closed form applies."""
    kind, _, rest = name.partition("(")
    args = [int(a) for a in rest.split(")")[0].split(",")]
    if kind == "T_tree":
        m, n = args
        return "==", (n - 1) * (n - 2) ** ((m - 3) // 2) - 1
    if kind == "BS":
        k, p = args
        n = k + 2
        return "==", 2 * n - 5 if p % 2 else 2 * n - 6
    if kind == "S":
        n = args[0] + 1
        return "==", n * n - 3 * n + 1
    if kind == "T":
        n = args[0] + 2
        return "==", 3 * n - 8
    if kind in ("E", "E+"):
        m, n = args[0] + 1, args[1] + 2
        return "==", (m - 1) * (n - 3) + 1
    if kind == "F":
        return ">=", 3 * 2 ** (len(args) - 1)
    return None


def closed_form_errors(name: str, kd: int) -> list[str]:
    form = closed_form_deficiency(name)
    if form is None:
        return []
    op, value = form
    if (op == "==" and kd != value) or (op == ">=" and kd < value):
        return [f"{name}: kd {kd}, closed form says {op} {value}"]
    return []


def stored_admitting():
    data = json.loads(oracle.EXPECTED_PATH.read_text())
    return {e["name"]: e for e in data["instances"]}
