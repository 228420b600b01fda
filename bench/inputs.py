"""Seeded inputs of the benchmark workloads.

Every random input is made here from the workload seed with the standard
library's ``random.Random``; ``bonematch.harness.random_connected`` is never
used, so a change to that generator leaves the inputs alone.  The program
only receives finished ``Graph`` objects (and, for ``search_small``, the
arguments of each ``extremal_search`` call).
"""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# analyze_mid random pool: (vertices, extra edges, generator seed).  The
# structure is fixed so that the admitting sets can be stored from the
# oracle; the workload seed relabels the vertices.
POOL = [(n, n // 3, 2505_15149 + n) for n in range(25, 40, 2)]

# lm_large layered graphs: vertex counts of one round, each drawn afresh
# from the workload seed.
LM_SIZES = [300] * 128
LM_DEPTH = 10
LM_EXTRA = 0.15

# search_small: (n, alpha_l_max, admitting) configurations, each called
# SEARCH_REPEATS times per round with its own derived seed.  Call times
# cluster by configuration; with an odd number of configurations the median
# item falls inside one cluster, not on the gap between two.
SEARCH_CONFIGS = [
    (8, 3, "odd"), (9, 3, "odd"), (10, 3, "odd"), (11, 3, "odd"), (9, 4, "odd"),
    (9, 4, "even"), (10, 4, "even"), (11, 4, "even"), (12, 4, "even"),
    (8, 3, "empty"), (10, 3, "empty"), (11, 4, "empty"), (12, 4, "odd"),
]
SEARCH_REPEATS = 8
SEARCH_ITERS = 40


def import_program():
    """Import ``bonematch`` from this checkout, dropping any earlier import."""
    if not (SRC / "bonematch" / "__init__.py").is_file():
        raise FileNotFoundError(f"no bonematch package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bonematch" or m.startswith("bonematch.")]:
        del sys.modules[name]
    return importlib.import_module("bonematch")


def family_instances(bm):
    """The 34 family instances of the acceptance suite (criteria 2-7)."""
    f = bm.families
    out = [f.t_tree(3, 4), f.t_tree(3, 6), f.t_tree(5, 4), f.t_tree(5, 5), f.t_tree(7, 4)]
    out += [f.bs(n - 2, p) for n in (4, 5, 6, 7) for p in (3, 5, 7)]
    out += [f.bs(n - 2, 2) for n in (4, 5, 6)]
    out += [f.s_family(n - 1, p) for n in (4, 5) for p in (3, 5)]
    out += [f.t_family(n - 2, p) for n in (4, 5, 6) for p in (3, 5)]
    out += [f.e_family(3, 2, 2), f.e_plus_family(2, 3, 3)]
    out += [f.f_family(1), f.f_family(1, 2)]
    return out


def tree_plus_edges(rng: random.Random, n: int, extra: int):
    """Edges of a random recursive tree on ``n - 2`` vertices plus ``extra``
    further distinct edges, with two pendants (ids ``n-2``, ``n-1``) on one
    random tree vertex, so the graph has a snail horn."""
    core = n - 2
    edges = {(rng.randrange(v), v) for v in range(1, core)}
    while len(edges) < core - 1 + extra:
        u, v = sorted(rng.sample(range(core), 2))
        edges.add((u, v))
    head = rng.randrange(core)
    edges |= {(head, core), (head, core + 1)}
    return sorted(edges)


def relabel(edges, perm):
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def analyze_instances(bm, seed):
    """``(name, graph)`` for ``analyze_mid``: the families, then the pool.

    With ``seed=None`` the pool graphs keep their generator labels (the form
    the stored expectation is computed on).
    """
    out = [(G.name, G) for G in family_instances(bm)]
    rng = random.Random(f"analyze_mid:{seed}")
    for n, extra, gen_seed in POOL:
        edges = tree_plus_edges(random.Random(gen_seed), n, extra)
        if seed is not None:
            perm = list(range(n))
            rng.shuffle(perm)
            edges = relabel(edges, perm)
        out.append((f"pool({n},{extra})", bm.graphs.build_graph(n, edges)))
    return out


def layered_graph(rng: random.Random, n: int):
    """Sparse random graph with a fixed BFS level profile from its root.

    Levels 0..LM_DEPTH-1 hold 1, 3, 9 vertices and then equal shares of the
    rest; every vertex below the root gets a random parent one level up, and
    ``LM_EXTRA * n`` extra edges join random vertices of the same or adjacent
    levels, so BFS from the root reproduces the levels.  Two pendants on the
    root make it a snail-horn head.  Vertex ids are a random permutation.
    Returns ``(edges, vertex count, root)``.
    """
    body = n - 2
    sizes = [1, 3, 9]
    rest = body - sum(sizes)
    wide = LM_DEPTH - len(sizes)
    sizes += [rest // wide + (1 if k < rest % wide else 0) for k in range(wide)]
    levels, start = [], 0
    for s in sizes:
        levels.append(range(start, start + s))
        start += s
    edges = set()
    for k in range(1, len(levels)):
        for v in levels[k]:
            edges.add((rng.choice(levels[k - 1]), v))
    target = len(edges) + int(LM_EXTRA * n)
    while len(edges) < target:
        k = rng.randrange(1, len(levels))
        a = rng.choice(levels[k])
        b = rng.choice(levels[k - rng.randrange(2)])
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges |= {(0, body), (0, body + 1)}
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(edges, perm), n, perm[0]


def lm_instances(bm, seed):
    """``(name, graph, root)`` for ``lm_large``; ``root=None`` means the
    smallest snail-horn head, as ``bonematch lm`` picks it."""
    f = bm.families
    out = [(G.name, G, None) for G in
           (f.t_tree(7, 5), f.t_tree(9, 5), f.f_family(1, 2, 3), f.f_family(1, 2, 3, 4, 5))]
    rng = random.Random(f"lm_large:{seed}")
    for n in LM_SIZES:
        edges, n, root = layered_graph(rng, n)
        out.append((f"layered({n})", bm.graphs.build_graph(n, edges), root))
    return out


def search_calls(bm, seed):
    """``(constraints, iters, call seed)`` for every ``extremal_search`` call of a round."""
    rng = random.Random(f"search_small:{seed}")
    return [(bm.harness.SearchConstraints(n, alpha_l_max=a, admitting=adm),
             SEARCH_ITERS, rng.randrange(2**32))
            for _ in range(SEARCH_REPEATS) for n, a, adm in SEARCH_CONFIGS]
