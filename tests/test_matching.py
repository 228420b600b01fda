import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bonematch import (
    GuardExceededError,
    berge_tutte_deficiency,
    brute_force_matching_size,
    bs,
    build_graph,
    complete_graph,
    deficiency,
    f_family,
    induced_subgraph,
    is_deficiency_critical,
    lm_run,
    maximum_matching,
    path_graph,
    reduce_pendants,
    snail_horns,
    star_graph,
    t_family,
    t_tree,
)
from bonematch import matching
from bonematch.harness import _connected_classes
from .helpers import (
    bfs_levels,
    blossom_reference,
    criticality_table_reference,
    induced_on,
    induced_subgraph_reference,
    is_valid_matching,
    layered_graph,
    matching_number_subsets,
    random_connected_graph,
    random_tree,
    reduce_pendants_reference,
)
from .test_acceptance import _family_instances


def test_maximum_matching_examples():
    assert maximum_matching(path_graph(2)).deficiency == 0
    assert maximum_matching(star_graph(3)).deficiency == 2
    assert maximum_matching(bs(2, 3)).deficiency == 3


def test_maximum_matching_returns_valid_matching():
    G = bs(2, 3)
    res = maximum_matching(G)
    assert is_valid_matching(G, res.edges)
    saturated = {v for e in res.edges for v in e}
    assert res.unsaturated == frozenset(G.vertices()) - saturated


def cycle(k):
    return build_graph(k, [(v, (v + 1) % k) for v in range(k)])


def test_brute_force_examples():
    assert brute_force_matching_size(cycle(5)) == 2
    assert brute_force_matching_size(complete_graph(4)) == 2


def test_berge_tutte_examples():
    assert berge_tutte_deficiency(star_graph(3)) == 2
    assert berge_tutte_deficiency(cycle(6)) == 0


def test_deficiency_examples():
    assert deficiency(t_tree(5, 4)) == 5
    assert deficiency(build_graph(1, [])) == 1
    assert deficiency(bs(2, 2)) == 2


@settings(deadline=None)  # the edge-subset oracle alone can take ~250 ms at n = 10
@given(st.integers(0, 10**6), st.integers(1, 10))
def test_three_oracles_agree(seed, n):
    G = random_connected_graph(random.Random(seed), n, extra=0.25)
    size = len(maximum_matching(G).edges)
    assert size == brute_force_matching_size(G) == matching_number_subsets(G)
    assert deficiency(G) == berge_tutte_deficiency(G) == G.n - 2 * size


@given(st.integers(0, 10**6), st.integers(1, 12))
def test_deficiency_parity_matches_order(seed, n):
    G = random_connected_graph(random.Random(seed), n)
    assert deficiency(G) % 2 == n % 2


def test_deficiency_reads_unsorted_neighbours_as_the_sorting_matching_does():
    # ``deficiency`` runs the blossom on the neighbour sets unsorted, which may
    # give another maximum matching than ``maximum_matching``, but not another
    # free count: on every class up to 7 vertices, and on the 132 graphs of
    # the benchmark's lm_large round at seed 401 (its four families and the
    # layered graphs it draws from that seed)
    graphs = [G for G, _ in _connected_classes(7)]
    graphs += [t_tree(7, 5), t_tree(9, 5), f_family(1, 2, 3), f_family(1, 2, 3, 4, 5)]
    rng = random.Random("lm_large:401")
    graphs += [layered_graph(rng, 300)[0] for _ in range(128)]
    for G in graphs:
        assert deficiency(G) == maximum_matching(G).deficiency, G.edges()


def test_deficiency_additive_over_components():
    # disjoint union of K(1,3) (ids 0..3) and P3 (ids 4..6)
    G = build_graph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)])
    assert deficiency(G) == deficiency(star_graph(3)) + deficiency(path_graph(3))


def test_guards_raise():
    with pytest.raises(GuardExceededError):
        brute_force_matching_size(path_graph(17))
    with pytest.raises(GuardExceededError):
        berge_tutte_deficiency(path_graph(15))
    with pytest.raises(GuardExceededError):
        is_deficiency_critical(star_graph(20), mode="exhaustive")


def test_reduce_pendants_edge():
    red = reduce_pendants(path_graph(2))
    assert red.graph.n == 0
    assert red.removed_pairs == ((1, 0),)
    assert red.vertex_map == ()
    assert red.isolated_count == 0


def test_reduce_pendants_star():
    red = reduce_pendants(star_graph(3))
    assert red.graph.n == 2 and red.graph.edge_count() == 0
    assert red.vertex_map == (2, 3)
    assert red.removed_pairs == ((0, 1),)
    assert red.isolated_count == 2
    assert deficiency(red.graph) == deficiency(star_graph(3)) == 2


def test_reduce_pendants_preserves_deficiency_on_trees():
    G = t_tree(5, 4)
    red = reduce_pendants(G)
    assert deficiency(red.graph) == deficiency(G) == 5


def test_reduce_pendants_matches_the_rescanning_reference():
    # seeded trees and connected graphs, disconnected graphs with isolated
    # edges and vertices, the acceptance families and two large trees
    rng = random.Random(2626)
    inputs = [random_tree(rng, rng.randint(1, 60)) for _ in range(400)]
    inputs += [random_connected_graph(rng, rng.randint(1, 40), extra=rng.choice((0.02, 0.1, 0.3)))
               for _ in range(400)]
    for _ in range(200):
        parts = [random_tree(rng, rng.randint(1, 12)) for _ in range(rng.randint(2, 4))]
        parts += [path_graph(2)] * rng.randint(1, 3) + [path_graph(1)] * rng.randint(0, 2)
        rng.shuffle(parts)
        edges, n = [], 0
        for H in parts:
            edges += [(n + u, n + v) for u, v in H.edges()]
            n += H.n
        perm = rng.sample(range(n), n)  # interleave the components' ids
        inputs.append(build_graph(n, [(perm[u], perm[v]) for u, v in edges], name="parts"))
    inputs += _family_instances() + [t_tree(9, 12), f_family(*range(1, 11))]
    for G in inputs:
        red, ref = reduce_pendants(G), reduce_pendants_reference(G)
        assert (red, red.graph.name) == (ref, ref.graph.name), G


@given(st.integers(0, 10**6), st.integers(2, 12))
def test_reduce_pendants_invariance(seed, n):
    rng = random.Random(seed)
    G = random_tree(rng, n) if seed % 2 else random_connected_graph(rng, n)
    red = reduce_pendants(G)
    assert deficiency(red.graph) == deficiency(G)
    # fully reduced: no edge incident to a degree-one vertex survives
    assert not [
        (u, w) for u, w in red.graph.edges()
        if red.graph.degree(u) == 1 or red.graph.degree(w) == 1
    ]


def test_criticality_verdicts():
    assert is_deficiency_critical(star_graph(3)).verdict == "critical"
    res = is_deficiency_critical(path_graph(3))
    assert res.verdict == "not-critical"
    assert res.witness_vertices == (0,)
    assert induced_subgraph(path_graph(3), res.witness_vertices)[0].n == 1


def test_criticality_delete_one_is_weaker():
    assert is_deficiency_critical(path_graph(3), mode="delete-one").verdict == "partial-pass"
    assert is_deficiency_critical(bs(2, 2), mode="delete-one").verdict == "partial-pass"


def test_criticality_delete_one_finds_a_witness():
    # the spider 0-1, 0-2, 0-3, 3-4 (kd 1) keeps kd 2 once its leg tip 4 is deleted
    spider = build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    res = is_deficiency_critical(spider, mode="delete-one")
    assert (res.verdict, res.deficiency, res.witness_vertices) == ("not-critical", 1, (0, 1, 2, 3))
    # deleting the only vertex leaves no subgraph to test
    assert is_deficiency_critical(build_graph(1, []), mode="delete-one").verdict == "partial-pass"


def test_criticality_of_even_and_odd_bones():
    assert is_deficiency_critical(bs(2, 3)).verdict == "critical"
    assert is_deficiency_critical(bs(2, 5)).verdict == "critical"
    even2 = is_deficiency_critical(bs(2, 2))
    assert even2.verdict == "not-critical"
    assert even2.witness_vertices == (0, 1, 2, 3)
    even4 = is_deficiency_critical(bs(2, 4))
    assert even4.verdict == "not-critical"
    witness = induced_subgraph(bs(2, 4), even4.witness_vertices)[0]
    assert deficiency(witness) == deficiency(bs(2, 4)) == 2


def test_criticality_choices_match_tuple_min_reference():
    # both scans compare masks bitwise; the reference takes min over vertex tuples
    rng = random.Random(23)
    witnesses = 0
    for k in range(80):
        n = rng.randint(1, 10)
        if k % 2:
            G = random_connected_graph(rng, n, extra=rng.choice([0.1, 0.3, 0.5]))
        else:
            G = build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.3])
        subgraphs = []  # (vertex tuple, deficiency) of every connected induced subgraph
        for size in range(1, n + 1):
            for vs in combinations(range(n), size):
                H = induced_on(G, vs)
                if len(bfs_levels(H, 0)) == size:
                    subgraphs.append((vs, deficiency(H)))
        kd = deficiency(G)
        witness = min((vs for vs, d in subgraphs if len(vs) < n and d >= kd), default=None)
        res = is_deficiency_critical(G)
        assert res.verdict == ("critical" if witness is None else "not-critical")
        assert res.witness_vertices == witness
        witnesses += witness is not None
    assert witnesses >= 30


def _criticality_graph(rng, kind, n):
    if kind == "tree":
        return random_tree(rng, n)
    if kind == "path+":  # a spanning path keeps kd <= 1
        perm = rng.sample(range(n), n)
        edges = set(zip(perm, perm[1:]))
        edges |= {e for e in combinations(range(n), 2) if rng.random() < 0.15}
        return build_graph(n, [tuple(sorted(e)) for e in edges])
    if kind == "k2m":  # two hubs on most of n - 2 leaves, a few leaf edges: large kd
        hubs = rng.sample(range(n), 2)
        leaves = [v for v in range(n) if v not in hubs]
        edges = {(h, v) for v in leaves for h in hubs if rng.random() < 0.9}
        edges |= {e for e in combinations(leaves, 2) if rng.random() < 0.05}
        return build_graph(n, [tuple(sorted(e)) for e in edges])
    return _gnp(rng, n, kind)


def _criticality_inputs():
    graphs = [G for G in _family_instances() if G.n <= 18]
    graphs += [G for G, _ in _connected_classes(7)]
    rng = random.Random(2006)
    kinds = ["tree", 0.2, 0.5, 0.8, "path+", "k2m"]
    sizes = [rng.randint(8, 12) for _ in range(300)] + [14, 15, 16, 17, 18, 18]
    return graphs + [_criticality_graph(rng, kinds[k % 6], n) for k, n in enumerate(sizes)]


def test_criticality_matches_the_frozen_table_scan():
    # Each connected vertex set is grown once and the blossom runs only where
    # a matching bound lets it reach the target; the reference fills the
    # whole 2^n table.  Verdicts and witnesses must agree exactly.
    graphs = _criticality_inputs()
    verdicts = {"critical": 0, "not-critical": 0}
    for G in graphs:
        kd, witness = criticality_table_reference(G)
        res = is_deficiency_critical(G)
        assert (res.verdict, res.deficiency, res.witness_vertices) == (
            "critical" if witness is None else "not-critical", kd, witness), G
        if witness is not None:
            assert (induced_subgraph(G, res.witness_vertices)[0]
                    == induced_subgraph_reference(G, witness)[0]), G
        verdicts[res.verdict] += 1
    assert len(graphs) >= 1300 and verdicts["critical"] >= 50
    assert max(G.n for G in graphs) == 18


def _odd_cycles_joined_by_paths(rng, cycles):
    # odd cycles of length 3..11 in a row, consecutive ones joined by a path of
    # 1..4 edges, with two pendants on the first vertex (a snail horn)
    edges, prev, n = [], None, 2
    edges += [(0, 2), (1, 2)]
    for _ in range(cycles):
        k = rng.choice(range(3, 12, 2))
        ring = list(range(n, n + k))
        edges += [(ring[i], ring[(i + 1) % k]) for i in range(k)]
        n += k
        if prev is not None:
            path = [prev] + list(range(n, n + rng.randint(0, 3))) + [rng.choice(ring)]
            n += len(path) - 2
            edges += list(zip(path, path[1:]))
        prev = rng.choice(ring)
    return build_graph(n, edges)


def _gnp(rng, n, p):
    return build_graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def test_blossom_matches_networkx_beyond_brute_force_reach():
    # Edmonds, "Paths, trees, and flowers" (1965): maximum matchings are
    # compared with networkx's own implementation far above n = 16
    nx = pytest.importorskip("networkx")
    rng = random.Random(1965)
    graphs = [random_connected_graph(rng, n, extra=2.5 / n) for n in (40, 80, 120, 200, 300)]
    graphs += [random_tree(rng, n) for n in (150, 300)]
    graphs += _family_instances() + [t_tree(9, 5), t_family(8, 5)]
    graphs += [_odd_cycles_joined_by_paths(rng, c) for c in (3, 8, 15, 30)]
    graphs += [_gnp(rng, n, 0.5) for n in (17, 30, 45, 60)]
    horns = 0
    for G in graphs:
        res = maximum_matching(G)
        assert is_valid_matching(G, res.edges)
        saturated = {v for e in res.edges for v in e}
        assert res.unsaturated == frozenset(range(G.n)) - saturated
        assert res.deficiency == len(res.unsaturated) == deficiency(G)
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        theirs = nx.max_weight_matching(H, maxcardinality=True)
        assert is_valid_matching(G, theirs)
        assert len(res.edges) == len(theirs), (G, G.n)
        if snail_horns(G):
            horns += 1
            assert lm_run(G).bound >= res.deficiency
    assert horns >= 30 and max(G.n for G in graphs) >= 300


def _stars_and_brooms(rng, pieces):
    # stars and brooms (a path with leaves at its far end) in a chain, each
    # joined by one or two edges from leaves of the one before, labels
    # shuffled: a search from a spare leaf can fail with the centre as its odd
    # vertex, and the centre's other spare leaves are roots searched later
    edges, n, prev = [], 0, []
    for _ in range(pieces):
        handle = rng.randint(0, 5)
        path = list(range(n, n + handle + 1))
        leaves = list(range(n + handle + 1, n + handle + 1 + rng.randint(2, 4)))
        n = leaves[-1] + 1
        edges += list(zip(path, path[1:])) + [(path[-1], x) for x in leaves]
        joins = rng.sample(prev, min(len(prev), rng.randint(1, 2)))
        edges += [(a, rng.choice(path + leaves)) for a in joins]
        prev = leaves
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[a], perm[b]) for a, b in edges])


def _assert_maximum_match(n, adj, match):
    # a matching of the adjacency lists, as large as the full-reset blossom's
    assert all(m == -1 or (match[m] == v and m in adj[v]) for v, m in enumerate(match))
    assert match.count(-1) == blossom_reference(n, adj).count(-1)


def test_blossom_returns_a_matching_as_large_as_the_full_reset_blossom():
    # Each search resets and relabels only the vertices its tree reached, in
    # the order the tree reached them; no output reads which maximum matching
    # comes back, so only its validity and its size are fixed.
    rng = random.Random(1024)
    graphs = [G for G, _ in _connected_classes(7)]
    graphs += _family_instances() + [t_tree(9, 5), f_family(1, 2, 3, 4, 5)]
    graphs += [random_tree(rng, n) for n in (40, 150, 400, 1000)]
    graphs += [random_connected_graph(rng, n, extra=2.5 / n) for n in (40, 80, 300, 1000)]
    graphs += [_odd_cycles_joined_by_paths(rng, c) for c in (3, 8, 15, 30, 60)]
    # a failed search's tree is skipped by every later search
    graphs += [_stars_and_brooms(rng, k) for k in (1, 2, 3, 5, 8, 13, 40, 100) for _ in range(5)]
    for G in graphs:
        adj = [sorted(s) for s in G.adj]
        _assert_maximum_match(G.n, adj, matching._blossom(G.n, adj))
    assert len(graphs) >= 996 + 80 and max(G.n for G in graphs) == 1000


def test_blossom_is_maximum_on_every_criticality_subset(monkeypatch):
    # every graph the criticality scan hands to the blossom, its vertex sets
    # from ``_set_deficiency`` among them, on the inputs of up to 18 vertices
    blossom, orders = matching._blossom, []

    def checked(n, adj):
        orders.append(n)
        match = blossom(n, adj)
        _assert_maximum_match(n, adj, match)
        return match

    monkeypatch.setattr(matching, "_blossom", checked)
    for G in _criticality_inputs():
        is_deficiency_critical(G)
    assert len(orders) >= 1700 and max(orders) == 18


def test_blossom_from_a_start_matching_is_maximum():
    # The Hungarian-tree argument holds from any start matching (module
    # docstring): from random matchings of G(n, p) graphs, connected or not,
    # the blossom returns a matching of the brute-force size and leaves the
    # start as it was.  ``short`` counts the starts it had to augment.
    rng = random.Random(3001)
    short = 0
    for k in range(420):
        n = 1 + k % 14
        G = build_graph(n, [e for e in combinations(range(n), 2)
                            if rng.random() < (0.15, 0.3, 0.5)[k % 3]])
        adj = [sorted(s) for s in G.adj]
        start = [-1] * n
        edges = G.edges()
        rng.shuffle(edges)
        for u, v in edges:
            if start[u] == start[v] == -1 and rng.random() < 0.6:
                start[u], start[v] = v, u
        given = start[:]
        match = matching._blossom(n, adj, start)
        assert start == given
        assert all(m == -1 or (match[m] == v and m in adj[v]) for v, m in enumerate(match))
        size = brute_force_matching_size(G)
        assert (n - match.count(-1)) // 2 == size, G.edges()
        short += (n - start.count(-1)) // 2 < size
    assert short >= 150, short
