import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from bonematch import (
    build_graph,
    children,
    is_clean_level,
    is_connected,
    induced_subgraph,
    levelling,
    snail_horns,
    bs,
    complete_graph,
    path_graph,
    star_graph,
)
from .helpers import bfs_levels, induced_subgraph_reference, random_connected_graph


def test_build_graph_basics():
    G = build_graph(3, [(0, 1), (1, 2)])
    assert [G.degree(v) for v in G.vertices()] == [1, 2, 1]
    assert G.edges() == [(0, 1), (1, 2)]
    assert G.edge_count() == 2
    assert G.has_edge(1, 0) and not G.has_edge(0, 2)


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        build_graph(2, [(-1, 0)])
    with pytest.raises(ValueError):
        build_graph(2, [(1, 1)])


def test_graph_name_excluded_from_equality():
    G = build_graph(2, [(0, 1)], name="a")
    H = build_graph(2, [(0, 1)], name="b")
    assert G == H
    assert G.with_name("c").name == "c"
    assert "a" in repr(G)


def test_adjacency_masks():
    G = build_graph(3, [(0, 1), (1, 2)])
    assert list(G.adjacency_masks()) == [0b010, 0b101, 0b010]


def test_induced_subgraph_relabels_ascending():
    G = bs(2, 3)  # path 0-1-2, pendants 3,4 at 0 and 5,6 at 2
    H, vmap = induced_subgraph(G, [2, 0, 1])
    assert vmap == (0, 1, 2)
    assert H.edges() == [(0, 1), (1, 2)]
    H2, vmap2 = induced_subgraph(G, [5, 2, 6])
    assert vmap2 == (2, 5, 6)
    assert H2.edges() == [(0, 1), (0, 2)]


def test_induced_subgraph_matches_edge_filter_reference():
    rng = random.Random(97)
    for seed in range(200):
        n = rng.randint(1, 40)
        G = random_connected_graph(random.Random(seed), n, extra=rng.choice([0.05, 0.3]))
        G = G.with_name(f"g{seed}")
        picks = [[], [rng.randrange(n)], list(range(n)), rng.sample(range(n), rng.randint(0, n))]
        for vs in picks + [vs[::-1] + vs[:1] for vs in picks]:  # order and repeats do not matter
            H, vmap = induced_subgraph(G, vs)
            H_ref, vmap_ref = induced_subgraph_reference(G, vs)
            assert (H, H.name, vmap) == (H_ref, H_ref.name, vmap_ref), (seed, vs)
    for bad in ([-1, 0], [0, 5]):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(5), bad)


def test_is_connected_small_cases():
    assert is_connected(build_graph(0, []))
    assert is_connected(build_graph(1, []))
    assert is_connected(path_graph(5))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))


def test_is_connected_and_levelling_match_the_bfs_oracle_on_any_graph():
    # one BFS serves both; graphs of 0 and 1 vertices and disconnected ones included
    rng = random.Random(2627)
    graphs = [build_graph(0, []), build_graph(1, []), build_graph(2, []),
              build_graph(3, [(0, 2)]), build_graph(5, [(1, 2), (3, 4)])]
    for _ in range(600):
        n = rng.randint(1, 16)
        p = rng.choice((0.05, 0.15, 0.3, 0.6))
        graphs.append(build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    assert sum(not is_connected(G) for G in graphs) >= 200
    for G in graphs:
        dist = bfs_levels(G, 0) if G.n else {}
        assert is_connected(G) == (len(dist) == G.n)
        for root in range(G.n):
            dist = bfs_levels(G, root)
            if len(dist) < G.n:
                with pytest.raises(ValueError, match="connected"):
                    levelling(G, root)
                continue
            L = levelling(G, root)
            assert L.level_of == tuple(dist[v] for v in range(G.n))
            assert L.levels == tuple(frozenset(v for v in dist if dist[v] == k)
                                     for k in range(max(dist.values()) + 1))


def test_levelling_of_double_broom():
    G = bs(2, 3)
    L = levelling(G, 0)
    assert L.root == 0
    assert L.levels == (frozenset({0}), frozenset({1, 3, 4}), frozenset({2}), frozenset({5, 6}))
    assert L.N == 3
    assert L.level_of[2] == 2


def test_levelling_rejects_bad_input():
    with pytest.raises(ValueError):
        levelling(path_graph(3), 3)
    with pytest.raises(ValueError):
        levelling(build_graph(4, [(0, 1), (2, 3)]), 0)
    with pytest.raises(ValueError):
        levelling(build_graph(0, []), 0)


@given(st.integers(0, 10**6), st.integers(2, 12))
def test_levelling_matches_bfs_oracle(seed, n):
    G = random_connected_graph(random.Random(seed), n)
    root = random.Random(seed + 1).randrange(n)
    L = levelling(G, root)
    oracle = bfs_levels(G, root)
    assert dict(enumerate(L.level_of)) == oracle
    for k, level in enumerate(L.levels):
        assert level == frozenset(v for v, d in oracle.items() if d == k)


def test_children_within_levelling():
    L = levelling(bs(2, 3), 0)
    assert children(L, 0) == frozenset({1, 3, 4})
    assert children(L, 1) == frozenset({2})
    assert children(L, 3) == frozenset()
    assert children(L, 2) == frozenset({5, 6})


def test_clean_level_detection():
    L = levelling(bs(2, 3), 1)
    assert L.levels == (frozenset({1}), frozenset({0, 2}), frozenset({3, 4, 5, 6}))
    assert not is_clean_level(L, 1)  # root's children 0,2 are nonadjacent
    assert not is_clean_level(L, 2)  # pendant pairs are nonadjacent
    K = levelling(complete_graph(4), 0)
    assert is_clean_level(K, 1)
    with pytest.raises(ValueError):
        is_clean_level(K, 0)
    with pytest.raises(ValueError):
        is_clean_level(K, 2)


def test_snail_horns():
    assert [(h.head, h.beards) for h in snail_horns(bs(2, 3))] == [
        (0, (3, 4)),
        (2, (5, 6)),
    ]
    assert [(h.head, h.beards) for h in snail_horns(star_graph(4))] == [
        (0, (1, 2, 3, 4))
    ]
    assert snail_horns(path_graph(4)) == []
    assert snail_horns(complete_graph(3)) == []
