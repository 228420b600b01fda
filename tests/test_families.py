from itertools import product

import pytest
from hypothesis import given, strategies as st

from bonematch import (
    FAMILIES,
    families,
    broom,
    bs,
    build_family,
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    deficiency,
    e_family,
    e_plus_family,
    f_family,
    family_label,
    graph_key,
    is_connected,
    path_graph,
    s_family,
    skeleton_tree,
    star_graph,
    t_family,
    t_tree,
)


def test_broom_shape():
    D = broom(2, 3)
    assert D.name == "D(2,3)"
    assert D.n == 5
    assert D.edges() == [(0, 1), (1, 2), (2, 3), (2, 4)]
    assert broom(3, 1).edges() == [(0, 1), (0, 2), (0, 3)]  # p=1: pendants on the root


@given(st.integers(1, 5), st.integers(2, 6))
def test_double_broom_vertex_count(n, p):
    G = bs(n, p)
    assert G.n == p + 2 * n
    assert is_connected(G)
    assert G.edge_count() == G.n - 1  # tree


def test_double_broom_requires_two_ends():
    with pytest.raises(ValueError):
        bs(2, 1)


@given(st.integers(2, 5), st.integers(1, 5))
def test_glued_brooms_vertex_count(n, p):
    G = s_family(n, p)
    assert G.n == 1 + n * (p + n - 2)
    assert is_connected(G)


@given(st.integers(2, 5), st.integers(1, 5))
def test_doubled_core_vertex_count(n, p):
    G = t_family(n, p)
    assert G.n == 2 * p + 3 * n
    assert is_connected(G)


def test_doubled_core_smallest_case():
    G = t_family(2, 1)
    assert G.n == 8
    assert G.edges() == [
        (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 6), (1, 7),
    ]


@given(st.integers(2, 5), st.integers(1, 4), st.integers(1, 4))
def test_clique_brooms_vertex_count(m, n, p):
    G = e_family(m, n, p)
    assert G.n == m * (n + p)
    assert is_connected(G)
    E = e_plus_family(m, n, max(p, 2))
    assert E.n == m * (n + max(p, 2)) + 1


def test_clique_brooms_augmented_requires_long_handle():
    with pytest.raises(ValueError):
        e_plus_family(3, 2, 1)
    assert e_plus_family(2, 3, 3).name == "E+(2,3,3)@clique-end"
    # the extra vertex is adjacent to a clique vertex and its first path vertex
    G = e_plus_family(2, 3, 3)
    extra = G.n - 1
    assert sorted(G.adj[extra]) == [0, 2]
    assert G.has_edge(0, 2)


def test_family_names():
    assert bs(2, 3).name == "BS(2,3)"
    assert s_family(3, 3).name == "S(3,3)"
    assert t_family(2, 3).name == "T(2,3)"
    assert e_family(3, 2, 2).name == "E(3,2,2)"
    assert t_tree(5, 4).name == "T_tree(5,4)"
    assert skeleton_tree(1, 2).name == "T(1,2)"
    assert f_family(1, 2).name == "F(1,2)"


def test_layered_tree_validation_and_shape():
    with pytest.raises(ValueError):
        t_tree(4, 4)  # even first parameter
    with pytest.raises(ValueError):
        t_tree(1, 4)
    with pytest.raises(ValueError):
        t_tree(5, 3)
    assert t_tree(3, 5) == star_graph(4)
    G = t_tree(5, 4)
    assert G.n == 13
    assert G.edge_count() == 12 and is_connected(G)


# (family, arguments, graph_key, name): the layered trees fixed when both were
# built by their own level loops, the broom families when each broom rebuilt
# the graph; ids and names must not move
FAMILY_IDENTITY = [
    ("t_tree", (3, 4), "f1ec58bbbe5b", "T_tree(3,4)"),
    ("t_tree", (3, 5), "fad598e9d1b8", "T_tree(3,5)"),
    ("t_tree", (3, 6), "ee76345c388c", "T_tree(3,6)"),
    ("t_tree", (5, 4), "5fc60497f43a", "T_tree(5,4)"),
    ("t_tree", (5, 5), "dcc594800014", "T_tree(5,5)"),
    ("t_tree", (5, 6), "ee1ee348b527", "T_tree(5,6)"),
    ("t_tree", (7, 4), "6b300fde9ebc", "T_tree(7,4)"),
    ("t_tree", (7, 5), "fe8f8ac8eeba", "T_tree(7,5)"),
    ("t_tree", (7, 6), "3b135d7bfc11", "T_tree(7,6)"),
    ("t_tree", (9, 4), "affc33b7312a", "T_tree(9,4)"),
    ("t_tree", (9, 5), "33e9ead58e95", "T_tree(9,5)"),
    ("t_tree", (9, 6), "dcc51ff8d56b", "T_tree(9,6)"),
    ("d", (1, 1), "5a396e832ceb", "D(1,1)"),
    ("d", (2, 3), "ef3f613e43cb", "D(2,3)"),
    ("d", (3, 1), "f1ec58bbbe5b", "D(3,1)"),
    ("d", (1, 4), "08bdac537b09", "D(1,4)"),
    ("bs", (1, 2), "08e0b2801ee5", "BS(1,2)"),
    ("bs", (2, 3), "b80f271a378d", "BS(2,3)"),
    ("bs", (3, 2), "d4abe66e21c3", "BS(3,2)"),
    ("bs", (2, 5), "9ad49e557a84", "BS(2,5)"),
    ("s", (2, 1), "04778bb9165e", "S(2,1)"),
    ("s", (3, 3), "bab963696284", "S(3,3)"),
    ("s", (4, 2), "08cff1d44b52", "S(4,2)"),
    ("s", (2, 4), "6f068e4a1859", "S(2,4)"),
    ("t", (1, 1), "ac8ebfbc0df6", "T(1,1)"),
    ("t", (2, 3), "a2de61a315ee", "T(2,3)"),
    ("t", (3, 2), "9c598a63ac14", "T(3,2)"),
    ("t", (4, 1), "50673c0a33cd", "T(4,1)"),
    ("e", (1, 1, 1), "5a396e832ceb", "E(1,1,1)"),
    ("e", (3, 2, 2), "587069bb4b6b", "E(3,2,2)"),
    ("e", (4, 3, 1), "f5adc024aa0c", "E(4,3,1)"),
    ("e", (2, 1, 3), "6fff29174e2b", "E(2,1,3)"),
    ("e_plus", (1, 1, 2), "9295ec439cf0", "E+(1,1,2)@clique-end"),
    ("e_plus", (2, 3, 3), "ebf9a7b45dc8", "E+(2,3,3)@clique-end"),
    ("e_plus", (3, 2, 2), "18627429332c", "E+(3,2,2)@clique-end"),
    ("e_plus", (4, 1, 4), "7e93adc55cbf", "E+(4,1,4)@clique-end"),
]
SKELETON_IDENTITY = [
    ((1,), "f1ec58bbbe5b", "T(1)", "7f4515cb7714", "F(1)"),
    ((1, 2), "ad2bba5f2a1b", "T(1,2)", "6efd10e805a5", "F(1,2)"),
    ((1, 2, 3), "545ae6a097e8", "T(1,2,3)", "eeacd1751699", "F(1,2,3)"),
    ((2, 4, 5), "6b300fde9ebc", "T(2,4,5)", "eae6a09f887a", "F(2,4,5)"),
]


def test_layered_trees_keep_their_ids_and_names():
    for family, args, key, name in FAMILY_IDENTITY:
        G = build_family(family, dict(zip(FAMILIES[family][0], args)))
        assert (graph_key(G), G.name) == (key, name), (family, args)
    for args, tree_key, tree_name, f_key, f_name in SKELETON_IDENTITY:
        T, F = skeleton_tree(*args), f_family(*args)
        assert (graph_key(T), T.name, graph_key(F), F.name) == (tree_key, tree_name, f_key, f_name)


def test_skeleton_tree():
    assert skeleton_tree(1) == star_graph(3)
    with pytest.raises(ValueError):
        skeleton_tree(2, 1)  # not ascending
    with pytest.raises(ValueError):
        skeleton_tree(0)
    T = skeleton_tree(1, 2)
    assert T.n == 10 and T.edge_count() == 9


def test_branching_construction_sizes():
    assert f_family(1).n == 12
    assert f_family(1, 2).n == 30
    assert is_connected(f_family(1, 2))


def test_family_deficiencies():
    assert deficiency(s_family(3, 3)) == 5
    assert deficiency(t_family(2, 3)) == 4
    assert deficiency(e_family(3, 2, 2)) == 4
    assert deficiency(e_plus_family(2, 3, 3)) == 5


def test_clique_brooms_deficiency_scales_with_clique():
    for m in (3, 4, 5):
        for p in (2, 3):
            assert deficiency(e_family(m, 2, p)) >= m


def test_basic_builders():
    assert path_graph(1).edges() == []
    assert star_graph(4).n == 5
    assert complete_graph(4).edge_count() == 6
    assert complete_bipartite_graph(2, 3).edge_count() == 6


def test_registry_round_trip():
    assert build_family("bs", {"n": 2, "p": 3}) == bs(2, 3)
    assert build_family("f", {"a": [1, 2]}) == f_family(1, 2)
    assert build_family("path", {"k": 4}) == path_graph(4)
    with pytest.raises(ValueError):
        build_family("nope", {})
    with pytest.raises(ValueError):
        build_family("bs", {"n": 2})
    with pytest.raises(ValueError):
        build_family("bs", {"n": 2, "p": 3, "q": 1})
    with pytest.raises(ValueError, match="parameter 'n' of family 'bs' takes an integer"):
        build_family("bs", {"n": [1, 2], "p": 3})


def test_family_label():
    assert family_label("bs", {"n": 2, "p": 3}) == "bs(n=2,p=3)"
    assert family_label("f", {"a": [1, 3]}) == family_label("f", {"a": (1, 3)}) == "f(a=1:3)"


def test_registry_contents():
    assert sorted(FAMILIES) == [
        "bs", "complete", "complete_bipartite", "d", "e", "e_plus", "f",
        "path", "s", "skeleton", "star", "t", "t_tree",
    ]


def test_builders_are_deterministic():
    assert f_family(1, 2) == f_family(1, 2)
    assert t_tree(7, 5) == t_tree(7, 5)
    assert e_plus_family(3, 2, 2) == e_plus_family(3, 2, 2)


def _registry_instances():
    # every parameter 0..6 (parameters a builder refuses are skipped), a few
    # level lists, and layered trees deep enough to pass through the cap code
    for family, (names, _, _) in FAMILIES.items():
        if family in ("skeleton", "f"):
            for a in (1, 4, [1, 2], [2, 5], [1, 2, 3], [1, 3, 4, 7], [1, 2, 3, 4, 5]):
                yield family, {"a": a}
        else:
            for values in product(range(7), repeat=len(names)):
                yield family, dict(zip(names, values))
    for m, n in ((9, 5), (11, 4), (13, 6)):
        yield "t_tree", {"m": m, "n": n}


def test_registry_counts_equal_the_built_graphs():
    built = 0
    for family, params in _registry_instances():
        try:
            G = build_family(family, params)
        except ValueError:
            continue
        assert FAMILIES[family][2](**params) == (G.n, G.edge_count()), (family, params)
        built += 1
    assert built >= 600


def test_t_tree_size_guard_counts_the_tree_it_guards():
    # the guard and t_tree read one fan-out list; t_tree(11, 12) is over the cap
    for m in range(3, 12, 2):
        for n in range(4, 13):
            assert families._t_tree_vertices(m, n) == t_tree(m, n).n, (m, n)


def test_family_cap_refuses_before_building_and_admits_the_cap(monkeypatch):
    over = [("t_tree", {"m": 3, "n": 100_001}), ("t_tree", {"m": 31, "n": 4}),
            ("t_tree", {"m": 41, "n": 20}), ("skeleton", {"a": 33_334}),
            ("f", {"a": list(range(1, 21))}), ("complete", {"k": 448}),
            ("complete", {"k": 10**6}), ("path", {"k": 10**12})]

    def no_build(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(families, "build_graph", no_build)
    for family, params in over:
        with pytest.raises(ValueError, match="more than 100000 vertices or edges"):
            build_family(family, params)
    monkeypatch.undo()
    assert build_family("t_tree", {"m": 3, "n": 100_000}).n == 100_000
    assert build_family("t_tree", {"m": 29, "n": 4}).n == 73_723
    assert build_family("skeleton", {"a": 33_333}).n == 100_000
    assert build_family("complete", {"k": 447}).edge_count() == 99_681


def test_each_instance_takes_at_most_three_build_graph_calls(monkeypatch):
    # e_plus builds e_family, which builds complete_graph: three graphs at
    # most, however many brooms and triangles an instance has
    calls = 0
    real = families.build_graph

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(families, "build_graph", counting)
    for family, params in _registry_instances():
        calls = 0
        try:
            build_family(family, params)
        except ValueError:
            pass
        assert calls <= 3, (family, params)
    # the largest f within the cap
    assert build_family("f", {"a": list(range(1, 14))}).n == 73_722
