import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bonematch import (
    ADMITTING_CONSTRAINTS,
    GuardExceededError,
    TheoremSpec,
    admitting_set,
    bs,
    build_graph,
    check_theorem,
    clique_number,
    complete_graph,
    deficiency,
    e_family,
    f_family,
    find_induced_bone,
    local_independence_number,
    random_connected,
    star_graph,
    structure_profile,
    t_tree,
)
from bonematch import structure
from bonematch.harness import _connected_classes
from .test_acceptance import _family_instances
from .helpers import (
    admitting_set_by_path_enum,
    bone_scan_reference,
    close_reference,
    has_independent_neighbors,
    has_induced_bone_subsets,
    random_connected_graph,
    random_tree,
    tree_admitting_oracle,
)


def test_local_independence_examples():
    assert local_independence_number(star_graph(7)) == 7
    assert local_independence_number(complete_graph(5)) == 1
    assert local_independence_number(bs(2, 3)) == 3
    assert local_independence_number(build_graph(3, [])) == 0


@given(st.integers(0, 10**6), st.integers(2, 10))
def test_local_independence_matches_neighborhood_scan(seed, n):
    G = random_connected_graph(random.Random(seed), n, extra=0.3)
    got = local_independence_number(G)
    best = 0
    for v in G.vertices():
        for t in range(len(G.adj[v]), 0, -1):
            if t <= best:
                break
            if has_independent_neighbors(G, v, t):
                best = t
                break
    assert got == best


def test_clique_number_examples():
    assert clique_number(complete_graph(5)) == 5
    assert clique_number(t_tree(5, 4)) == 2
    assert clique_number(f_family(1)) == 3


def test_find_induced_bone_examples():
    emb = find_induced_bone(bs(2, 5), 5)
    assert emb.path == (0, 1, 2, 3, 4)
    assert emb.pendants_left == (5, 6)
    assert emb.pendants_right == (7, 8)
    assert emb.index == 5
    assert sorted(emb.vertices()) == list(range(9))
    assert find_induced_bone(bs(2, 5), 4) is None
    assert find_induced_bone(star_graph(4), 2) is None


def test_find_induced_bone_validates_arguments():
    with pytest.raises(ValueError):
        find_induced_bone(bs(2, 3), 1)


def test_found_embeddings_are_real_bones():
    for G, i in [(bs(2, 3), 3), (bs(5, 4), 4), (f_family(1), 4), (t_tree(5, 4), 5)]:
        emb = find_induced_bone(G, i)
        assert emb is not None and emb.index == i
        verts = list(emb.path) + list(emb.pendants_left) + list(emb.pendants_right)
        assert len(set(verts)) == i + 4
        induced = [
            (u, v) for u, v in combinations(sorted(verts), 2) if G.has_edge(u, v)
        ]
        assert len(induced) == i + 3  # bones are trees on i+4 vertices
        for a, b in zip(emb.path, emb.path[1:]):
            assert G.has_edge(a, b)
        for p in emb.pendants_left:
            assert G.has_edge(emb.path[0], p)
        for p in emb.pendants_right:
            assert G.has_edge(emb.path[-1], p)


def _oracle_graphs():
    # 100 graphs on 6..10 vertices, where every index is also checked by the
    # subset-isomorphism oracle, then 140 sparser ones on 11..30 vertices
    # (the path-enumeration oracle slows down sharply with density there).
    rng = random.Random(2505)
    sizes = [6 + k % 5 for k in range(100)] + [11 + k % 20 for k in range(140)]
    for n in sizes:
        extra = rng.choice((0.1, 0.2, 0.3) if n <= 10 else (0.04, 0.08, 0.12))
        yield random_connected_graph(rng, n, extra=extra)


def test_bone_search_agrees_with_oracles():
    for G in _oracle_graphs():
        n = G.n
        A = admitting_set(G)
        assert A == admitting_set_by_path_enum(G), (n, G.edges())
        if n <= 10:
            for i in range(2, n - 3):
                got = find_induced_bone(G, i)
                assert (got is not None) == has_induced_bone_subsets(G, i), (i, G.edges())
                assert (got is not None) == (i in A)


def _dense_graphs():
    # triangles leave many vertices of degree 3 or more that are no claw centre
    rng = random.Random(2311)
    for k in range(160):
        yield random_connected_graph(rng, 8 + k % 13, extra=(0.2, 0.3, 0.45, 0.6)[k % 4])


def test_bone_scan_matches_the_frozen_two_direction_scan(monkeypatch):
    # Closing spines in one direction at claw centres, and pruning branches
    # that cannot reach one, finds each index at the same node with the same
    # embedding within the reference's node budget, and strictly under it on
    # most graphs.  A stopped scan is the full scan's prefix up to its first
    # stopping index.
    stops = [frozenset(range(2, 30, 2)), frozenset(range(3, 30, 2)), frozenset(range(2, 30))]
    for graphs, least in ((_oracle_graphs(), 50), (_dense_graphs(), 150)):
        fewer = stopped = 0
        for G in graphs:
            wanted = set(range(2, G.n - 3))
            expected, nodes = bone_scan_reference(G, wanted)
            masks = G.adjacency_masks()
            centres = structure._claw_centres(masks)
            monkeypatch.setattr(structure, "_BONE_BUDGET", nodes)
            found = structure._bone_scan(masks, centres, wanted)
            assert found == expected and list(found) == list(expected), G.edges()
            if nodes:
                monkeypatch.setattr(structure, "_BONE_BUDGET", nodes - 1)
                try:
                    structure._bone_scan(masks, centres, wanted)
                    fewer += 1
                except GuardExceededError:
                    pass
            monkeypatch.undo()
            items = list(expected.items())
            for stop in stops:
                cut = next((k + 1 for k, (i, _) in enumerate(items) if i in stop), len(items))
                got = structure._bone_scan(masks, centres, wanted, stop)
                assert got == dict(items[:cut]), (stop, G.edges())
                stopped += cut < len(items)
        assert stopped >= 100 and fewer >= least


def test_close_matches_the_frozen_combinations_close(monkeypatch):
    # Walking the candidate masks lowest bit first picks the same pendant
    # pairs as combinations over the sorted candidates, on every close the
    # scan attempts, failed ones included.
    outcomes = {"found": 0, "none": 0}
    close = structure._close

    def checked(masks, path, left, right):
        got = close(masks, path, left, right)
        assert got == close_reference(masks, path, left, right), (path, left, right, masks)
        outcomes["none" if got is None else "found"] += 1
        return got

    monkeypatch.setattr(structure, "_close", checked)
    rng = random.Random(3203)
    graphs = [G for G, _ in _connected_classes(7)]
    graphs += [random_connected_graph(rng, 8 + k % 9, extra=(0.05, 0.1, 0.2, 0.35)[k % 4])
               for k in range(200)]
    for G in graphs:
        admitting_set(G)
        for i in range(2, G.n - 3):
            find_induced_bone(G, i)
    assert outcomes["found"] >= 600 and outcomes["none"] >= 2000, outcomes


def _node_count_graphs():
    rng = random.Random(3204)
    return _family_instances() + [
        random_connected_graph(rng, 12 + k % 19, extra=(0.05, 0.1, 0.15, 0.2)[k % 4])
        for k in range(40)]


# The least _BONE_BUDGET at which admitting_set completes on each graph of
# _node_count_graphs(): the DFS nodes its scan visits, taken before the scan
# read its per-node flags once per node.
BONE_SCAN_NODES = [
    0, 0, 34, 77, 268, 4, 6, 8, 5, 7, 9, 6, 8, 10, 7, 9, 11, 1, 4, 5, 34, 52, 77, 109, 23, 33,
    33, 45, 42, 56, 20, 9, 20, 143,
    25, 105, 112, 236, 56, 364, 767, 1057, 248, 1195, 3128, 2238, 1612, 2540, 11290, 14132,
    6894, 27435, 32713, 64, 5, 118, 264, 483, 105, 952, 836, 1182, 402, 1360, 1916, 5296, 531,
    6904, 10108, 11950, 1776, 10057, 55, 83,
]


def test_bone_scan_node_counts_are_pinned(monkeypatch):
    graphs = _node_count_graphs()
    assert len(graphs) == len(BONE_SCAN_NODES) == 74
    for G, nodes in zip(graphs, BONE_SCAN_NODES):
        monkeypatch.setattr(structure, "_BONE_BUDGET", nodes)
        expected = admitting_set(G)
        if nodes:
            monkeypatch.setattr(structure, "_BONE_BUDGET", nodes - 1)
            with pytest.raises(GuardExceededError):
                admitting_set(G)
        monkeypatch.undo()
        assert admitting_set(G) == expected, G.edges()


def test_alpha_threshold_matches_the_local_independence_number():
    # "some vertex w has alpha(N(w)) > k" is alpha_l > k for every k up to
    # alpha_l + 1, and each search with a floor f gives max(f, alpha)
    rng = random.Random(2904)
    pool = [G for G, _ in _connected_classes(7)]
    pool += [random_connected_graph(rng, 5 + k % 16, extra=(0.1, 0.25, 0.4, 0.6)[k % 4])
             for k in range(300)]
    for G in pool:
        masks = G.adjacency_masks()
        alpha_l = local_independence_number(G)
        for k in range(alpha_l + 2):
            assert structure._alpha_exceeds(masks, (1 << G.n) - 1, k) == (alpha_l > k), (
                k, G.edges())
        for m in masks:
            alpha = structure._alpha_of_mask(masks, m)
            for floor in range(m.bit_count() + 2):
                assert structure._alpha_of_mask(masks, m, floor) == max(floor, alpha)


def test_claw_centres_match_the_neighbourhood_scan():
    rng = random.Random(1733)
    for k in range(300):
        G = random_connected_graph(rng, 4 + k % 12, extra=(0.1, 0.25, 0.4, 0.6)[k % 4])
        centres = structure._claw_centres(G.adjacency_masks())
        assert {v for v in G.vertices() if centres >> v & 1} == {
            v for v in G.vertices() if has_independent_neighbors(G, v, 3)}, G.edges()


def test_claw_free_graphs_scan_no_node(monkeypatch):
    monkeypatch.setattr(structure, "_BONE_BUDGET", 0)
    cycle = build_graph(12, [(v, (v + 1) % 12) for v in range(12)])
    for G in (complete_graph(8), cycle):
        assert admitting_set(G) == frozenset()
        assert find_induced_bone(G, 2) is None


def test_bone_search_budget_trips_guard(monkeypatch):
    # find_induced_bone(G, 8) visits 7 nodes, the full admitting-set scan more
    monkeypatch.setattr(structure, "_BONE_BUDGET", 6)
    G = f_family(1, 2)
    with pytest.raises(GuardExceededError):
        admitting_set(G)
    with pytest.raises(GuardExceededError):
        find_induced_bone(G, 8)
    result = check_theorem(G, TheoremSpec("thm-1.3-bonefree"))
    assert result.verdict == "indeterminate" and not result.passed
    monkeypatch.setattr(structure, "_BONE_BUDGET", 7)
    assert find_induced_bone(G, 8) is not None


def test_bone_search_on_sparse_80_vertex_graph_ends(monkeypatch):
    # the full scan of this graph trips the guard at the real budget, after
    # seconds; each early-stopping constraint of the search is answered at
    # once by a bone of an index that refutes it
    G = random_connected(80, 0.05, 1)
    for name, constraint in ADMITTING_CONSTRAINTS.items():
        if constraint is not None:
            _, refuted_by = constraint
            stop = frozenset(filter(refuted_by, range(2, G.n - 3)))
            masks = G.adjacency_masks()
            found = structure._bone_scan(masks, structure._claw_centres(masks),
                                         set(range(2, G.n - 3)), stop)
            assert found.keys() & stop, name
    monkeypatch.setattr(structure, "_BONE_BUDGET", 10_000)
    with pytest.raises(GuardExceededError):
        admitting_set(G)


def test_admitting_set_examples():
    assert admitting_set(bs(2, 3)) == {3}
    assert admitting_set(t_tree(5, 4)) == {3, 5}
    assert admitting_set(e_family(3, 2, 2)) == {4}
    assert admitting_set(complete_graph(6)) == frozenset()


def test_admitting_set_of_single_branch_construction():
    G = f_family(1)  # 12 vertices: small enough for the subset-isomorphism oracle
    A = admitting_set(G)
    assert A == {4}
    for i in range(2, 9):
        assert has_induced_bone_subsets(G, i) == (i in A)


def test_admitting_set_of_branching_construction():
    # Each triangle splice on the leaf-to-leaf path contributes two interior
    # path vertices, so the deeper branch point yields index 8 here, not 6.
    G = f_family(1, 2)
    A = admitting_set(G)
    assert A == {4, 8}
    assert admitting_set_by_path_enum(G) == A


def test_admitting_set_cap():
    G = bs(2, 10)  # the 14-vertex bone with spine length 10
    assert admitting_set(G) == {10}
    assert admitting_set(G, i_max=3) == frozenset()
    assert admitting_set(G, i_max=99) == {10}


@given(st.integers(0, 10**6), st.integers(5, 14))
def test_tree_admitting_matches_branch_distance_oracle(seed, n):
    T = random_tree(random.Random(seed), n)
    expected = {i for i in tree_admitting_oracle(T) if i <= T.n - 4}
    assert admitting_set(T) == expected


@given(st.integers(0, 10**6), st.integers(4, 9))
def test_claw_free_matches_subset_scan(seed, n):
    G = random_connected_graph(random.Random(seed), n, extra=0.35)
    claw = any(has_independent_neighbors(G, v, 3) for v in G.vertices())
    assert structure_profile(G).claw_free == (not claw)
    assert (local_independence_number(G) >= 3) == claw


def test_structure_profile_examples():
    p = structure_profile(complete_graph(3))
    assert (p.alpha_l, p.omega, p.admitting) == (1, 3, frozenset())
    assert p.claw_free and not p.triangle_free
    assert p.admitting_cap == -1
    q = structure_profile(bs(2, 3))
    assert (q.alpha_l, q.omega, q.admitting, q.snail_horn_count) == (
        3,
        2,
        frozenset({3}),
        2,
    )
    assert not q.claw_free and q.triangle_free
    e = structure_profile(e_family(3, 2, 2))
    assert e.admitting == {4}
    assert e.alpha_l == 3
    # above the 40-vertex clique-number guard omega is unknown, not an error
    t = structure_profile(t_tree(7, 5), 0)
    assert t.omega is None and t.triangle_free is None
    assert (t.alpha_l, t.admitting, t.admitting_cap) == (4, frozenset(), 0)


def test_structure_profile_json_keys():
    d = structure_profile(complete_graph(3)).to_json_dict()
    assert set(d) == {
        "alpha_l",
        "omega",
        "admitting",
        "admitting_cap",
        "snail_horns",
        "claw_free",
        "triangle_free",
    }
    assert d["admitting"] == []
    assert d["snail_horns"] == 0


def test_structure_guards():
    with pytest.raises(GuardExceededError):
        local_independence_number(star_graph(41))
    # the threshold test checks the degree guard before any search, so a
    # cap above every degree still trips it, with the same message
    masks = star_graph(41).adjacency_masks()
    for k in (0, 3, 41, 100):
        with pytest.raises(GuardExceededError, match="^neighbourhood of 0 exceeds 40 vertices$"):
            structure._alpha_exceeds(masks, (1 << 42) - 1, k)
