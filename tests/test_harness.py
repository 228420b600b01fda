import hashlib
import json
import random
from collections import Counter
from itertools import combinations
from math import factorial
from pathlib import Path
from types import SimpleNamespace

import pytest

from bonematch import (
    GuardExceededError,
    SearchConstraints,
    THEOREM_IDS,
    TheoremSpec,
    bs,
    build_graph,
    canonical_form,
    check_theorem,
    complete_graph,
    e_family,
    exhaustive_sweep,
    extremal_search,
    graph_from_json_dict,
    graph_key,
    json_text,
    path_graph,
    random_connected,
    s_family,
    star_graph,
    t_family,
    t_tree,
)
from bonematch import canon, graphs, harness, matching, structure
from bonematch.harness import _connected_classes, _instance_row, _table_facts, rows_to_csv

from . import helpers
from .helpers import (
    are_isomorphic,
    bfs_levels,
    canonical_form_reference,
    check_theorem_reference,
    connected_classes_reference,
    labelled_sweep,
    random_connected_graph,
    random_tree,
)
from .test_acceptance import _family_instances


def cycle(k):
    return build_graph(k, [(v, (v + 1) % k) for v in range(k)])


def test_theorem_id_registry():
    assert THEOREM_IDS == (
        "thm-1.2-clawfree",
        "thm-1.3-bonefree",
        "thm-1.4-main",
        "thm-1.4-m3",
        "thm-1.6-q=2p+1",
        "thm-1.6-q=2p-1",
        "thm-1.8-single-even",
        "thm-1.8-all-even",
        "cor-1.3",
        "cor-2.3-snailhorn",
        "prop-5.1-mod",
    )
    with pytest.raises(ValueError):
        TheoremSpec("thm-9.9-unknown")


def test_clawfree_bound_on_triangle():
    r = check_theorem(complete_graph(3), TheoremSpec("thm-1.2-clawfree"))
    assert r.to_json_dict() == {
        "theorem": "thm-1.2-clawfree",
        "hypotheses": {"connected": True, "alpha_l < 3": True},
        "hypotheses_met": True,
        "bound": 1,
        "actual": 1,
        "pass": True,
        "vacuous": False,
        "indeterminate": False,
        "note": "",
        "details": {"alpha_l": 1, "connected": True, "kd": 1},
    }


def test_clawfree_check_is_vacuous_on_a_claw():
    r = check_theorem(star_graph(3), TheoremSpec("thm-1.2-clawfree"))
    assert r.passed and r.vacuous
    assert r.hypotheses == (("connected", True), ("alpha_l < 3", False))


def test_bonefree_bound():
    r = check_theorem(cycle(6), TheoremSpec("thm-1.3-bonefree"))
    assert r.passed and not r.vacuous
    # auto parameter n = max(alpha_l + 1, 4) = 4, so the bound is n - 2 = 2
    assert (r.bound_value, r.actual_deficiency) == (2, 0)
    r6 = check_theorem(cycle(6), TheoremSpec("thm-1.3-bonefree", n=6))
    assert (r6.bound_value, r6.actual_deficiency) == (4, 0)
    r2 = check_theorem(bs(2, 2), TheoremSpec("thm-1.3-bonefree"))
    assert r2.passed and r2.vacuous
    assert ("no bones", False) in r2.hypotheses


def test_odd_admitting_bound_smallest_case():
    r = check_theorem(bs(2, 3), TheoremSpec("thm-1.4-m3", n=4))
    assert r.passed and not r.vacuous
    assert r.bound_value == 3 == r.actual_deficiency  # extremal: bound is tight
    names = [name for name, _ in r.hypotheses]
    assert names == [
        "connected",
        "n > 3",
        "alpha_l < n",
        "admitting all odd",
        "no p+q+-1 in admitting",
    ]


def test_odd_admitting_bound_auto_n():
    # n defaults to max(alpha_l + 1, 4); for the smallest odd bone that is 4
    r = check_theorem(bs(2, 3), TheoremSpec("thm-1.4-m3"))
    assert r.passed and r.bound_value == 3


def test_general_odd_admitting_bound():
    r = check_theorem(t_tree(5, 4), TheoremSpec("thm-1.4-main", m=5, n=4))
    assert r.passed and not r.vacuous
    assert r.bound_value == 11
    assert r.actual_deficiency == 5


def test_parameter_validation():
    with pytest.raises(ValueError):
        check_theorem(t_tree(5, 4), TheoremSpec("thm-1.4-main", m=4, n=4))
    with pytest.raises(ValueError):
        check_theorem(t_tree(5, 4), TheoremSpec("thm-1.4-main", n=4))
    with pytest.raises(ValueError):
        check_theorem(t_family(2, 3), TheoremSpec("thm-1.6-q=2p+1", p=2, n=4))


def test_two_odd_indices_bounds_are_tight_on_their_families():
    r = check_theorem(t_family(2, 3), TheoremSpec("thm-1.6-q=2p+1", p=3, n=4))
    assert r.passed and r.bound_value == 4 == r.actual_deficiency
    assert ("admitting within {3,7}", True) in r.hypotheses
    r2 = check_theorem(s_family(3, 3), TheoremSpec("thm-1.6-q=2p-1", p=3, n=4))
    assert r2.passed and r2.bound_value == 5 == r2.actual_deficiency
    assert ("admitting within {3,5}", True) in r2.hypotheses


def test_single_even_index_bound():
    r = check_theorem(e_family(3, 2, 2), TheoremSpec("thm-1.8-single-even", m=4, p=2, n=5))
    assert r.passed and not r.vacuous
    assert r.bound_value == 7 and r.actual_deficiency == 4
    assert ("omega < m", True) in r.hypotheses
    assert ("admitting within {4}", True) in r.hypotheses


def test_all_even_bound_is_tight_on_smallest_even_bone():
    r = check_theorem(bs(2, 2), TheoremSpec("thm-1.8-all-even", n=4))
    assert r.passed and r.bound_value == 2 == r.actual_deficiency
    assert ("omega < 3", True) in r.hypotheses
    assert ("admitting all even", True) in r.hypotheses


def test_tree_equality_check():
    r = check_theorem(t_tree(5, 4), TheoremSpec("cor-1.3", m=5, n=4))
    assert r.passed
    assert r.bound_value == 5 == r.actual_deficiency
    assert r.note == "equality check"
    r2 = check_theorem(t_tree(5, 5), TheoremSpec("cor-1.3", m=5, n=4))
    assert not r2.passed  # wrong parameters: value must match exactly


def test_snail_horn_criterion_on_critical_graph():
    r = check_theorem(bs(2, 3), TheoremSpec("cor-2.3-snailhorn"))
    assert r.passed and not r.vacuous
    assert r.hypotheses == (
        ("connected", True),
        ("nontrivial", True),
        ("deficiency-critical", True),
    )
    r2 = check_theorem(bs(2, 2), TheoremSpec("cor-2.3-snailhorn"))
    assert r2.passed and r2.vacuous  # not critical, so nothing to check


def test_congruence_report():
    r = check_theorem(t_tree(5, 4), TheoremSpec("prop-5.1-mod", m=5, n=4))
    assert r.passed
    assert r.bound_value is None
    assert r.note == "congruence report, not an asserted bound"


def test_guard_exceeded_yields_indeterminate():
    r = check_theorem(t_tree(7, 5), TheoremSpec("thm-1.8-single-even", m=5, p=1, n=5))
    assert r.verdict == "indeterminate" and not r.passed
    assert "clique number" in r.note


def test_exhaustive_sweep_counts():
    rep = exhaustive_sweep(4, TheoremSpec("thm-1.2-clawfree"))
    assert not rep.violations
    d = rep.to_json_dict()
    # connected labelled graphs on 1..4 vertices: 1 + 1 + 4 + 38
    assert d["connected"] == 44 and d["checked"] == 44
    # one check per isomorphism class: 1 + 1 + 2 + 6
    assert d["classes"] == 10
    # exactly the 4 labelled claws fail the hypothesis
    assert d["hypotheses_met"] == 40 and d["vacuous"] == 4
    assert d["max_deficiency_met"] == 1
    assert d["violations"] == []


def test_exhaustive_sweep_multiple_theorems_clean_at_five():
    for tid in ("thm-1.3-bonefree", "thm-1.8-all-even"):
        rep = exhaustive_sweep(5, TheoremSpec(tid))
        assert not rep.violations and rep.connected_count == 1 + 1 + 4 + 38 + 728


@pytest.mark.parametrize("tid", ["thm-1.2-clawfree", "thm-1.3-bonefree", "thm-1.4-m3",
                                 "cor-2.3-snailhorn"])
def test_exhaustive_sweep_calls_check_theorem_with_the_graph_and_spec_only(monkeypatch, tid):
    # the benchmark times each check by a wrapper of exactly (G, spec) put in
    # as the module global; any further argument would fail every sweep item
    spec, calls = TheoremSpec(tid), []
    expected = exhaustive_sweep(5, spec)
    inner = harness.check_theorem

    def strict(G, spec):
        calls.append(G.n)
        return inner(G, spec)

    monkeypatch.setattr(harness, "check_theorem", strict)
    assert exhaustive_sweep(5, spec) == expected
    assert len(calls) == expected.class_count == 1 + 1 + 2 + 6 + 21


def test_exhaustive_sweep_guard():
    with pytest.raises(GuardExceededError):
        exhaustive_sweep(9, TheoremSpec("thm-1.2-clawfree"))
    # an order below 1 is a usage error, not a tripped guard
    with pytest.raises(ValueError, match="^sweep needs n_max >= 1, got 0$") as info:
        exhaustive_sweep(0, TheoremSpec("thm-1.2-clawfree"))
    assert type(info.value) is ValueError


def test_exhaustive_sweep_artifacts(tmp_path):
    rep = exhaustive_sweep(4, TheoremSpec("thm-1.2-clawfree"), out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["instances.csv", "summary.json"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == rep.to_json_dict()
    lines = (tmp_path / "instances.csv").read_text().splitlines()
    assert lines[0] == "instance,n,alpha_l,omega,admitting,deficiency,bound,pass,labelled"
    # one row per class, each weighted by its labelled multiplicity
    assert len(lines) == 1 + 10
    assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == 44


def test_instance_rows_and_csv():
    r = check_theorem(bs(2, 3), TheoremSpec("thm-1.4-m3", n=4))
    row = _instance_row(bs(2, 3), dict(r.details), r, 1)
    assert row["instance"] == "BS(2,3)"
    assert (row["n"], row["alpha_l"], row["admitting"]) == (7, 3, "3")
    # a family row completes the facts the check did not read; the clique
    # number of t_tree(7, 5) trips its guard, so omega is unknown
    r = check_theorem(t_tree(7, 5), TheoremSpec("thm-1.8-all-even"))
    facts = _table_facts(t_tree(7, 5), r)
    assert r.verdict == "indeterminate" and facts["omega"] is None
    family = _instance_row(t_tree(7, 5), facts, r)
    assert (family["omega"], family["admitting"], family["pass"]) == ("?", "3 5 7 9", False)
    cor = check_theorem(bs(2, 3), TheoremSpec("cor-2.3-snailhorn"))
    assert _instance_row(bs(2, 3), dict(cor.details), cor, 1)["deficiency"] == 3
    assert rows_to_csv([row, family]) == (
        "instance,n,alpha_l,omega,admitting,deficiency,bound,pass,labelled\n"
        '"BS(2,3)",7,3,,3,3,3,True,1\n'
        '"T_tree(7,5)",69,4,?,3 5 7 9,35,,False,\n'
    )


# One spec per theorem id, with the parameters it needs.  cor-1.3 (m=3, n=4)
# asks for kd == 2 and prop-5.1-mod (n=5) for odd kd, so both report
# violations and exercise the violation path.
DIFFERENTIAL_SPECS = [
    TheoremSpec("thm-1.2-clawfree"),
    TheoremSpec("thm-1.3-bonefree"),
    TheoremSpec("thm-1.4-main", m=5),
    TheoremSpec("thm-1.4-m3"),
    TheoremSpec("thm-1.6-q=2p+1", p=3),
    TheoremSpec("thm-1.6-q=2p-1", p=3),
    TheoremSpec("thm-1.8-single-even", m=4, p=1),
    TheoremSpec("thm-1.8-all-even"),
    TheoremSpec("cor-1.3", m=3, n=4),
    TheoremSpec("cor-2.3-snailhorn"),
    TheoremSpec("prop-5.1-mod", m=4, n=5),
]


def test_differential_specs_cover_every_theorem():
    assert [spec.id for spec in DIFFERENTIAL_SPECS] == list(THEOREM_IDS)


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda spec: spec.id)
def test_isomorph_free_sweep_matches_labelled_sweep(spec):
    report = exhaustive_sweep(5, spec).to_json_dict()
    counts, labelled_violations = labelled_sweep(5, spec)
    assert {key: report[key] for key in counts} == counts
    classes = report["violations"]
    hits = [0] * len(classes)
    for G, result in labelled_violations:
        owners = [k for k, v in enumerate(classes)
                  if are_isomorphic(G, graph_from_json_dict(v["graph"]))]
        assert len(owners) == 1
        assert classes[owners[0]]["result"] == result
        hits[owners[0]] += 1
    assert hits == [v["labelled"] for v in classes]
    if spec.id == "cor-1.3":
        assert len(classes) > 10 and sum(hits) > 500


def test_connected_classes_match_oeis():
    per_order: dict[int, list[int]] = {}
    for G, labelled in _connected_classes(7):
        assert len(bfs_levels(G, 0)) == G.n
        per_order.setdefault(G.n, []).append(labelled)
    # OEIS A001349 (classes) and A001187 (labelled graphs)
    assert [len(per_order[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    assert [sum(per_order[n]) for n in range(1, 8)] == [
        1, 1, 4, 38, 728, 26704, 1866256]


def test_canonical_form_on_graph_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(G):
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        return H

    atlas = nx.graph_atlas_g()  # one graph per class on 0..7 vertices
    codes = set()
    for H in atlas:
        G = build_graph(H.number_of_nodes(), H.edges())
        form = canonical_form(G)
        codes.add((G.n, form.code))
        assert form.automorphisms == sum(1 for _ in GraphMatcher(H, H).isomorphisms_iter())
        C = form.graph()
        assert nx.is_isomorphic(H, to_nx(C))
        assert canonical_form(C) == form
    # isomorphic graphs share a code (the canonical graph above, relabellings
    # below); the atlas's pairwise non-isomorphic graphs all differ
    assert len(codes) == len(atlas)


def _relabelled_graphs():
    # seeded random trees and graphs, each with three random relabellings
    rng = random.Random(2024)
    graphs = [random_tree(rng, rng.randint(2, 12)) for _ in range(40)]
    graphs += [random_connected_graph(rng, rng.randint(6, 12), extra=rng.choice((0.1, 0.3, 0.6)))
               for _ in range(80)]
    for G in graphs:
        relabelled = []
        for _ in range(3):
            perm = list(range(G.n))
            rng.shuffle(perm)
            relabelled.append(build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()]))
        yield G, relabelled


def test_canonical_form_is_invariant_under_relabelling():
    for G, relabelled in _relabelled_graphs():
        form = canonical_form(G)
        assert factorial(G.n) % form.automorphisms == 0
        for H in relabelled:
            assert canonical_form(H) == form
            assert are_isomorphic(form.graph(), H)


def test_canonical_form_matches_the_frozen_unpruned_search():
    # The pruned search skips subtrees that are automorphic images of explored
    # ones and counts |Aut| by orbit-stabiliser; the reference visits every
    # leaf and counts those reaching the best code.  Both must agree exactly.
    nx = pytest.importorskip("networkx")
    graphs = [build_graph(H.number_of_nodes(), H.edges()) for H in nx.graph_atlas_g()]
    graphs += [G for G, _ in connected_classes_reference(7)]
    graphs += [H for G, relabelled in _relabelled_graphs() for H in [G] + relabelled]
    symmetric = 0
    for G in graphs:
        form = canonical_form(G)
        assert form == canonical_form_reference(G), G
        symmetric += form.automorphisms > 1
    assert len(graphs) >= 1253 + 996 + 480 and symmetric >= 1000


def _automorphisms(H):
    # every vertex permutation that preserves the edges, by backtracking
    found = []

    def extend(p):
        u = len(p)
        if u == H.n:
            found.append(p)
            return
        for x in range(H.n):
            if x not in p and all((v in H.adj[u]) == (p[v] in H.adj[x]) for v in range(u)):
                extend(p + [x])

    extend([])
    return found


def _kept_by_canonical_deletion(H, S):
    # H + S is canonicalised unless an old vertex with a larger (degree, sum
    # of the neighbours' degrees) than the new vertex leaves it connected
    # when deleted
    new = {v for v in range(H.n) if S >> v & 1}
    adj = [a | {H.n} if v in new else a for v, a in enumerate(H.adj)] + [new]

    def inv(v):
        return len(adj[v]), sum(len(adj[w]) for w in adj[v])

    for u in range(H.n):
        if inv(u) > inv(H.n):
            reached = {H.n}
            stack = [H.n]
            while stack:
                for w in adj[stack.pop()] - reached - {u}:
                    reached.add(w)
                    stack.append(w)
            if len(reached) == H.n:
                return False
    return True


def test_connected_classes_match_the_frozen_generation(monkeypatch):
    # One neighbourhood per Aut(H)-orbit is canonicalised, and only if it
    # passes the canonical-deletion rule, so the classes and their order must
    # be the reference's, from one canonical form per kept orbit.  The
    # generators of Aut(H) come with H from the search that found it, so each
    # kept augmentation is the only search made for it, and no class is
    # searched again.
    calls = []
    _count_searches(monkeypatch, calls)
    got = [(G.adj, labelled) for G, labelled in _connected_classes(7)]
    reference = list(connected_classes_reference(7))
    assert got == [(G.adj, labelled) for G, labelled in reference]
    orbits = kept = 1  # the call on the single vertex
    below = [G for G, _ in reference if G.n < 7]
    for H in below:
        images = [{sum(1 << p[v] for v in range(H.n) if S >> v & 1) for p in _automorphisms(H)}
                  for S in range(1, 1 << H.n)]
        representatives = {min(orbit) for orbit in images}
        orbits += len(representatives)
        kept += sum(_kept_by_canonical_deletion(H, S) for S in representatives)
    assert orbits == 4160 and kept == 1050
    assert len(calls) == kept


def test_connected_classes_census_of_order_8(monkeypatch):
    # A001349 and A001187 at order 8, and a digest of every class's order,
    # canonical code and |Aut| in generation order on <= 8 vertices, frozen
    # from the generation that canonicalised every orbit of augmentations;
    # the number of canonical searches is the one the README states
    calls = []
    _count_searches(monkeypatch, calls)
    rows = []
    labelled = Counter()
    for G, count in _connected_classes(8):
        code = canon._code(G.adjacency_masks(), list(range(G.n)))
        rows.append(f"{G.n} {code} {factorial(G.n) // count}\n")
        labelled[G.n] += count
    assert sum(row.startswith("8 ") for row in rows) == 11117
    assert labelled[8] == 251548592 and sum(labelled.values()) == 253442324
    assert hashlib.sha256("".join(rows).encode()).hexdigest() == (
        "63255ee866c733211124e4a1bb1cee262d57d1483f0f3880ff368a217a388c97")
    assert len(calls) == 13156


def _count_searches(monkeypatch, calls):
    # every canonical search, whether the generation makes it directly or
    # through canonical_form
    search = canon._search

    def spy(adj):
        calls.append(adj)
        return search(adj)

    monkeypatch.setattr(canon, "_search", spy)
    monkeypatch.setattr(harness, "_search", spy)


def test_carried_generators_give_the_orbits_of_aut(monkeypatch):
    # The generation augments each class H with the generators of the search
    # that found H, carried into H's canonical labels.  Their orbits on the
    # neighbourhood masks must be those of the whole of Aut(H), for every
    # class on <= 7 vertices (those of order 7 are augmented at order 8).
    used = []
    mask_images = harness._mask_images
    monkeypatch.setattr(harness, "_mask_images",
                        lambda gens, n: used.append(mask_images(gens, n)) or used[-1])
    classes = []
    for G, _ in _connected_classes(8):
        if G.n == 8:
            break
        classes.append(G)
    assert len(classes) == len(used) == 996
    for H, images in zip(classes, used):
        full = (1 << H.n) - 1
        orbit_min = {}  # mask -> least mask of its orbit under the generators
        for S in range(1, full + 1):
            if S not in orbit_min:
                orbit = {S}
                stack = [S]
                while stack:
                    T = stack.pop()
                    for image in images:
                        if image[T] not in orbit:
                            orbit.add(image[T])
                            stack.append(image[T])
                orbit_min.update(dict.fromkeys(orbit, min(orbit)))
        auts = _automorphisms(H)
        reference = {}
        for S in range(1, full + 1):
            if S not in reference:
                orbit = {sum(1 << p[v] for v in range(H.n) if S >> v & 1) for p in auts}
                reference.update(dict.fromkeys(orbit, min(orbit)))
        assert orbit_min == reference, H


def test_search_returns_its_canonical_order_and_generators_of_aut():
    # On the atlas: the returned order relabels the graph to its code, and the
    # returned generators generate a group of order |Aut|
    nx = pytest.importorskip("networkx")
    for H in nx.graph_atlas_g():
        G = build_graph(H.number_of_nodes(), H.edges())
        masks = G.adjacency_masks()
        code, count, gens, order = canon._search(masks)
        assert canon._code(masks, order) == code
        group = {tuple(range(G.n))}
        stack = list(group)
        while stack:
            p = stack.pop()
            for g in gens:
                q = tuple(g[v] for v in p)
                if q not in group:
                    group.add(q)
                    stack.append(q)
        assert len(group) == count


def test_canonical_form_of_large_complete_graphs_stays_under_the_budget():
    for n in range(9, 13):
        assert canonical_form(complete_graph(n)).automorphisms == factorial(n)


def test_canonical_form_budget_trips_guard(monkeypatch):
    # The pruned search on K6 takes 21 nodes: the first path (6 nodes) and,
    # at each of its 5 inner nodes, one child followed to its first leaf.
    assert canonical_form(complete_graph(6)).automorphisms == 720
    monkeypatch.setattr(canon, "_CANON_BUDGET", 21)
    assert canonical_form(complete_graph(6)).automorphisms == 720
    for budget in (1, 5, 20):  # inside the first path, and just short of the whole search
        monkeypatch.setattr(canon, "_CANON_BUDGET", budget)
        with pytest.raises(GuardExceededError):
            canonical_form(complete_graph(6))
    assert canonical_form(path_graph(6)).automorphisms == 2


def test_random_connected():
    assert random_connected(6, 0.4, seed=5) == random_connected(6, 0.4, seed=5)
    assert random_connected(1, 0.5, seed=1).n == 1
    assert random_connected(5, 1.0, seed=2) == complete_graph(5)
    from bonematch import is_connected

    for seed in range(30):
        assert is_connected(random_connected(9, 0.15, seed=seed))
    with pytest.raises(ValueError):
        random_connected(0, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_connected(3, 0.0, seed=0)
    with pytest.raises(ValueError):
        random_connected(3, 1.5, seed=0)


def test_random_connected_falls_back_to_a_spanning_tree(monkeypatch):
    # each draw is tested on its neighbour masks
    calls = []
    components = harness._components
    monkeypatch.setattr(harness, "_components",
                        lambda masks, keep: calls.append(masks) or components(masks, keep))
    G = random_connected(5, 1e-12, seed=0)
    assert len(calls) == 10_000 and not any(any(masks) for masks in calls)
    assert G == random_connected(5, 1e-12, seed=0)
    assert graphs.is_connected(G) and G.edge_count() == 4
    assert G.edges() == [(0, 1), (1, 4), (2, 4), (3, 4)]


def test_random_connected_fallback_matches_the_sorted_edge_set_reference(monkeypatch):
    # Every draw is rejected, so each call reaches the fallback, which is
    # compared with the reference from the random state it starts in.  A
    # draw is tested on masks, so only the returned graph is built.
    starts = []

    class Recording(random.Random):
        def shuffle(self, x):
            starts.append(self.getstate())
            super().shuffle(x)

    calls = []

    def build(n, edges):
        calls.append(n)
        return graphs.build_graph(n, edges)

    monkeypatch.setattr(harness, "random", SimpleNamespace(Random=Recording))
    monkeypatch.setattr(harness, "_components", lambda masks, keep: [])
    monkeypatch.setattr(harness, "build_graph", build)
    # 50 seeds over n = 1..20, then duplicate edges at n <= 10
    for seed, n, edge_prob in [(s, 1 + s % 20, 1e-12) for s in range(50)] + [
            (s, 1 + s % 10, 0.3) for s in range(50, 70)]:
        G = random_connected(n, edge_prob, seed)
        rng = random.Random()
        rng.setstate(starts.pop())
        assert G == helpers.random_connected_fallback_reference(n, edge_prob, rng), seed
        assert graphs.is_connected(G) and G.edge_count() >= n - 1
        assert calls.pop() == n and not calls


def test_search_draw_masks_are_those_of_random_connected():
    # the search reads the masks of the draw that random_connected builds;
    # the spanning-tree fallback is reached at n 2-8
    for n in range(1, 31):
        for p in (0.08, 0.15, 0.3, 0.6):
            for seed in range(3):
                s = 1000 * n + 10 * seed + int(100 * p)
                masks, edges = harness._connected_draw(n, p, s)
                G = random_connected(n, p, s)
                assert masks == G.adjacency_masks() and build_graph(n, edges) == G, (n, p, s)
    for n in range(1, 9):
        masks, edges = harness._connected_draw(n, 1e-12, n)
        assert masks == random_connected(n, 1e-12, n).adjacency_masks(), n
        assert n == 1 or len(edges) == n - 1


def test_random_connected_draws_are_pinned():
    # SHA-256 prefix of the edges of seeded draws at n 5-30 and four
    # densities, then of the spanning-tree fallback at n 2-8; taken when each
    # rejected draw was built as a Graph and tested with is_connected.
    digest = hashlib.sha256()
    for n in range(5, 31):
        for p in (0.08, 0.15, 0.3, 0.6):
            for seed in range(3):
                G = random_connected(n, p, 1000 * n + 10 * seed + int(100 * p))
                digest.update(repr(G.edges()).encode())
    for n in range(2, 9):
        digest.update(repr(random_connected(n, 1e-12, n).edges()).encode())
    assert digest.hexdigest()[:16] == "71b8760ed3f6fd61"


def test_search_constraints_validation():
    with pytest.raises(ValueError):
        SearchConstraints(7, admitting="weird")
    assert SearchConstraints(harness._SEARCH_MAX_N).n == harness._SEARCH_MAX_N
    with pytest.raises(GuardExceededError, match=f"limited to {harness._SEARCH_MAX_N} vertices"):
        SearchConstraints(harness._SEARCH_MAX_N + 1)
    # the clique-number guard bounds an omega constraint, so it is refused up front
    assert SearchConstraints(40, omega_max=3).n == 40 == structure._MIS_MAX
    with pytest.raises(GuardExceededError, match="clique number limited to 40 vertices"):
        SearchConstraints(41, omega_max=3)
    assert SearchConstraints(41).n == 41


def test_search_constraints_refuse_a_negative_alpha_l_cap():
    with pytest.raises(ValueError, match="^alpha_l_max must be 0 or more, got -2$"):
        SearchConstraints(6, alpha_l_max=-2)
    assert SearchConstraints(6, alpha_l_max=0).alpha_l_max == 0


def test_search_constraints_refuse_a_negative_omega_cap():
    with pytest.raises(ValueError, match="^omega_max must be 0 or more, got -1$"):
        SearchConstraints(6, omega_max=-1)
    assert SearchConstraints(6, omega_max=0).omega_max == 0


def test_edit_local_alpha_test_matches_the_full_test():
    # A candidate made by toggling uv is tested on {u, v} and N(u) & N(v)
    # only.  On every toggle of a graph within the cap, the verdict is that
    # of the test on every vertex; ``common`` counts the toggles on which a
    # test of u and v alone would be wrong.
    rng = random.Random(2905)
    pool = [G for G, _ in _connected_classes(6)]
    pool += [random_connected_graph(rng, 7 + k % 6, extra=(0.15, 0.3, 0.5)[k % 3])
             for k in range(120)]
    verdicts = Counter()
    common = 0
    for G in pool:
        k = structure.local_independence_number(G)
        c = SearchConstraints(G.n, alpha_l_max=k)
        for u, v in combinations(range(G.n), 2):
            adj = list(G.adj)
            adj[u] ^= {v}
            adj[v] ^= {u}
            masks = graphs.Graph(G.n, tuple(adj)).adjacency_masks()
            full = harness._satisfies(masks, c, (1 << G.n) - 1, 0)
            among = 1 << u | 1 << v | masks[u] & masks[v]
            assert harness._satisfies(masks, c, among, 0) == full, (u, v, G.edges())
            verdicts[full] += 1
            common += structure._alpha_exceeds(masks, 1 << u | 1 << v, k) == full
    assert min(verdicts.values()) >= 500 and common >= 300, (verdicts, common)


def test_carried_claw_centres_match_a_fresh_scan_on_every_one_edge_toggle():
    # The search carries the claw centres across a toggle of uv and tests
    # again only {u, v} and N(u) & N(v).  On every toggle, the carried mask
    # is the fresh scan's; ``common`` counts the toggles on which a test of
    # u and v alone would be wrong.
    rng = random.Random(3101)
    pool = [G for G, _ in _connected_classes(6)]
    pool += [random_connected_graph(rng, 7 + k % 8, extra=(0.15, 0.3, 0.5)[k % 3])
             for k in range(120)]
    common = 0
    for G in pool:
        masks = G.adjacency_masks()
        claws = structure._claw_centres(masks)
        for u, v in combinations(range(G.n), 2):
            cand = masks[:]
            cand[u] ^= 1 << v
            cand[v] ^= 1 << u
            fresh = structure._claw_centres(cand)
            among = 1 << u | 1 << v | cand[u] & cand[v]
            assert claws & ~among | structure._claw_centres(cand, among) == fresh, (
                u, v, G.edges())
            ends = 1 << u | 1 << v
            common += claws & ~ends | structure._claw_centres(cand, ends) != fresh
    assert common >= 1000, common


def _graph_of(masks):
    # the Graph with these neighbour masks, as the search builds its best one
    return graphs.Graph(len(masks), tuple(frozenset(matching._mask_vertices(m)) for m in masks))


def test_repaired_matching_is_maximum_on_every_one_edge_toggle():
    # The search repairs the current graph's maximum matching after a toggle
    # of uv, in four cases (``extremal_search`` docstring).  On every toggle,
    # the result is a matching of the candidate whose free count is its
    # deficiency, and the current matching is left as it was.
    rng = random.Random(3002)
    pool = [G for G, _ in _connected_classes(6)]
    pool += [random_connected_graph(rng, 7 + k % 8, extra=(0.0, 0.1, 0.3)[k % 3])
             for k in range(120)]
    cases = Counter()
    for G in pool:
        masks = G.adjacency_masks()
        match = matching._blossom(G.n, [sorted(s) for s in G.adj])
        given = match[:]
        for u, v in combinations(range(G.n), 2):
            cand = masks[:]
            cand[u] ^= 1 << v
            cand[v] ^= 1 << u
            got = harness._rematch(cand, match, u, v)
            assert match == given
            H = _graph_of(cand)
            assert all(m == -1 or (got[m] == w and H.has_edge(w, m)) for w, m in enumerate(got))
            assert got.count(-1) == matching.deficiency(H), (u, v, G.edges())
            if G.has_edge(u, v):
                cases["removed, matched" if match[u] == v else "removed, unmatched"] += 1
            else:
                cases["added, both exposed" if match[u] == match[v] == -1 else "added"] += 1
    assert len(cases) == 4 and min(cases.values()) >= 30, cases


# SHA-256 prefixes of ``json_text(SearchReport.to_json_dict())``: one seed of
# each ``bench/inputs.py`` search configuration (n, alpha_l_max, admitting)
# at 400 iterations, which holds restarts as well as edits, and the README
# example.  They were taken when the alpha_l cap was computed exactly on
# every vertex of every candidate.
SEARCH_DIGESTS = {
    (8, 3, "odd"): "f928c308dc078300",
    (9, 3, "odd"): "fd5bdd9dd6e8d39d",
    (10, 3, "odd"): "246fbcba03354e19",
    (11, 3, "odd"): "7801efbc39eb3603",
    (9, 4, "odd"): "c867c4ddc6b05478",
    (9, 4, "even"): "dd8bf41dd6f34856",
    (10, 4, "even"): "482d3c8bafea5c89",
    (11, 4, "even"): "6e719bd745bbc515",
    (12, 4, "even"): "9cfdde5f37ecfd62",
    (8, 3, "empty"): "ed6853065c8f1514",
    (10, 3, "empty"): "71509be7a48fc0f2",
    (11, 4, "empty"): "89e9f97d31735fab",
    (12, 4, "odd"): "c423c79686830e84",
}


def _report_digest(constraints, iters, seed):
    rep = extremal_search(constraints, iters=iters, seed=seed)
    return hashlib.sha256(json_text(rep.to_json_dict()).encode()).hexdigest()[:16]


def test_search_reports_are_pinned():
    for k, ((n, a, adm), digest) in enumerate(SEARCH_DIGESTS.items()):
        c = SearchConstraints(n, alpha_l_max=a, admitting=adm)
        assert _report_digest(c, 400, 2900 + k) == digest, (n, a, adm)
    readme = SearchConstraints(7, alpha_l_max=3, admitting="odd")
    assert _report_digest(readme, 1000, 7) == "1500352daca5f1d2"


# As ``SEARCH_DIGESTS``, for the constraints those leave out: an omega cap,
# a bone constraint without an alpha_l cap, and no constraint at all.  Keys
# are (n, alpha_l_max, omega_max, admitting).
OTHER_SEARCH_DIGESTS = {
    (9, None, 3, "any"): "4c930bf88cfa845b",
    (10, 4, 3, "even"): "b77e594b68dfb6bf",
    (9, None, None, "odd"): "3b151960d2d22553",
    (11, None, 4, "empty"): "3aad385d91d15931",
    (8, None, None, "any"): "4b26f5f438e02a4a",
}


def test_search_reports_under_the_other_constraints_are_pinned():
    for k, ((n, a, o, adm), digest) in enumerate(OTHER_SEARCH_DIGESTS.items()):
        c = SearchConstraints(n, alpha_l_max=a, omega_max=o, admitting=adm)
        assert _report_digest(c, 400, 3300 + k) == digest, (n, a, o, adm)


def test_search_edit_trips_the_alpha_l_guard_at_the_first_candidate_above_it(monkeypatch):
    # Every draw is this graph: vertex 0 sees the path 1..40, and 41 hangs
    # off 1.  The cap is above every degree, so no alpha is searched, yet the
    # first connected candidate with a vertex of degree 41 trips the guard,
    # as the exact alpha_l on every vertex does (608 candidates at seed 3,
    # each tested for connectivity on its masks).
    start = build_graph(42, [(0, i) for i in range(1, 41)]
                        + [(i, i + 1) for i in range(1, 40)] + [(1, 41)])
    monkeypatch.setattr(harness, "_connected_draw",
                        lambda n, p, seed: (start.adjacency_masks(), start.edges()))
    seen = []
    components = harness._components
    monkeypatch.setattr(harness, "_components", lambda masks, keep:
                        seen.append(_graph_of(masks)) or components(masks, keep))
    message = "^neighbourhood of 0 exceeds 40 vertices$"
    with pytest.raises(GuardExceededError, match=message):
        extremal_search(SearchConstraints(42, alpha_l_max=100), iters=3000, seed=3)
    assert len(seen) == 608
    tripped = next(G for G in seen if graphs.is_connected(G) and max(map(len, G.adj)) > 40)
    assert tripped is seen[-1] and tripped.degree(0) == 41
    with pytest.raises(GuardExceededError, match=message):
        structure.local_independence_number(tripped)


# What each admitting constraint of the search means, written out on the full
# admitting set A; an index refutes a constraint iff no set holding it meets it.
_ADMITTING_MEANING = {
    "empty": lambda A: not A,
    "odd": lambda A: bool(A) and all(a % 2 == 1 for a in A),
    "even": lambda A: bool(A) and all(a % 2 == 0 for a in A),
}


def test_stopped_admitting_queries_match_the_test_on_the_full_set(monkeypatch):
    # The search asks each admitting constraint with a scan that stops at the
    # first refuting bone; its verdict is the constraint's meaning on the full set.
    scans = []
    admitting = harness.admitting_set
    bone_scan = harness._bone_scan
    monkeypatch.setattr(harness, "_bone_scan", lambda masks, centres, wanted, stop:
                        scans.append(stop) or bone_scan(masks, centres, wanted, stop))
    rng = random.Random(1604)
    graphs = [random_connected_graph(rng, 5 + k % 26, extra=rng.choice(
        (0.1, 0.2, 0.3) if k % 26 < 8 else (0.03, 0.06, 0.1))) for k in range(330)]
    verdicts = {}
    for G in graphs + _family_instances():  # most odd-only sets come from the families
        n = G.n
        full = admitting(G)
        masks = G.adjacency_masks()
        for name, meaning in _ADMITTING_MEANING.items():
            got = harness._satisfies(masks, SearchConstraints(n, admitting=name), (1 << n) - 1,
                                     structure._claw_centres(masks))
            assert got == meaning(full), (name, G.edges())
            assert scans.pop() == {i for i in range(2, n - 3) if not meaning({i})}
            verdicts[name, got] = verdicts.get((name, got), 0) + 1
    assert all(verdicts.get((name, v), 0) >= 20 for name in ("empty", "odd", "even")
               for v in (True, False)), verdicts


def test_admitting_constraints_are_derived_from_the_needed_bone_and_the_refuting_indices(
        monkeypatch):
    # At order 13 the wanted indices are 2..9.  For every admitting set A of
    # them, a scan that finds A's bones in either order, stopping at the first
    # refuting one, gives the constraint's meaning on A.
    assert list(harness.ADMITTING_CONSTRAINTS) == ["any", *_ADMITTING_MEANING]
    n = 13
    masks = build_graph(n, [(i, i + 1) for i in range(n - 1)]).adjacency_masks()
    order = ()

    def scan(masks, centres, wanted, stop):
        found = {}
        for i in order:
            assert i in wanted
            found[i] = None
            if i in stop:
                break
        return found

    monkeypatch.setattr(harness, "_bone_scan", scan)
    for r in range(9):
        for A in combinations(range(2, 10), r):
            for order in (A, A[::-1]):
                for name, meaning in _ADMITTING_MEANING.items():
                    got = harness._satisfies(masks, SearchConstraints(n, admitting=name), 0, 0)
                    assert got == meaning(frozenset(A)), (name, order)
    # the search's unmeetable orders: odd needs an odd index >= 3, even one >= 2
    unmeetable = {(m, name) for m in range(1, 91) for name in harness.ADMITTING_CONSTRAINTS
                  if not harness._satisfiable(name, m)}
    assert unmeetable == {(m, "odd") for m in range(1, 7)} | {(m, "even") for m in range(1, 6)}


def test_admitting_constraints_answer_a_sparse_80_vertex_graph_at_once():
    # the full admitting set of this graph trips the bone-search guard
    masks = random_connected(80, 0.05, 1).adjacency_masks()
    claws = structure._claw_centres(masks)
    for name in ("empty", "odd", "even"):
        assert not harness._satisfies(masks, SearchConstraints(80, admitting=name),
                                      (1 << 80) - 1, claws)


def test_extremal_search_finds_odd_bone_landscape():
    rep = extremal_search(SearchConstraints(7, alpha_l_max=3, admitting="odd"), iters=600, seed=11)
    assert rep.feasible_seen > 0
    assert rep.best_deficiency == 3  # the 7-vertex double broom is optimal here
    assert rep.iterations == 600 and rep.seed == 11
    assert rep.mod_base == 1 and rep.mod_hit


def test_extremal_search_reports_unsatisfiable_constraints():
    rep = extremal_search(SearchConstraints(6, alpha_l_max=1, admitting="odd"), iters=200, seed=3)
    assert rep.feasible_seen == 0
    assert rep.best_graph is None and rep.best_deficiency is None
    assert not rep.mod_hit


def test_unsatisfiable_admitting_constraints_return_the_loops_report(monkeypatch):
    # odd has no index to meet at n <= 6 and even none at n <= 5; the search
    # then returns at once the report its loop would give, and tests no graph
    tested = []
    satisfies = harness._satisfies
    monkeypatch.setattr(harness, "_satisfies", lambda *a: tested.append(1) or satisfies(*a))
    skipped = []
    for n in range(1, 8):
        for name in ("empty", "odd", "even"):
            for seed in (1, 2, 3):
                c = SearchConstraints(n, alpha_l_max=(None, 2, 3)[seed - 1], admitting=name)
                del tested[:]
                fast = extremal_search(c, 300, seed).to_json_dict()
                if not tested:
                    skipped.append((n, name))
                with monkeypatch.context() as m:
                    m.setattr(harness, "_satisfiable", lambda admitting, n: True)
                    loop = extremal_search(c, 300, seed).to_json_dict()
                assert json_text(fast) == json_text(loop), (n, name, seed)
    assert sorted(set(skipped)) == sorted(
        [(n, "odd") for n in range(1, 7)] + [(n, "even") for n in range(1, 6)])


def test_extremal_search_is_deterministic_and_reports_congruence():
    a = extremal_search(SearchConstraints(7, alpha_l_max=3, admitting="odd"), iters=600, seed=11)
    b = extremal_search(SearchConstraints(7, alpha_l_max=3, admitting="odd"), iters=600, seed=11)
    assert a == b
    c = extremal_search(SearchConstraints(7, alpha_l_max=4, admitting="odd"), iters=400, seed=2)
    assert c.mod_base == 2
    assert c.mod_hit == (c.best_deficiency % 2 == 1)
    d = c.to_json_dict()
    assert set(d) == {
        "n", "alpha_l_max", "omega_max", "admitting", "iterations", "seed",
        "best_graph", "best_deficiency", "feasible_seen", "mod_base", "mod_hit",
    }


def test_extremal_search_edits_keep_simple_graphs(monkeypatch):
    # Every candidate, the current masks with one edge toggled, is a simple
    # graph, and the seeded result is pinned to the one a whole-graph rebuild gave.
    seen = []
    components = harness._components
    monkeypatch.setattr(harness, "_components", lambda masks, keep:
                        seen.append(_graph_of(masks)) or components(masks, keep))
    rep = extremal_search(SearchConstraints(9, alpha_l_max=4), iters=400, seed=5)
    assert len(seen) > 300 and all(G == build_graph(G.n, G.edges()) for G in seen)
    assert (rep.feasible_seen, rep.best_deficiency) == (359, 3)
    assert graph_key(rep.best_graph) == "3a0767accd43"


# The specs of the differential test against the frozen reference: the
# automatic n, explicit n with non-default m and p, and every parameter error.
REFERENCE_SPECS = DIFFERENTIAL_SPECS + [
    TheoremSpec("thm-1.2-clawfree", n=7),
    TheoremSpec("thm-1.3-bonefree", n=6),
    TheoremSpec("thm-1.4-main", m=7, n=5),
    TheoremSpec("thm-1.4-m3", m=5, n=5),
    TheoremSpec("thm-1.6-q=2p+1", p=5, n=5),
    TheoremSpec("thm-1.6-q=2p-1", p=5, n=6),
    TheoremSpec("thm-1.8-single-even", m=6, p=2, n=5),
    TheoremSpec("thm-1.8-all-even", n=5),
    TheoremSpec("cor-1.3", m=5, n=5),
    TheoremSpec("cor-2.3-snailhorn", m=4, n=5, p=1),
    TheoremSpec("prop-5.1-mod", m=6, n=6),
    TheoremSpec("thm-1.4-main"),
    TheoremSpec("thm-1.4-main", m=4),
    TheoremSpec("thm-1.6-q=2p+1"),
    TheoremSpec("thm-1.6-q=2p-1", p=4),
    TheoremSpec("thm-1.8-single-even", p=1),
    TheoremSpec("thm-1.8-single-even", m=4),
    TheoremSpec("thm-1.8-single-even", m=3, p=1),
    TheoremSpec("thm-1.8-single-even", m=4, p=0),
    TheoremSpec("cor-1.3", n=4),
    TheoremSpec("cor-1.3", m=3),
    TheoremSpec("cor-1.3", m=4, n=4),
    TheoremSpec("prop-5.1-mod", n=5),
    TheoremSpec("prop-5.1-mod", m=5),
    TheoremSpec("prop-5.1-mod", m=5, n=3),
]


def _reference_inputs():
    graphs = [G for G, _ in _connected_classes(6)]
    graphs += [random_connected(8 + k % 13, 0.12 + 0.02 * (k % 11), 500 + k) for k in range(150)]
    graphs += _family_instances() + [t_tree(7, 5)]
    return graphs


def _outcome(check, G, spec):
    try:
        r = check(G, spec)
    except ValueError as exc:
        return str(exc)
    # the reference keeps no facts when a guard trips; the facts an
    # indeterminate result keeps are checked against the guard below
    details = dict(r.details)
    facts = (None if r.verdict == "indeterminate"
             else [details.get(k) for k in ("alpha_l", "omega", "admitting")])
    # the reference keeps other details, so only the facts both compute are compared
    result = r.to_json_dict()
    del result["details"]
    return (result, r.hypotheses, facts)


def test_check_theorem_matches_frozen_reference(monkeypatch):
    # Both sides call the same fact functions, so each fact is computed once
    # per graph and shared: what is compared is the logic of the checks.  A
    # guard that trips is not cached and trips again on the other side.  The
    # criticality scan is exponential and the checks see only its verdict or
    # its guard, so the guard is lowered: past 1,024 connected sets it trips.
    cache = {}
    for name in ("local_independence_number", "clique_number", "admitting_set",
                 "deficiency", "is_deficiency_critical"):
        def cached(G, *args, _fn=getattr(harness, name), _name=name):
            key = (_name, G, args)
            if key not in cache:
                cache[key] = _fn(G, *args)
            return cache[key]
        monkeypatch.setattr(harness, name, cached)
        monkeypatch.setattr(helpers, name, cached)
    monkeypatch.setattr(matching, "_CRITICALITY_BUDGET", 1 << 10)
    assert {spec.id for spec in REFERENCE_SPECS} == set(THEOREM_IDS)
    mismatches = []
    kinds = set()
    for G in _reference_inputs():
        for spec in REFERENCE_SPECS:
            want = _outcome(check_theorem_reference, G, spec)
            if _outcome(check_theorem, G, spec) != want:
                mismatches.append((G.name or graph_key(G), spec))
            kinds.add("error" if isinstance(want, str) else
                      "indeterminate" if want[0]["indeterminate"] else
                      "vacuous" if want[0]["vacuous"] else
                      "pass" if want[0]["pass"] else "fail")
    assert mismatches == []
    assert kinds == {"error", "indeterminate", "vacuous", "pass", "fail"}


def test_parameter_errors_come_before_any_fact(monkeypatch):
    # t_tree(7, 5) trips the clique guard, but the bad m is reported first
    with pytest.raises(ValueError, match="needs m > 3, got 3"):
        check_theorem(t_tree(7, 5), TheoremSpec("thm-1.8-single-even", m=3, p=1, n=5))
    # facts are looked up through the module at call time, so a wrapper is seen
    monkeypatch.setattr(harness, "local_independence_number", lambda G: 99)
    r = check_theorem(bs(2, 3), TheoremSpec("thm-1.4-m3"))
    assert r.bound_value == 2 * 100 - 5 and ("alpha_l < n", True) in r.hypotheses


def test_details_hold_the_facts_the_check_read_in_order():
    r = check_theorem(bs(2, 3), TheoremSpec("thm-1.4-m3", n=4))
    assert r.details == (("alpha_l", 3), ("admitting", [3]), ("connected", True), ("kd", 3))
    r = check_theorem(bs(2, 3), TheoremSpec("cor-2.3-snailhorn"))
    assert [k for k, _ in r.details] == ["critical", "connected", "nontrivial", "snail_horns"]
    r = check_theorem(t_tree(7, 5), TheoremSpec("thm-1.8-all-even"))
    assert r.verdict == "indeterminate" and r.details == (("alpha_l", 4),)


def test_indeterminate_details_hold_the_facts_computed_before_the_guard(monkeypatch):
    # a small budget trips the criticality guard as the full one does, sooner
    monkeypatch.setattr(matching, "_CRITICALITY_BUDGET", 1 << 10)
    seen = 0
    for G in [t_tree(7, 5), t_tree(7, 6)]:
        for spec in REFERENCE_SPECS:
            try:
                r = check_theorem(G, spec)
            except ValueError:
                continue
            if r.verdict != "indeterminate":
                continue
            facts = harness._THEOREMS[spec.id].facts
            k = len(r.details)
            assert [name for name, _ in r.details] == list(facts[:k])
            for name, value in r.details:
                want = harness._FACTS[name](G)
                assert value == (sorted(want) if name == "admitting" else want)
            with pytest.raises(GuardExceededError) as exc:
                harness._FACTS[facts[k]](G)
            assert r.note == str(exc.value)
            seen += k > 0
    assert seen >= 6
