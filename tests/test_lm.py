import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from bonematch import (
    LMLevel,
    LMTrace,
    PostconditionError,
    TwoLevelResult,
    bs,
    build_graph,
    deficiency,
    find_induced_bone,
    induced_subgraph,
    is_clean_level,
    levelling,
    lm_root_sweep,
    lm_run,
    path_graph,
    s_family,
    snail_horns,
    star_graph,
    structure_profile,
    t_tree,
    two_level_matching,
    validate_trace,
)
from bonematch import lm as lm_module
from bonematch.harness import _connected_classes
from .helpers import (
    check_two_level_postconditions,
    layered_graph,
    lm_run_reference,
    random_connected_graph,
    two_level_matching_reference,
    verify_two_level_frozen,
)
from .test_acceptance import _family_instances


def test_two_level_star_keeps_center_unmatched():
    res = two_level_matching(star_graph(3), {0}, {1, 2, 3})
    assert res.matching == frozenset()
    assert res.x_residual == {0}
    assert res.y_residual == {1, 2, 3}
    assert dict(res.private) == {0: (1, 2)}


def test_two_level_matches_shared_lower_vertex():
    H = build_graph(3, [(0, 2), (1, 2)])
    res = two_level_matching(H, {0, 1}, {2})
    assert res.matching == {(0, 2)}
    assert res.x_residual == frozenset()
    assert res.y_residual == frozenset()
    assert dict(res.private) == {}


def test_two_level_rejects_empty_lower_class():
    with pytest.raises(ValueError):
        two_level_matching(star_graph(3), set(), {0, 1, 2, 3})


def test_two_level_allows_empty_upper_class():
    res = two_level_matching(build_graph(1, []), {0}, set())
    assert res.matching == frozenset()
    assert res.x_residual == frozenset()
    assert res.y_residual == frozenset()


def test_two_level_validates_partition():
    # a vertex in neither side is outside the searched subgraph
    assert two_level_matching(path_graph(3), {0}, {1}) == two_level_matching(
        path_graph(2), {0}, {1})
    for outside in (3, -1):
        with pytest.raises(ValueError, match="vertices of a graph on 3 vertices"):
            two_level_matching(path_graph(3), {0}, {1, outside})
    with pytest.raises(ValueError):
        two_level_matching(path_graph(3), {0, 1}, {1, 2})  # classes overlap
    with pytest.raises(ValueError):
        two_level_matching(path_graph(3), {0}, {1, 2})  # 2 has no neighbour in X
    # both path ends may serve as the upper class around the middle vertex
    res = two_level_matching(path_graph(3), {0, 2}, {1})
    assert len(res.matching) == 1


def _random_two_level_instance(seed, n_max=14):
    rng = random.Random(seed)
    n = rng.randint(3, n_max)
    H = random_connected_graph(rng, n, extra=0.2)
    verts = list(range(n))
    rng.shuffle(verts)
    X = set(verts[: rng.randint(1, n - 1)])
    # repair: every vertex outside X must have a neighbour in X
    for v in range(n):
        if v not in X and not (H.adj[v] & X):
            X.add(v)
    Y = set(range(n)) - X
    return H, X, Y


@given(st.integers(0, 10**6))
def test_two_level_postconditions_hold(seed):
    H, X, Y = _random_two_level_instance(seed)
    res = two_level_matching(H, X, Y)
    assert check_two_level_postconditions(H, X, Y, res) == []


@given(st.integers(0, 10**6))
def test_two_level_is_deterministic(seed):
    H, X, Y = _random_two_level_instance(seed)
    assert two_level_matching(H, X, Y) == two_level_matching(H, X, Y)


def test_two_level_matches_reference_move_loop():
    # the coverage counters and the trade prune must pick the very same moves
    large = both_same_level = 0
    for seed in range(320):
        H, X, Y = _random_two_level_instance(seed, n_max=60 if seed % 4 == 0 else 14)
        assert two_level_matching(H, X, Y) == two_level_matching_reference(H, X, Y), seed
        large += H.n > 40
        both_same_level += any(u in X and v in X for u, v in H.edges()) and any(
            u in Y and v in Y for u, v in H.edges())
    assert large >= 20 and both_same_level >= 150


def _bipartite_two_level_instance(seed, k_max):
    # mostly lower-upper edges, each upper vertex sees one to three lower ones,
    # plus a few same-side edges; labels shuffled
    rng = random.Random(seed)
    k = rng.randint(2, k_max)
    n = k + rng.randint(k, 3 * k)
    edges = {(x, y) for y in range(k, n)
             for x in rng.sample(range(k), min(k, rng.choice([1, 1, 2, 2, 3])))}
    for _ in range(rng.randint(0, k)):
        a, b = sorted(rng.sample(range(n), 2))
        if (a < k) == (b < k):
            edges.add((a, b))
    perm = list(range(n))
    rng.shuffle(perm)
    H = build_graph(n, [(perm[a], perm[b]) for a, b in edges])
    return H, {perm[x] for x in range(k)}, {perm[y] for y in range(k, n)}


def _trade_kind(H, X, M, old, e1, e2):
    # "touching": a new edge meets old; "rescued": a new edge would kill, in M,
    # an upper neighbour of old's lower ends; the candidate rule allows no other
    if set(old) & {*e1, *e2}:
        return "touching"
    matched = {v for e in M for v in e}

    def lost(e):
        gone = matched | set(e)
        return {y for y in range(H.n) if y not in X and y not in gone
                and not any(w in X and w not in gone for w in H.adj[y])}

    R = {y for w in old if w in X for y in H.adj[w] if y not in X}
    return "rescued" if (lost(e1) | lost(e2)) & R else "other"


def _terminal_state(H, X, Y, M):
    # the matching with the residual sets it defines: the free upper vertices,
    # and the free lower vertices that one of them sees
    saturated = {v for e in M for v in e}
    y_res = Y - saturated
    return M, frozenset(x for y in y_res for x in H.adj[y] & X if x not in saturated), y_res


def _logged(verify, log):
    # the check, logging each matching it is handed with the residual sets
    # that matching defines, whether it passes or raises; a result it returns
    # must carry those same sets
    def spy(H, X, Y, M):
        log.append(_terminal_state(H, X, Y, M))
        res = verify(H, X, Y, M)
        assert (res.matching, res.x_residual, res.y_residual) == log[-1]
        return res
    return spy


def test_trade_candidates_match_reference_and_cover_both_kinds(monkeypatch):
    kinds, results, instance = Counter(), [], []
    best_trade, verify = lm_module._best_trade, lm_module._verify_two_level

    def spy_trade(ix, matching, matched, free):
        before = frozenset(matching)
        move = best_trade(ix, matching, matched, free)
        if move is not None:
            old, i, j = move
            kinds[_trade_kind(*instance, before, old, ix.edges[i], ix.edges[j])] += 1
        return move

    monkeypatch.setattr(lm_module, "_best_trade", spy_trade)
    monkeypatch.setattr(lm_module, "_verify_two_level", _logged(verify, results))
    for seed in range(800):
        H, X, Y = _bipartite_two_level_instance(seed, k_max=5 if seed % 2 else 9)
        instance[:] = [H, X]
        ref = two_level_matching_reference(H, X, Y)
        # some of these inputs fail postcondition (4) in every version of the
        # search; the terminal states are compared all the same
        try:
            assert two_level_matching(H, X, Y) == ref, seed
        except PostconditionError:
            pass
        assert results[-1] == (ref.matching, ref.x_residual, ref.y_residual), seed
    assert kinds["other"] == 0, kinds
    assert kinds["touching"] >= 150 and kinds["rescued"] >= 30, kinds



def test_trade_pass_leaves_the_state_as_it_found_it(monkeypatch):
    # _best_trade reads the state and puts back what it unmatched, whether it
    # returns a move or finds none; the search applies the move itself
    outcomes, best_trade = Counter(), lm_module._best_trade

    def spy_trade(ix, matching, matched, free):
        before = set(matching), set(matched), dict(free)
        move = best_trade(ix, matching, matched, free)
        assert (matching, matched, free) == before
        outcomes[move is None] += 1
        return move

    monkeypatch.setattr(lm_module, "_best_trade", spy_trade)
    for seed in range(800):
        H, X, Y = _bipartite_two_level_instance(seed, k_max=5 if seed % 2 else 9)
        try:
            two_level_matching(H, X, Y)
        except PostconditionError:
            pass
    assert outcomes[True] >= 800 and outcomes[False] >= 150, outcomes

def _verdict(verify, H, X, Y, M):
    try:
        return "pass", verify(H, X, Y, M)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _perturbed(H, X, Y, M, rng):
    # broken copies of a terminal matching, one for each way the check can
    # fail: a foreign pair, a reversed duplicate, a dropped edge, and a graph
    # edge added between two free vertices of X | Y
    u, v = rng.sample(range(H.n), 2)
    out = [M | {(u, v)}]
    if M:
        a, b = min(M)
        out += [M | {(b, a)}, M - {(a, b)}]
    free = (X | Y) - {v for e in M for v in e}
    if extra := [(a, b) for a in sorted(free) for b in sorted(H.adj[a] & free) if a < b]:
        out.append(M | {rng.choice(extra)})
    return out


def _frozen_verdict(H, X, Y, M, got):
    # The frozen check reads the residual sets the matching defines and a
    # witness listing: the one the check under test returned on a pass, else
    # the two smallest witnesses of each residual vertex that has two.  It
    # reports a vertex short of two, left out of the listing, as a key
    # mismatch, its form of rule (3); that is translated.
    state = _terminal_state(H, X, Y, M)
    _, x_res, y_res = state
    live = (X | Y) - {v for e in M for v in e}
    count, listing = {}, ()
    for x in sorted(x_res):
        ws = sorted(y for y in y_res if H.adj[y] & live == {x})
        count[x] = len(ws)
        listing += ((x, (ws[0], ws[1])),) if len(ws) >= 2 else ()
    listing = got[1].private if got[0] == "pass" else listing
    verdict = _verdict(verify_two_level_frozen, H, X, Y, TwoLevelResult(*state, listing))
    if verdict[0] == "pass":
        return "pass", TwoLevelResult(*state, listing)
    if verdict[1] == "private witness map keys do not match the residual set":
        x = min(x for x, k in count.items() if k < 2)
        return verdict[0], f"residual vertex {x} has {count[x]} private witnesses"
    return verdict


def test_verifier_matches_the_frozen_triple_loop(monkeypatch):
    # the one private-witness map gives every state, terminal or broken, the
    # outcome of the check as first written: a pass, or the same error
    states, verify = [], lm_module._verify_two_level
    monkeypatch.setattr(lm_module, "_verify_two_level", lambda *args: states.append(args))
    instances = [_bipartite_two_level_instance(seed, k_max=5 if seed % 2 else 9)
                 for seed in range(2000)]
    instances += [_random_two_level_instance(seed, n_max=60 if seed % 4 == 0 else 14)
                  for seed in range(320)]
    # ROADMAP item 1's minimal instance, which no matching passes: the 6-cycle
    # 0-4-2-5-1-6-0 with the pendants 0-7, 1-8 and 2-3
    instances.append((build_graph(9, [(0, 4), (4, 2), (2, 5), (5, 1), (1, 6), (6, 0),
                                      (0, 7), (1, 8), (2, 3)]), {0, 1, 2}, set(range(3, 9))))
    for H, X, Y in instances:
        two_level_matching(H, X, Y)
    assert len(states) == len(instances)
    assert _verdict(verify, *states[-1]) == (
        "PostconditionError", "matched vertex 0 spoils 2 residual vertices")
    rng, kinds = random.Random(14), Counter()
    for H, X, Y, M in states:
        for m in (M, *_perturbed(H, X, Y, M, rng)):
            got = _verdict(verify, H, X, Y, m)
            assert got == _frozen_verdict(H, X, Y, m, got), (H, m)
            kinds[got[0] == "pass" or re.sub(r"\d+", "#", got[1])] += 1
    assert len(kinds) == 7, kinds  # a pass and each of the six errors


def _outcome(run, G, root):
    try:
        return run(G, root)
    except PostconditionError:
        return PostconditionError


# the README's rule-(4) reproduction with its root renamed to 0, on which
# the search fails in every version
README_G12 = build_graph(12, [(0, 1), (0, 2), (0, 3), (0, 10), (0, 11), (1, 5), (1, 7), (1, 8),
                              (2, 6), (2, 7), (2, 9), (3, 4), (3, 5), (3, 6)])


def test_lm_run_matches_reference_on_family_instances():
    # the walk on level sets of G gives the traces of the walk that relabelled
    # each level pair to a subgraph of its own, from every snail-horn head
    rng = random.Random(2020)
    graphs = [G for G in _family_instances() if snail_horns(G)]
    graphs += [layered_graph(rng, rng.choice((30, 60, 120)))[0] for _ in range(40)]
    graphs.append(README_G12)
    runs = failed = 0
    for G in graphs:
        for head in (h.head for h in snail_horns(G)):
            got = _outcome(lm_run, G, head)
            assert got == _outcome(lm_run_reference, G, head), (G, head)
            runs += 1
            failed += got is PostconditionError
    assert runs >= 100 and failed == 1


def test_lm_run_searches_the_level_sets_of_the_input_graph(monkeypatch):
    calls, verify = [], lm_module._verify_two_level
    monkeypatch.setattr(lm_module, "_verify_two_level",
                        lambda H, X, Y, M: calls.append((H, X, Y)) or verify(H, X, Y, M))
    rng = random.Random(2021)
    graphs = [t_tree(5, 4), s_family(3, 3), bs(3, 5)]
    graphs += [layered_graph(rng, rng.choice((30, 60)))[0] for _ in range(5)]
    for G in graphs:
        calls.clear()
        trace = lm_run(G)
        L = levelling(G, trace.root)
        saturated = [frozenset()] + [frozenset(v for e in (*r.matching, *r.witness_matching)
                                               for v in e) for r in trace.levels[:-1]]
        assert calls == [(G, L.levels[r.level - 1], L.levels[r.level] - sat)
                         for r, sat in zip(trace.levels, saturated)]
        assert all(H is G for H, _, _ in calls)


def test_two_level_matches_reference_on_the_induced_subgraph(monkeypatch):
    # the search on two vertex sets of a larger graph is the reference search
    # on the subgraph they induce, relabelled to 0..k-1, in the ids of G; the
    # terminal states are compared also where the postcondition check fails
    states, verify = [], lm_module._verify_two_level
    monkeypatch.setattr(lm_module, "_verify_two_level", _logged(verify, states))
    rng = random.Random(2022)
    instances = []
    for _ in range(3000):
        n = rng.randint(3, 40)
        G = random_connected_graph(rng, n, extra=rng.choice((0.1, 0.2, 0.3)))
        S = rng.sample(range(n), rng.randint(2, n - 1))
        X = set(S[: rng.randint(1, len(S) - 1)])
        instances.append((G, X, {y for y in S if y not in X and G.adj[y] & X}))
    # levels 1 and 2 of the README graph without the root's pendants
    instances.append((README_G12, {1, 2, 3}, set(range(4, 10))))
    outside_witness = failed = 0
    for G, X, Y in instances:
        H, vmap = induced_subgraph(G, X | Y)
        Xh = {k for k, v in enumerate(vmap) if v in X}
        ref = two_level_matching_reference(H, Xh, set(range(H.n)) - Xh)
        expected = TwoLevelResult(
            frozenset((vmap[a], vmap[b]) for a, b in ref.matching),
            frozenset(vmap[x] for x in ref.x_residual),
            frozenset(vmap[y] for y in ref.y_residual),
            tuple((vmap[x], (vmap[a], vmap[b])) for x, (a, b) in ref.private))
        try:
            assert two_level_matching(G, X, Y) == expected, (G, X, Y)
        except PostconditionError:
            failed += 1
            with pytest.raises(PostconditionError):
                verify_two_level_frozen(H, frozenset(Xh), frozenset(range(H.n)) - Xh, ref)
        assert states.pop() == (expected.matching, expected.x_residual,
                                expected.y_residual), (G, X, Y)
        outside_witness += any(G.adj[y] - X - Y for _, pair in expected.private for y in pair)
    assert outside_witness >= 250 and failed == 1, (outside_witness, failed)



def _has_special_edge(H, X, Y, M, old):
    # an edge at an end of old with its other end unmatched, or a free edge of
    # M that would kill an upper neighbour of old's lower ends (module docstring)
    matched = {v for e in M for v in e}
    if any(w not in matched for v in old for w in H.adj[v] & (X | Y)):
        return True
    R = {y for v in old if v in X for y in H.adj[v] & Y}
    for u, w in H.edges():
        if {u, w} <= (X | Y) - matched:
            live = matched | {u, w}
            if any(not (H.adj[y] & X) - live for y in R - live):
                return True
    return False


def test_lm_run_searches_match_the_reference_on_layered_graphs(monkeypatch):
    # every two-level call of lm_run on the lm_large shape ends in the state of
    # the reference search on the induced subgraph, including the inputs that
    # the set-up leaves out of its index and the olds a trade pass skips
    calls, states, counts = [], [], Counter()
    search, best_trade, verify = (lm_module.two_level_matching, lm_module._best_trade,
                                  lm_module._verify_two_level)

    def spy_search(H, X, Y):
        calls.append((H, X, Y))
        counts["empty Y"] += not Y
        counts["isolated lower"] += sum(not (H.adj[x] & (X | Y)) for x in X)
        return search(H, X, Y)

    def spy_trade(ix, matching, matched, free):
        H, X, Y = calls[-1]
        for old in sorted(matching):
            if old[0] in X or old[1] in X:
                counts["no special edge"] += not _has_special_edge(H, X, Y, matching, old)
        move = best_trade(ix, matching, matched, free)
        counts["trades"] += move is not None
        return move

    monkeypatch.setattr(lm_module, "two_level_matching", spy_search)
    monkeypatch.setattr(lm_module, "_best_trade", spy_trade)
    monkeypatch.setattr(lm_module, "_verify_two_level", _logged(verify, states))
    for seed in range(20):
        G, root = layered_graph(random.Random(f"two-level:{seed}"), 300)
        try:
            lm_run(G, root)
        except PostconditionError:
            counts["failed"] += 1
    assert len(states) == len(calls)
    for (G, X, Y), state in zip(calls, states):
        H, vmap = induced_subgraph(G, X | Y)
        Xh = {k for k, v in enumerate(vmap) if v in X}
        ref = two_level_matching_reference(H, Xh, set(range(H.n)) - Xh)
        assert state == (frozenset((vmap[a], vmap[b]) for a, b in ref.matching),
                         frozenset(vmap[x] for x in ref.x_residual),
                         frozenset(vmap[y] for y in ref.y_residual)), (G, X, Y)
    assert len(calls) >= 150 and counts["trades"] >= 8, counts
    assert min(counts[k] for k in ("empty Y", "isolated lower", "no special edge")) >= 5, counts

def test_lm_run_on_double_broom_worked_example():
    G = bs(2, 3)
    trace = lm_run(G)  # auto root: smallest snail head = 0
    assert trace.root == 0
    assert trace.depth == 3
    assert trace.bound == 3 == deficiency(G)
    by_level = {lv.level: lv for lv in trace.levels}
    assert [lv.level for lv in trace.levels] == [3, 2, 1]
    assert by_level[3].witness_matching == ((2, 5),)
    assert by_level[3].leftover == (6,)
    assert by_level[2].leftover == ()
    assert by_level[1].witness_matching == ((0, 1),)
    assert by_level[1].leftover == (3, 4)


def test_lm_run_trace_json_shape():
    d = lm_run(bs(2, 3)).to_json_dict()
    assert d["root"] == 0 and d["depth"] == 3 and d["bound"] == 3
    assert d["levels"][0] == {
        "level": 3,
        "M": [],
        "M_prime": [[2, 5]],
        "X_residual": [2],
        "Y_residual": [5, 6],
        "Z": [6],
    }


def test_lm_run_on_star():
    G = star_graph(4)
    trace = lm_run(G)
    assert trace.root == 0 and trace.depth == 1
    assert len(trace.levels[0].witness_matching) == 1
    assert len(trace.levels[0].leftover) == 3
    assert trace.bound == 3 == deficiency(G)


def test_lm_run_on_layered_tree_is_sound_and_small():
    G = t_tree(5, 4)
    trace = lm_run(G)
    assert deficiency(G) <= trace.bound <= G.n
    assert trace.bound == 5


def test_lm_run_root_must_be_snail_head():
    with pytest.raises(ValueError):
        lm_run(bs(2, 3), root=1)
    with pytest.raises(ValueError):
        lm_run(build_graph(3, [(0, 1), (1, 2), (0, 2)]))  # no horns at all


def test_lm_root_sweep():
    assert lm_root_sweep(bs(2, 3)) == [(0, 3), (2, 3)]
    assert lm_root_sweep(star_graph(4)) == [(0, 3)]


def test_lm_run_is_deterministic():
    assert lm_run(t_tree(5, 4)) == lm_run(t_tree(5, 4))
    assert lm_run(s_family(3, 3)) == lm_run(s_family(3, 3))


def _valid_trace_fixture():
    G = bs(2, 3)
    return G, lm_run(G), structure_profile(G)


def test_validate_trace_accepts_genuine_traces():
    for G in [bs(2, 3), star_graph(4), t_tree(5, 4), s_family(3, 3), bs(3, 5)]:
        assert validate_trace(G, lm_run(G), structure_profile(G)) == []


def test_validate_trace_boundary_first_level():
    G = star_graph(4)  # alpha_l = 4, |Z_1| = 3 sits exactly on the cap
    violations = validate_trace(G, lm_run(G), structure_profile(G))
    assert violations == []


def test_validate_trace_needs_no_admitting_set():
    # The membership rule flags exactly the leftover levels 2.. outside the
    # complete admitting set, from a profile that holds none of it.  From a
    # snail-horn head the levelling certifies the bones; a trace from another
    # root, here every level left over, takes the bone query
    flagged = certified = 0
    for G in _family_instances():
        bare, full = structure_profile(G, 0), structure_profile(G)
        assert bare.admitting == frozenset() and bare.alpha_l == full.alpha_l
        heads = [h.head for h in snail_horns(G)]
        traces = []
        for root in heads[:3]:
            trace = lm_run(G, root)
            traces += [trace, replace(trace, levels=tuple(
                replace(rec, leftover=rec.leftover + (root,)) for rec in trace.levels))]
        for root in [v for v in G.vertices() if v not in heads][:3]:
            L = levelling(G, root)
            levels = tuple(LMLevel(i, (), (), (), (), tuple(sorted(L.levels[i])))
                           for i in range(L.N, 0, -1))
            traces.append(LMTrace(root, L.N, levels, G.n - 1))
        for t in traces:
            got = validate_trace(G, t, bare)
            assert got == validate_trace(G, t, full), (G.name, t.root)
            expected = [rec.level for rec in t.levels
                        if rec.leftover and rec.level != 1 and rec.level not in full.admitting]
            flags = [v.level for v in got if v.rule == "admitting-membership"]
            assert flags == expected, (G.name, t.root)
            flagged += len(expected)
            if t.root not in heads:
                certified += sum(bool(rec.leftover) and rec.level in full.admitting
                                 for rec in t.levels)
    assert flagged > 0 and certified > 0


def test_every_unclean_level_below_a_snail_horn_head_holds_a_bone():
    # the lemma validate_trace reads in place of a bone search
    checked = 0
    for G, _ in _connected_classes(7):
        for head in (h.head for h in snail_horns(G)):
            L = levelling(G, head)
            for i in range(2, L.N + 1):
                if not is_clean_level(L, i):
                    assert find_induced_bone(G, i) is not None, (G.edges(), head, i)
                    checked += 1
    assert checked > 0


def test_validate_trace_refuses_the_trace_of_another_graph():
    G, trace, _ = _valid_trace_fixture()
    H = build_graph(8, [*G.edges(), (6, 7)])  # a pendant on 6 deepens the levelling
    with pytest.raises(ValueError, match="trace does not match the levelling"):
        validate_trace(H, trace, structure_profile(H))


def test_validate_trace_flags_nonedge_matching():
    G, trace, profile = _valid_trace_fixture()
    levels = list(trace.levels)
    levels[0] = replace(levels[0], witness_matching=((2, 6), (5, 4)))
    bad = replace(trace, levels=tuple(levels))
    rules = {v.rule for v in validate_trace(G, bad, profile)}
    assert "matching-edges" in rules


@pytest.mark.parametrize("field", ["matching", "witness_matching", "leftover"])
@pytest.mark.parametrize("bad", [7, -1])
def test_validate_trace_flags_ids_outside_the_graph(field, bad):
    # level 3 of the bs(2, 3) trace has M' = ((2, 5),) and Z = (6,); an id
    # outside 0..6 takes the place of 5 in M or M', or of 6 in Z.  Vertex 6
    # sees 2, so -1 must not be read as 6
    G, trace, profile = _valid_trace_fixture()
    top = trace.levels[0]
    if field == "leftover":
        top, lost, edges = replace(top, leftover=(bad,)), 6, []
    else:
        top = replace(top, **{"witness_matching": (), field: ((bad, 2),)})
        lost, edges = 5, [f"[matching-edges]: ({bad}, 2) is not an edge"]
    bad_trace = replace(trace, levels=(top, *trace.levels[1:]))
    assert [str(v) for v in validate_trace(G, bad_trace, profile)] == [
        *edges, f"[coverage]: vertices [{lost}] unaccounted for; ids [{bad}] outside the graph"]


def test_validate_trace_flags_residual_ids_off_the_lower_level():
    # level 3 of the bs(2, 3) trace has X_residual = (2,); with M' = ((2, 5),)
    # moved into Z = (5, 6), the id 99 padded into X_residual must not raise
    # the leftover cap (alpha_l - 2)|X| from 1 to 2
    G, trace, profile = _valid_trace_fixture()
    top = replace(trace.levels[0], witness_matching=(), leftover=(5, 6))
    moved = replace(trace, levels=(top, *trace.levels[1:]), bound=4)
    padded = replace(moved, levels=(replace(top, x_residual=(2, 99)), *trace.levels[1:]))
    cap = "[leftover-vs-residual] at level 3: |Z| = 2 exceeds (alpha_l - 2)|X| = 1"
    coverage = "[coverage]: vertices [2] unaccounted for"
    assert [str(v) for v in validate_trace(G, moved, profile)] == [coverage, cap]
    assert [str(v) for v in validate_trace(G, padded, profile)] == [
        coverage, "[residual-level] at level 3: X_residual ids [99] are not at level 2", cap]
    off_level = replace(moved, levels=(replace(top, x_residual=(1,)), *trace.levels[1:]))
    assert "[residual-level] at level 3: X_residual ids [1] are not at level 2" in [
        str(v) for v in validate_trace(G, off_level, profile)]


def test_validate_trace_flags_overlapping_matchings():
    G, trace, profile = _valid_trace_fixture()
    levels = list(trace.levels)
    # reuse the level-3 witness edge again at level 1
    levels[2] = replace(levels[2], witness_matching=((0, 1), (2, 5)))
    bad = replace(trace, levels=tuple(levels))
    rules = {v.rule for v in validate_trace(G, bad, profile)}
    assert "matching-disjoint" in rules


def test_validate_trace_flags_coverage_gap():
    G, trace, profile = _valid_trace_fixture()
    levels = list(trace.levels)
    levels[2] = replace(levels[2], leftover=(3,))  # drop vertex 4
    bad = replace(trace, levels=tuple(levels), bound=trace.bound - 1)
    rules = {v.rule for v in validate_trace(G, bad, profile)}
    assert "coverage" in rules


def test_validate_trace_flags_inflated_first_level():
    G = star_graph(4)
    trace = lm_run(G)
    profile = structure_profile(G)
    levels = [replace(trace.levels[0], leftover=(1, 2, 3, 4))]
    bad = replace(trace, levels=tuple(levels), bound=4)
    rules = {v.rule for v in validate_trace(G, bad, profile)}
    assert "first-level-leftover" in rules


def test_validate_trace_flags_misplaced_leftover():
    G, trace, profile = _valid_trace_fixture()
    levels = list(trace.levels)
    levels[0] = replace(levels[0], leftover=())
    levels[1] = replace(levels[1], leftover=(6,))
    bad = replace(trace, levels=tuple(levels))
    rules = {v.rule for v in validate_trace(G, bad, profile)}
    # level 2 is clean, not admitting, and has no residual upper vertices
    assert {"clean-level", "admitting-membership", "leftover-vs-residual"} <= rules


def test_validate_trace_flags_bound_mismatch():
    G, trace, profile = _valid_trace_fixture()
    bad = replace(trace, bound=trace.bound + 1)
    rules = {v.rule for v in validate_trace(G, bad, profile)}
    assert rules == {"bound-sum"}


def test_validate_trace_flags_unsound_bound():
    G, trace, profile = _valid_trace_fixture()
    levels = [replace(lv, leftover=()) for lv in trace.levels]
    bad = replace(trace, levels=tuple(levels), bound=0)
    rules = {v.rule for v in validate_trace(G, bad, profile)}
    assert "soundness" in rules and "coverage" in rules


def test_validate_trace_reads_no_deficiency_when_the_matching_certifies_the_bound(monkeypatch):
    # M and M' saturate s vertices, so kd <= n - s <= the leftover total
    def refuse(G):
        raise AssertionError("validate_trace computed the deficiency")

    graphs = [bs(2, 3), star_graph(4), t_tree(5, 4), s_family(3, 3), bs(3, 5)]
    graphs.append(build_graph(7, [(0, 6), (1, 6), (2, 4), (2, 5), (3, 4), (3, 6), (4, 5),
                                  (5, 6)]))  # LM bound 3, kd 1
    graphs.append(layered_graph(random.Random("lm_large:401"), 300)[0])
    traces = [(G, lm_run(G)) for G in graphs]
    monkeypatch.setattr(lm_module, "deficiency", refuse)
    for G, trace in traces:
        assert validate_trace(G, trace, structure_profile(G, 0)) == []


def _broken_traces(G, trace):
    # (kind, trace): the genuine trace, a foreign edge or a shared vertex that
    # covers leftovers, and a dropped leftover, each with its own bound and
    # with understated ones
    def moved(covered, *edges):
        levels = [replace(rec, leftover=tuple(z for z in rec.leftover if z not in covered))
                  for rec in trace.levels]
        levels[-1] = replace(levels[-1], witness_matching=levels[-1].witness_matching + edges)
        return replace(trace, levels=tuple(levels))

    left = [z for rec in trace.levels for z in rec.leftover]
    saturated = {v for rec in trace.levels for e in rec.matching + rec.witness_matching for v in e}
    broken = [("genuine", trace)]
    foreign = [(a, b) for a in left for b in left if a < b and not G.has_edge(a, b)]
    if foreign:
        broken.append(("foreign", moved(foreign[0], foreign[0])))
    shared = [(u, z) for z in left for u in sorted(G.adj[z] & saturated)]
    if shared:
        broken.append(("shared", moved({shared[0][1]}, shared[0])))
    if left:
        broken.append(("dropped", moved({left[0]})))
    return [(kind, replace(t, bound=b)) for kind, t in broken
            for b in sorted({trace.bound - k for k in range(3)} | {0})]


def test_validate_trace_flags_soundness_exactly_below_the_deficiency():
    # kd is computed only when the trace's matching does not certify the
    # bound, and a bound below kd is still flagged with its message
    graphs = [G for G in _family_instances() if snail_horns(G)]
    graphs += [G for G, _ in _connected_classes(6) if snail_horns(G)]
    graphs += [layered_graph(random.Random(f"lm_large:{seed}"), 120)[0] for seed in (401, 7002)]
    hits, misses = Counter(), Counter()
    for G in graphs:
        kd, profile = deficiency(G), structure_profile(G, 0)
        for head in (h.head for h in snail_horns(G)):
            for kind, bad in _broken_traces(G, lm_run(G, head)):
                got = [str(v) for v in validate_trace(G, bad, profile) if v.rule == "soundness"]
                low = bad.bound < kd
                assert got == [f"[soundness]: bound {bad.bound} is below the exact deficiency "
                               f"{kd}"] * low, (G, head, kind, bad.bound)
                (hits if low else misses)[kind] += 1
    kinds = {"genuine", "foreign", "shared", "dropped"}
    assert set(hits) == set(misses) == kinds and min(hits.values()) >= 20


def test_trace_violation_rendering():
    G, trace, profile = _valid_trace_fixture()
    bad = replace(trace, bound=trace.bound + 1)
    v = validate_trace(G, bad, profile)[0]
    assert str(v) == "[bound-sum]: bound does not equal the leftover total"
    levels = list(trace.levels)
    levels[1] = replace(levels[1], leftover=(6,))
    levels[0] = replace(levels[0], leftover=())
    leveled = validate_trace(G, replace(trace, levels=tuple(levels)), profile)
    assert any(str(v).startswith("[clean-level] at level 2:") for v in leveled)


def test_even_levels_stay_clean_on_odd_admitting_families():
    for G in [bs(2, 3), bs(3, 5), t_tree(5, 4), t_tree(7, 4)]:
        profile = structure_profile(G)
        assert profile.admitting and all(i % 2 == 1 for i in profile.admitting)
        trace = lm_run(G)
        for lv in trace.levels:
            if lv.level % 2 == 0:
                assert lv.leftover == ()
