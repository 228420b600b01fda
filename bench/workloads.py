"""The four workloads: what one round runs, what one item is, and how the
outputs of a round are checked.

A round is one complete piece of user-visible work (four sweeps, one
analysis pass, one LM pass, one batch of searches).  ``run`` records the
wall stamps of each item on the ``clock.Timeline`` it is given and returns
the outputs to check and the number of items that failed.  ``check``
imports networkx (through ``checks``) only when called, so that it is not
part of the peak memory of the timed phase.

``tail_pct`` is fixed per workload, so a faster program is compared at the
same percentile; a run holds enough rounds that at least ten items lie
beyond it.
"""

from __future__ import annotations

from time import perf_counter_ns

import inputs


class Workload:
    tail_pct = 90

    def prepare(self, bm, state, tl):
        pass

    @staticmethod
    def timed_items(fn, calls, tl):
        """Call ``fn(*args)`` for each ``args``; stamp each item and count failures."""
        outputs, failed = [], 0
        for args in calls:
            t0 = perf_counter_ns()
            try:
                out = fn(*args)
            except Exception:  # counted as a failed operation and reported
                failed += 1
                out = None
            tl.item(t0, perf_counter_ns())
            outputs.append(out)
        return outputs, failed


class SweepN6(Workload):
    """Acceptance criterion 9: four theorems over every connected labelled graph on <= 6 vertices."""

    name = "sweep_n6"
    tail_pct = 99
    theorems = ("thm-1.2-clawfree", "thm-1.3-bonefree", "thm-1.4-m3", "cor-2.3-snailhorn")

    def setup(self, bm, seed):
        # Exhaustive: no random input, the seed changes nothing.
        return [bm.harness.TheoremSpec(t) for t in self.theorems]

    def prepare(self, bm, specs, tl):
        # An item is one check_theorem call made by exhaustive_sweep, so the
        # timer sits where the sweep looks that function up.
        inner = bm.harness.check_theorem
        item = tl.item

        def timed_check(G, spec):
            t0 = perf_counter_ns()
            result = inner(G, spec)
            item(t0, perf_counter_ns())
            return result

        bm.harness.check_theorem = timed_check

    def run(self, bm, specs, tl):
        reports = [bm.harness.exhaustive_sweep(6, spec) for spec in specs]
        return reports, sum(r.indeterminate_count for r in reports)

    def check(self, bm, specs, reports):
        import checks

        census, claw_free, bone2 = checks.small_graph_census()
        errs = []
        if census != checks.A001187:
            errs.append(f"bench census {census} differs from A001187")
        for spec, report in zip(specs, reports):
            if report.connected_count != sum(checks.A001187):
                errs.append(f"{spec.id}: connected {report.connected_count}")
            if report.violations:
                errs.append(f"{spec.id}: {len(report.violations)} violations")
        met = {spec.id: r.hypotheses_met_count for spec, r in zip(specs, reports)}
        # clawfree: connected and alpha_l < 3.  bonefree and m3: the only
        # bone on <= 6 vertices is B_2 itself (even index), and the automatic
        # star parameter always satisfies n > 3 and alpha_l < n.
        want = {"thm-1.2-clawfree": claw_free,
                "thm-1.3-bonefree": sum(census) - bone2,
                "thm-1.4-m3": sum(census) - bone2}
        for tid, value in want.items():
            if met[tid] != value:
                errs.append(f"{tid}: hypotheses met {met[tid]}, recount {value}")
        return errs


class AnalyzeMid(Workload):
    """``bonematch analyze --critical exhaustive`` plus ``bonematch lm`` per instance."""

    name = "analyze_mid"

    def setup(self, bm, seed):
        return inputs.analyze_instances(bm, seed)

    @staticmethod
    def _analyze(bm, G):
        profile = bm.structure.structure_profile(G)
        kd = bm.matching.deficiency(G)
        crit = bm.matching.is_deficiency_critical(G, "exhaustive") if G.n <= 18 else None
        trace = violations = None
        if bm.graphs.snail_horns(G):
            trace = bm.lm.lm_run(G)
            violations = bm.lm.validate_trace(G, trace, profile)
        return profile, kd, crit, trace, violations

    def run(self, bm, instances, tl):
        return self.timed_items(self._analyze, [(bm, G) for _, G in instances], tl)

    def check(self, bm, instances, outputs):
        import networkx as nx

        import checks

        stored = checks.stored_admitting()
        base = dict(inputs.analyze_instances(bm, None))
        errs = []
        known_critical = {"S(3,3)", "T(2,3)"}  # acceptance criterion 4
        for (name, G), out in zip(instances, outputs):
            if out is None:
                continue
            profile, kd, crit, trace, violations = out
            H = checks.to_nx(G)
            if kd != checks.nx_deficiency(H):
                errs.append(f"{name}: kd {kd} differs from networkx")
            errs += checks.closed_form_errors(name, kd)
            if profile.alpha_l != checks.nx_local_independence(H):
                errs.append(f"{name}: alpha_l {profile.alpha_l} differs from networkx")
            if profile.omega != checks.nx_clique_number(H):
                errs.append(f"{name}: omega {profile.omega} differs from networkx")
            entry = stored.get(name)
            B = base[name]
            if entry is None or entry["digest"] != checks.oracle.edge_digest(B.n, B.edges()):
                errs.append(f"{name}: no stored expectation for this input; "
                            "run python3 bench/oracle.py --write")
            elif sorted(profile.admitting) != entry["admitting"] or profile.admitting_cap != G.n - 4:
                errs.append(f"{name}: admitting {sorted(profile.admitting)} "
                            f"(cap {profile.admitting_cap}), oracle {entry['admitting']}")
            if crit is not None:
                if name in known_critical and crit.verdict != "critical":
                    errs.append(f"{name}: verdict {crit.verdict}, known critical")
                if crit.verdict == "not-critical":
                    W = H.subgraph(crit.witness_vertices)
                    if (len(W) == G.n or not nx.is_connected(W)
                            or checks.nx_deficiency(nx.Graph(W)) < kd):
                        errs.append(f"{name}: criticality witness does not refute")
            if trace is not None:
                errs += checks.lm_trace_errors(name, H, trace, kd)
                if violations:
                    errs.append(f"{name}: validate_trace reports {violations[0]}")
        return errs


class LmLarge(Workload):
    """``deficiency`` and ``lm_run`` on large families and layered random graphs."""

    name = "lm_large"

    def setup(self, bm, seed):
        return inputs.lm_instances(bm, seed)

    @staticmethod
    def _lm(bm, G, root):
        return bm.matching.deficiency(G), bm.lm.lm_run(G, root)

    def run(self, bm, instances, tl):
        return self.timed_items(self._lm, [(bm, G, root) for _, G, root in instances], tl)

    def check(self, bm, instances, outputs):
        import checks

        errs = []
        for (name, G, root), out in zip(instances, outputs):
            if out is None:
                continue
            kd, trace = out
            H = checks.to_nx(G)
            if kd != checks.nx_deficiency(H):
                errs.append(f"{name}: kd {kd} differs from networkx")
            errs += checks.closed_form_errors(name, kd)
            if root is not None and trace.root != root:
                errs.append(f"{name}: LM ran from {trace.root}, asked {root}")
            errs += checks.lm_trace_errors(name, H, trace, kd)
        return errs


class SearchSmall(Workload):
    """Many ``extremal_search`` calls at n <= 12 under alpha_l and admitting constraints."""

    name = "search_small"

    def setup(self, bm, seed):
        return inputs.search_calls(bm, seed)

    def run(self, bm, calls, tl):
        return self.timed_items(bm.harness.extremal_search, calls, tl)

    def check(self, bm, calls, outputs):
        import networkx as nx

        import checks
        import oracle

        errs = []
        for k, ((c, iters, call_seed), rep) in enumerate(zip(calls, outputs)):
            if rep is None:
                continue
            label = f"search {k} (n={c.n}, alpha_l<={c.alpha_l_max}, {c.admitting})"
            if rep.best_graph is None:
                if rep.best_deficiency is not None or rep.feasible_seen:
                    errs.append(f"{label}: feasible graphs seen but no best graph")
                continue
            G = rep.best_graph
            H = checks.to_nx(G)
            if G.n != c.n or not nx.is_connected(H):
                errs.append(f"{label}: best graph is not a connected {c.n}-vertex graph")
            if checks.nx_local_independence(H) > c.alpha_l_max:
                errs.append(f"{label}: best graph breaks the alpha_l cap")
            adm = oracle.admitting(G.n, G.edges())
            ok = {"empty": not adm,
                  "odd": bool(adm) and all(a % 2 for a in adm),
                  "even": bool(adm) and not any(a % 2 for a in adm)}[c.admitting]
            if not ok:
                errs.append(f"{label}: best graph admits {sorted(adm)}")
            if rep.best_deficiency != checks.nx_deficiency(H):
                errs.append(f"{label}: best_deficiency {rep.best_deficiency} "
                            "differs from networkx")
        return errs


WORKLOADS = {w.name: w for w in (SweepN6(), AnalyzeMid(), LmLarge(), SearchSmall())}
