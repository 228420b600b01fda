"""Executable checks for the deficiency bounds, sweeps, and randomized search.

Each check identifier names one quantitative claim (an upper bound on the
deficiency under structural hypotheses, or a structural consequence).  The
sweep driver runs a check on one graph per isomorphism class of connected
graphs up to a size cap and counts each result for every labelled graph of
its class; the search driver explores constrained graphs by hill climbing on
the deficiency.  A reported violation of any check would refute the underlying
claim and is treated as an implementation bug until proven otherwise.
"""

from __future__ import annotations

import csv
import io
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from math import factorial
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .canon import _decode_row, _search, canonical_form
from .errors import GuardExceededError
from .graphs import Graph, build_graph, is_connected, snail_horns
from .matching import (
    CriticalityResult, _blossom, _components, _mask_vertices, _MaskLists, deficiency,
    is_deficiency_critical)
from .serialize import graph_key, graph_to_json_dict, json_text
from .structure import (
    _MIS_MAX, _alpha_exceeds, _bone_scan, _claw_centres, _clique_of_masks, _max_bone_index,
    admitting_set, clique_number, local_independence_number)

__all__ = [
    "THEOREM_IDS",
    "TheoremSpec",
    "CheckResult",
    "check_theorem",
    "SweepReport",
    "exhaustive_sweep",
    "random_connected",
    "ADMITTING_CONSTRAINTS",
    "SearchConstraints",
    "SearchReport",
    "extremal_search",
    "rows_to_csv",
]

_SWEEP_MAX = 8


@dataclass(frozen=True)
class TheoremSpec:
    """A check identifier plus whichever of ``m``, ``n``, ``p`` it consumes."""

    id: str
    m: int | None = None
    n: int | None = None
    p: int | None = None

    def __post_init__(self) -> None:
        if self.id not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {self.id!r}")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check on one graph.

    ``verdict`` is one of ``"pass"`` (the hypotheses and the bound hold),
    ``"fail"`` (the hypotheses hold and the bound does not), ``"vacuous"``
    (a hypothesis fails, a vacuous pass) or ``"indeterminate"`` (a size guard
    tripped; never a pass).  ``hypotheses`` records the per-hypothesis
    breakdown.  ``to_json_dict`` writes ``details`` as an object, with the
    criticality verdict in the shape ``analyze --out`` uses.
    """

    theorem: str
    hypotheses: tuple[tuple[str, bool], ...]
    verdict: str
    bound_value: int | None
    actual_deficiency: int | None
    note: str = ""
    details: tuple[tuple[str, Any], ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "vacuous")

    @property
    def vacuous(self) -> bool:
        return self.verdict == "vacuous"

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "theorem": self.theorem,
            "hypotheses": {k: v for k, v in self.hypotheses},
            "hypotheses_met": self.verdict in ("pass", "fail"),
            "bound": self.bound_value,
            "actual": self.actual_deficiency,
            "pass": self.passed,
            "vacuous": self.vacuous,
            "indeterminate": self.verdict == "indeterminate",
            "note": self.note,
            "details": {k: v.to_json_dict() if isinstance(v, CriticalityResult) else v
                        for k, v in self.details},
        }


# Each fact is looked up through this module's globals at call time, so a
# function wrapped by replacing its module global is seen by every check.
_FACTS: dict[str, Callable[[Graph], Any]] = {
    "connected": lambda G: is_connected(G),
    "nontrivial": lambda G: G.n >= 2,
    "alpha_l": lambda G: local_independence_number(G),
    "omega": lambda G: clique_number(G),
    "admitting": lambda G: admitting_set(G),
    "kd": lambda G: deficiency(G),
    "critical": lambda G: is_deficiency_critical(G, "exhaustive"),
    "snail_horns": lambda G: len(snail_horns(G)),
}


class _RuleError(ValueError):
    """Parameters that break a rule of the theorem, as opposed to missing ones."""


class _Theorem(NamedTuple):
    """One check: required ``params``, ``rules`` (a test on m, n, p and its message)
    that reject them, the ``facts`` read in order, hypotheses, bound, and a pass
    rule (default kd <= bound) asked only when they hold.  ``m`` fixes m."""

    facts: tuple[str, ...]
    hypotheses: Callable[..., list[tuple[str, bool]]]
    bound: Callable[[Any, Any, Any], int] | None = None
    passes: Callable[..., bool] | None = None
    params: tuple[str, ...] = ()
    rules: tuple[tuple[Callable[[Any, Any, Any], bool], str], ...] = ()
    m: int | None = None
    note: str = ""


def _star(f: dict[str, Any], n: int) -> list[tuple[str, bool]]:
    # The hypotheses every bound with a star parameter n starts with.
    return [("connected", f["connected"]), ("n > 3", n > 3), ("alpha_l < n", f["alpha_l"] < n)]


def _pair_sum_condition(admitting: frozenset[int], m: int) -> bool:
    high = [a for a in admitting if a >= m]
    return not any(p + q + 1 in admitting or p + q - 1 in admitting for p in high for q in high)


_STAR_FACTS = ("alpha_l", "admitting", "connected", "kd")
_ODD_P = ((lambda m, n, p: p < 3 or p % 2 == 0, "needs odd p >= 3, got {p}"),)
_MAIN = _Theorem(
    params=("m",),
    rules=((lambda m, n, p: m < 3 or m % 2 == 0, "needs odd m >= 3, got {m}"),),
    facts=_STAR_FACTS,
    hypotheses=lambda f, m, n, p: _star(f, n) + [
        ("admitting all odd", all(a % 2 == 1 for a in f["admitting"])),
        ("no p+q+-1 in admitting", _pair_sum_condition(f["admitting"], m))],
    bound=lambda m, n, p: (2 * n - 5 if m == 3
                           else m * (n - 3) * (n - 2) ** ((m - 3) // 2) + 1))

_THEOREMS: dict[str, _Theorem] = {
    "thm-1.2-clawfree": _Theorem(
        facts=("alpha_l", "connected", "kd"),
        hypotheses=lambda f, m, n, p: [("connected", f["connected"]),
                                       ("alpha_l < 3", f["alpha_l"] < 3)],
        bound=lambda m, n, p: 1),
    "thm-1.3-bonefree": _Theorem(
        facts=_STAR_FACTS,
        hypotheses=lambda f, m, n, p: _star(f, n) + [("no bones", not f["admitting"])],
        bound=lambda m, n, p: n - 2),
    "thm-1.4-main": _MAIN,
    "thm-1.4-m3": _MAIN._replace(params=(), m=3),
    "thm-1.6-q=2p+1": _Theorem(
        params=("p",), rules=_ODD_P, facts=_STAR_FACTS,
        hypotheses=lambda f, m, n, p: _star(f, n) + [
            (f"admitting within {{{p},{2 * p + 1}}}", f["admitting"] <= {p, 2 * p + 1})],
        bound=lambda m, n, p: 3 * n - 8),
    "thm-1.6-q=2p-1": _Theorem(
        params=("p",), rules=_ODD_P, facts=_STAR_FACTS,
        hypotheses=lambda f, m, n, p: _star(f, n) + [
            (f"admitting within {{{p},{2 * p - 1}}}", f["admitting"] <= {p, 2 * p - 1})],
        bound=lambda m, n, p: n * n - 3 * n + 1),
    "thm-1.8-single-even": _Theorem(
        params=("m", "p"),
        rules=((lambda m, n, p: m <= 3, "needs m > 3, got {m}"),
               (lambda m, n, p: p < 1, "needs p >= 1, got {p}")),
        facts=("alpha_l", "omega", "admitting", "connected", "kd"),
        hypotheses=lambda f, m, n, p: _star(f, n) + [
            ("omega < m", f["omega"] < m),
            (f"admitting within {{{2 * p}}}", f["admitting"] <= {2 * p})],
        bound=lambda m, n, p: (m - 1) * (n - 3) + 1),
    "thm-1.8-all-even": _Theorem(
        facts=("alpha_l", "omega", "admitting", "connected", "kd"),
        hypotheses=lambda f, m, n, p: _star(f, n) + [
            ("omega < 3", f["omega"] < 3),
            ("admitting all even", all(a % 2 == 0 for a in f["admitting"]))],
        bound=lambda m, n, p: 2 * n - 6),
    "cor-1.3": _Theorem(
        params=("m", "n"),
        rules=((lambda m, n, p: m < 3 or m % 2 == 0 or n <= 3, "needs odd m >= 3 and n > 3"),),
        facts=("connected", "kd"),
        hypotheses=lambda f, m, n, p: [("connected", f["connected"])],
        bound=lambda m, n, p: (n - 1) * (n - 2) ** ((m - 3) // 2) - 1,
        passes=lambda f, kd, bound, n: kd == bound,
        note="equality check"),
    "cor-2.3-snailhorn": _Theorem(
        facts=("critical", "connected", "nontrivial", "snail_horns"),
        hypotheses=lambda f, m, n, p: [
            ("connected", f["connected"]), ("nontrivial", f["nontrivial"]),
            ("deficiency-critical", f["critical"].verdict == "critical")],
        passes=lambda f, kd, bound, n: f["snail_horns"] >= 1),
    "prop-5.1-mod": _Theorem(
        params=("m", "n"),
        rules=((lambda m, n, p: m <= 3 or n <= 3, "needs m, n > 3"),),
        facts=("alpha_l", "omega", "connected", "kd"),
        hypotheses=lambda f, m, n, p: [("connected", f["connected"]),
                                       ("alpha_l < n", f["alpha_l"] < n),
                                       ("omega < m", f["omega"] < m)],
        passes=lambda f, kd, bound, n: kd % (n - 3) == 1 % (n - 3),
        note="congruence report, not an asserted bound"),
}
THEOREM_IDS = tuple(_THEOREMS)


def _kd(f: dict[str, Any]) -> int | None:
    # kd among the facts ``f``: the criticality scan computes it too; None if not read
    return f["kd"] if "kd" in f else f["critical"].deficiency if f.get("critical") else None


def _details(f: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    # the last use of ``f``, so the admitting set is sorted in place
    if "admitting" in f:
        f["admitting"] = sorted(f["admitting"])
    return tuple(f.items())


def check_theorem(G: Graph, spec: TheoremSpec) -> CheckResult:
    """Evaluate one check on one graph.

    Hypotheses are evaluated exactly (complete admitting set).  A tripped size
    guard makes the result indeterminate, never a pass.  ``details`` holds the
    facts the check computed, in order, with the admitting set as a sorted
    list; on an indeterminate result, those computed before the guard tripped.
    Adding a theorem means adding one ``_THEOREMS`` entry.
    """
    facts, hypotheses, bound, passes, params, rules, m, note = _THEOREMS[spec.id]
    for name in params:
        if getattr(spec, name) is None:
            raise ValueError(f"{spec.id} requires parameter {name}")
    m, n, p = spec.m if m is None else m, spec.n, spec.p
    for bad, why in rules:
        if bad(m, n, p):
            raise _RuleError(f"{spec.id} " + why.format(m=m, n=n, p=p))
    f: dict[str, Any] = {}
    try:
        for name in facts:
            f[name] = _FACTS[name](G)
    except GuardExceededError as exc:
        return CheckResult(
            theorem=spec.id, hypotheses=(), verdict="indeterminate", bound_value=None,
            actual_deficiency=None, note=str(exc), details=_details(f))
    if n is None and "alpha_l" in f:
        # the smallest legal star parameter the graph satisfies: sweeps need none
        n = max(f["alpha_l"] + 1, 4)
    hyps = hypotheses(f, m, n, p)
    if bound is not None:
        bound = bound(m, n, p)
    kd = _kd(f)
    verdict = ("vacuous" if not all(ok for _, ok in hyps)
               else "pass" if (kd <= bound if passes is None else passes(f, kd, bound, n))
               else "fail")
    return CheckResult(
        theorem=spec.id, hypotheses=tuple(hyps), verdict=verdict, bound_value=bound,
        actual_deficiency=kd, note=note, details=_details(f))


@dataclass(frozen=True)
class SweepReport:
    """Aggregate outcome of a sweep; empty ``violations`` means the sweep passed.

    ``class_count`` counts the isomorphism classes checked.  Every other
    count is a count of labelled graphs: a class adds ``n!/|Aut|`` to each
    count its result falls in.
    """

    theorem: str
    n_max: int
    class_count: int
    connected_count: int
    hypotheses_met_count: int
    vacuous_count: int
    indeterminate_count: int
    max_deficiency_met: int | None
    violations: tuple[dict[str, Any], ...] = field(default=())

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "theorem": self.theorem,
            "n_max": self.n_max,
            "classes": self.class_count,
            "connected": self.connected_count,
            "checked": self.connected_count,
            "hypotheses_met": self.hypotheses_met_count,
            "vacuous": self.vacuous_count,
            "indeterminate": self.indeterminate_count,
            "max_deficiency_met": self.max_deficiency_met,
            "violations": list(self.violations),
        }


def _mask_images(gens: tuple[tuple[int, ...], ...], n: int) -> list[list[int]]:
    """``images[i][S]``: the image of the mask ``S`` on ``n`` vertices under ``gens[i]``."""
    images = []
    for g in gens:
        image = [0] * (1 << n)
        for S in range(1, 1 << n):
            low = S & -S
            image[S] = image[S ^ low] | 1 << g[low.bit_length() - 1]
        images.append(image)
    return images


def _connected_classes(n_max: int):
    """Yield ``(G, labelled)`` once per isomorphism class of connected graphs
    on ``1..n_max`` vertices, order by order.

    ``G`` is the canonical relabelling of the class and ``labelled`` is
    ``n!/|Aut(G)|``, the number of labelled graphs in it.  Order ``n`` adds
    a new vertex with a non-empty neighbourhood ``S`` to every class ``H`` of
    order ``n - 1`` and keeps one graph per canonical code.  Only one ``S``
    per orbit of ``Aut(H)`` is tried: ``H + S`` and ``H + g(S)`` are
    isomorphic for every automorphism ``g`` of ``H``.  The orbits come from
    the generators of the search that found ``H``, carried into its canonical
    labels, which generate ``Aut(H)`` (``canon``); so the one search of each
    kept ``H + S`` is the only canonical search the generation makes.

    Canonical deletion (McKay, J. Algorithms 26, 1998): with ``inv(v)`` the
    pair ``(deg(v), sum of the degrees of N(v))`` in ``H + S``, ``H + S`` is
    dropped before it is searched when an old vertex ``u`` has ``inv(u) >
    inv(new)`` and ``H + S - u`` is connected, that is when every component
    of ``H - u`` meets ``S``.  No class is lost.  A connected class ``G`` of
    order ``n >= 2`` has a vertex ``u*`` of largest ``inv`` among the
    vertices whose removal leaves it connected (a leaf of a spanning tree is
    one).  ``G - u*`` is a class ``H`` of order ``n - 1``, and an isomorphism
    onto ``H`` maps ``N(u*)`` to some ``S``, whose orbit is tried.  Its
    representative gives a graph isomorphic to ``G`` in which the new vertex
    plays ``u*``; ``inv`` is an isomorphism invariant, so no old vertex whose
    removal keeps it connected has a larger ``inv``, and the graph is kept.
    An automorphism of ``H`` extends to an isomorphism of ``H + S`` onto
    ``H + g(S)`` that fixes the new vertex, so the filter is the same on a
    whole orbit, and the kept codes, their ``|Aut|`` and their sorted order
    are those of the unfiltered generation.
    """
    point = canonical_form(build_graph(1, []))
    # code -> (|Aut|, generators of Aut, the search's order of the vertices)
    kept = {point.code: (point.automorphisms, (), ())}
    for n in range(1, n_max + 1):
        if n > 1:
            new = n - 1
            old = (1 << new) - 1
            kept = {}
            for masks, gens in below:
                images = _mask_images(gens, new)
                degs = [m.bit_count() for m in masks]
                # (degree, sum of the neighbours' degrees, N(u), u, components
                # of H - u) of every old vertex u, in H
                cuts = [(degs[u], sum(degs[w] for w in range(new) if m >> w & 1), m, u,
                         _components(masks, old ^ 1 << u)) for u, m in enumerate(masks)]
                seen = bytearray(1 << new)
                for nbrs in range(1, 1 << new):
                    if seen[nbrs]:
                        continue
                    k = nbrs.bit_count()
                    total = None  # the sum of the degrees of N(new), taken on a degree tie
                    for d, dsum, m, u, comps in cuts:
                        s = nbrs >> u & 1
                        if d + s < k:
                            continue
                        if d + s == k:
                            if total is None:
                                total = k + sum(degs[v] for v in range(new) if nbrs >> v & 1)
                            if dsum + (m & nbrs).bit_count() + s * k <= total:
                                continue
                        if all(c & nbrs for c in comps):
                            break
                    else:
                        seen[nbrs] = 1
                        orbit = [nbrs]
                        for S in orbit:
                            for image in images:
                                if not seen[image[S]]:
                                    seen[image[S]] = 1
                                    orbit.append(image[S])
                        code, count, found, order = _search(
                            [m | (nbrs >> v & 1) << new for v, m in enumerate(masks)] + [nbrs])
                        if code not in kept:
                            kept[code] = count, found, order
        full = (1 << n) - 1
        rows = {}  # row pattern -> (vertices, mask), decoded once per order
        graphs, below = [], []
        for code in sorted(kept):
            adj, masks = [], []
            for i in range(n - 1, -1, -1):
                row = code >> n * i & full
                if row not in rows:
                    vs = _decode_row(row, n)
                    rows[row] = vs, sum(1 << v for v in vs)
                vs, m = rows[row]
                adj.append(frozenset(vs))  # own sets: graphs sharing them slowed the checks
                masks.append(m)
            count, found, order = kept[code]
            graphs.append((Graph(n, tuple(adj)), factorial(n) // count))
            if n < n_max:  # only a class below the top order is extended
                pos = {v: j for j, v in enumerate(order)}
                below.append((tuple(masks), tuple(tuple(pos[g[v]] for v in order)
                                                  for g in found)))
        yield from graphs


def exhaustive_sweep(n_max: int, spec: TheoremSpec,
                     out_dir: str | Path | None = None) -> SweepReport:
    """Run a check over every connected graph on at most ``n_max`` vertices.

    The check runs once per isomorphism class, on its canonical graph, and
    the report counts labelled graphs: each class adds ``n!/|Aut|``.
    ``n_max`` is capped at 8.  With ``out_dir`` set, a per-class CSV and a
    JSON dump of any violations are written there; each row and violation
    carries its class's labelled multiplicity.
    """
    if n_max < 1:
        raise ValueError(f"sweep needs n_max >= 1, got {n_max}")
    if n_max > _SWEEP_MAX:
        raise GuardExceededError(f"sweep needs 1 <= n_max <= {_SWEEP_MAX}, got {n_max}")
    classes = 0
    counts: Counter[str] = Counter()  # labelled graphs per verdict
    max_kd: int | None = None
    violations: list[dict[str, Any]] = []
    rows: list[dict[str, Any]] = []
    for G, labelled in _connected_classes(n_max):
        classes += 1
        result = check_theorem(G, spec)
        counts[result.verdict] += labelled
        kd = result.actual_deficiency
        if result.verdict in ("pass", "fail") and kd is not None:
            max_kd = kd if max_kd is None else max(max_kd, kd)
        if result.verdict == "fail":
            violations.append({
                "graph": graph_to_json_dict(G),
                "result": result.to_json_dict(),
                "labelled": labelled,
            })
        if out_dir is not None:
            rows.append(_instance_row(G, dict(result.details), result, labelled))
    report = SweepReport(
        theorem=spec.id, n_max=n_max, class_count=classes, connected_count=sum(counts.values()),
        hypotheses_met_count=counts["pass"] + counts["fail"], vacuous_count=counts["vacuous"],
        indeterminate_count=counts["indeterminate"], max_deficiency_met=max_kd,
        violations=tuple(violations))
    if out_dir is not None:
        _write_sweep_artifacts(Path(out_dir), report, rows)
    return report


def _table_facts(G: Graph, result: CheckResult | None) -> dict[str, Any]:
    """The facts ``result`` read, completed with kd, alpha_l, omega and the
    admitting set; a fact whose guard trips, now or in the check, is ``None``."""
    f = dict(result.details) if result else {}
    if result and result.verdict == "indeterminate":  # its guard tripped on this fact
        f[next(name for name in _THEOREMS[result.theorem].facts if name not in f)] = None
    if _kd(f) is None:
        f["kd"] = _FACTS["kd"](G)
    for name in ("alpha_l", "omega", "admitting"):
        if name not in f:
            try:
                f[name] = _FACTS[name](G)
            except GuardExceededError:
                f[name] = None
    return f


def _instance_row(G: Graph, f: dict[str, Any], result: CheckResult | None,
                  labelled: int | str = "") -> dict[str, Any]:
    """CSV row of ``G`` and its facts ``f``: a fact nobody read is empty, an unknown one ``?``."""
    admitting = f.get("admitting", ())
    kd = _kd(f)
    row = {
        "instance": G.name or graph_key(G),
        "n": G.n,
        "alpha_l": f.get("alpha_l", ""),
        "omega": f.get("omega", ""),
        "admitting": None if admitting is None else " ".join(str(a) for a in sorted(admitting)),
        "deficiency": "" if kd is None else kd,
        "bound": "" if result is None or result.bound_value is None else result.bound_value,
        "pass": result is None or result.passed,
        "labelled": labelled,
    }
    return {k: "?" if v is None else v for k, v in row.items()}


_CSV_COLUMNS = ["instance", "n", "alpha_l", "omega", "admitting", "deficiency", "bound", "pass",
                "labelled"]


def rows_to_csv(rows: list[dict[str, Any]]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in _CSV_COLUMNS})
    return buf.getvalue()


def _write_sweep_artifacts(out_dir: Path, report: SweepReport,
                           rows: list[dict[str, Any]]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(json_text(report.to_json_dict()))
    (out_dir / "instances.csv").write_text(rows_to_csv(rows))
    for k, violation in enumerate(report.violations):
        (out_dir / f"violation-{k:04d}.json").write_text(json_text(violation))


def random_connected(n: int, edge_prob: float, seed: int) -> Graph:
    """Uniform-ish random connected graph, reproducible from the seed.

    Samples G(n, p) and rejects disconnected draws; after 10^4 rejections a
    random spanning tree is laid down first and the G(n, p) edges added on
    top.  A draw is tested on neighbour masks, so only the graph returned is
    built.
    """
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    if not (0 < edge_prob <= 1):
        raise ValueError(f"edge probability must be in (0, 1], got {edge_prob}")
    return build_graph(n, _connected_draw(n, edge_prob, seed)[1])


def _connected_draw(n: int, edge_prob: float,
                    seed: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The neighbour masks and the edges of the draw ``random_connected``
    returns for these arguments, which are not checked; the edges of the
    spanning-tree fallback may repeat a pair."""

    def masks_of(edges: list[tuple[int, int]]) -> list[int]:
        masks = [0] * n
        for u, v in edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    rng = random.Random(seed)
    draw = rng.random
    pairs = list(combinations(range(n), 2))
    full = (1 << n) - 1
    for _ in range(10_000):
        edges = [e for e in pairs if draw() < edge_prob]
        masks = masks_of(edges)
        if _components(masks, full) == [full]:
            return masks, edges
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    edges += [e for e in pairs if draw() < edge_prob]
    return masks_of(edges), edges


# The search's admitting constraints, in the order the CLI lists them: whether
# a graph must admit a bone, and which indices refute the constraint.  ``any``
# is ``None``, so no bone is searched for.
ADMITTING_CONSTRAINTS: dict[str, tuple[bool, Callable[[int], bool]] | None] = {
    "any": None,
    "empty": (False, lambda i: True),
    "odd": (True, lambda i: i % 2 == 0),
    "even": (True, lambda i: i % 2 == 1),
}


@cache
def _bone_query(admitting: str, n: int) -> tuple[bool, frozenset[int], frozenset[int]] | None:
    """The bone query of the admitting constraint ``admitting`` at order
    ``n``, or ``None`` for ``any``: whether a bone is needed, the wanted
    indices (those of ``admitting_set`` on a tree of order ``n``;
    ``_bone_scan`` drops ``n - 4`` from any other graph) and the refuting
    ones among them, where the scan stops."""
    constraint = ADMITTING_CONSTRAINTS[admitting]
    if constraint is None:
        return None
    needed, refuted_by = constraint
    wanted = frozenset(range(2, _max_bone_index(n, n - 1) + 1))
    return needed, wanted, frozenset(filter(refuted_by, wanted))


def _satisfiable(admitting: str, n: int) -> bool:
    """Whether some set of the wanted indices at order ``n`` meets the
    admitting constraint ``admitting``; if none does, no graph of order ``n``
    does.  None does iff a bone is needed and every wanted index refutes it
    (``odd`` at n <= 6, ``even`` at n <= 5)."""
    query = _bone_query(admitting, n)
    return query is None or not query[0] or bool(query[1] - query[2])


# The largest search order.  At the seed density 2.5/n, random_connected
# rejects most draws as disconnected, so one call grows steeply with n.  Its
# median over seeds 1-7 was 0.12 s at n = 80, 0.23 s at 90, 0.84 s at 95,
# 1.0 s at 100 and 2.9 s at 110, where every seed drew 10^4 disconnected
# graphs before the spanning-tree fallback (2-vCPU Xeon VM, Python 3.11).
_SEARCH_MAX_N = 90


@dataclass(frozen=True)
class SearchConstraints:
    """Feasible region for the extremal search.

    ``admitting`` names an entry of ``ADMITTING_CONSTRAINTS``: ``any``
    (unconstrained), ``empty`` (no bone needed, every index refutes it),
    ``odd`` (a bone needed, even indices refute it) or ``even`` (a bone
    needed, odd indices refute it).  A graph meets a constraint iff its
    admitting set holds no refuting index and, if a bone is needed, one.
    """

    n: int
    alpha_l_max: int | None = None
    omega_max: int | None = None
    admitting: str = "any"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("search needs at least one vertex")
        if self.n > _SEARCH_MAX_N:
            raise GuardExceededError(f"search limited to {_SEARCH_MAX_N} vertices, got {self.n}")
        for name, cap in (("alpha_l_max", self.alpha_l_max), ("omega_max", self.omega_max)):
            if cap is not None and cap < 0:
                raise ValueError(f"{name} must be 0 or more, got {cap}")
        if self.omega_max is not None and self.n > _MIS_MAX:
            raise GuardExceededError(f"clique number limited to {_MIS_MAX} vertices")
        if self.admitting not in ADMITTING_CONSTRAINTS:
            raise ValueError(f"unknown admitting constraint {self.admitting!r}")


def _satisfies(masks: list[int], c: SearchConstraints, among: int, claws: int) -> bool:
    """Whether the graph ``G`` with the neighbour masks ``masks`` and the
    claw centres ``claws`` meets the constraints ``c``.  ``among`` is the
    mask of the vertices on which the alpha_l cap is tested: every vertex
    for a restart draw, and ``W = {u, v} | (N(u) & N(v))`` for a candidate
    made by toggling ``uv`` in the search's current graph.  This is exact:

    - the current graph always meets the cap: it is a draw tested on every
      vertex, or an edit of a current graph accepted by this test;
    - for ``w`` outside ``{u, v}``, ``N(w)`` is unchanged, and ``G[N(w)]``
      changes only if ``u`` and ``v`` both lie in ``N(w)``, that is if ``w``
      is in ``N(u) & N(v)``, which the toggle leaves as it was.  So every
      vertex outside ``W`` keeps the alpha(N(w)) it had in the current graph,
      which is within the cap;
    - degrees change only at ``u`` and ``v``.  Every vertex of the current
      graph has degree <= 40, or its test would have raised, so a vertex of
      ``G`` above the 40-vertex guard is ``u`` or ``v``: the guard trips on
      the same candidate, naming the same smallest vertex, as on all of ``G``.

    A vertex ``w`` is a claw centre iff alpha(N(w)) >= 3, so the second
    point shows as well that every vertex outside ``W`` is a claw centre of
    ``G`` iff it is one of the current graph.  The search therefore carries
    the current graph's claw centres and tests only ``among`` again; a
    draw's ``among`` is every vertex, so nothing is carried to it.

    ``claws`` is read only by a bone query.  The bone query depends only on
    the constraint and the order, so it is built once for each pair
    (``_bone_query``), not once per graph.
    """
    if c.alpha_l_max is not None and _alpha_exceeds(masks, among, c.alpha_l_max):
        return False
    if c.omega_max is not None and _clique_of_masks(masks) > c.omega_max:
        return False
    query = _bone_query(c.admitting, len(masks))
    if query is None:
        return True
    needed, wanted, stop = query
    found = _bone_scan(masks, claws, wanted, stop)
    return stop.isdisjoint(found) and (bool(found) or not needed)


@dataclass(frozen=True)
class SearchReport:
    """Best graph found under the constraints; never a claim of optimality."""

    constraints: SearchConstraints
    iterations: int
    seed: int
    best_graph: Graph | None
    best_deficiency: int | None
    feasible_seen: int
    mod_base: int | None
    mod_hit: bool | None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "n": self.constraints.n,
            "alpha_l_max": self.constraints.alpha_l_max,
            "omega_max": self.constraints.omega_max,
            "admitting": self.constraints.admitting,
            "iterations": self.iterations,
            "seed": self.seed,
            "best_graph": None if self.best_graph is None else graph_to_json_dict(self.best_graph),
            "best_deficiency": self.best_deficiency,
            "feasible_seen": self.feasible_seen,
            "mod_base": self.mod_base,
            "mod_hit": self.mod_hit,
        }


_RESTART_AFTER = 200


def _rematch(masks: list[int], match: list[int], u: int, v: int) -> list[int]:
    """A maximum matching of the graph with the neighbour masks ``masks``, made
    by toggling ``uv`` in a graph whose maximum matching is ``match`` (cases
    proved in ``extremal_search``); ``match`` is not changed."""
    if masks[u] >> v & 1:  # uv was added
        if match[u] == match[v] == -1:
            match = match[:]
            match[u], match[v] = v, u
            return match
    elif match[u] != v:  # uv was removed and is not matched
        return match
    else:
        match = match[:]
        match[u] = match[v] = -1
    return _blossom(len(masks), _MaskLists(masks), match)


def extremal_search(constraints: SearchConstraints, iters: int, seed: int) -> SearchReport:
    """Hill-climb over single-edge edits, maximizing deficiency within the constraints.

    Starts from sparse random connected graphs, accepts edits that keep the
    graph connected and feasible without lowering the deficiency, and
    restarts after a stretch of non-improving steps.  Exploratory tooling:
    the result is a lower bound witness, nothing more.

    The current graph ``G`` is kept as neighbour masks, with a maximum
    matching ``M``; a candidate ``G'`` toggles ``uv``, and a ``Graph`` is
    built only for a new best.  ``M`` is repaired, not recomputed (Berge
    1957: a matching is maximum iff no augmenting path exists):

    - ``G' = G - uv``: a matching of ``G'`` is one of ``G``, so
      nu(G') <= nu(G).  If ``uv`` is not in ``M``, ``M`` is a matching of
      ``G'`` of size nu(G), so it is maximum;
    - if ``uv`` is in ``M``, ``M - uv`` is a matching of ``G'``, and the
      blossom starts from it;
    - ``G' = G + uv``: dropping ``uv`` from a matching of ``G'`` leaves one of
      ``G``, so nu(G') <= nu(G) + 1.  If ``u`` and ``v`` are both exposed by
      ``M``, ``M + uv`` is a matching of size nu(G) + 1, so it is maximum;
    - otherwise ``M`` is a matching of ``G'``, and the blossom starts from it.

    The blossom returns a maximum matching from any start (``matching``
    module docstring), so each case gives one, and kd(G') is its free count.

    A restart draw is a candidate too, tested on every vertex where an edit
    is tested on the vertices its toggle may change (``_satisfies``), and a
    restart sets the current kd to -1, so a feasible draw is always taken.
    An infeasible draw counts as a stale step, which changes nothing: the
    next draw taken sets the count back to 0.
    Under an admitting constraint with a bone query (all but ``any``), the
    claw centres of ``G`` are kept as a mask and carried to each candidate in
    the same way, so every graph the search tests, and every result, is that
    of a search that computes them afresh.  Without one, none are computed.

    A constraint that needs a bone which every index of this order refutes
    (``_satisfiable``) makes every graph infeasible, and no guard can trip
    at those orders, so the report is returned at once.
    """
    if iters < 0:
        raise ValueError(f"iteration count must be non-negative, got {iters}")
    n = constraints.n
    # prop-5.1's congruence, with the star parameter n = alpha_l_max + 1 > 3
    n_star = -1 if constraints.alpha_l_max is None else constraints.alpha_l_max + 1
    mod_base = n_star - 3 if n_star > 3 else None
    if not _satisfiable(constraints.admitting, n):
        return SearchReport(constraints=constraints, iterations=iters, seed=seed, best_graph=None,
                            best_deficiency=None, feasible_seen=0, mod_base=mod_base,
                            mod_hit=None)
    rng = random.Random(seed)
    full = (1 << n) - 1
    seed_prob = min(1.0, 2.5 / n) if n > 1 else 1.0
    bones = _bone_query(constraints.admitting, n) is not None
    masks: list[int] | None = None
    claws = 0
    match: list[int] = []
    current_kd = -1
    best: Graph | None = None
    best_kd = -1
    feasible = 0
    stale = 0
    for _ in range(iters):
        if masks is None:
            cand = _connected_draw(n, seed_prob, rng.randrange(2**32))[0]
            among = full
        else:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            cand = masks[:]
            cand[u] ^= 1 << v
            cand[v] ^= 1 << u
            among = 1 << u | 1 << v | cand[u] & cand[v]
        ok = masks is None or _components(cand, full) == [full]
        if ok:
            cand_claws = claws & ~among | _claw_centres(cand, among) if bones else 0
            ok = _satisfies(cand, constraints, among, cand_claws)
        if ok:
            feasible += 1
            cand_match = (_blossom(n, _MaskLists(cand)) if masks is None
                          else _rematch(cand, match, u, v))
            kd = cand_match.count(-1)
        if not ok or kd < current_kd:
            stale += 1
        else:
            stale = 0 if kd > current_kd else stale + 1
            masks, claws, match, current_kd = cand, cand_claws, cand_match, kd
            if kd > best_kd:
                best, best_kd = Graph(n, tuple(frozenset(_mask_vertices(m)) for m in masks)), kd
        if stale >= _RESTART_AFTER:
            masks, current_kd, stale = None, -1, 0

    mod_hit = (None if mod_base is None or best_kd < 0
               else _THEOREMS["prop-5.1-mod"].passes({}, best_kd, None, n_star))
    return SearchReport(
        constraints=constraints, iterations=iters, seed=seed,
        best_graph=best, best_deficiency=None if best_kd < 0 else best_kd,
        feasible_seen=feasible, mod_base=mod_base, mod_hit=mod_hit)
