"""Command-line interface.

Subcommands: ``construct``, ``analyze``, ``lm``, ``verify``, ``sweep``,
``search``, ``export``.  Human-readable tables go to standard output;
machine-readable artifacts are written only through ``--out`` / ``--format``.
Exit codes: 1 a check, trace validation or internal check failed, else 2 a
usage error, a size guard exceeded or a check indeterminate, else 0.

Randomized commands take an explicit ``--seed`` so runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from itertools import product
from math import prod
from pathlib import Path
from typing import Any, Sequence

from .errors import GuardExceededError, PostconditionError
from .families import FAMILIES, _check_instance, build_family, family_label
from .harness import (
    ADMITTING_CONSTRAINTS,
    SearchConstraints,
    TheoremSpec,
    _instance_row,
    _RuleError,
    _table_facts,
    check_theorem,
    exhaustive_sweep,
    extremal_search,
    rows_to_csv,
)
from .lm import lm_root_sweep, lm_run, validate_trace
from .matching import deficiency, is_deficiency_critical
from .serialize import (
    graph_key,
    graph_to_dot,
    graph_to_json_dict,
    json_text,
    read_graph_json,
    write_graph_json,
)
from .structure import structure_profile

__all__ = ["run_cli"]


def _items(text: str, what: str, expected: str):
    """The stripped ``(key, value)`` pairs of the comma-separated ``k=v`` items of ``text``."""
    for item in text.split(","):
        key, eq, value = item.partition("=")
        if not eq or not key.strip() or not value.strip():
            raise ValueError(f"malformed {what} {item!r}; expected {expected}")
        yield key.strip(), value.strip()


def _parse_params(text: str) -> dict[str, Any]:
    """``k=v,k2=v2`` with integer values; list-valued parameters use
    colon-separated elements (``a=1:2``)."""
    params: dict[str, Any] = {}
    for key, value in _items(text, "parameter", "k=v"):
        try:
            if ":" in value:
                params[key] = [int(x) for x in value.split(":")]
            else:
                params[key] = int(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} needs integer value(s), got {value!r}") from None
    return params


_GRID_MAX = 10_000


def _parse_range(text: str) -> list[tuple[str, Sequence[int]]]:
    """``m=3..7:2,n=4..6`` -> [("m", range(3, 8, 2)), ("n", range(4, 7))]; a
    bare integer is a single-value range.  A grid of more than ``_GRID_MAX``
    instances is rejected before anything is built."""
    ranges: list[tuple[str, Sequence[int]]] = []
    for key, value in _items(text, "range", "k=lo..hi[:step] or k=v"):
        try:
            if ".." in value:
                lo_text, _, rest = value.partition("..")
                hi_text, colon, step_text = rest.partition(":")
                step = int(step_text) if colon else 1
                if step < 1:
                    raise ValueError
                values: Sequence[int] = range(int(lo_text), int(hi_text) + 1, step)
            else:
                values = [int(value)]
        except ValueError:
            raise ValueError(f"malformed range value {value!r} for {key!r}") from None
        if not values:
            raise ValueError(f"range for {key!r} is empty")
        ranges.append((key, values))
    # capped slices, as len() of a range longer than sys.maxsize overflows
    if prod(len(values[:_GRID_MAX + 1]) for _, values in ranges) > _GRID_MAX:
        raise ValueError(f"range grid has more than {_GRID_MAX} instances")
    return ranges


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}" if values else "{}"


def _fmt_edges(edges) -> str:
    return " ".join(f"{u}-{v}" for u, v in edges)


def _print_kv(label: str, value: Any) -> None:
    print(f"{label:<14} {value}")


def _write(path: str | Path, text: str) -> None:
    """Write an artefact and name it on standard output."""
    Path(path).write_text(text)
    _print_kv("written", path)


def _cmd_construct(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    G = build_family(args.family, params)
    _print_kv("graph", G.name or "(unnamed)")
    _print_kv("family", family_label(args.family, params))
    _print_kv("vertices", G.n)
    _print_kv("edges", G.edge_count())
    if args.out:
        write_graph_json(G, args.out, family={"id": args.family, "params": params})
        _print_kv("written", args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.max_bone is not None and args.max_bone < 0:
        raise ValueError(f"--max-bone takes a bone index cap of 0 or more, not {args.max_bone}")
    G = read_graph_json(args.graph)
    profile = structure_profile(G, i_max=args.max_bone)
    kd = deficiency(G)
    _print_kv("graph", G.name or graph_key(G))
    _print_kv("vertices", G.n)
    _print_kv("edges", G.edge_count())
    _print_kv("deficiency", kd)
    _print_kv("alpha_l", profile.alpha_l)
    _print_kv("omega", "?" if profile.omega is None else profile.omega)
    _print_kv("admitting", f"{_fmt_set(profile.admitting)} (cap {profile.admitting_cap})")
    _print_kv("snail horns", profile.snail_horn_count)
    _print_kv("claw-free", "yes" if profile.claw_free else "no")
    _print_kv("triangle-free", {None: "?", True: "yes", False: "no"}[profile.triangle_free])
    payload = {"graph": graph_to_json_dict(G), "deficiency": kd,
               "profile": profile.to_json_dict()}
    if args.critical != "skip":
        crit = is_deficiency_critical(G, args.critical)
        _print_kv("criticality", f"{crit.verdict} (mode {crit.mode})")
        payload["criticality"] = crit.to_json_dict()
    if args.out:
        _write(args.out, json_text(payload))
    return 0


def _cmd_lm(args: argparse.Namespace) -> int:
    if args.root != "auto" and not args.root.removeprefix("-").isdecimal():
        raise ValueError(f"--root takes 'auto' or a vertex id, not {args.root!r}")
    G = read_graph_json(args.graph)
    root = None if args.root == "auto" else int(args.root)
    trace = lm_run(G, root)
    exact = deficiency(G)
    _print_kv("graph", G.name or graph_key(G))
    _print_kv("root", trace.root)
    _print_kv("depth", trace.depth)
    _print_kv("bound", trace.bound)
    tight = " (tight)" if trace.bound == exact else f" (gap {trace.bound - exact})"
    _print_kv("exact", f"{exact}{tight}")
    if args.explain:
        for lvl in trace.levels:
            print(f"  level {lvl.level}:")
            print(f"    M          {_fmt_edges(lvl.matching) or '(empty)'}")
            print(f"    M'         {_fmt_edges(lvl.witness_matching) or '(empty)'}")
            print(f"    X residual {_fmt_set(lvl.x_residual)}")
            print(f"    Y residual {_fmt_set(lvl.y_residual)}")
            print(f"    Z          {_fmt_set(lvl.leftover)}")
    if args.sweep_roots:
        sweep = lm_root_sweep(G)
        best_root, best_bound = min(sweep, key=lambda rb: (rb[1], rb[0]))
        print("root sweep:")
        for r, b in sweep:
            marker = "  <- best" if (r, b) == (best_root, best_bound) else ""
            print(f"  root {r:>3}  bound {b}{marker}")
    # trace validation reads alpha_l only: the levelling certifies its bones
    violations = validate_trace(G, trace, structure_profile(G, 0))
    if args.out:
        payload = {"graph": graph_to_json_dict(G), "trace": trace.to_json_dict(),
                   "exact": exact, "gap": trace.bound - exact,
                   "violations": [str(v) for v in violations]}
        _write(args.out, json_text(payload))
    if violations:
        print("trace INVALID:")
        for v in violations:
            print(f"  {v}")
        return 1
    _print_kv("trace", "valid")
    return 0


def _exit_code(failed: int, indeterminate: int) -> int:
    # the rule of every command that runs checks: a failure outranks a tripped guard
    return 1 if failed else 2 if indeterminate else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    G = read_graph_json(args.graph)
    result = check_theorem(G, _theorem_spec(args, {}))
    _print_kv("graph", G.name or graph_key(G))
    _print_kv("theorem", result.theorem)
    for name, ok in result.hypotheses:
        print(f"  [{'ok' if ok else 'NO'}] {name}")
    hypotheses = {"vacuous": "not met (vacuous)", "indeterminate": "unknown (guard exceeded)"}
    _print_kv("hypotheses", hypotheses.get(result.verdict, "met"))
    if result.bound_value is not None:
        _print_kv("bound", result.bound_value)
    if result.actual_deficiency is not None:
        _print_kv("actual", result.actual_deficiency)
    if result.note:
        _print_kv("note", result.note)
    if args.out:
        payload = {"graph": graph_to_json_dict(G), "result": result.to_json_dict()}
        _write(args.out, json_text(payload))
    _print_kv("verdict", {"fail": "FAIL", "indeterminate": "INDETERMINATE (guard exceeded)"}
              .get(result.verdict, "pass"))
    return _exit_code(result.verdict == "fail", result.verdict == "indeterminate")


def _theorem_spec(args: argparse.Namespace, params: dict[str, Any]) -> TheoremSpec:
    # Explicit --m/--n/--p win; otherwise a same-named integer family
    # parameter is used, so e.g. `sweep --family t_tree --range
    # m=3..7:2,n=4..6 --theorem cor-1.3` tracks the instance.
    kwargs = {name: getattr(args, name) for name in ("m", "n", "p")}
    for name, value in kwargs.items():
        if value is None and isinstance(params.get(name), int):
            kwargs[name] = params[name]
    return TheoremSpec(args.theorem, **kwargs)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.family is None:
        if args.theorem is None:
            raise ValueError("sweep needs --theorem (with --nmax) or --family (with --range)")
        report = exhaustive_sweep(args.nmax, _theorem_spec(args, {}), out_dir=args.out)
        _print_kv("theorem", report.theorem)
        _print_kv("n_max", report.n_max)
        _print_kv("classes", report.class_count)
        _print_kv("connected", report.connected_count)
        _print_kv("hyp met", report.hypotheses_met_count)
        _print_kv("vacuous", report.vacuous_count)
        _print_kv("indeterminate", report.indeterminate_count)
        _print_kv("max kd (met)", report.max_deficiency_met)
        _print_kv("violations", len(report.violations))
        return _exit_code(len(report.violations), report.indeterminate_count)

    if args.range is None:
        raise ValueError("sweep --family requires --range")
    ranges = _parse_range(args.range)
    grid = [{k: v for (k, _), v in zip(ranges, combo)}
            for combo in product(*(values for _, values in ranges))]
    for params in grid:  # the whole grid is checked and sized before any instance is built
        _check_instance(args.family, params)
    rows: list[dict[str, Any]] = []
    verdicts: set[str] = set()
    header = f"{'instance':<22} {'kd':>4} {'alpha_l':>8} {'omega':>6} {'admitting':>12}"
    if args.theorem:
        header += f" {'bound':>7} {'verdict':>8}"
    print(header)
    for params in grid:
        G = None
        try:
            G = build_family(args.family, params)
            result = check_theorem(G, _theorem_spec(args, params)) if args.theorem else None
        except ValueError as exc:
            # the family or a rule of the theorem rejects the instance; an unknown
            # theorem or a missing theorem parameter stops the sweep
            if G is not None and not isinstance(exc, _RuleError):
                raise
            print(f"{family_label(args.family, params):<22} skipped: {exc}")
            continue
        facts = _table_facts(G, result)
        row = _instance_row(G, facts, result)
        admitting = "?" if facts["admitting"] is None else _fmt_set(facts["admitting"])
        line = (f"{row['instance']:<22} {row['deficiency']:>4} {row['alpha_l']!s:>8} "
                f"{row['omega']!s:>6} {admitting:>12}")
        if result:
            verdicts.add(result.verdict)
            shown = {"fail": "FAIL", "indeterminate": "indet"}.get(result.verdict, result.verdict)
            line += f" {row['bound']!s:>7} {shown:>8}"
        rows.append(row)
        print(line)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write(Path(args.out) / "instances.csv", rows_to_csv(rows))
    return _exit_code("fail" in verdicts, "indeterminate" in verdicts)


def _cmd_search(args: argparse.Namespace) -> int:
    constraints = SearchConstraints(
        n=args.n, alpha_l_max=args.alpha_l_max, omega_max=args.omega_max,
        admitting=args.admitting)
    report = extremal_search(constraints, iters=args.iters, seed=args.seed)
    _print_kv("n", args.n)
    _print_kv("iterations", report.iterations)
    _print_kv("seed", report.seed)
    _print_kv("feasible", report.feasible_seen)
    if report.best_graph is None:
        _print_kv("result", "empty (no feasible graph found)")
    else:
        _print_kv("best kd", report.best_deficiency)
        _print_kv("best graph", graph_key(report.best_graph))
    if report.mod_base is not None:
        if report.mod_hit is None:
            _print_kv("mod check", f"no graph to test (mod base {report.mod_base})")
        else:
            _print_kv("mod check",
                       f"kd == 1 (mod {report.mod_base}): {'yes' if report.mod_hit else 'no'}")
    if args.out:
        _write(args.out, json_text(report.to_json_dict()))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    G = read_graph_json(args.graph)
    text = graph_to_dot(G) if args.format == "dot" else json_text(graph_to_json_dict(G))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bonematch",
        description="Matching deficiency, bone detection, levelling-matching "
                    "bounds, and extremal constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family instance")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--params", required=True,
                   help="k=v,... (lists colon-separated, e.g. a=1:2)")
    p.add_argument("--out", help="write canonical graph JSON here")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="structure profile and deficiency")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--max-bone", type=int, default=None,
                   help="cap on bone indices searched (default: complete)")
    p.add_argument("--critical", choices=["exhaustive", "delete-one", "skip"],
                   default="skip")
    p.add_argument("--out", help="write analysis JSON here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("lm", help="levelling-matching bound run")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--root", default="auto", help="auto | vertex id")
    p.add_argument("--explain", action="store_true",
                   help="print per-level matchings and leftovers")
    p.add_argument("--sweep-roots", action="store_true",
                   help="try every snail head and report the best bound")
    p.add_argument("--out", help="write trace JSON here")
    p.set_defaults(func=_cmd_lm)

    p = sub.add_parser("verify", help="run one theorem check on a graph")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--theorem", required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--out", help="write CheckResult JSON here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="exhaustive small-graph or family sweep")
    p.add_argument("--theorem", default=None)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--family", default=None)
    p.add_argument("--range", default=None, help="m=3..7:2,n=4..6")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--out", help="directory for CSV + violation JSON artifacts")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("search", help="randomized extremal search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-l-max", type=int, default=None)
    p.add_argument("--omega-max", type=int, default=None)
    p.add_argument("--admitting", choices=list(ADMITTING_CONSTRAINTS), default="any")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="explicit seed; no wall-clock default")
    p.add_argument("--out", help="write SearchReport JSON here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export", help="write a graph in a machine format")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--format", required=True, choices=["dot", "json"])
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_export)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if [] in vars(args).values():
            # argparse before Python 3.12 reads an option value of "--" as []
            raise ValueError("an option value cannot be '--'")
        return args.func(args)
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 2
    except PostconditionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run_cli())
