"""Layered benchmark of bonematch: one command, four workloads.

Run from the repository root::

    python3 bench/run.py --workload sweep_n6 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped (apart
from the per-item timer of ``sweep_n6``).  ``--trace 1`` is a separate run:
it imports the program twice, wraps every public function of the six traced
modules in the second import, and alternates untraced and traced rounds, so
that the tracing overhead is measured on neighbouring rounds.  Per-layer
metrics come from the traced rounds' spans.  Every time is normalised by an
interleaved speed probe (``clock.py``).  Either way the outputs are checked
against independent computations after the timed phase, and the last line
of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

import inputs
import oracle
from clock import Timeline
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 9

# Metric names and units, in the order the output lists them.
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def set_up(wl, seed, tl, tracer=None):
    """Import the program and make the inputs, between two probes.

    Returns a side ``(bm, workload state, bonematch modules)`` and the wall
    stamps of the set-up.
    """
    gc.collect()
    tl.probe()
    t0 = perf_counter_ns()
    bm = inputs.import_program()
    if tracer is not None:
        tracer.install(bm)
    state = wl.setup(bm, seed)
    t1 = perf_counter_ns()
    tl.probe()
    modules = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "bonematch"}
    return (bm, state, modules), (t0, t1)


def timed_rounds(wl, sides, tl, seconds, min_items):
    """Whole rounds, one per side in turn, until the next cycle would end
    after ``seconds``; at least one cycle, and at least ``min_items`` items.
    Each side's modules are put back in ``sys.modules`` before its round, so
    that imports made inside the program resolve to the same side.

    Returns per side a list of ``(t0, t1, outputs)`` and the failed count,
    plus the peak resident memory in MB after the first round, so that it
    does not grow with the samples kept for later rounds.
    """
    rounds = [[] for _ in sides]
    failed, cycle_ns, peak_mb = 0, [], None
    begin = perf_counter_ns()
    while True:
        c0 = perf_counter_ns()
        for (bm, state, modules), out in zip(sides, rounds):
            sys.modules.update(modules)
            tl.probe()
            t0 = perf_counter_ns()
            outputs, round_failed = wl.run(bm, state, tl)
            t1 = perf_counter_ns()
            if peak_mb is None:
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out.append((t0, t1, outputs))
            failed += round_failed
        now = perf_counter_ns()
        cycle_ns.append(now - c0)
        # A run that records no items at all stops after one cycle; the
        # caller reports it.
        if ((len(tl.item_end) >= min_items or not tl.item_end)
                and now - begin + statistics.median(cycle_ns) > seconds * 1e9):
            tl.probe()
            tl.finish()
            return rounds, failed, peak_mb


def percentile(values, pct):
    if len(values) < 2:  # only when no items were recorded; see run_untraced
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check_outputs(wl, bm, state, rounds):
    """Independent checks of the first round; later rounds must repeat it.

    Failed operations are counted in ``failed`` and leave ``correct`` alone.
    """
    first = rounds[0][2]
    errs = wl.check(bm, state, first)
    if any(out != first for _, _, out in rounds[1:]):
        errs.append("rounds on the same inputs gave different outputs")
    return errs


def run_untraced(wl, seed, seconds):
    tl = Timeline()
    stamps = []
    for _ in range(SETUP_REPEATS):
        side, st = set_up(wl, seed, tl)
        stamps.append(st)
    bm, state, _ = side
    wl.prepare(bm, state, tl)
    # Enough items that at least ten lie beyond the tail percentile.
    min_items = -(-1000 // (100 - wl.tail_pct))
    (rounds,), failed, peak_mb = timed_rounds(wl, [side], tl, seconds, min_items)
    errs = check_outputs(wl, bm, state, rounds)
    setup = [tl.span(*st) for st in stamps]
    round_s = [tl.span(t0, t1) for t0, t1, _ in rounds]
    items = tl.item_ns()
    if not items:
        errs.append("no items were recorded; the per-item timer did not see the work")
        items = [s * 1e9 for s in round_s]
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"samples-{wl.name}.json").write_text(json.dumps({
        "seed": seed, "setup_s": setup, "round_s": round_s, "item_ns": items,
        "wall_setup_s": [(t1 - t0) / 1e9 for t0, t1 in stamps],
        "wall_round_s": [(t1 - t0) / 1e9 for t0, t1, _ in rounds],
        "probe_ns": [e - s for s, e in zip(tl.probe_start, tl.probe_end)]}))
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(round_s),
        "item_p50_ms": statistics.median(items) / 1e6,
        "item_tail_ms": percentile(items, wl.tail_pct) / 1e6,
        "peak_rss_mb": peak_mb,
    }
    notes = {"wall run_s": statistics.median((t1 - t0) / 1e9 for t0, t1, _ in rounds),
             "machine slowness (probe / reference)": tl.slowness()}
    return values, notes, len(items), failed, errs


def run_traced(wl, seed, seconds):
    tl = Timeline()
    plain_side, _ = set_up(wl, seed, tl)
    wl.prepare(plain_side[0], plain_side[1], tl)

    tracer = Tracer(oracle.is_induced_bone)
    tl.probe = tracer.wrap("bench.probe", tl.probe)
    traced_side, setup_st = set_up(wl, seed, tl, tracer)
    tbm, tstate, _ = traced_side
    wl.prepare(tbm, tstate, tl)
    (plain, traced), failed, _ = timed_rounds(
        wl, [plain_side, traced_side], tl, seconds, 0)
    tracer.dump(RESULTS / f"spans-{wl.name}.bin")

    errs = check_outputs(wl, tbm, tstate, traced)
    if tracer.bad_bones:
        errs.append(f"{tracer.bad_bones} bones returned by find_induced_bone are not induced")

    # Per-layer self times are normalised like every other time: each
    # traced round's spans are scaled by that round's normalised time over
    # its wall time without probes.
    calls, self_s = {}, {}
    for t0, t1, _ in traced:
        totals = tracer.totals(*tracer.spans_within(t0, t1))
        scale = tl.span(t0, t1) / ((t1 - t0 - totals["bench.probe"][1]) / 1e9)
        for label, (n, ns) in totals.items():
            calls[label] = calls.get(label, 0) + n
            self_s[label] = self_s.get(label, 0.0) + ns / 1e9 * scale
    per_round = len(traced)
    values = {}
    for label in calls:
        values[f"{label}.calls"] = calls[label] / per_round
        values[f"{label}.self_s"] = self_s[label] / per_round
    bone_calls = calls["structure.find_induced_bone"]
    values["structure.find_induced_bone.hit_ratio"] = (
        tracer.bone_hits / bone_calls if bone_calls else 0.0)
    values["harness.extremal_search.feasible_ratio"] = (
        tracer.search_feasible / tracer.search_iterations if tracer.search_iterations else 0.0)
    setup_scale = tl.span(*setup_st) / ((setup_st[1] - setup_st[0]) / 1e9)
    values["families.build.self_s"] = setup_scale * sum(
        ns for label, (_, ns) in tracer.totals(*tracer.spans_within(*setup_st)).items()
        if label.startswith("families.")) / 1e9
    plain_s = statistics.median(tl.span(t0, t1) for t0, t1, _ in plain)
    traced_s = statistics.median(tl.span(t0, t1) for t0, t1, _ in traced)
    values["trace.overhead_s"] = traced_s - plain_s
    notes = {"untraced run_s": plain_s, "traced run_s": traced_s,
             "rounds per side": per_round}
    return values, notes, len(tl.item_end), failed, errs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        run = run_traced if args.trace else run_untraced
        values, notes, attempted, failed, errs = run(wl, args.seed, args.seconds)
    except (ImportError, FileNotFoundError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    for err in errs[:20]:
        print(f"CHECK FAILED: {err}")
    print(f"workload {wl.name}  seed {args.seed}  attempted {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    for name, value in notes.items():
        print(f"  ({name}: {value:.6g})")
    print(json.dumps({
        "correct": not errs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
