import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bonematch import (PostconditionError, bs, build_graph, cli, deficiency, f_family, families,
                       graph_from_json_dict, harness, lm, lm_run, matching, read_graph_json,
                       skeleton_tree, star_graph, structure, t_tree, write_graph_json)
from bonematch.cli import _parse_range, run_cli

from .helpers import layered_graph


def make_graph_file(tmp_path, name, argv_params):
    path = tmp_path / f"{name}.json"
    assert run_cli(["construct", "--family", name, "--params", argv_params, "--out", str(path)]) == 0
    return path


def test_construct_writes_annotated_json(tmp_path, capsys):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    data = json.loads(path.read_text())
    assert data["family"] == {"id": "bs", "params": {"n": 2, "p": 3}}
    assert graph_from_json_dict(data) == bs(2, 3)
    out = capsys.readouterr().out
    assert "BS(2,3)" in out


def test_construct_list_valued_params(tmp_path):
    path = tmp_path / "f.json"
    assert run_cli(["construct", "--family", "f", "--params", "a=1:2", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["family"]["params"] == {"a": [1, 2]}


@pytest.mark.parametrize("params", ["a=1:3", "a=1:2:4", "a=3"])
def test_construct_prints_list_values_in_cli_syntax(capsys, params):
    assert run_cli(["construct", "--family", "skeleton", "--params", params]) == 0
    assert f"skeleton({params})" in capsys.readouterr().out


@pytest.mark.parametrize("family, params, built", [
    ("skeleton", "a=1", skeleton_tree(1)),
    ("skeleton", "a=3", skeleton_tree(3)),
    ("f", "a=2", f_family(2)),
])
def test_construct_single_value_builds_one_level_family(tmp_path, family, params, built):
    path = tmp_path / "g.json"
    assert run_cli(["construct", "--family", family, "--params", params, "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert graph_from_json_dict(data) == built
    assert data["family"]["params"] == {"a": int(params[2:])}


def test_construct_rejects_bad_params(capsys):
    assert run_cli(["construct", "--family", "bs", "--params", "n=2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_construct_refuses_a_repeated_parameter(tmp_path, capsys):
    # n=1,n=2 would otherwise build BS(2, 3) from the last value
    path = tmp_path / "g.json"
    assert run_cli(["construct", "--family", "bs", "--params", "n=1,n=2,p=3",
                    "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not path.exists()
    assert captured.err == "error: parameter 'n' given twice\n"


@pytest.mark.parametrize("family", sorted(
    family for family, (kinds, _, _) in families.FAMILIES.items() if list not in kinds.values()))
def test_construct_refuses_a_list_for_an_integer_parameter(capsys, family):
    first, *rest = families.FAMILIES[family][0]
    params = ",".join([f"{first}=1:2", *(f"{name}=3" for name in rest)])
    assert run_cli(["construct", "--family", family, "--params", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: parameter {first!r} of family {family!r} "
                            "takes an integer, got [1, 2]\n")


def test_analyze_reports_profile(tmp_path, capsys):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    capsys.readouterr()
    assert run_cli(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "deficiency     3" in out
    assert "alpha_l        3" in out
    assert "admitting      {3}" in out
    assert "snail horns    2" in out


@pytest.mark.parametrize("cap, admitting", [(2, "{}"), (3, "{3}")])
def test_analyze_caps_the_bone_indices_searched(tmp_path, capsys, cap, admitting):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    out_path = tmp_path / "analysis.json"
    capsys.readouterr()
    assert run_cli(["analyze", str(path), "--max-bone", str(cap), "--out", str(out_path)]) == 0
    assert f"admitting      {admitting} (cap {cap})" in capsys.readouterr().out
    assert json.loads(out_path.read_text())["profile"]["admitting_cap"] == cap


@pytest.mark.parametrize("cap", ["-1", "-5"])
def test_analyze_refuses_a_negative_bone_cap_before_reading_the_graph(tmp_path, capsys, cap):
    # the second file does not exist, so a refusal after the read would name it
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    capsys.readouterr()
    for graph in (path, tmp_path / "missing.json"):
        assert run_cli(["analyze", str(graph), f"--max-bone={cap}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-bone takes a bone index cap of 0 or more, not {cap}\n"
    assert run_cli(["analyze", str(path), "--max-bone", "0"]) == 0
    assert "admitting      {} (cap 0)" in capsys.readouterr().out


def test_analyze_criticality_and_artifact(tmp_path, capsys):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    out_path = tmp_path / "analysis.json"
    assert run_cli(["analyze", str(path), "--critical", "exhaustive", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "critical" in out
    data = json.loads(out_path.read_text())
    assert data["deficiency"] == 3
    assert data["profile"]["admitting"] == [3]


def test_analyze_artifact_keeps_the_printed_criticality(tmp_path, capsys):
    path = str(make_graph_file(tmp_path, "bs", "n=2,p=2"))
    out_path = str(tmp_path / "analysis.json")
    verdicts = {}
    for mode in ("exhaustive", "delete-one", "skip"):
        assert run_cli(["analyze", path, "--critical", mode, "--out", out_path]) == 0
        verdicts[mode] = json.loads(Path(out_path).read_text()).get("criticality")
    assert verdicts == {
        "exhaustive": {"verdict": "not-critical", "mode": "exhaustive",
                       "witness_vertices": [0, 1, 2, 3]},
        "delete-one": {"verdict": "partial-pass", "mode": "delete-one",
                       "witness_vertices": None},
        "skip": None,
    }
    assert "criticality    not-critical (mode exhaustive)" in capsys.readouterr().out


def test_analyze_prints_unknown_omega_above_clique_guard(tmp_path, capsys):
    path = make_graph_file(tmp_path, "t_tree", "m=7,n=5")  # 69 vertices
    out_path = tmp_path / "analysis.json"
    capsys.readouterr()
    assert run_cli(["analyze", str(path), "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "omega          ?" in out
    assert "triangle-free  ?" in out
    assert "admitting      {3, 5, 7, 9}" in out
    profile = json.loads(out_path.read_text())["profile"]
    assert profile["omega"] is None and profile["triangle_free"] is None


def test_lm_reports_tight_bound_and_valid_trace(tmp_path, capsys):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    capsys.readouterr()
    assert run_cli(["lm", str(path), "--explain"]) == 0
    out = capsys.readouterr().out
    assert "bound          3" in out
    assert "exact          3 (tight)" in out
    assert any(line.split() == ["trace", "valid"] for line in out.splitlines())
    assert "level 3:" in out  # --explain prints one block per level
    assert "Z          {3, 4}" in out


def test_lm_validates_trace_above_clique_guard(tmp_path, capsys):
    path = make_graph_file(tmp_path, "t_tree", "m=7,n=5")  # 69 vertices
    capsys.readouterr()
    assert run_cli(["lm", str(path)]) == 0
    out = capsys.readouterr().out
    assert any(line.split() == ["trace", "valid"] for line in out.splitlines())


def test_analyze_exits_2_when_the_alpha_l_guard_trips(tmp_path, capsys):
    # only omega turns unknown in analyze; alpha_l and the bone budget stop it
    path = tmp_path / "star.json"
    write_graph_json(star_graph(41), path)
    assert run_cli(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "guard exceeded: neighbourhood of 0 exceeds 40 vertices\n"


def _lm_on_a_300_vertex_layered_graph(tmp_path, capsys):
    G, _ = layered_graph(random.Random("lm_large:401"), 300)
    path = tmp_path / "layered.json"
    write_graph_json(G, path)
    assert run_cli(["lm", str(path)]) == 0
    return capsys.readouterr().out


def test_lm_validates_trace_on_a_300_vertex_layered_graph(tmp_path, capsys):
    # the full bone scan of this graph exceeds its node budget; lm searches
    # no bone, as the levelling certifies those that trace validation needs
    out = _lm_on_a_300_vertex_layered_graph(tmp_path, capsys)
    assert "depth          10" in out
    assert any(line.split() == ["trace", "valid"] for line in out.splitlines())


def test_lm_validates_trace_with_no_bone_search_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(structure, "_BONE_BUDGET", 0)
    out = _lm_on_a_300_vertex_layered_graph(tmp_path, capsys)
    assert any(line.split() == ["trace", "valid"] for line in out.splitlines())


def test_lm_computes_the_deficiency_once(tmp_path, capsys, monkeypatch):
    # for exact; the trace's own matching certifies its bound to validate_trace
    calls = []
    for module in (cli, lm):
        monkeypatch.setattr(module, "deficiency", lambda G: calls.append(G.n) or deficiency(G))
    out = _lm_on_a_300_vertex_layered_graph(tmp_path, capsys)
    assert any(line.split() == ["trace", "valid"] for line in out.splitlines())
    assert calls == [300]


def test_lm_root_sweep(tmp_path, capsys):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    capsys.readouterr()
    assert run_cli(["lm", str(path), "--sweep-roots"]) == 0
    out = capsys.readouterr().out
    assert "root   0  bound 3  <- best" in out
    assert "root   2  bound 3" in out


def test_lm_trace_artifact(tmp_path):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    trace_path = tmp_path / "trace.json"
    assert run_cli(["lm", str(path), "--out", str(trace_path)]) == 0
    data = json.loads(trace_path.read_text())
    assert data["exact"] == 3
    assert data["trace"]["bound"] == 3 and data["trace"]["root"] == 0
    assert graph_from_json_dict(data["graph"]) == bs(2, 3)


def test_lm_artifact_records_the_printed_gap(tmp_path, capsys):
    # a 7-vertex graph whose LM bound from its one snail-horn head is 3, kd 1
    path = tmp_path / "gap.json"
    write_graph_json(build_graph(7, [(0, 6), (1, 6), (2, 4), (2, 5), (3, 4), (3, 6), (4, 5),
                                     (5, 6)]), path)
    trace_path = tmp_path / "trace.json"
    assert run_cli(["lm", str(path), "--out", str(trace_path)]) == 0
    assert "exact          1 (gap 2)" in capsys.readouterr().out
    data = json.loads(trace_path.read_text())
    assert (data["trace"]["bound"], data["exact"], data["gap"]) == (3, 1, 2)


def test_check_artifacts_keep_the_facts_the_check_computed(tmp_path, capsys):
    graph = str(make_graph_file(tmp_path, "bs", "n=2,p=3"))
    out = {name: tmp_path / f"{name}.json" for name in ("analyze", "single-even", "snailhorn")}
    assert run_cli(["analyze", graph, "--critical", "exhaustive", "--out", str(out["analyze"])]) == 0
    assert run_cli(["verify", graph, "--theorem", "thm-1.8-single-even", "--m", "4", "--p", "1",
                    "--out", str(out["single-even"])]) == 0
    assert run_cli(["verify", graph, "--theorem", "cor-2.3-snailhorn",
                    "--out", str(out["snailhorn"])]) == 0
    analyze, single_even, snailhorn = (json.loads(path.read_text()) for path in out.values())
    assert single_even["result"]["details"] == {
        "alpha_l": 3, "omega": 2, "admitting": [3], "connected": True, "kd": 3}
    assert snailhorn["result"]["details"] == {
        "critical": analyze["criticality"], "connected": True, "nontrivial": True, "snail_horns": 2}
    assert analyze["criticality"] == {"verdict": "critical", "mode": "exhaustive",
                                      "witness_vertices": None}
    # the cor-1.3 sweep finds violations; each dump keeps the facts read
    sweep = tmp_path / "sweep"
    argv = ["sweep", "--theorem", "cor-1.3", "--m", "3", "--n", "4", "--nmax", "3",
            "--out", str(sweep)]
    assert run_cli(argv) == 1
    dumps = [json.loads(path.read_text())["result"] for path in sorted(sweep.glob("violation-*"))]
    assert dumps and all(d["details"] == {"connected": True, "kd": d["actual"]} for d in dumps)


def test_lm_rejects_non_head_root(tmp_path, capsys):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    assert run_cli(["lm", str(path), "--root", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("root", ["x", "1.0", "", "--1"])
def test_lm_refuses_a_root_that_is_no_vertex_id(tmp_path, capsys, root):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    capsys.readouterr()
    assert run_cli(["lm", str(path), f"--root={root}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --root takes 'auto' or a vertex id, not {root!r}\n"


def test_lm_runs_from_the_given_snail_horn_head(tmp_path, capsys):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    trace_path = tmp_path / "trace.json"
    capsys.readouterr()
    assert run_cli(["lm", str(path), "--root", "2", "--out", str(trace_path)]) == 0
    assert "root           2" in capsys.readouterr().out
    trace = json.loads(trace_path.read_text())["trace"]
    assert trace == lm_run(bs(2, 3), 2).to_json_dict() != lm_run(bs(2, 3), 0).to_json_dict()


def test_lm_prints_the_readme_rule_4_reproduction(tmp_path, capsys):
    # README "Known issue: two-level rule (4)": each JSON graph is followed by
    # the stderr line that bonematch lm prints for it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Known issue: two-level rule (4)")[1].split("\n#")[0]
    graphs = re.findall(r"```json\n(.*?)```", section, re.S)
    messages = re.findall(r"`(internal check failed: [^`]*)`", section)
    assert len(graphs) == 2 and messages == [
        f"internal check failed: matched vertex {v} spoils 2 residual vertices" for v in (0, 1)]
    for k, (text, message) in enumerate(zip(graphs, messages)):
        path = tmp_path / f"g{k}.json"
        path.write_text(text)
        assert run_cli(["lm", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")


def test_lm_reports_a_failed_internal_check_without_traceback(tmp_path, capsys, monkeypatch):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    capsys.readouterr()

    def failing_run(G, root=None):
        raise PostconditionError("matched vertex 5 spoils 2 residual vertices")

    monkeypatch.setattr(cli, "lm_run", failing_run)
    assert run_cli(["lm", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal check failed: matched vertex 5 spoils 2 residual vertices\n"


def test_lm_reports_an_invalid_trace(tmp_path, capsys, monkeypatch):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    capsys.readouterr()
    trace = lm_run(bs(2, 3))
    # vertex 6 dropped from the level-3 leftover, the bound left at 3
    bad = replace(trace, levels=(replace(trace.levels[0], leftover=()), *trace.levels[1:]))
    monkeypatch.setattr(cli, "lm_run", lambda G, root=None: bad)
    out_path = tmp_path / "trace.json"
    assert run_cli(["lm", str(path), "--out", str(out_path)]) == 1
    violations = ["[coverage]: vertices [6] unaccounted for",
                  "[bound-sum]: bound does not equal the leftover total"]
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-3:] == ["trace INVALID:", *(f"  {v}" for v in violations)]
    assert captured.err == ""
    assert json.loads(out_path.read_text())["violations"] == violations


def test_verify_pass_and_fail_exit_codes(tmp_path, capsys):
    path = make_graph_file(tmp_path, "t_tree", "m=5,n=4")
    capsys.readouterr()
    assert run_cli(["verify", str(path), "--theorem", "cor-1.3", "--m", "5", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "[ok]" in out
    assert run_cli(["verify", str(path), "--theorem", "cor-1.3", "--m", "5", "--n", "5"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_requires_explicit_params(tmp_path, capsys):
    path = make_graph_file(tmp_path, "t_tree", "m=5,n=4")
    capsys.readouterr()
    assert run_cli(["verify", str(path), "--theorem", "cor-1.3"]) == 2
    assert "requires parameter m" in capsys.readouterr().err


def test_verify_writes_result_artifact(tmp_path):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    out_path = tmp_path / "check.json"
    code = run_cli([
        "verify", str(path), "--theorem", "thm-1.4-m3", "--n", "4", "--out", str(out_path)
    ])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["result"]["theorem"] == "thm-1.4-m3"
    assert data["result"]["pass"] is True and data["result"]["bound"] == 3
    assert graph_from_json_dict(data["graph"]) == bs(2, 3)


def test_verify_indeterminate_still_writes_artifact(tmp_path, capsys):
    big = tmp_path / "big.json"
    assert run_cli(["construct", "--family", "t_tree", "--params", "m=7,n=5", "--out", str(big)]) == 0
    out_path = tmp_path / "check.json"
    code = run_cli([
        "verify", str(big), "--theorem", "thm-1.8-single-even",
        "--m", "5", "--p", "1", "--n", "5", "--out", str(out_path),
    ])
    assert code == 2
    assert json.loads(out_path.read_text())["result"]["indeterminate"] is True
    out = capsys.readouterr().out
    assert "INDETERMINATE" in out
    assert "hypotheses     unknown (guard exceeded)" in out.splitlines() and "not met" not in out


def test_sweep_theorem_mode(tmp_path, capsys):
    assert run_cli(["sweep", "--theorem", "thm-1.2-clawfree", "--nmax", "4"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["violations", "0"] in lines
    assert ["connected", "44"] in lines
    assert ["classes", "10"] in lines
    assert run_cli(["sweep", "--theorem", "thm-1.2-clawfree", "--nmax", "9"]) == 2
    assert "guard exceeded" in capsys.readouterr().err


def test_sweep_theorem_mode_exits_2_on_an_indeterminate_check(capsys, monkeypatch):
    # with the neighbourhood guard at 2 vertices, a graph with a vertex of degree 3 is undecided
    monkeypatch.setattr(structure, "_MIS_MAX", 2)
    assert run_cli(["sweep", "--theorem", "thm-1.2-clawfree", "--nmax", "4"]) == 2
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["connected", "44"] in lines and ["indeterminate", "23"] in lines
    assert ["violations", "0"] in lines


def test_sweep_family_mode_with_check(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = run_cli([
        "sweep", "--family", "bs", "--range", "n=2..4,p=3..5:2",
        "--theorem", "thm-1.4-m3", "--n", "4", "--out", str(out_dir),
    ])
    assert code == 0
    rows = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("BS(")
    ]
    assert len(rows) == 6  # 3 n-values x 2 p-values
    # the two smallest brooms meet all hypotheses and are tight; the larger
    # ones have alpha_l >= n and so only pass vacuously
    assert sum(row.split()[-1] == "pass" for row in rows) == 2
    assert sum(row.split()[-1] == "vacuous" for row in rows) == 4
    csv_lines = (out_dir / "instances.csv").read_text().splitlines()
    assert csv_lines[0].startswith("instance,n,")
    assert len(csv_lines) == 1 + 6


def test_sweep_family_mode_builds_one_level_list_families(capsys):
    assert run_cli(["sweep", "--family", "skeleton", "--range", "a=1..2"]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == ["T(1)", "T(2)"]


def test_sweep_family_mode_computes_each_fact_once(tmp_path, capsys, monkeypatch):
    scans = []
    bone_scan = structure._bone_scan
    monkeypatch.setattr(structure, "_bone_scan", lambda *a: scans.append(1) or bone_scan(*a))
    out_dir = tmp_path / "artifacts"
    assert run_cli([
        "sweep", "--family", "bs", "--range", "n=2..4,p=3..5:2",
        "--theorem", "thm-1.4-m3", "--n", "4", "--out", str(out_dir),
    ]) == 0
    assert len(scans) == 6  # one admitting-set scan per instance, shared with the check
    assert capsys.readouterr().out.splitlines()[:-1] == [
        "instance                 kd  alpha_l  omega    admitting   bound  verdict",
        "BS(2,3)                   3        3      2          {3}       3     pass",
        "BS(2,5)                   3        3      2          {5}       3     pass",
        "BS(3,3)                   5        4      2          {3}       3  vacuous",
        "BS(3,5)                   5        4      2          {5}       3  vacuous",
        "BS(4,3)                   7        5      2          {3}       3  vacuous",
        "BS(4,5)                   7        5      2          {5}       3  vacuous",
    ]
    assert (out_dir / "instances.csv").read_text() == (
        "instance,n,alpha_l,omega,admitting,deficiency,bound,pass,labelled\n"
        '"BS(2,3)",7,3,2,3,3,3,True,\n'
        '"BS(2,5)",9,3,2,5,3,3,True,\n'
        '"BS(3,3)",9,4,2,3,5,3,True,\n'
        '"BS(3,5)",11,4,2,5,5,3,True,\n'
        '"BS(4,3)",11,5,2,3,7,3,True,\n'
        '"BS(4,5)",13,5,2,5,7,3,True,\n'
    )


def test_sweep_family_mode_does_not_rerun_the_fact_whose_guard_tripped(capsys, monkeypatch):
    scans = []
    bone_scan = structure._bone_scan
    monkeypatch.setattr(structure, "_bone_scan", lambda *a: scans.append(1) or bone_scan(*a))
    monkeypatch.setattr(structure, "_BONE_BUDGET", 50)
    assert run_cli(["sweep", "--family", "t_tree", "--range", "m=7,n=5",
                    "--theorem", "thm-1.3-bonefree"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "instance                 kd  alpha_l  omega    admitting   bound  verdict",
        "T_tree(7,5)              35        4      ?            ?            indet",
    ]
    assert len(scans) == 1
    # a tripped criticality scan leaves kd to the blossom
    calls = []
    monkeypatch.setattr(harness, "deficiency", lambda G: calls.append(G.n) or deficiency(G))
    monkeypatch.setattr(matching, "_CRITICALITY_BUDGET", 1)
    assert run_cli(["sweep", "--family", "bs", "--range", "n=2..3,p=3",
                    "--theorem", "cor-2.3-snailhorn"]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == [
        "BS(2,3)                   3        3      2          {3}            indet",
        "BS(3,3)                   5        4      2          {3}            indet",
    ]
    assert calls == [7, 9]


def test_sweep_family_mode_reuses_facts_of_guarded_and_criticality_checks(capsys, monkeypatch):
    calls = []
    for name in ("local_independence_number", "deficiency"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda G, _n=name, _f=real: calls.append(_n) or _f(G))
    # the clique guard trips after alpha_l: the check is indeterminate, alpha_l is kept
    assert run_cli([
        "sweep", "--family", "t_tree", "--range", "m=7,n=5",
        "--theorem", "thm-1.8-single-even", "--m", "5", "--p", "1",
    ]) == 2
    assert capsys.readouterr().out.splitlines()[1].split() == [
        "T_tree(7,5)", "35", "4", "?", "{3,", "5,", "7,", "9}", "indet"]
    assert calls.count("local_independence_number") == 1
    # the criticality scan of cor-2.3 computes the deficiency as well
    calls.clear()
    assert run_cli([
        "sweep", "--family", "bs", "--range", "n=2..3,p=3", "--theorem", "cor-2.3-snailhorn",
    ]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "BS(2,3)                   3        3      2          {3}             pass",
        "BS(3,3)                   5        4      2          {3}             pass",
    ]
    assert "deficiency" not in calls and calls.count("local_independence_number") == 2


def test_sweep_family_mode_exits_1_when_a_check_fails_beside_an_indeterminate_one(
        capsys, monkeypatch):
    verdicts = iter(["indeterminate", "fail"])
    monkeypatch.setattr(cli, "check_theorem", lambda G, spec: harness.CheckResult(
        theorem=spec.id, hypotheses=(), verdict=next(verdicts), bound_value=None,
        actual_deficiency=None))
    assert run_cli(["sweep", "--family", "bs", "--range", "n=2..3,p=3",
                    "--theorem", "thm-1.2-clawfree"]) == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[-1] for row in rows] == ["indet", "FAIL"]


def test_sweep_family_mode_skips_instances_that_break_a_theorem_rule(tmp_path, capsys):
    # prop-5.1-mod needs m, n > 3: m = 2, 3 are skipped, the rest of the grid is checked
    args = ["sweep", "--family", "e", "--theorem", "prop-5.1-mod", "--n", "5", "--out"]
    assert run_cli([*args, str(tmp_path / "kept"), "--range", "m=4..5,n=2,p=1..2"]) == 0
    kept = capsys.readouterr().out.splitlines()
    assert run_cli([*args, str(tmp_path / "grid"), "--range", "m=2..5,n=2,p=1..2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:5] == [f"e(m={m},n=2,p={p})         skipped: prop-5.1-mod needs m, n > 3"
                          for m in (2, 3) for p in (1, 2)]
    assert [lines[0], *lines[5:9]] == kept[:5] and len(kept) == 6 and len(lines) == 10
    csv = (tmp_path / "grid" / "instances.csv").read_text()
    assert csv == (tmp_path / "kept" / "instances.csv").read_text()
    assert csv.count("\n") == 1 + 4


@pytest.mark.parametrize("theorem, message", [
    ("thm-1.6-q=2p+1", "error: thm-1.6-q=2p+1 requires parameter p"),
    ("nope", "error: unknown theorem id 'nope'"),
])
def test_sweep_family_mode_stops_on_a_missing_parameter_or_theorem(capsys, theorem, message):
    assert run_cli(["sweep", "--family", "t_tree", "--range", "m=3,n=4",
                    "--theorem", theorem]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == []
    assert captured.err.splitlines() == [message]


def test_sweep_family_mode_caps_the_range_grid(capsys):
    # ranges stay lazy: these grids are rejected without being built
    for text in ("n=1..100000000000", "n=1..10000000000000000000000", "n=1..200,p=1..200"):
        with pytest.raises(ValueError, match="more than 10000 instances"):
            _parse_range(text)
    assert _parse_range("n=1..100,p=1..100") == [("n", range(1, 101)), ("p", range(1, 101))]
    assert run_cli(["sweep", "--family", "bs", "--range", "n=2..100000000000,p=3"]) == 2
    assert "more than 10000 instances" in capsys.readouterr().err


def test_sweep_family_mode_rejects_unknown_range_keys(capsys):
    assert run_cli(["sweep", "--family", "bs", "--range", "q=1..2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_family_mode_refuses_a_repeated_range_key(capsys):
    # n=2..3,n=4 would otherwise sweep BS(4, 3) twice
    assert run_cli(["sweep", "--family", "bs", "--range", "n=2..3,n=4,p=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: range 'n' given twice\n"


def test_sweep_refuses_an_order_below_1_as_a_usage_error(capsys):
    # a usage error, not the 8-vertex guard of the README's guard table
    assert run_cli(["sweep", "--theorem", "thm-1.2-clawfree", "--nmax", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep needs n_max >= 1, got 0\n"


def test_sweep_refuses_a_range_without_a_family(capsys):
    # without --family the sweep would run over every class and drop --range
    assert run_cli(["sweep", "--theorem", "thm-1.2-clawfree", "--nmax", "3", "--range", "n=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep --range needs --family\n"


def test_search_cli(tmp_path, capsys):
    out_path = tmp_path / "search.json"
    code = run_cli([
        "search", "--n", "7", "--alpha-l-max", "3", "--admitting", "odd",
        "--iters", "300", "--seed", "7", "--out", str(out_path),
    ])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["seed"] == 7 and data["iterations"] == 300
    assert "best kd" in capsys.readouterr().out


def test_search_requires_seed(capsys):
    assert run_cli(["search", "--n", "7", "--iters", "10"]) == 2


def test_search_rejects_negative_iterations(capsys):
    assert run_cli(["search", "--n", "5", "--iters", "-3", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: iteration count must be non-negative, got -3\n"


def test_search_refuses_a_negative_cap(capsys):
    for option, name in (("--alpha-l-max", "alpha_l_max"), ("--omega-max", "omega_max")):
        assert run_cli(["search", "--n", "6", option, "-2", "--iters", "30", "--seed", "1"]) == 2
        assert tuple(capsys.readouterr()) == ("", f"error: {name} must be 0 or more, got -2\n")


def test_search_refuses_an_order_above_the_cap(monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr(harness, "_connected_draw", no_draw)
    cap = harness._SEARCH_MAX_N
    argv = ["search", "--n", str(cap + 1), "--iters", "1", "--seed", "1"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"guard exceeded: search limited to {cap} vertices, got {cap + 1}\n"


def test_search_refuses_an_omega_bound_above_the_clique_guard(monkeypatch, capsys):
    # refused before any graph is drawn, so the outcome does not hang on
    # whether a drawn graph passes the alpha_l test first and omega is asked
    def no_draw(*args):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr(harness, "_connected_draw", no_draw)
    argv = ["search", "--n", "60", "--omega-max", "3", "--alpha-l-max", "2",
            "--iters", "50", "--seed", "1"]
    assert run_cli(argv) == 2
    assert tuple(capsys.readouterr()) == (
        "", f"guard exceeded: clique number limited to {structure._MIS_MAX} vertices\n")


# the smallest instance of each family above the cap of 100,000 vertices or
# edges: the star t_tree(3, n) has n vertices, t_tree(m, 4) 73,723 vertices at
# m = 29 and more past it, skeleton(a) has 3a + 1, complete(k) k(k - 1)/2 edges
@pytest.mark.parametrize("family, params", [
    ("t_tree", "m=3,n=100001"), ("t_tree", "m=31,n=4"), ("skeleton", "a=33334"),
    ("complete", "k=448")])
def test_family_instances_over_the_cap_are_refused_before_building(monkeypatch, capsys,
                                                                   family, params):
    def no_build(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(families, "build_graph", no_build)
    error = (f"error: {family}({params}) has more than 100000 vertices or edges, "
             "the cap on family instances\n")
    assert run_cli(["construct", "--family", family, "--params", params]) == 2
    assert capsys.readouterr().err == error
    # the whole grid is sized first, so nothing is built or printed
    grid = params.replace("k=448", "k=3..448")
    assert run_cli(["sweep", "--family", family, "--range", grid, "--theorem", "cor-1.3"]) == 2
    assert tuple(capsys.readouterr()) == ("", error)


def test_every_json_artifact_has_one_format(tmp_path, capsys):
    graph = str(make_graph_file(tmp_path, "bs", "n=2,p=3"))
    out = {name: str(tmp_path / f"{name}.json") for name in ("analyze", "lm", "verify", "search")}
    commands = [
        ["analyze", graph, "--critical", "exhaustive", "--out", out["analyze"]],
        ["lm", graph, "--explain", "--sweep-roots", "--out", out["lm"]],
        ["verify", graph, "--theorem", "thm-1.4-m3", "--out", out["verify"]],
        ["search", "--n", "6", "--iters", "50", "--seed", "3", "--out", out["search"]],
        ["sweep", "--theorem", "cor-1.3", "--m", "3", "--n", "4", "--nmax", "3",
         "--out", str(tmp_path / "sweep")],
    ]
    # the cor-1.3 sweep finds violations, so it exits 1 and dumps them
    assert [run_cli(argv) for argv in commands] == [0, 0, 0, 0, 1]
    paths = [graph, *out.values()]
    paths += [tmp_path / "sweep" / "summary.json", tmp_path / "sweep" / "violation-0000.json"]
    for path in paths:
        text = Path(path).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


# Each --out artefact on bs(2, 3): the command, then SHA-256 prefixes of the
# artefact and of stdout (written to <tmp>/out<k>), as they were before the
# commands shared one writer.
_OUT_DIGESTS = [
    (["analyze", "{graph}", "--critical", "exhaustive"], "1b755428e5d7d13d", "7370b42020024abb"),
    (["lm", "{graph}", "--explain", "--sweep-roots"], "0ba8ca7995517fca", "14e3ab456f4c323a"),
    (["verify", "{graph}", "--theorem", "thm-1.4-m3", "--n", "4"],
     "e56e70df9ce2e088", "a22ae063be26f27c"),
    (["sweep", "--family", "bs", "--range", "n=2..3,p=3..5:2", "--theorem", "thm-1.4-m3",
      "--n", "4"], "d5a0afe8100a60a9", "eb18bfc95afb1b20"),
    (["search", "--n", "7", "--alpha-l-max", "3", "--iters", "200", "--seed", "7"],
     "eb81d713134a8ced", "2e5bf7c3d2837032"),
    (["export", "{graph}", "--format", "dot"], "d54e2b8a89169b4c", "fa27e6a391479ae2"),
    (["export", "{graph}", "--format", "json"], "ad836be32c020cc9", "8d9186368704cff8"),
]


def test_every_out_option_writes_the_same_bytes_and_names_them(tmp_path, capsys):
    graph = make_graph_file(tmp_path, "bs", "n=2,p=3")
    for k, (argv, artefact, stdout) in enumerate(_OUT_DIGESTS):
        capsys.readouterr()
        out = tmp_path / f"out{k}"
        assert run_cli([a.format(graph=graph) for a in argv] + ["--out", str(out)]) == 0
        written = out / "instances.csv" if argv[0] == "sweep" else out
        text = capsys.readouterr().out
        assert f"written        {written}" in text.splitlines(), argv
        assert hashlib.sha256(written.read_bytes()).hexdigest()[:16] == artefact, argv
        text = text.replace(str(tmp_path), "<tmp>")
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == stdout, argv


def test_export_round_trip(tmp_path, capsys):
    path = make_graph_file(tmp_path, "bs", "n=2,p=3")
    out_path = tmp_path / "copy.json"
    assert run_cli(["export", str(path), "--format", "json", "--out", str(out_path)]) == 0
    assert read_graph_json(out_path) == bs(2, 3)
    capsys.readouterr()
    assert run_cli(["export", str(path), "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert "graph" in dot and "--" in dot


@pytest.mark.parametrize("text", ["[" * 5000 + "]" * 5000,
                                  '{"n": 3, "edges": ' + "[" * 5000 + "]" * 5000 + "}"])
def test_deeply_nested_graph_file_is_not_valid_json(tmp_path, capsys, text):
    path = tmp_path / "nested.json"
    path.write_text(text)
    for command, *options in (["analyze"], ["lm"], ["verify", "--theorem", "cor-2.3-snailhorn"],
                              ["export", "--format", "dot"]):
        assert run_cli([command, str(path), *options]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: not valid JSON: {path}\n")


def test_an_option_value_of_two_dashes_is_a_usage_error(capsys):
    for argv in (["construct", "--family", "d", "--params=--"],
                 ["sweep", "--family", "d", "--range=--"],
                 ["sweep", "--theorem", "thm-1.2-clawfree", "--nmax=--"]):
        assert run_cli(argv) == 2
        assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["analyze", str(tmp_path / "missing.json")]) == 2
    assert run_cli(["lm", "--bogus-flag"]) == 2
    capsys.readouterr()


# Parser fuzzing.  Integers run from -3 to 12, plus a few past the caps on
# instances and grids.  A text is mostly k=v items, with the family's own
# parameter names and well-formed values often enough that parses succeed as
# well as fail, or else a string of parser tokens.  It is passed joined to
# its option (``--params=TEXT``), so a text starting with "-" is no option.
_INTEGER = st.sampled_from([*range(-3, 13), 100_001, 10**12, 10**40]).map(str)
_VALUE = st.builds(str.format, st.sampled_from(
    ["{0}"] * 5 + ["{0}..{1}", "{0}..{1}:{0}", "{0}:{1}", "{0}{1}", "{0}=", "-{0}", ""]),
    _INTEGER, _INTEGER)
_TOKENS = st.lists(st.one_of(_INTEGER, st.sampled_from(["=", ",", ":", "..", "-", " ", "a", "n"])),
                   max_size=12).map("".join)


def _family_and_text(names):
    def texts(family):
        params = list(families.FAMILIES.get(family, ({},))[0])
        keys = st.permutations(params) | st.lists(st.sampled_from([*params, "q", ""]), max_size=3)
        items = keys.flatmap(lambda ks: st.tuples(*(_VALUE.map(f"{k}={{}}".format) for k in ks)))
        return st.tuples(st.just(family), items.map(",".join) | _TOKENS)
    return st.sampled_from(names).flatmap(texts)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)
_PAIR = st.lists(st.integers(-1, 12), min_size=2, max_size=2)
# a graph file, one with junk in some field, or any other JSON value
_GRAPH = st.one_of(
    st.integers(1, 12).flatmap(lambda n: st.fixed_dictionaries({"n": st.just(n), "edges": st.lists(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=15)})),
    st.fixed_dictionaries(
        {"n": st.integers(-3, 12) | st.just(10**12) | _JSON,
         "edges": st.lists(_PAIR, max_size=10) | st.lists(_PAIR | _JSON, max_size=4) | _JSON},
        optional={"name": st.text() | _JSON}),
    _JSON)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_explained(code, out, err):
    # a non-zero exit has its reason on stderr, or, by the exit rule, is the
    # 2 of a sweep with an undecided check and no failed one
    assert code in (0, 1, 2)
    if code and not any(line.startswith(("error:", "guard exceeded:"))
                        for line in err.splitlines()):
        rows = out.splitlines()
        assert code == 2 and any(row.endswith(" indet") for row in rows), (out, err)
        assert not any(row.endswith(" FAIL") for row in rows), out


@given(_family_and_text(list(families.FAMILIES)))
def test_construct_parses_any_params_text(family_and_text):
    family, text = family_and_text
    _assert_explained(*_run_quietly(["construct", "--family", family, f"--params={text}"]))


@given(_family_and_text([*families.FAMILIES, "nope"]), st.booleans())
def test_family_sweep_parses_any_range_text(family_and_text, with_theorem):
    family, text = family_and_text
    theorem = ["--theorem", "thm-1.2-clawfree"] if with_theorem else []
    # lower caps keep every checked grid and instance small: t_tree(11, 11),
    # under the real cap, takes about 20 s to tabulate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "_VERTEX_CAP", 500)
        patch.setattr(cli, "_GRID_MAX", 40)
        argv = ["sweep", "--family", family, f"--range={text}", *theorem]
        _assert_explained(*_run_quietly(argv))


@given(_GRAPH)
def test_analyze_reads_any_json_value(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "fuzz-graph.json"
    path.write_text(json.dumps(value))
    _assert_explained(*_run_quietly(["analyze", str(path)]))
