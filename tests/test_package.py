import ast
import functools
import importlib
import inspect
import json
import pkgutil
import re
import sys
from pathlib import Path

import bonematch
from bonematch import (canon, cli, errors, families, graphs, harness, lm, matching, serialize,
                       structure)

MODULES = (canon, errors, families, graphs, harness, lm, matching, serialize, structure)
ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_every_module_api_once():
    # every module but the command-line entry point is re-exported
    found = {m.name for m in pkgutil.iter_modules(bonematch.__path__)} - {"cli"}
    assert found == {module.__name__.rpartition(".")[2] for module in MODULES}
    names = bonematch.__all__
    assert len(names) == len(set(names))
    assert sorted(names) == sorted([n for module in MODULES for n in module.__all__]
                                   + ["__version__"])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bonematch, name) is getattr(module, name)
    assert bonematch.rows_to_csv is harness.rows_to_csv
    assert bonematch.json_text is serialize.json_text


def test_every_public_name_has_a_caller():
    # A caller is a use of the name, bare or as an attribute, in the package,
    # the benchmark or the acceptance tests; unit tests alone do not count.
    used = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {name for module in (*MODULES, cli) for name in module.__all__}
    assert sorted(public - used) == []


def test_no_module_imports_a_name_it_does_not_use():
    # ``__init__`` re-exports by star import and uses each module it imports
    paths = sorted((ROOT / "src" / "bonematch").glob("*.py"))
    assert len(paths) == len(MODULES) + 2  # with ``__init__`` and ``cli``
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                           if alias.name != "*"
                           and (alias.asname or alias.name).partition(".")[0] not in used]
    assert unused == []


def test_runtime_imports_only_the_standard_library():
    # the package imports itself relatively; every absolute import is stdlib
    outside = []
    for path in sorted((ROOT / "src" / "bonematch").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_size_constant_has_a_guard_table_row():
    # a module-level constant named _..._MAX, _..._BUDGET or _..._CAP (also
    # with a suffix, as _SEARCH_MAX_N) bounds an input, so the README's guard
    # table, one row per guard, must name it
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("| guard | bounds |"):]
    table = table[:table.index("\n\n")]
    named = set(re.findall(r"`(bonematch\.\w+\.\w+)`", table))
    constants = set()
    for path in sorted((ROOT / "src" / "bonematch").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            constants |= {f"bonematch.{path.stem}.{t.id}" for t in targets
                          if isinstance(t, ast.Name)
                          and re.fullmatch(r"_[A-Z_]*(MAX|BUDGET|CAP)(_[A-Z]+)?", t.id)}
    assert len(constants) >= 10
    assert sorted(constants - named) == []


def test_readme_code_references_resolve():
    # every `bonematch.<module>[.<name>]` in the README names a module or an
    # attribute of one, so a renamed constant cannot leave the README behind
    refs = re.findall(r"`(bonematch\.[\w.]+)`", (ROOT / "README.md").read_text())
    assert refs
    unresolved = []
    for ref in refs:
        module, *names = ref.split(".")[1:]
        try:
            functools.reduce(getattr, names, importlib.import_module(f"bonematch.{module}"))
        except (ImportError, AttributeError):
            unresolved.append(ref)
    assert unresolved == []


def test_benchmark_layer_names_are_public_functions():
    # the traced benchmark reads one value per per-layer metric of
    # BENCHMARK.json, and the tracer records only the public functions of its
    # layer modules, so a deleted or renamed function would leave it a name
    # it cannot fill; families.build is the sum over every families.* span
    layers = next(ast.literal_eval(node.value)
                  for node in ast.parse((ROOT / "bench" / "tracer.py").read_text()).body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checked, missing = 0, []
    for metric in spec["per_layer"]:
        found = re.fullmatch(r"(\w+)\.(\w+)\.(calls|self_s)", metric["name"])
        if not found or found[1] not in layers or found.group(1, 2) == ("families", "build"):
            continue
        module = importlib.import_module(f"bonematch.{found[1]}")
        fn = getattr(module, found[2], None)
        checked += 1
        if not (found[2] in module.__all__ and inspect.isfunction(fn)
                and fn.__module__ == module.__name__):
            missing.append(metric["name"])
    assert checked >= 20 and missing == []
