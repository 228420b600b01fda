import pkgutil

import bonematch
from bonematch import canon, errors, families, graphs, harness, lm, matching, serialize, structure

MODULES = (canon, errors, families, graphs, harness, lm, matching, serialize, structure)


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
