import json
import random

import pytest
from hypothesis import given, strategies as st

from bonematch import (
    build_graph,
    bs,
    graph_from_json_dict,
    graph_key,
    graph_to_dot,
    graph_to_json_dict,
    read_graph_json,
    write_graph_json,
)
from bonematch import serialize
from bonematch.cli import run_cli
from .helpers import random_connected_graph


def test_json_dict_shape():
    d = graph_to_json_dict(bs(2, 3).with_name("BS(2,3)"))
    assert d["n"] == 7
    assert d["edges"] == [[0, 1], [0, 3], [0, 4], [1, 2], [2, 5], [2, 6]]
    assert d["name"] == "BS(2,3)"
    assert "family" not in d
    d2 = graph_to_json_dict(bs(2, 3), family={"id": "bs", "params": {"n": 2, "p": 3}})
    assert d2["family"]["id"] == "bs"


@given(st.integers(0, 10**6), st.integers(1, 12))
def test_json_round_trip(seed, n):
    G = random_connected_graph(random.Random(seed), n).with_name("rt")
    assert graph_from_json_dict(graph_to_json_dict(G)) == G


def test_json_file_round_trip(tmp_path):
    G = bs(2, 3).with_name("BS(2,3)")
    path = tmp_path / "g.json"
    write_graph_json(G, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["n"] == 7
    assert read_graph_json(path) == G


def test_json_dict_rejects_malformed():
    with pytest.raises(ValueError):
        graph_from_json_dict({"edges": []})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 2, "edges": [[0, 1, 2]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 2, "edges": [[0, 2]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": "two", "edges": []})


def test_json_dict_rejects_bool_vertex_count():
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": True, "edges": []})


def test_json_dict_rejects_bool_vertex_ids():
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 3, "edges": [[True, 2]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 3, "edges": [[0, False]]})


def test_loaders_cap_the_vertex_count_before_allocating(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("the cap must trip before any graph is built")

    monkeypatch.setattr(serialize, "build_graph", no_build)
    with pytest.raises(ValueError, match="exceeds the loader cap of 100000"):
        graph_from_json_dict({"n": 10**9, "edges": []})
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1000000000, "edges": []}')
    assert run_cli(["lm", str(path)]) == 2
    assert "exceeds the loader cap" in capsys.readouterr().err
    monkeypatch.undo()
    # the cap is read at call time and admits a graph of exactly its size
    monkeypatch.setattr(serialize, "_VERTEX_CAP", 3)
    assert graph_from_json_dict({"n": 3, "edges": [[0, 1]]}).n == 3
    with pytest.raises(ValueError, match="vertex count 4 exceeds"):
        graph_from_json_dict({"n": 4, "edges": []})


def test_read_graph_json_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        read_graph_json(path)


def test_dot_output():
    dot = graph_to_dot(build_graph(3, [(0, 1)], name="x y!"))
    assert dot.splitlines() == ["graph x_y_ {", "  2;", "  0 -- 1;", "}"]
    anon = graph_to_dot(build_graph(1, []))
    assert anon.splitlines()[0] == "graph G {"


def test_graph_key_is_stable_and_discriminating():
    a = graph_key(bs(2, 3))
    assert a == "b80f271a378d"  # pinned: key must never drift across releases
    assert graph_key(bs(2, 3).with_name("other")) == a
    assert graph_key(bs(3, 2)) != a
