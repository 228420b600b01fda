"""Reading and writing graphs: canonical JSON and DOT export."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any

from .graphs import Graph, build_graph

__all__ = [
    "graph_to_json_dict",
    "graph_from_json_dict",
    "write_graph_json",
    "read_graph_json",
    "graph_to_dot",
    "graph_key",
    "json_text",
]

# Largest vertex count the JSON loader accepts.  ``build_graph`` allocates one
# set per vertex before it reads an edge, so the count is checked first.
_VERTEX_CAP = 100_000


def graph_to_json_dict(G: Graph, family: dict[str, Any] | None = None) -> dict[str, Any]:
    """Canonical JSON form: sorted ``[u, v]`` pairs with ``u < v``.

    ``family`` is an optional annotation block recording how the graph was
    constructed; readers must tolerate its absence.
    """
    d: dict[str, Any] = {}
    if G.name is not None:
        d["name"] = G.name
    d["n"] = G.n
    d["edges"] = [[u, v] for u, v in G.edges()]
    if family is not None:
        d["family"] = family
    return d


def graph_from_json_dict(d: dict[str, Any]) -> Graph:
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise ValueError("graph JSON must be an object with 'n' and 'edges'")
    n = d["n"]
    edges = d["edges"]
    # ``type(...) is int`` because bool is a subclass of int: JSON true/false are refused.
    if type(n) is not int or not isinstance(edges, list):
        raise ValueError("'n' must be an integer and 'edges' a list")
    if n > _VERTEX_CAP:
        raise ValueError(f"vertex count {n} exceeds the loader cap of {_VERTEX_CAP}")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise ValueError(f"malformed edge entry {e!r}")
        pairs.append((e[0], e[1]))
    name = d.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("'name' must be a string when present")
    return build_graph(n, pairs, name=name)


def json_text(obj: Any) -> str:
    """The text of every JSON artifact: sorted keys, two-space indent, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_graph_json(G: Graph, path: str | Path, family: dict[str, Any] | None = None) -> None:
    Path(path).write_text(json_text(graph_to_json_dict(G, family)))


def read_graph_json(path: str | Path) -> Graph:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply to decode
        raise ValueError(f"not valid JSON: {path}") from exc
    return graph_from_json_dict(data)


def _dot_name(name: str | None) -> str:
    if not name:
        return "G"
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not re.match(r"[A-Za-z_]", cleaned):
        cleaned = "g_" + cleaned
    return cleaned


def graph_to_dot(G: Graph) -> str:
    """Graphviz DOT text; isolated vertices appear as bare node statements."""
    lines = [f"graph {_dot_name(G.name)} {{"]
    for v in range(G.n):
        if G.degree(v) == 0:
            lines.append(f"  {v};")
    for u, v in G.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_key(G: Graph) -> str:
    """Short stable identifier of the labelled graph (used in sweep reports)."""
    payload = f"{G.n}:" + ",".join(f"{u}-{v}" for u, v in G.edges())
    return hashlib.sha256(payload.encode()).hexdigest()[:12]
