"""qstar writes JSON text in one place, ``vertex.json_text``: no module of
``src/qstar/`` calls ``json.dumps`` or ``json.dump``, so every JSON output
follows the one writer's policy (sorted keys, two-space indent, numpy
arrays in bulk, nan as null)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qstar"


def _json_writers(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if {a.name for a in node.names} & {"dump", "dumps", "*"}:
                yield node.lineno


def test_no_module_calls_json_dumps():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = [f"{p.name}:{line}" for p in modules
             for line in _json_writers(ast.parse(p.read_text()))]
    assert found == []
