"""README examples: every ``qstar`` line of its ``sh`` blocks exits 0, and
the library quick start runs."""

import re
import shlex
from pathlib import Path

import pytest

from qstar import (
    FilterN3,
    bc_to_json,
    build_recipe,
    graph_to_json,
)
from qstar.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("qstar ")
]


def test_readme_has_examples():
    assert len(COMMANDS) >= 11
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    f = FilterN3(a=1.0, b=3.0, U=1.0)
    (tmp_path / "vertex.json").write_text(bc_to_json(f.boundary_condition()))
    chain = build_recipe(f, d=0.01)
    (tmp_path / "chain.json").write_text(graph_to_json(chain))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_quick_start_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
