"""The fixture scripts in ``golden/`` and the grids they share with the CLI.

Pytest does not collect the ``make_*_reference.py`` scripts, and running
them needs mpmath, so an error in one would show only when a fixture is
regenerated. Here each is byte-compiled, which imports nothing, and so is
``cli_bytes.py``, the CLI byte-identity check, which pytest does not
collect either.

Each CSV golden is a CLI sweep of a ``lo:hi:steps`` grid in
``GOLDEN_SWEEPS``, and the CLI takes numpy.linspace of that grid as it
is, thresholds included. So its k column, and that of its fixture, must
equal the linspace bit for bit.
"""

import csv
import json
import py_compile
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import GOLDEN_SWEEPS

GOLDEN = Path(__file__).resolve().parent / "golden"
SCRIPTS = sorted(GOLDEN.glob("make_*_reference.py")) + [GOLDEN.parent / "cli_bytes.py"]


def _fixture_grids():
    """{golden name: k list} of every fixture that follows a CSV golden."""
    n3 = json.loads((GOLDEN / "n3_reference.json").read_text())
    n4 = json.loads((GOLDEN / "n4_reference.json").read_text())
    chain = json.loads((GOLDEN / "chain_reference.json").read_text())
    grids = {name: [r["k"] for r in entry["rows"]]
             for part in ("goldens", "band") for name, entry in n4[part].items()}
    grids.update((name, [r["k"] for r in entry["rows"]]) for name, entry in n3["goldens"].items())
    assert chain["config"] == "chain_v5delta_n4.json"
    grids["graph_chain_v5delta_n4.csv"] = [r["k"] for r in chain["rows"]]
    return grids


FIXTURE_GRIDS = _fixture_grids()
CSV_GOLDENS = sorted(n for n in GOLDEN_SWEEPS if n.endswith(".csv"))


def _linspace(argv):
    lo, hi, steps = argv[argv.index("--k") + 1].split(":")
    return np.linspace(float(lo), float(hi), int(steps)).tolist()


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_fixture_script_compiles(script, tmp_path):
    py_compile.compile(str(script), cfile=str(tmp_path / "script.pyc"), doraise=True)


def test_scripts_are_found():
    assert len(SCRIPTS) >= 6


def test_every_fixture_grid_follows_a_csv_golden():
    assert len(FIXTURE_GRIDS) == 5 and set(FIXTURE_GRIDS) == set(CSV_GOLDENS)


@pytest.mark.parametrize("name", CSV_GOLDENS)
def test_golden_grid_is_the_cli_linspace(name):
    want = _linspace(GOLDEN_SWEEPS[name])
    with open(GOLDEN / name, newline="") as fh:
        ks = [float(row[0]) for row in list(csv.reader(fh))[1:]]
    assert ks == want
    assert FIXTURE_GRIDS.get(name, want) == want
