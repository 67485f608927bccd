"""qstar writes CSV text in one place, ``cli._csv_table``: its bytes equal
those of the csv module's default writer over cells formatted one by one
to 17 significant digits, and no module of ``src/qstar/`` imports ``csv``."""

import ast
import csv
import io
from pathlib import Path

import numpy as np
import pytest

from qstar.cli import _csv_table

SRC = Path(__file__).resolve().parents[1] / "src" / "qstar"

SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-300, 1e16, 1 / 3, -1 / 3)


def oracle(header, columns):
    """The CSV text of the per-cell writer this one replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf)  # default dialect: RFC-4180 CRLF
    writer.writerow(header)
    writer.writerows([[f"{float(x):.17g}" for x in row] for row in zip(*columns)])
    return buf.getvalue()


def _header(rng, n_cols):
    """A header as ``sweep`` or ``graph --k`` builds it."""
    if n_cols <= 5 and rng.random() < 0.5:
        return ["k", "P21", "R11", "P31", "P41"][:n_cols]
    incoming = int(rng.integers(1, n_cols))
    return ["k"] + [f"P{i + 1}{incoming}" for i in range(n_cols - 1)]


def _table(seed):
    rng = np.random.default_rng(seed)
    n_cols, n_rows = int(rng.integers(2, 7)), int(rng.integers(2, 301))
    lo = float(rng.uniform(1e-3, 2.0))
    columns = [np.linspace(lo, lo + float(rng.uniform(0.1, 50.0)), n_rows)]
    for _ in range(n_cols - 1):
        col = rng.uniform(0.0, 1.0, n_rows) * 10.0 ** rng.integers(-320, 300, n_rows)
        special = rng.random(n_rows) < 0.2
        col[special] = rng.choice(SPECIAL, int(special.sum()))
        columns.append(col)
    return _header(rng, n_cols), columns


@pytest.mark.parametrize("seed", range(200))
def test_bytes_equal_the_per_cell_csv_writer(seed):
    header, columns = _table(seed)
    # Compared row by row, so that a failure names the first row that
    # differs instead of diffing the whole text.
    assert _csv_table(header, columns).split("\r\n") == oracle(header, columns).split("\r\n")


def _csv_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "csv":
            yield node.lineno


def test_no_module_imports_csv():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = [f"{p.name}:{line}" for p in modules
             for line in _csv_imports(ast.parse(p.read_text()))]
    assert found == []
