"""The chain golden ``golden/graph_chain_v5delta_n4.csv`` against
``golden/chain_reference.json``.

The reference holds 40-digit probabilities of the same sweep, written by
``golden/make_chain_reference.py`` from the full wave-matching system at 50
digits (mpmath), so it shares no formula with the vertex-admittance solve
that wrote the golden. Every row must agree to 1e-12 absolute.
"""

import csv
import json
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
ABS = 1e-12


def test_chain_golden_matches_40_digit_reference():
    reference = json.loads((GOLDEN / "chain_reference.json").read_text())
    assert reference["config"] == "chain_v5delta_n4.json"
    with open(GOLDEN / "graph_chain_v5delta_n4.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["k", "P11", "P21", "P31", "P41"]
    assert len(rows) == len(reference["rows"]) == 199
    for row, ref in zip(rows, reference["rows"]):
        assert float(row[0]) == ref["k"]
        got = np.array(row[1:], dtype=float)
        want = np.array(ref["P_in_1"], dtype=float)
        assert np.abs(got - want).max() <= ABS, (ref["k"], got, want)
