"""The graph goldens against their 40-digit references.

``golden/make_chain_reference.py`` writes both references from the full
wave-matching system at 50 digits (mpmath), so they share no formula with
the vertex-admittance solve that wrote the goldens:

- ``chain_reference.json`` holds the probabilities of the chain sweep
  ``golden/graph_chain_v5delta_n4.csv``; every row must agree to 1e-12
  absolute;
- ``ring_reference.json`` holds the S-matrix of the ring run frozen in
  ``golden/graph_E_closed_channel.json``, which must agree to 1e-14
  absolute.
"""

import csv
import json
from pathlib import Path

import numpy as np

from qstar import graph_from_json, graph_to_dict

import test_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
ABS = 1e-12
RING_ABS = 1e-14


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


def test_ring_golden_matches_40_digit_reference():
    reference = json.loads((GOLDEN / "ring_reference.json").read_text())
    golden = json.loads((GOLDEN / reference["golden"]).read_text())
    assert reference["graph"] == graph_to_dict(graph_from_json(test_cli.TestFrozenJsonBytes.RING))
    assert (golden["config"], golden["energy"]) == ("ring.json", reference["energy"])
    S = np.array(golden["S"])
    want = np.array([[float(re) + 1j * float(im) for re, im in row] for row in reference["S"]])
    assert np.abs(S[..., 0] + 1j * S[..., 1] - want).max() <= RING_ABS
