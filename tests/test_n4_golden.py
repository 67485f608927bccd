"""The three gate goldens against ``golden/n4_reference.json``.

The reference holds 40-digit probabilities of the same sweeps, written by
``golden/make_n4_reference.py`` from the ST-form S-matrix at 50 digits
(mpmath), so it shares no formula with the closed form that wrote the two
V = 0 goldens, or with the engine that wrote the band golden. The P21
column of every V = 0 row must agree to 2e-15 relative. Every column of
the band golden must agree to 1e-12 relative, and be exactly 0 where the
reference is, on a closed line.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE = json.loads((GOLDEN / "n4_reference.json").read_text())
REFERENCE = FIXTURE["goldens"]
REL = 2e-15
BAND_REL = 1e-12


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_gate_golden_p21_matches_40_digit_reference(name):
    with open(GOLDEN / name, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    ref = REFERENCE[name]["rows"]
    assert len(rows) == len(ref) == 200
    ks = np.array([row[0] for row in rows], dtype=float)
    assert ks.tolist() == [r["k"] for r in ref]
    got = np.array([row[header.index("P21")] for row in rows], dtype=float)
    want = np.array([r["P21"] for r in ref], dtype=float)
    np.testing.assert_allclose(got, want, rtol=REL, atol=0)


@pytest.mark.parametrize("name", sorted(FIXTURE["band"]))
def test_band_golden_matches_40_digit_reference(name):
    with open(GOLDEN / name, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    ref = FIXTURE["band"][name]["rows"]
    assert header == ["k", "P21", "R11", "P31", "P41"]
    assert len(rows) == len(ref) == 199
    data = np.array(rows, dtype=float)
    assert data[:, 0].tolist() == [r["k"] for r in ref]
    for i, column in enumerate(header[1:], start=1):
        want = np.array([r[column] for r in ref], dtype=float)
        # atol = 0: exactly 0 where the reference is 0
        np.testing.assert_allclose(data[:, i], want, rtol=BAND_REL, atol=0, err_msg=column)
