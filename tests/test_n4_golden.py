"""The three gate goldens against ``golden/n4_reference.json``.

The reference holds 40-digit probabilities of the same sweeps, written by
``golden/make_n4_reference.py`` from the ST-form S-matrix at 50 digits
(mpmath), so it shares no formula with the closed form that wrote the two
V = 0 goldens, or with the engine that wrote the band golden. In every
V = 0 row, P21, P31 and P41 must agree to 2e-15 relative, and R11 to 1e-13,
the n3 golden's R11 bound: the closed form's S11 numerator
1 - 4a^4 w_U w_V cancels where R11 is small, and on the flat gate at
k = 4.975, where R11 = 2.7e-5, it is 9.0e-15 off. Every column of the band
golden must agree to 1e-12 relative. A column must be exactly 0 where the
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
REL = {"P21": 2e-15, "R11": 1e-13, "P31": 2e-15, "P41": 2e-15}
BAND_REL = 1e-12


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_gate_golden_matches_40_digit_reference(name):
    with open(GOLDEN / name, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    ref = REFERENCE[name]["rows"]
    assert header == ["k", *REL]
    assert len(rows) == len(ref) == 200
    data = np.array(rows, dtype=float)
    assert data[:, 0].tolist() == [r["k"] for r in ref]
    for i, column in enumerate(header[1:], start=1):
        want = np.array([r[column] for r in ref], dtype=float)
        # atol = 0: exactly 0 where the reference is 0
        np.testing.assert_allclose(data[:, i], want, rtol=REL[column], atol=0, err_msg=column)


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
