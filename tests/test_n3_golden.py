"""The filter golden against ``golden/n3_reference.json``.

The reference holds 40-digit probabilities of the same sweep, written by
``golden/make_n3_reference.py`` from the ST-form S-matrix at 50 digits
(mpmath), so it shares no formula with the closed form that wrote the
golden. P21 and P31 must agree to 2e-15 relative, and P31 must be exactly
0 where the reference is, on the closed line. R11 must agree to 1e-13
relative: at k = 0.9952, the row nearest the threshold sqrt(U) = 1, the
closed form forms w = sqrt(U/k^2 - 1) from a difference of about 1e-2 and
R11 = 0.163 is 1.09e-14 off.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
REFERENCE = json.loads((GOLDEN / "n3_reference.json").read_text())["goldens"]
REL = {"P21": 2e-15, "R11": 1e-13, "P31": 2e-15}


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_filter_golden_matches_40_digit_reference(name):
    with open(GOLDEN / name, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    ref = REFERENCE[name]["rows"]
    assert header == ["k", "P21", "R11", "P31"]
    assert len(rows) == len(ref) == 200
    data = np.array(rows, dtype=float)
    assert data[:, 0].tolist() == [r["k"] for r in ref]
    for i, column in enumerate(header[1:], start=1):
        want = np.array([r[column] for r in ref], dtype=float)
        # atol = 0: exactly 0 where the reference is 0
        np.testing.assert_allclose(data[:, i], want, rtol=REL[column], atol=0, err_msg=column)
