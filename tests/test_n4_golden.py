"""The P21 columns of the two V = 0 gate goldens against
``golden/n4_reference.json``.

The reference holds 40-digit P21 of the same sweeps, written by
``golden/make_n4_reference.py`` from the ST-form S-matrix at 50 digits
(mpmath), so it shares no formula with the closed form that wrote the
goldens. Every row must agree to 2e-15 relative.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
REFERENCE = json.loads((GOLDEN / "n4_reference.json").read_text())["goldens"]
REL = 2e-15


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
