"""The star engine against ``golden/smatrix_reference.json``.

The reference holds 40-digit S-matrices written by
``golden/make_smatrix_reference.py`` at 50 digits (mpmath), by formulas
that share none with the engine:

- the run frozen in ``golden/smatrix_bc_closed_channel.json``, whose S must
  agree to 1e-14 absolute;
- 24 seeded ST couplings of degree 3 to 6 at energies U_j (1 + eps) next
  to one line's threshold, eps down to +-1e-16 (one or two doubles from
  U_j, or U_j itself), where the engine must agree to 1e-14 relative to
  the largest entry.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qstar import ChannelSet, make_st_form, smatrix

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE = json.loads((GOLDEN / "smatrix_reference.json").read_text())
BC_ABS = 1e-14
NEAR_REL = 1e-14


def _matrix(pairs):
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in pairs])


def test_bc_golden_matches_40_digit_reference():
    golden = json.loads((GOLDEN / "smatrix_bc_closed_channel.json").read_text())
    ref = FIXTURE["bc_closed_channel"]
    assert (golden["k"], golden["energy"], golden["potentials"]) == (
        ref["k"], ref["energy"], ref["potentials"])
    S = np.array(golden["S"])
    assert np.abs(S[..., 0] + 1j * S[..., 1] - _matrix(ref["S"])).max() <= BC_ABS


@pytest.mark.parametrize("case", FIXTURE["near_threshold"],
                         ids=[f"case{i}" for i in range(len(FIXTURE["near_threshold"]))])
def test_engine_near_a_threshold_matches_40_digit_reference(case):
    T = [[complex(re, im) for re, im in row] for row in case["T"]]
    bc = make_st_form(case["n"], case["m"], T)
    for energy, pairs in zip(case["energies"], case["S"]):
        want = _matrix(pairs)
        S = smatrix(bc, ChannelSet(case["n"], tuple(case["potentials"]), energy)).S
        assert np.abs(S - want).max() <= NEAR_REL * np.abs(want).max(), energy
