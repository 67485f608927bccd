"""Flux reports against ``golden/flux_reports.json``.

Each case holds its input (``argv`` of ``qstar report flux`` or the
arguments of a library ``flux_report`` with a tabulated density) and the
output frozen at commit 581fc17. Numbers must agree to 1e-12 relative; the
``tolerances`` block and every other field must be equal.
"""

import json
from pathlib import Path

import pytest

from qstar import GateN4, MomentumDistribution, flux_report
from qstar.cli import main

CASES = json.loads(
    (Path(__file__).resolve().parent / "golden" / "flux_reports.json").read_text()
)["cases"]
REL = 1e-12


def _compare(fresh, frozen, where):
    if isinstance(frozen, dict):
        assert sorted(fresh) == sorted(frozen), where
        for key, value in frozen.items():
            if key == "tolerances":
                assert fresh[key] == value, where
            else:
                _compare(fresh[key], value, f"{where}.{key}")
    elif isinstance(frozen, list):
        assert len(fresh) == len(frozen), where
        for i, (x, y) in enumerate(zip(fresh, frozen)):
            _compare(x, y, f"{where}[{i}]")
    elif isinstance(frozen, float):
        assert abs(fresh - frozen) <= REL * abs(frozen), (where, fresh, frozen)
    else:
        assert fresh == frozen, where


def test_fixture_covers_every_mode():
    names = {case["name"] for case in CASES}
    assert {"flat_V0", "nonflat_V0", "flat_U_grid", "band", "tabulated_V0"} <= names


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_flux_report_matches_golden(case, capsys):
    if "argv" in case:
        assert main(case["argv"]) == 0
        fresh = json.loads(capsys.readouterr().out)
    else:
        p = case["flux_report"]
        rep = flux_report(GateN4(a=p["a"], U=p["U"], V=p["V"]),
                          MomentumDistribution.tabulated(p["ks"], p["values"]), p["k_F"])
        fresh = {"total": rep.total, "below_threshold": rep.below_threshold,
                 "above_threshold": rep.above_threshold}
    _compare(fresh, case["output"], case["name"])
