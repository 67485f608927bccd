"""Flux reports against ``golden/flux_reports.json`` and
``golden/flux_closed_form.json``.

Each case of the first holds its input (``argv`` of ``qstar report flux`` or
the arguments of a library ``flux_report`` with a tabulated density) and the
output frozen at commit 581fc17. Numbers must agree to 1e-12 relative; the
``tolerances`` block and every other field must be equal.

The second holds 40-digit constant-density gate fluxes written by
``golden/make_flux_reference.py`` (mpmath); both parts must agree to 1e-13
relative.
"""

import json
from pathlib import Path

import pytest

from qstar import GateN4, MomentumDistribution, flux_report
from qstar.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "flux_reports.json").read_text())["cases"]
REL = 1e-12
REFERENCE = json.loads((GOLDEN / "flux_closed_form.json").read_text())["cases"]


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


@pytest.mark.parametrize("case", REFERENCE, ids=lambda c: f"a={c['a']!r}-U={c['U']!r}")
def test_constant_density_flux_matches_40_digit_reference(case):
    rep = flux_report(GateN4(a=case["a"], U=case["U"]),
                      MomentumDistribution.constant(case["rho"]), case["k_F"])
    for part in ("below_threshold", "above_threshold"):
        want = float(case[part])
        assert abs(getattr(rep, part) - want) <= 1e-13 * want, (part, getattr(rep, part), want)
