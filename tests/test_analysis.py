import json
import math
from pathlib import Path

import numpy as np
import pytest

from qstar import (
    FilterN3,
    FluxCurve,
    GateN4,
    MomentumDistribution,
    NoBandError,
    NoPoleError,
    bandwidth,
    flux,
    flux_curve,
    flux_report,
    locate_pole,
    n3_transmission,
    n4_transmission,
)
from qstar import analysis, numerics
from qstar.cli import main

FLAT_A = 1 / np.sqrt(2)
#: 40-digit band edges from ``golden/make_bandwidth_reference.py``.
REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "golden" / "bandwidth_reference.json").read_text()
)["filters"]
#: 40-digit poles from ``golden/make_pole_reference.py``.
POLE_REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "golden" / "pole_reference.json").read_text()
)["poles"]
#: 40-digit constant-density gate fluxes from ``golden/make_flux_reference.py``.
FLUX_REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "golden" / "flux_closed_form.json").read_text()
)["cases"]
RHO = MomentumDistribution.constant(1.0)


class TestBandwidth:
    def test_b3_width_close_to_estimate(self):
        rep = bandwidth(FilterN3(a=1.0, b=3.0, U=1.0))
        assert rep.width_energy == pytest.approx(4.7 / 81, rel=0.10)
        assert rep.k_lo < 1.0 < rep.k_hi

    def test_b6_estimate_improves(self):
        rep = bandwidth(FilterN3(a=1.0, b=6.0, U=1.0))
        assert rep.width_energy == pytest.approx(4.7 / 1296, rel=0.05)

    def test_width_scales_linearly_with_potential(self):
        w1 = bandwidth(FilterN3(a=1.0, b=3.0, U=1.0)).width_energy
        w4 = bandwidth(FilterN3(a=1.0, b=3.0, U=4.0)).width_energy
        assert w4 / w1 == pytest.approx(4.0, rel=0.01)

    def test_edges_sit_on_half_maximum(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        rep = bandwidth(f)
        assert n3_transmission(f, rep.k_lo) == pytest.approx(0.5, abs=1e-9)
        assert n3_transmission(f, rep.k_hi) == pytest.approx(0.5, abs=1e-9)

    # Each NoBandError condition: filters on the no-band side, with its
    # message, and one filter just inside the boundary. The peak
    # (2a/(1+a^2))^2 exceeds 1/2 for sqrt(2) - 1 < a < sqrt(2) + 1 (it is
    # 0.148 at a = 0.2); transmission at high momentum falls below 1/2 for
    # b^2 > 2 sqrt(2) a - 1 - a^2, b > 0.91018 at a = 1 (b = 1e-170 squares to 0).
    NO_BAND = {
        "without_potential": (
            [(1.0, 3.0, 0.0)], "positive controlling potential", (1.0, 3.0, 1e-300)),
        "peak_too_low": (
            [(0.2, 3.0, 1.0), (0.41421356, 3.0, 1.0), (2.4142136, 3.0, 1.0)],
            "<= 1/2: no band", (0.41422, 3.0, 1.0)),
        "unbounded_band": (
            [(1.0, 0.5, 1.0), (1.0, 0.9101, 1.0), (1.0, 1e-170, 1.0)], "unbounded band",
            (1.0, 0.9102, 1.0)),
    }

    @pytest.mark.parametrize("case", sorted(NO_BAND))
    def test_no_band(self, case):
        filters, message, _ = self.NO_BAND[case]
        for a, b, U in filters:
            with pytest.raises(NoBandError, match=message):
                bandwidth(FilterN3(a=a, b=b, U=U))

    @pytest.mark.parametrize("case", sorted(NO_BAND))
    def test_band_just_inside_boundary(self, case):
        f = FilterN3(*self.NO_BAND[case][2])
        rep = bandwidth(f)
        assert 0.0 < rep.k_lo < f.threshold < rep.k_hi < np.inf
        assert 0.0 < rep.width_energy < np.inf
        assert n3_transmission(f, rep.k_lo) == pytest.approx(0.5, abs=1e-9)
        assert n3_transmission(f, rep.k_hi) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "row", REFERENCE, ids=lambda r: f"a{r['a']}-b{r['b']}-U{r['U']}")
    def test_matches_40_digit_reference(self, row):
        # kappa = 2 w^2/(1 - w^2) is the relative condition number of k_hi in
        # b: rounding b by one ulp moves k_hi by kappa ulp. It is below 1 but
        # for b = 0.92, near the unbounded band (kappa = 46).
        k_hi = float(row["k_hi"])
        scale = max(1.0, 2.0 * (k_hi * k_hi / row["U"] - 1.0))
        rep = bandwidth(FilterN3(a=row["a"], b=row["b"], U=row["U"]))
        assert rep.k_lo == pytest.approx(float(row["k_lo"]), rel=1e-15, abs=0)
        assert rep.k_hi == pytest.approx(k_hi, rel=1e-15 * scale, abs=0)
        assert rep.width_energy == pytest.approx(
            float(row["width_energy"]), rel=2e-15 * scale, abs=0)

    @pytest.mark.parametrize("b", [1e2, 1e3, 1e4, 1e6])
    @pytest.mark.parametrize("a", [0.8, 1.0, 1.3])
    def test_sharp_peak_width(self, a, b):
        # W b^4/U = (16a^2 - 4 sqrt(2) a (1 + a^2))(1 + O(1/b^4)); the edges
        # round to sqrt(U) from b ~ 1e4 on, the width does not.
        U = 0.7
        rep = bandwidth(FilterN3(a=a, b=b, U=U))
        limit = 16 * a * a - 4 * np.sqrt(2) * a * (1 + a * a)
        assert rep.width_energy * b**4 / U == pytest.approx(
            limit, rel=10 / b**4 + 1e-13)

    def test_report_ratio(self):
        rep = bandwidth(FilterN3(a=1.0, b=3.0, U=1.0))
        assert rep.approx_ratio == pytest.approx(
            rep.width_energy / (4.7 / 81), rel=1e-12
        )


class TestLocatePole:
    def test_filter_pole_matches_closed_form(self):
        rep = locate_pole(FilterN3(a=1.0, b=3.0, U=1.0))
        assert rep.closed_form == pytest.approx(9 / np.sqrt(77), rel=1e-14)
        assert rep.k_pole == pytest.approx(rep.closed_form, rel=1e-8)
        assert rep.residual < 1e-8
        assert rep.k_pole > 1.0

    def test_gate_pole_matches_closed_form(self):
        rep = locate_pole(GateN4(a=1.0, U=1.0))
        assert rep.closed_form == pytest.approx(2 / np.sqrt(3), rel=1e-14)
        assert rep.k_pole == pytest.approx(rep.closed_form, rel=1e-8)
        assert rep.residual < 1e-8

    def test_pole_scales_with_threshold(self):
        rep = locate_pole(FilterN3(a=1.0, b=3.0, U=4.0))
        assert rep.k_pole == pytest.approx(2 * 9 / np.sqrt(77), rel=1e-8)

    def test_flat_gate_has_no_pole(self):
        with pytest.raises(NoPoleError, match="closed form has none") as info:
            locate_pole(GateN4(a=FLAT_A, U=1.0))
        assert (info.value.line, info.value.threshold) == (None, None)

    def test_small_b_filter_has_no_pole(self):
        with pytest.raises(NoPoleError):
            locate_pole(FilterN3(a=1.0, b=1.2, U=1.0))  # b^2 < 1 + a^2

    @pytest.mark.parametrize("V", [0.1, 0.5, 1.0, 1.2, 1.33])
    def test_gate_pole_does_not_depend_on_drain_potential(self, V):
        rep = locate_pole(GateN4(a=1.0, U=1.0, V=V))
        assert rep.closed_form == GateN4(a=1.0, U=1.0).pole
        assert rep.k_pole == pytest.approx(2 / np.sqrt(3), rel=1e-13)

    @pytest.mark.parametrize("V", [4 / 3, 2.0])
    def test_gate_pole_below_drain_threshold_raises(self, V):
        # The pole 2/sqrt(3) does not lie above the drain threshold sqrt(V).
        with pytest.raises(NoPoleError, match="line 4") as info:
            locate_pole(GateN4(a=1.0, U=1.0, V=V))
        assert info.value.line == 4
        assert info.value.threshold == math.sqrt(V)
        assert repr(math.sqrt(V)) in str(info.value)

    def test_pole_within_bracket_margin_of_threshold_raises(self):
        # The pole sits within 1e-12 of sqrt(U), below the bracket's start.
        with pytest.raises(NoPoleError, match="line 3") as info:
            locate_pole(FilterN3(a=1.0, b=1e4, U=1.0))
        assert (info.value.line, info.value.threshold) == (3, 1.0)

    @pytest.mark.parametrize(
        "row", POLE_REFERENCE,
        ids=[f"{r['device']}-a{r['a']}-U{r['U']}-" + (f"b{r['b']}" if "b" in r else f"V{r['V']}")
             for r in POLE_REFERENCE],
    )
    def test_matches_40_digit_reference(self, row):
        if row["device"] == "n3":
            device = FilterN3(row["a"], row["b"], row["U"])
        else:
            device = GateN4(row["a"], row["U"], row["V"])
        assert locate_pole(device).k_pole == pytest.approx(float(row["k_pole"]), rel=2e-13)

    # (device, k_pole, closed_form, residual), frozen bit for bit; each
    # k_pole is within 2e-13 of pole_reference.json.
    # FilterN3(1, 1.4143) sits just above the critical b = sqrt(2),
    # GateN4(0.708) just above the critical a = 1/sqrt(2).
    FROZEN = [
        (FilterN3(1.0, 3.0, 1.0), 1.0256451881367772, 1.0256451881367414,
         1.3375967000683886e-12),
        (FilterN3(1.5, 3.0, 4.0), 2.144719687444204, 2.1447196874441974,
         6.572520305780927e-14),
        (FilterN3(0.6, 2.5, 0.3), 0.5611692777555687, 0.5611692777555803,
         5.6710192097853e-13),
        (FilterN3(1.0, 1.4143, 1.0), 63.96011922718148, 63.96011922718326, 0.0),
        (GateN4(1.0, 1.0), 1.1547005383792515, 1.1547005383792517, 0.0),
        (GateN4(1.3, 2.5), 1.6552407547482568, 1.6552407547483032,
         1.2780887459484802e-12),
        (GateN4(0.75, 0.7), 1.8262787623052112, 1.8262787623052126, 0.0),
        (GateN4(0.708, 1.0), 14.09024931389346, 14.090249313893391, 0.0),
    ]

    @pytest.mark.parametrize(
        "device, k_pole, closed_form, residual",
        FROZEN,
        ids=[f"{row[0].__class__.__name__}-{i}" for i, row in enumerate(FROZEN)],
    )
    def test_pole_bits_frozen(self, device, k_pole, closed_form, residual):
        rep = locate_pole(device)
        assert rep.k_pole == k_pole
        assert rep.closed_form == closed_form == device.pole
        assert rep.residual == residual


class TestFlux:
    def test_below_threshold_part_is_exact(self):
        for u in (0.5, 1.0, 2.0):
            rep = flux_report(GateN4(a=FLAT_A, U=u), RHO, 4.0)
            assert rep.below_threshold == pytest.approx(u / 8, abs=1e-10)

    def test_zero_potential_gives_zero_flux(self):
        assert flux(GateN4(a=FLAT_A, U=0.0), RHO, 4.0) == 0.0

    def test_monotone_in_potential(self):
        js = [flux(GateN4(a=FLAT_A, U=u), RHO, 4.0) for u in np.linspace(0.2, 2.0, 8)]
        assert all(b > a for a, b in zip(js, js[1:]))

    def test_total_dominates_linear_part(self):
        for u in (0.25, 1.0, 2.0):
            assert flux(GateN4(a=FLAT_A, U=u), RHO, 4.0) >= u / 8

    def test_increment_linearity(self):
        for u in (0.25, 0.5):
            j1 = flux(GateN4(a=FLAT_A, U=u), RHO, 4.0)
            j2 = flux(GateN4(a=FLAT_A, U=2 * u), RHO, 4.0)
            assert (j2 - j1) / j1 == pytest.approx(1.0, abs=0.15)

    def test_curve_linearity_deviation_small(self):
        curve = flux_curve(GateN4(a=FLAT_A), RHO, 4.0, (0.25, 0.5, 0.75, 1.0))
        assert curve.linearity_deviation() < 0.25

    def test_band_mode_curve_is_the_gate_report_at_each_potential(self, capsys):
        # The curve keeps the gate's a and V and replaces only U, in the
        # library and behind report flux --U-grid --V alike.
        a, V, us = 0.9, 0.25, (0.5, 1.0, 2.0)
        want = [flux_report(GateN4(a=a, U=u, V=V), RHO, 3.0).total for u in us]
        curve = flux_curve(GateN4(a=a, U=1.0, V=V), RHO, 3.0, us)
        assert curve.potentials == us
        assert list(curve.fluxes) == want
        argv = ["report", "flux", "--a", "0.9", "--U", "1", "--V", "0.25", "--kF", "3",
                "--U-grid", "0.5,1,2"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["curve"] == [list(p) for p in zip(us, want)]

    def test_linearity_deviation_of_a_zero_curve(self):
        assert FluxCurve((0.5, 1.0), (0.0, 0.0)).linearity_deviation() == 0.0

    def test_linearity_deviation_needs_a_positive_potential(self):
        # Refused by name before numpy averages an empty slice of slopes.
        with pytest.raises(ValueError, match=r"potential > 0, got \(0\.0, -1\.0\)"):
            FluxCurve((0.0, -1.0), (0.0, 0.0)).linearity_deviation()

    def test_zero_control_potential_in_band_mode(self):
        # U = 0 < V: every momentum lies above the control threshold.
        rep = flux_report(GateN4(a=1.0, U=0.0, V=0.5), RHO, 2.0)
        assert rep.below_threshold == 0.0
        assert rep.total == rep.above_threshold > 0.0

    def test_working_range_must_stay_below_fermi_momentum(self):
        with pytest.raises(ValueError):
            flux(GateN4(a=FLAT_A, U=9.0), RHO, 2.0)
        with pytest.raises(ValueError):
            flux(GateN4(a=FLAT_A, U=1.0), RHO, -1.0)

    def test_band_mode_flux_runs_through_engine(self):
        rep = flux_report(GateN4(a=FLAT_A, U=1.0, V=0.25), RHO, 3.0)
        assert 0.0 < rep.total < 3.0
        assert rep.below_threshold > 0.0

    @pytest.mark.parametrize("a", [FLAT_A, 0.9])
    @pytest.mark.parametrize("k_F", [4.6, 5.0])
    @pytest.mark.parametrize("u", [0.3, 0.6])
    def test_cusp_range_matches_fixed_node_gauss_legendre(self, a, k_F, u):
        g = GateN4(a=a, U=u)
        rep = flux_report(g, RHO, k_F)
        ref = _sqrt_mapped_gauss_legendre(
            lambda k: k * n4_transmission(g, k), (0.0, np.sqrt(u), k_F)
        )
        assert rep.total == pytest.approx(ref, rel=1e-9)

    # (gate, density, k_F, total, below, above), the parts as float.hex,
    # frozen bit for bit: the V = 0 constant-density route (flat gate
    # included), tabulated densities and band mode. flux_reports.json
    # checks the values only to 1e-12; the four constant-density rows are
    # also rows of flux_closed_form.json.
    FROZEN = [
        (GateN4(FLAT_A, 1.0), RHO, 4.0,
         "0x1.29a25cdd6fe22p-3", "0x1.0000000000000p-3", "0x1.4d12e6eb7f112p-6"),
        (GateN4(0.9, 0.6), MomentumDistribution.constant(1.7), 2.9,
         "0x1.1b665a367599fp-3", "0x1.da610402caefep-4", "0x1.71aec1a881102p-6"),
        (GateN4(1.3, 2.5), MomentumDistribution.constant(0.5), 3.5,
         "0x1.bb8f75a161e6cp-4", "0x1.6435f4c5c80a8p-4", "0x1.5d66036e67712p-6"),
        (GateN4(0.3, 0.25), RHO, 4.4,
         "0x1.6fdbd1b787812p-7", "0x1.51d27a30eb619p-7", "0x1.e0957869c1f8fp-11"),
        (GateN4(FLAT_A, 1.65),
         MomentumDistribution.tabulated([0.0, 0.16, 2.23, 4.0], [1.0, 1.3, 0.7, 0.2]), 3.5,
         "0x1.04b2d95945eb4p-2", "0x1.cf1b237298b71p-3", "0x1.d25479ff98fb0p-6"),
        (GateN4(1.1, 0.8),
         MomentumDistribution.tabulated(np.linspace(0.0, 5.0, 6),
                                        [1.2, 0.9, 1.1, 0.8, 0.6, 0.3]), 4.2,
         "0x1.67c7131ed78d5p-4", "0x1.2882ee801e133p-4", "0x1.fa2124f5cbd10p-7"),
        (GateN4(FLAT_A, 1.0, 0.25), RHO, 3.0,
         "0x1.1dedca2fa8fe1p-3", "0x1.00953566f167ep-3", "0x1.d5894c8b79634p-7"),
        (GateN4(1.2, 2.0, 0.7), MomentumDistribution.constant(1.3), 3.1,
         "0x1.1ddb515ff296fp-2", "0x1.f6fb4343da354p-3", "0x1.12ed7df02be2ap-5"),
    ]

    @pytest.mark.parametrize("g, dist, k_F, total, below, above", FROZEN,
                             ids=[f"case{i}" for i in range(len(FROZEN))])
    def test_flux_bits_frozen(self, g, dist, k_F, total, below, above):
        rep = flux_report(g, dist, k_F)
        got = (rep.total.hex(), rep.below_threshold.hex(), rep.above_threshold.hex())
        assert got == (total, below, above)

    def test_tabulated_density_kinks_are_split(self):
        # The knot at 0.16 puts a kink below sqrt(U). On the flat gate
        # P = 1/4 there, so the below-threshold part is exactly
        # (1/4) * integral of rho(k) k over [0, sqrt(U)].
        u = 1.65
        ks = np.array([0.0, 0.16, 2.23, 4.0])
        rho = np.array([0.7, 0.3, 2.2, 0.7])
        rep = flux_report(
            GateN4(a=FLAT_A, U=u), MomentumDistribution.tabulated(ks, rho), 3.0
        )
        exact = 0.0
        for k0, k1, r0, r1 in zip(ks[:-1], ks[1:], rho[:-1], rho[1:]):
            lo, hi = k0, min(k1, np.sqrt(u))
            if lo >= hi:
                break
            c1 = (r1 - r0) / (k1 - k0)
            c0 = r0 - c1 * k0
            exact += 0.25 * (c0 * (hi**2 - lo**2) / 2 + c1 * (hi**3 - lo**3) / 3)
        assert rep.below_threshold == pytest.approx(exact, abs=1e-10)

    def test_knot_next_to_the_origin(self):
        # A knot at 1e-170 makes the quadrature sample k ~ 1e-175, where
        # U/k^2 overflows in the transmission; rho*k*P vanishes there, and
        # the integrand answers 0 below k = 1e-20.
        g = GateN4(a=0.9, U=1.0)
        near = MomentumDistribution.tabulated([0.0, 1e-170, 4.0], [1.0, 1.0, 1.0])
        plain = MomentumDistribution.tabulated([0.0, 4.0], [1.0, 1.0])
        rep = flux_report(g, near, 4.0)
        assert math.isfinite(rep.total)
        assert rep.total == flux_report(g, plain, 4.0).total

    def test_flat_gate_report_call_budget(self):
        calls = []
        dist = MomentumDistribution(lambda k: calls.append(k) or 1.0)
        flux_report(GateN4(a=FLAT_A, U=1.0), dist, 4.0)
        assert 0 < len(calls) <= 400


class TestConstantDensityFlux:
    """V=0 reports with a constant density: closed-form J_below and a tail
    integrated in w = sqrt(1 - U/k^2), against the quadrature over k."""

    @staticmethod
    def _plain(rho):
        # The same density, not marked constant: flux_report integrates in k.
        return MomentumDistribution(lambda k: rho)

    @pytest.mark.parametrize("a", [0.3, FLAT_A, 0.9, 1.7, 40.0])
    def test_below_threshold_part_is_linear_in_u(self, a):
        us = np.linspace(0.05, 3.0, 17)
        slopes = [flux_report(GateN4(a=a, U=u), RHO, 4.0).below_threshold / u for u in us]
        assert np.ptp(slopes) <= 1e-15 * slopes[0]

    def test_matches_quadrature_over_k(self):
        rng = np.random.default_rng(1204)
        near_flat = FLAT_A + rng.uniform(-1e-9, 1e-9, size=4)
        a_values = [FLAT_A, *near_flat, *rng.uniform(0.2, 2.5, size=25)]
        for a in a_values:
            u = float(rng.uniform(0.1, 3.0))
            k_f = float(np.sqrt(u) * rng.uniform(1.05, 5.0))
            rho = float(rng.uniform(0.3, 2.0))
            g = GateN4(a=float(a), U=u)
            fast = flux_report(g, MomentumDistribution.constant(rho), k_f)
            slow = flux_report(g, self._plain(rho), k_f)
            for part in ("below_threshold", "above_threshold", "total"):
                assert getattr(fast, part) == pytest.approx(
                    getattr(slow, part), rel=1e-12, abs=0.0), (a, u, k_f, part)

    @pytest.mark.parametrize("a", [1e-200, 1e-80, 1e60, 1e100])
    def test_extreme_coupling_stays_finite(self, a):
        for u, k_f, rho in ((1.0, 4.0, 1.0), (0.3, 2.5, 1.7)):
            g = GateN4(a=a, U=u)
            fast = flux_report(g, MomentumDistribution.constant(rho), k_f)
            with np.errstate(over="ignore"):  # (1 + 2a^2)(1 + 2a^2 w) at a = 1e100
                slow = flux_report(g, self._plain(rho), k_f)
            for part in ("below_threshold", "above_threshold", "total"):
                x = getattr(fast, part)
                assert np.isfinite(x) and x >= 0.0
                assert abs(x - getattr(slow, part)) <= 1e-12

    @pytest.mark.parametrize("a, u, k_f", [
        (1e-200, 1.0, 4.0),  # beta underflows to 0: delta = -1 and a zero scale
        (1e-9, 1.0, 4.0),  # beta = 2e-18: delta = -1 exactly, scale > 0
        # delta = -2^-52 and +2^-52; no double a gives delta = 0 exactly.
        (FLAT_A, 1.0, 4.0),
        (float(np.nextafter(FLAT_A, 1.0)), 1.0, 4.0),
        # k_F one ulp above sqrt(U).
        (0.9, 1.0, float(np.nextafter(1.0, 2.0))),
        (1e5, 2.25, float(np.nextafter(1.5, 2.0))),
    ], ids=["beta-0", "delta-minus-1", "delta-minus-ulp", "delta-plus-ulp",
            "kF-ulp-above", "kF-ulp-above-large-a"])
    def test_branch_edges_match_quadrature_over_k(self, a, u, k_f):
        # Within 1e-12 absolute: the quadrature over k meets no more there.
        g = GateN4(a=a, U=u)
        fast = flux_report(g, MomentumDistribution.constant(1.3), k_f)
        slow = flux_report(g, self._plain(1.3), k_f)
        for part in ("below_threshold", "above_threshold", "total"):
            x = getattr(fast, part)
            assert np.isfinite(x) and x >= 0.0
            assert abs(x - getattr(slow, part)) <= 1e-12, part

    @pytest.mark.parametrize("a", [1.5, 3.0, 10.0])
    def test_tail_is_continuous_where_its_evaluation_switches(self, a):
        # The tail is one Kronrod panel for |x| <= 1 and the antiderivative
        # beyond, x = (beta - 1) w_F/(1 + w_F). Across adjacent k_F on the two
        # sides of x = 1 it must grow by rho k P(k) times the step.
        g = GateN4(a=a, U=1.0)
        beta = 2.0 * a * a

        def x(k_f):  # as the route forms it, sqrt(U) = 1
            w = math.sqrt((k_f - 1.0) * (k_f + 1.0)) / k_f
            return (beta - 1.0) * (w / (1.0 + w))

        w_switch = 1.0 / (beta - 2.0)  # T = 1/(beta - 1)
        k_in = 1.0 / math.sqrt(1.0 - w_switch * w_switch)
        while x(k_in) > 1.0:
            k_in = float(np.nextafter(k_in, 0.0))
        while x(float(np.nextafter(k_in, 2.0))) <= 1.0:
            k_in = float(np.nextafter(k_in, 2.0))
        k_out = float(np.nextafter(k_in, 2.0))
        j_in, j_out = (flux_report(g, RHO, k).above_threshold for k in (k_in, k_out))
        step = 0.5 * (k_in * n4_transmission(g, k_in) + k_out * n4_transmission(g, k_out))
        assert abs(j_out - j_in - step * (k_out - k_in)) <= 2e-15 * j_in

    @pytest.mark.parametrize(
        "case", FLUX_REFERENCE, ids=lambda c: f"a={c['a']!r}-U={c['U']!r}-kF={c['k_F']!r}")
    def test_above_threshold_matches_40_digit_reference(self, case):
        # The w-quadrature this replaced met only an absolute 1e-12: it was
        # 1.1e-14, 2.2e-3 and 0.37 relative off at a = 200, 1e3 and 1e5.
        rep = flux_report(GateN4(a=case["a"], U=case["U"]),
                          MomentumDistribution.constant(case["rho"]), case["k_F"])
        want = float(case["above_threshold"])
        assert abs(rep.above_threshold - want) <= 2e-15 * want

    def test_reference_keeps_its_edge_rows(self):
        def x(c):
            k_th = math.sqrt(c["U"])
            w = math.sqrt((c["k_F"] - k_th) * (c["k_F"] + k_th)) / c["k_F"]
            return abs(2.0 * c["a"] * c["a"] - 1.0) * w / (1.0 + w)

        assert {200.0, 1e3, 1e5} <= {c["a"] for c in FLUX_REFERENCE}
        assert any(c["k_F"] <= math.sqrt(c["U"]) * (1 + 1.01e-6) for c in FLUX_REFERENCE)
        assert any(0.0 < abs(2.0 * c["a"] * c["a"] - 1.0) < 1e-11 for c in FLUX_REFERENCE)
        assert any(0.95 < x(c) <= 1.0 for c in FLUX_REFERENCE)
        assert any(1.0 < x(c) < 1.05 for c in FLUX_REFERENCE)

    def test_answers_without_adaptive_quadrature(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature on the V = 0 constant-density route")

        monkeypatch.setattr(analysis, "integrate", refuse)
        monkeypatch.setattr(numerics, "integrate", refuse)
        assert flux_report(GateN4(a=0.9, U=1.0), RHO, 3.0).above_threshold > 0.0
        argv = ["report", "flux", "--a", "0.9", "--rho", "1", "--U", "1", "--kF", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--U-grid", "0.25,0.5,1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["curve"]) == 3

    @pytest.mark.parametrize("a", [1e155, 1e200, 1e300])
    def test_finite_where_beta_overflows(self, a):
        # beta = 2a^2 is inf; both parts, of order ln(beta)/beta^2, are 0.
        # (The quadrature over k is no reference here: its a**2 overflows.)
        for u, k_f, rho in ((1.0, 4.0, 1.0), (0.3, 2.5, 1.7)):
            rep = flux_report(GateN4(a=a, U=u), MomentumDistribution.constant(rho), k_f)
            assert (rep.below_threshold, rep.above_threshold, rep.total) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("k_f", [np.inf, np.nan, 0.0])
    def test_fermi_momentum_must_be_positive_and_finite(self, k_f):
        calls = []

        def density(k):
            calls.append(k)
            if len(calls) > 1000:
                raise RuntimeError("flux_report integrated over a bad k_F")
            return 1.0

        for dist in (RHO, MomentumDistribution(density)):
            with pytest.raises(ValueError, match="k_F"):
                flux_report(GateN4(a=0.9, U=1.0), dist, k_f)

    def test_non_finite_density_raises(self):
        calls = []

        def density(k):
            calls.append(k)
            if len(calls) > 1000:
                raise RuntimeError("the quadrature kept calling a nan density")
            return np.nan

        with pytest.raises(ValueError, match="integrand"):
            flux_report(GateN4(a=0.9, U=1.0), MomentumDistribution(density), 3.0)


def _sqrt_mapped_gauss_legendre(f, edges, nodes=40, panels=4):
    """Fixed-node Gauss-Legendre integral of the vectorized ``f`` over
    consecutive pieces of ``edges``. Each half piece is mapped by
    k = end +- t^2 from its outer end, which makes a square-root cusp at a
    piece edge smooth in t."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for p, q in zip(edges[:-1], edges[1:]):
        for end, sign in ((p, 1.0), (q, -1.0)):
            bounds = np.linspace(0.0, np.sqrt(0.5 * (q - p)), panels + 1)
            for t0, t1 in zip(bounds[:-1], bounds[1:]):
                t = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x
                total += 0.5 * (t1 - t0) * np.sum(w * 2 * t * f(end + sign * t * t))
    return total
