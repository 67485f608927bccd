import numpy as np
import pytest

from qstar import (
    FilterN3,
    GateN4,
    InvalidBandError,
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

FLAT_A = 1 / np.sqrt(2)
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

    def test_no_band_when_peak_too_low(self):
        # peak (2a/(1+a^2))^2 = 0.148 < 1/2 for a = 0.2
        with pytest.raises(NoBandError):
            bandwidth(FilterN3(a=0.2, b=3.0, U=1.0))

    def test_no_band_without_potential(self):
        with pytest.raises(NoBandError):
            bandwidth(FilterN3(a=1.0, b=3.0, U=0.0))

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
        with pytest.raises(NoPoleError):
            locate_pole(GateN4(a=FLAT_A, U=1.0))

    def test_small_b_filter_has_no_pole(self):
        with pytest.raises(NoPoleError):
            locate_pole(FilterN3(a=1.0, b=1.2, U=1.0))  # b^2 < 1 + a^2

    def test_gate_with_drain_potential_has_no_closed_form_pole(self):
        with pytest.raises(InvalidBandError):
            locate_pole(GateN4(a=1.0, U=1.0, V=0.5))

    # (device, k_pole, closed_form, residual), frozen bit for bit.
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
         1.2774514779323456e-12),
        (GateN4(0.75, 0.7), 1.8262787623052124, 1.8262787623052126, 0.0),
        (GateN4(0.708, 1.0), 14.090249313893441, 14.090249313893391, 0.0),
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
        curve = flux_curve(FLAT_A, RHO, 4.0, (0.25, 0.5, 0.75, 1.0))
        assert curve.linearity_deviation() < 0.25

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

    def test_flat_gate_report_call_budget(self):
        calls = []
        dist = MomentumDistribution(lambda k: calls.append(k) or 1.0, "counted")
        flux_report(GateN4(a=FLAT_A, U=1.0), dist, 4.0)
        assert 0 < len(calls) <= 400


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
