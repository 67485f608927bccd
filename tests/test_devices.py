import numpy as np
import pytest

from qstar import (
    FilterN3,
    GateN4,
    MomentumDistribution,
    n3_amplitudes,
    n3_transmission,
    n4_amplitudes,
    n4_transmission,
    probabilities,
    smatrix,
)

from conftest import rng_for

FLAT_A = 1 / np.sqrt(2)


@pytest.fixture
def f3():
    return FilterN3(a=1.0, b=3.0, U=1.0)


@pytest.fixture
def g4():
    return GateN4(a=1.0, U=1.0)


@pytest.fixture
def flat():
    return GateN4(a=FLAT_A, U=1.0)


class TestFilterAmplitudes:
    def test_perfect_threshold_values(self, f3):
        s11, s21, s31 = n3_amplitudes(f3, 1.0)
        assert s21 == pytest.approx(1.0, abs=1e-12)
        assert s11 == pytest.approx(0.0, abs=1e-12)
        assert s31 == pytest.approx(0.0, abs=1e-12)

    def test_zero_potential_momentum_independent(self):
        f = FilterN3(a=1.0, b=3.0, U=0.0)
        for k in (0.1, 1.0, 50.0):
            assert n3_amplitudes(f, k)[1] == pytest.approx(2 / 11, abs=1e-14)

    def test_plugin_value_above_threshold(self, f3):
        assert n3_amplitudes(f3, np.sqrt(2.0))[1] == pytest.approx(
            2 / (2 + 9 / np.sqrt(2)), abs=1e-14
        )

    def test_flux_conservation_below_threshold(self, f3):
        for k in np.linspace(0.05, 0.999, 40):
            s11, s21, _ = n3_amplitudes(f3, k)
            assert abs(s11) ** 2 + abs(s21) ** 2 == pytest.approx(1.0, abs=1e-10)


class TestFilterTransmission:
    def test_threshold_peak(self, f3):
        assert n3_transmission(f3, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_high_momentum_limit(self, f3):
        assert n3_transmission(f3, 1e3) == pytest.approx(4 / 121, abs=1e-4)

    def test_below_threshold_value(self, f3):
        assert n3_transmission(f3, 0.5) == pytest.approx(4 / 247, abs=1e-15)

    def test_monotone_each_side_and_peak_at_threshold(self, f3):
        ks = np.linspace(0.01, 3.0, 1200)
        p = n3_transmission(f3, ks)
        assert ks[int(np.argmax(p))] == pytest.approx(1.0, abs=0.01)
        below = p[ks <= 0.999]
        above = p[ks >= 1.001]
        assert (np.diff(below) > 0).all()
        assert (np.diff(above) < 0).all()

    def test_momentum_scaling_in_u_over_ksq(self):
        # P depends on U and k only through U/k^2
        f1 = FilterN3(a=1.0, b=3.0, U=1.0)
        f4 = FilterN3(a=1.0, b=3.0, U=4.0)
        for k in (0.4, 0.9, 1.3, 2.7):
            assert n3_transmission(f4, 2 * k) == pytest.approx(
                n3_transmission(f1, k), rel=1e-12
            )


class TestGateAmplitudes:
    def test_low_momentum_limits(self, g4):
        s11, s21, s31, s41 = n4_amplitudes(g4, 1e-4)
        assert abs(s11) ** 2 == pytest.approx(4 / 9, abs=1e-4)
        assert abs(s21) ** 2 == pytest.approx(1 / 9, abs=1e-4)
        assert abs(s41) ** 2 == pytest.approx(4 / 9, abs=1e-4)
        assert s31 == 0.0
        total = abs(s11) ** 2 + abs(s21) ** 2 + abs(s41) ** 2
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_threshold_value(self, g4):
        assert n4_transmission(g4, 1.0) == pytest.approx(4 / 9, abs=1e-12)

    def test_high_momentum_limit(self, g4):
        assert n4_transmission(g4, 1e3) == pytest.approx(0.0, abs=1e-4)

    def test_drain_amplitude_is_momentum_independent(self, g4):
        # S41 simplifies to 2a/(1+2a^2) on both sides of the threshold.
        for k in (0.2, 0.8, 1.3, 7.0):
            assert abs(n4_amplitudes(g4, k)[3] - 2 / 3) < 1e-12

    def test_flux_conservation_below_threshold(self, g4):
        for k in np.linspace(0.05, 0.999, 40):
            s11, s21, _, s41 = n4_amplitudes(g4, k)
            total = abs(s11) ** 2 + abs(s21) ** 2 + abs(s41) ** 2
            assert total == pytest.approx(1.0, abs=1e-10)


class TestFlatFilter:
    def test_quarter_below_threshold_exact(self, flat):
        assert n4_transmission(flat, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_constancy_of_passband(self, flat):
        ks = np.linspace(1e-3, 1.0, 200)
        p = n4_transmission(flat, ks)
        assert p.max() - p.min() < 1e-12

    def test_above_threshold_formula(self, flat):
        w = np.sqrt(1 - 1 / 2)
        expected = 0.25 * ((1 - w) / (1 + w)) ** 2
        assert n4_transmission(flat, np.sqrt(2.0)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_flat_flag(self, flat, g4):
        assert flat.flat and not g4.flat

    def test_peak_is_a_quarter(self, flat):
        assert flat.peak_transmission == pytest.approx(0.25, rel=1e-15)
        assert flat.peak_transmission == pytest.approx(n4_transmission(flat, 1.0), rel=1e-15)

    @pytest.mark.parametrize("a", [1e80, 1e100, 1e150, 1e200])
    def test_gate_properties_at_extreme_coupling(self, a):
        # beta = 2a^2 stays a product: no OverflowError from a**4.
        g = GateN4(a=a)
        assert g.peak_transmission == 1.0
        assert not g.flat


def _n3_rational(f, k):
    """Two-branch rational form of the three-line transmission, finite for
    k -> 0: an independent oracle for |S21|^2."""
    a2, b2 = f.a**2, f.b**2
    below = k**2 <= f.U
    kb, ka = k[below], k[~below]
    p = np.empty_like(k)
    p[below] = 4 * a2 * kb**2 / ((1 + a2) ** 2 * kb**2 + b2**2 * (f.U - kb**2))
    p[~below] = 4 * a2 / (1 + a2 + b2 * np.sqrt(1.0 - f.U / ka**2)) ** 2
    return p


def _n4_rational(g, k):
    """The same two-branch rational form for the gate (V=0), with 1 - w
    written as (U/k^2)/(1 + w) so that it does not cancel for k >> sqrt(U)."""
    a2 = g.a**2
    below = k**2 <= g.U
    kb, ka = k[below], k[~below]
    p = np.empty_like(k)
    p[below] = 4 * a2**2 * g.U / (
        (1 + 2 * a2) ** 2 * ((1 - 4 * a2**2) * kb**2 + 4 * a2**2 * g.U)
    )
    w = np.sqrt(1.0 - g.U / ka**2)
    p[~below] = 4 * a2**2 * (g.U / ka**2 / (1 + w)) ** 2 / (
        (1 + 2 * a2) ** 2 * (1 + 2 * a2 * w) ** 2
    )
    return p


FILTERS = [FilterN3(1.0, 3.0, 1.0), FilterN3(0.3, 0.7, 2.5),
           FilterN3(2.0, 5.0, 0.01), FilterN3(1.0, 3.0, 0.0)]
GATES = [GateN4(FLAT_A, 1.0), GateN4(1.0, 1.0), GateN4(0.4, 3.0),
         GateN4(2.5, 0.2), GateN4(1.0, 0.0)]


class TestOneFormula:
    """Each transmission is |S21|^2 of the amplitude expression."""

    @pytest.mark.parametrize("f", FILTERS)
    def test_n3_transmission_is_abs_s21_squared(self, f):
        ks = np.geomspace(1e-6, 1e3, 997)
        p = n3_transmission(f, ks)
        assert np.array_equal(p, np.abs(n3_amplitudes(f, ks)[1]) ** 2)

    @pytest.mark.parametrize("g", GATES)
    def test_n4_transmission_is_abs_s21_squared(self, g):
        ks = np.geomspace(1e-6, 1e3, 997)
        p = n4_transmission(g, ks)
        assert np.array_equal(p, np.abs(n4_amplitudes(g, ks)[1]) ** 2)

    @pytest.mark.parametrize("f", FILTERS)
    def test_n3_matches_rational_forms_down_to_tiny_k(self, f):
        ks = np.geomspace(1e-12, 1e4, 20001)
        np.testing.assert_allclose(
            n3_transmission(f, ks), _n3_rational(f, ks), rtol=1e-14, atol=0
        )

    @pytest.mark.parametrize("g", GATES)
    def test_n4_matches_rational_forms_down_to_tiny_k(self, g):
        ks = np.geomspace(1e-12, 1e4, 20001)
        np.testing.assert_allclose(
            n4_transmission(g, ks), _n4_rational(g, ks), rtol=1e-14, atol=0
        )


def _random_gate(rng, mode):
    """Seeded gate with V = 0, 0 < V < U, V = U or V > U."""
    a = float(rng.uniform(0.2, 2.5))
    U = float(rng.uniform(0.1, 3.0))
    V = {"zero": 0.0, "band": float(rng.uniform(0.01, 0.99)) * U, "equal": U,
         "above": float(rng.uniform(1.01, 3.0)) * U}[mode]
    return GateN4(a=a, U=U, V=V)


class TestBandFilter:
    """The gate formulas with a drain potential V on line 4."""

    def test_passband_window(self):
        g = GateN4(a=FLAT_A, U=1.0, V=0.25)
        band = n4_transmission(g, np.linspace(0.52, 0.99, 30)).mean()
        low = n4_transmission(g, np.linspace(0.02, 0.49, 30)).mean()
        high = n4_transmission(g, np.linspace(1.02, 2.0, 30)).mean()
        assert band > low
        assert band > high

    def test_low_momentum_suppressed(self):
        g = GateN4(a=FLAT_A, U=1.0, V=0.25)
        assert n4_transmission(g, 0.1) < n4_transmission(g, 0.7)

    def test_closed_form_matches_engine(self):
        # Momenta below sqrt(V), between the thresholds and above sqrt(U).
        rng = rng_for("band-closed-form")
        for _ in range(40):
            a = float(rng.uniform(0.2, 2.5))
            U = float(rng.uniform(0.1, 3.0))
            V = float(rng.uniform(0.0, 0.95 * U))
            g = GateN4(a=a, U=U, V=V)
            ks = np.concatenate([
                np.sqrt(V) * rng.uniform(0.05, 0.999, 3),
                np.sqrt(V) + (np.sqrt(U) - np.sqrt(V)) * rng.uniform(0.001, 0.999, 3),
                np.sqrt(U) * rng.uniform(1.001, 5.0, 3),
            ])
            # Beyond ~5 sqrt(U) the transmission falls below 1e-8 and the
            # engine's S21, a difference of order-1 terms, loses digits: up
            # to 1.2e-11 relative near 20 sqrt(U) against a 40-digit value,
            # where the closed form stays within 1e-15.
            engine = np.array([
                abs(smatrix(g.boundary_condition(), g.channels(k)).S[1, 0]) ** 2 for k in ks
            ])
            np.testing.assert_allclose(
                n4_transmission(g, ks), engine, rtol=1e-11, atol=0
            )

    @pytest.mark.parametrize("mode", ["zero", "band", "equal", "above"])
    def test_all_amplitudes_match_engine(self, mode):
        # |S_i1|^2 against the engine's probabilities, which are 0 on a
        # closed line as the step cutoff makes them.
        rng = rng_for(f"gate-amplitudes-{mode}")
        for _ in range(25):
            g = _random_gate(rng, mode)
            k_max = 5.0 * max(np.sqrt(g.U), np.sqrt(g.V))
            for k in rng.uniform(0.01, k_max, 8):
                engine = probabilities(smatrix(g.boundary_condition(), g.channels(k)))[:, 0]
                closed = np.abs(np.array(n4_amplitudes(g, k))) ** 2
                np.testing.assert_allclose(closed, engine, rtol=1e-11, atol=1e-19,
                                           err_msg=f"{g!r} at k={k!r}")

    def test_no_transmission_when_drain_matches_control(self):
        rng = rng_for("gate-equal-potentials")
        for _ in range(10):
            g = _random_gate(rng, "equal")
            t = np.sqrt(g.U)
            ks = np.concatenate([[t], t * rng.uniform(0.01, 5.0, 50)])
            assert (n4_amplitudes(g, ks)[1] == 0).all()

    @pytest.mark.parametrize("g", [GateN4(0.83, 1.3, 0.5), GateN4(FLAT_A, 1.0, 0.25),
                                   GateN4(1.0, 1.0), GateN4(0.6, 2.0, 2.0),
                                   GateN4(0.9, 0.7, 1.9)], ids=repr)
    def test_finite_on_the_thresholds(self, g):
        # Continuous through sqrt(U) and sqrt(V) up to the square-root cusp
        # of the opening line, 3e-6 to 6e-6 here over a relative step of
        # 1e-12; the cusp steepens with a (1.1e-5 at a = 1.4, U = 0.7, V = 1.9).
        for t in {np.sqrt(g.U), np.sqrt(g.V)} - {0.0}:
            at = np.abs(np.array(n4_amplitudes(g, t))) ** 2
            assert np.isfinite(at).all()
            for side in (1.0 - 1e-12, 1.0 + 1e-12):
                near = np.abs(np.array(n4_amplitudes(g, t * side))) ** 2
                assert np.abs(at - near).max() <= 1e-5, (t, side, at, near)

    @pytest.mark.parametrize("g", GATES, ids=repr)
    def test_zero_drain_shortcut_is_the_general_formula(self, g):
        # V = 0 takes w_V = 1 without a square root; the smallest positive
        # V goes through the general branch and must give the same bits.
        ks = np.geomspace(1e-6, 1e3, 997)
        tiny = GateN4(a=g.a, U=g.U, V=5e-324)
        for zero, general in zip(n4_amplitudes(g, ks), n4_amplitudes(tiny, ks)):
            assert np.array_equal(np.abs(zero) ** 2, np.abs(general) ** 2)


class TestEngineEquivalenceIncludingPrefactor:
    def test_filter_probability_grid(self, f3):
        bc = f3.boundary_condition()
        for k in np.linspace(0.05, 5.0, 173):
            if abs(k - 1.0) < 1e-9:
                continue
            sm = smatrix(bc, f3.channels(float(k)))
            p = probabilities(sm)
            s11, s21, s31 = n3_amplitudes(f3, float(k))
            assert abs(p[1, 0] - abs(s21) ** 2) < 1e-10
            assert abs(p[0, 0] - abs(s11) ** 2) < 1e-10
            assert abs(p[2, 0] - abs(s31) ** 2) < 1e-10

    def test_gate_probability_grid(self, flat):
        bc = flat.boundary_condition()
        for k in np.linspace(0.05, 5.0, 173):
            if abs(k - 1.0) < 1e-9:
                continue
            sm = smatrix(bc, flat.channels(float(k)))
            p = probabilities(sm)
            s11, s21, s31, s41 = n4_amplitudes(flat, float(k))
            assert abs(p[1, 0] - abs(s21) ** 2) < 1e-10
            assert abs(p[2, 0] - abs(s31) ** 2) < 1e-10
            assert abs(p[3, 0] - abs(s41) ** 2) < 1e-10


class TestParameterValidation:
    def test_positive_couplings_required(self):
        with pytest.raises(ValueError):
            FilterN3(a=0.0, b=1.0)
        with pytest.raises(ValueError):
            FilterN3(a=1.0, b=-2.0)
        with pytest.raises(ValueError):
            GateN4(a=-1.0)
        with pytest.raises(ValueError):
            GateN4(a=1.0, U=-0.5)
        with pytest.raises(ValueError, match="controlling potential U"):
            FilterN3(a=1.0, b=1.0, U=-0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, bad):
        for make in (lambda: FilterN3(a=bad, b=1.0), lambda: FilterN3(a=1.0, b=bad),
                     lambda: FilterN3(a=1.0, b=3.0, U=bad), lambda: GateN4(a=bad),
                     lambda: GateN4(a=1.0, U=bad), lambda: GateN4(a=1.0, U=1.0, V=bad)):
            with pytest.raises(ValueError, match="finite"):
                make()

    def test_sharp_peak_flag(self):
        assert FilterN3(a=1.0, b=3.0).sharp_peak
        assert FilterN3(a=1.0, b=3.0).peak_sharpness == 3.0
        assert not FilterN3(a=1.0, b=1.5).sharp_peak
        assert not FilterN3(a=0.5, b=3.0).sharp_peak

    def test_peak_height_is_one_only_at_unit_a(self):
        assert FilterN3(a=1.0, b=3.0).peak_transmission == 1.0
        assert FilterN3(a=2.0, b=3.0).peak_transmission < 1.0


class TestMomentumDistribution:
    def test_constant(self):
        dist = MomentumDistribution.constant(2.0)
        assert dist.density(0.7) == 2.0
        assert dist.rho == 2.0

    def test_only_a_constant_density_exposes_rho(self):
        assert MomentumDistribution.tabulated([0.0, 1.0], [1.0, 1.0]).rho is None
        assert MomentumDistribution(lambda k: 1.0).rho is None

    def test_tabulated_interpolates(self):
        dist = MomentumDistribution.tabulated([0.0, 1.0], [0.0, 2.0])
        assert dist.density(0.5) == pytest.approx(1.0)

    def test_tabulated_copies_its_tables(self):
        ks, vals = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0])
        dist = MomentumDistribution.tabulated(ks, vals)
        ks[1], vals[1] = 1.5, -5.0
        assert dist.density(1.0) == 2.0
        assert dist.knots == (0.0, 1.0, 2.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            MomentumDistribution.constant(-1.0)
        with pytest.raises(ValueError):
            MomentumDistribution.tabulated([0.0, 1.0], [0.5, -0.5])
        with pytest.raises(ValueError):
            MomentumDistribution.tabulated([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="matching 1-D"):
            MomentumDistribution.tabulated([0.0, 1.0, 2.0], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MomentumDistribution.constant(bad)
        with pytest.raises(ValueError, match="finite"):
            MomentumDistribution.tabulated([0.0, 1.0], [0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            MomentumDistribution.tabulated([0.0, bad], [0.5, 0.5])
