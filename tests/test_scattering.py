import numpy as np
import pytest

from qstar import (
    AtThresholdError,
    ChannelSet,
    ClosedIncomingChannelError,
    FilterN3,
    GateN4,
    final_state,
    make_st_form,
    n3_amplitudes,
    n3_transmission,
    n4_amplitudes,
    probabilities,
    smatrix,
    wavefunction,
)
from qstar.scattering import nudge_off_threshold

from conftest import random_channels, random_st_coupling, rng_for


@pytest.fixture
def filter_n3():
    return FilterN3(a=1.0, b=3.0, U=1.0)


@pytest.fixture
def gate_n4():
    return GateN4(a=1.0, U=1.0)


def engine_grid(lo=0.05, hi=5.0, num=400):
    return np.linspace(lo, hi, num + 1)[1:]


class TestEngineAgainstClosedForms:
    def test_filter_amplitudes(self, filter_n3):
        bc = filter_n3.boundary_condition()
        for k in engine_grid(num=120):
            sm = smatrix(bc, filter_n3.channels(k))
            s11, s21, s31 = n3_amplitudes(filter_n3, k)
            assert abs(sm.S[0, 0] - s11) < 1e-10
            assert abs(sm.S[1, 0] - s21) < 1e-10
            if k > filter_n3.threshold:  # quartic-root flux prefactor
                assert abs(sm.S[2, 0] - s31) < 1e-10

    def test_gate_amplitudes(self, gate_n4):
        bc = gate_n4.boundary_condition()
        for k in engine_grid(num=120):
            sm = smatrix(bc, gate_n4.channels(k))
            s11, s21, s31, s41 = n4_amplitudes(gate_n4, k)
            assert abs(sm.S[0, 0] - s11) < 1e-10
            assert abs(sm.S[1, 0] - s21) < 1e-10
            assert abs(sm.S[3, 0] - s41) < 1e-10
            if k > gate_n4.threshold:
                assert abs(sm.S[2, 0] - s31) < 1e-10

    def test_transmission_value_above_threshold(self, filter_n3):
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(np.sqrt(2.0)))
        assert abs(sm.S[1, 0] - 2.0 / (2.0 + 9.0 / np.sqrt(2.0))) < 1e-12

    def test_threshold_is_excluded(self, filter_n3):
        with pytest.raises(AtThresholdError):
            smatrix(filter_n3.boundary_condition(), filter_n3.channels(1.0))

    def test_threshold_limit_from_below(self, filter_n3):
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(1.0 - 1e-8))
        assert abs(abs(sm.S[1, 0]) ** 2 - 1.0) < 1e-6

    def test_threshold_approach_from_above_matches_closed_form(self, filter_n3):
        # The upward-nudged point keeps the square-root cusp: the value is
        # 1 - O(b^2 sqrt(eps)), so compare against the closed form, not 1.
        k = 1.0 + 1e-8
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(k))
        assert abs(abs(sm.S[1, 0]) ** 2 - n3_transmission(filter_n3, k)) < 1e-10


class TestUnitarityAndSymmetry:
    def test_zero_potential_unitary_and_momentum_independent(self):
        rng = rng_for("scatter-scale-invariance")
        for _ in range(25):
            bc = random_st_coupling(rng)
            zeros = (0.0,) * bc.n
            s1 = smatrix(bc, ChannelSet(bc.n, zeros, 0.01))
            s2 = smatrix(bc, ChannelSet(bc.n, zeros, 100.0))
            assert np.abs(s1.S - s2.S).max() < 1e-12
            assert np.abs(s1.S @ s1.S.conj().T - np.eye(bc.n)).max() < 1e-10

    def test_flux_unitarity_random_couplings(self):
        rng = rng_for("scatter-flux-unitarity")
        for _ in range(200):
            bc = random_st_coupling(rng)
            ch = random_channels(rng, bc.n)
            sm = smatrix(bc, ch)
            assert sm.unitarity_defect() < 1e-10

    def test_two_open_channels_below_threshold(self, filter_n3):
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(0.5))
        total = abs(sm.S[0, 0]) ** 2 + abs(sm.S[1, 0]) ** 2
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_reciprocity_on_equal_momentum_lines(self, filter_n3, gate_n4):
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(1.7))
        assert abs(sm.S[0, 1] - sm.S[1, 0]) < 1e-12  # k1 == k2
        sm4 = smatrix(gate_n4.boundary_condition(), gate_n4.channels(1.7))
        for i, j in ((0, 1), (0, 3), (1, 3)):  # k1 == k2 == k4
            assert abs(sm4.S[i, j] - sm4.S[j, i]) < 1e-12


class TestProbabilities:
    def test_peak_value(self, filter_n3):
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(1.0 - 1e-8))
        assert probabilities(sm)[1, 0] == pytest.approx(1.0, abs=1e-6)

    def test_high_momentum_limit(self, filter_n3):
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(1e3))
        assert probabilities(sm)[1, 0] == pytest.approx(4 / 121, abs=1e-4)

    def test_below_threshold_value(self, filter_n3):
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(0.5))
        p = probabilities(sm)
        assert p[1, 0] == pytest.approx(4 / 247, abs=1e-12)

    def test_closed_channel_flags(self, filter_n3):
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(0.5))
        p = probabilities(sm)
        assert p[2, 0] == 0.0  # no flux into the closed line
        assert np.isnan(p[:, 2]).all()  # closed incoming column is not physical

    def test_open_probabilities_are_moduli_squared(self, gate_n4):
        sm = smatrix(gate_n4.boundary_condition(), gate_n4.channels(2.0))
        p = probabilities(sm)
        assert np.allclose(p, np.abs(sm.S) ** 2)


class TestWavefunction:
    def test_value_at_origin(self, filter_n3):
        ch = filter_n3.channels(1.5)
        bc = filter_n3.boundary_condition()
        sm = smatrix(bc, ch)
        k = ch.momenta()
        for j in range(3):
            psi = wavefunction(bc, ch, j, 0.0, j)
            assert psi == pytest.approx(
                (1 + sm.S[j, j]) / np.sqrt(k[j]), abs=1e-12
            )

    def test_boundary_residual_random(self):
        rng = rng_for("wave-residual")
        for _ in range(25):
            bc = random_st_coupling(rng)
            ch = random_channels(rng, bc.n)
            open_lines = np.flatnonzero(ch.open_mask())
            if open_lines.size == 0:
                continue
            j = int(open_lines[0])
            wave = final_state(bc, ch, j)
            vals, ders = wave.boundary_vectors()
            residual = np.abs(bc.A @ vals + bc.B @ ders).max()
            assert residual < 1e-10

    def test_evanescent_decay(self, filter_n3):
        ch = filter_n3.channels(0.5)
        bc = filter_n3.boundary_condition()
        xs = np.linspace(0.0, 5.0, 30)
        mags = [abs(wavefunction(bc, ch, 0, float(x), 2)) for x in xs]
        assert all(m2 < m1 for m1, m2 in zip(mags, mags[1:]))

    def test_closed_incoming_channel_rejected(self, filter_n3):
        ch = filter_n3.channels(0.5)
        with pytest.raises(ClosedIncomingChannelError):
            wavefunction(filter_n3.boundary_condition(), ch, 2, 0.0, 0)


class TestChannelSet:
    def test_momenta_branch(self):
        ch = ChannelSet(3, (0.0, 0.0, 1.0), 0.25)
        k = ch.momenta()
        assert k[0] == pytest.approx(0.5)
        assert k[2] == pytest.approx(1j * np.sqrt(0.75), abs=1e-15)
        assert list(ch.open_mask()) == [True, True, False]

    def test_validation(self):
        with pytest.raises(Exception):
            ChannelSet(1, (0.0,), 1.0)
        with pytest.raises(Exception):
            ChannelSet(3, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            ChannelSet(2, (0.0, np.inf), 1.0)

    def test_nudge_off_threshold(self):
        ks = np.array([0.5, 1.0 - 1e-13, 1.0 + 1e-11, 2.0])
        moved = nudge_off_threshold(ks, (0.0, -1.0, 1.0, 4.0))
        assert list(moved) == [0.5, 1.0 + 1e-8, 1.0 + 1e-11, 2.0 * (1.0 + 1e-8)]
        assert ks[1] == 1.0 - 1e-13  # the input is not modified

    def test_nonpositive_energy_rejected(self):
        bc = make_st_form(2, 1, [[1.0]])
        with pytest.raises(ValueError):
            smatrix(bc, ChannelSet(2, (0.0, 0.0), -1.0))
