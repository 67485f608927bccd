import dataclasses

import numpy as np
import pytest

from qstar import numerics, scattering
from qstar import (
    ChannelSet,
    ClosedIncomingChannelError,
    DimensionMismatchError,
    FilterN3,
    GateN4,
    ScatteringMatrix,
    SingularSystemError,
    final_state,
    make_delta,
    make_st_form,
    n3_amplitudes,
    n3_transmission,
    n4_amplitudes,
    probabilities,
    smatrix,
    wavefunction,
)

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

    @pytest.mark.parametrize("device, k, line, at_peak", [
        (FilterN3(a=1.0, b=3.0, U=1.0), 1.0, 3, True),
        (GateN4(a=1.0, U=1.0), 1.0, 3, True),
        (GateN4(a=1.0, U=1.0, V=0.25), 1.0, 3, False),
        (GateN4(a=1.0, U=1.0, V=0.25), 0.5, 4, False),
    ], ids=["filter", "gate", "band-U", "band-V"])
    def test_threshold_is_the_decoupling_limit(self, device, k, line, at_peak):
        # On E = U_j, k_j = 0: row and column j vanish off the diagonal and
        # S_jj = -1. Column 1 is the closed form's on every line that is
        # open or on its threshold, and P21 is the V = 0 devices' peak.
        sm = smatrix(device.boundary_condition(), device.channels(k))
        S, j = sm.S, line - 1
        assert S[j, j] == -1.0
        assert not np.delete(S[j], j).any() and not np.delete(S[:, j], j).any()
        # A line on its threshold counts as closed: no flux goes into it,
        # and its incoming column is flagged, as every closed line's is.
        p = probabilities(sm)
        closed = k * k <= np.array(device.potentials)
        assert closed[j] and not p[j, ~closed].any() and np.isnan(p[:, closed]).all()
        amplitudes = n3_amplitudes if isinstance(device, FilterN3) else n4_amplitudes
        want = np.array(amplitudes(device, k))
        reached = k * k >= np.array(device.potentials)
        assert np.abs(S[reached, 0] - want[reached]).max() <= 1e-12 * np.abs(want).max()
        if at_peak:
            assert abs(abs(S[1, 0]) ** 2 - device.peak_transmission) <= 1e-12

    def test_threshold_resonance_is_a_singular_system(self):
        # A free line pair at zero kinetic energy: A + iBK = A is singular.
        with pytest.raises(SingularSystemError) as info:
            smatrix(make_delta(2, 0.0), ChannelSet(2, (1.0, 1.0), 1.0))
        err = info.value
        assert (err.energy, err.estimate, err.limit) == (1.0, np.inf, np.sqrt(2) / numerics.PIVOT_FLOOR)
        assert str(err) == ("wave-matching system singular at E=1.0: "
                            "condition estimate inf at or above 1.414e+14")

    def test_threshold_limit_from_below(self, filter_n3):
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(1.0 - 1e-8))
        assert abs(abs(sm.S[1, 0]) ** 2 - 1.0) < 1e-6

    def test_threshold_approach_from_above_matches_closed_form(self, filter_n3):
        # Just above the threshold the square-root cusp shows: the value is
        # 1 - O(b^2 sqrt(eps)), so compare against the closed form, not 1.
        k = 1.0 + 1e-8
        sm = smatrix(filter_n3.boundary_condition(), filter_n3.channels(k))
        assert abs(abs(sm.S[1, 0]) ** 2 - n3_transmission(filter_n3, k)) < 1e-10


    @pytest.mark.parametrize("layout", ["column-slice", "fortran"])
    def test_diagonal_update_ignores_the_solver_layout(self, monkeypatch, gate_n4, layout):
        # S = -I + K^1/2 X must not depend on how the solver lays X out: a
        # reshape of a non-contiguous X is a copy, and an update through it
        # would be lost.
        bc, ch = gate_n4.boundary_condition(), gate_n4.channels(1.3)
        want = smatrix(bc, ch).S
        solve, returned = scattering.solve_linear, []

        def relaid(a, b):
            x = solve(a, b)
            if layout == "fortran":
                x = np.asfortranarray(x)
            else:  # the first columns of a wider array, as from [x | y]
                wide = np.zeros((x.shape[0], 2 * x.shape[1]), dtype=x.dtype)
                wide[:, : x.shape[1]] = x
                x = wide[:, : x.shape[1]]
            returned.append(x)
            return x

        monkeypatch.setattr(scattering, "solve_linear", relaid)
        got = smatrix(bc, ch).S
        assert len(returned) == 1 and not returned[0].flags.c_contiguous
        assert got.tobytes() == want.tobytes()


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

    def test_value_and_derivative_off_the_vertex(self):
        # psi_i(x) = S_ij e^{ik_i x}/sqrt(k_i) + delta_ij e^{-ik_j x}/sqrt(k_j),
        # term by term, and psi' its x-derivative, on every line.
        rng = rng_for("wave-off-vertex")
        for _ in range(25):
            bc = random_st_coupling(rng)
            ch = random_channels(rng, bc.n)
            open_lines = np.flatnonzero(ch.open_mask())
            if open_lines.size == 0:
                continue
            j = int(open_lines[0])
            wave = final_state(bc, ch, j)
            k, s = ch.momenta(), wave.amplitudes
            x = float(rng.uniform(0.0, 3.0))
            out = s * np.exp(1j * k * x) / np.sqrt(k)
            inc = np.where(np.arange(bc.n) == j, np.exp(-1j * k * x) / np.sqrt(k), 0.0)
            scale = np.abs(out) + np.abs(inc)
            for i in range(bc.n):
                assert abs(wave.value(i, x) - (out[i] + inc[i])) <= 1e-15 * scale[i] * 4
                assert abs(wave.derivative(i, x) - 1j * k[i] * (out[i] - inc[i])) <= (
                    1e-15 * abs(k[i]) * scale[i] * 4)
            vals, ders = wave.boundary_vectors()
            assert vals.tolist() == [wave.value(i, 0.0) for i in range(bc.n)]
            assert ders.tolist() == [wave.derivative(i, 0.0) for i in range(bc.n)]

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

    def test_line_on_its_threshold_rejected(self, filter_n3):
        # S_31 = 0 there, but the wave's 1/sqrt(k_3) is not defined.
        ch = ChannelSet(3, (0.0, 0.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="line 3 sits on its threshold at energy 1.0"):
            final_state(filter_n3.boundary_condition(), ch, 0)

    def test_bad_line_or_position_rejected(self, filter_n3):
        ch, bc = filter_n3.channels(1.5), filter_n3.boundary_condition()
        with pytest.raises(DimensionMismatchError, match="line index 3 out of range"):
            final_state(bc, ch, 3)
        with pytest.raises(ValueError, match="outward coordinate"):
            wavefunction(bc, ch, 0, -0.5, 1)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError, match="coupling degree 3 != channel count 2"):
            smatrix(make_delta(3, 1.0), ChannelSet(2, (0.0, 0.0), 1.0))


class TestChannelSet:
    def test_momenta_branch(self):
        ch = ChannelSet(3, (0.0, 0.0, 1.0), 0.25)
        k = ch.momenta()
        assert k[0] == pytest.approx(0.5)
        assert k[2] == pytest.approx(1j * np.sqrt(0.75), abs=1e-15)
        assert list(ch.open_mask()) == [True, True, False]

    def test_momenta_bits_match_the_real_difference(self):
        # Oracle: E - U_i rounded in float64, then made complex (+0j).
        rng = rng_for("channel-momenta-bits")
        for _ in range(200):
            n = int(rng.integers(2, 17))
            pots = tuple(rng.uniform(-3.0, 5.0, size=n).tolist())
            on_threshold = float(rng.uniform(1e-3, 5.0))  # E == U_j
            pots = pots[:-1] + (on_threshold,)
            for energy in (float(rng.uniform(1e-3, 6.0)), on_threshold):
                ch = ChannelSet(n, pots, energy)
                u = np.array(pots, dtype=np.float64)
                want = np.sqrt(np.asarray(energy - u, dtype=np.complex128))
                got = ch.momenta()
                assert got.dtype == np.complex128
                assert got.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(Exception):
            ChannelSet(1, (0.0,), 1.0)
        with pytest.raises(Exception):
            ChannelSet(3, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            ChannelSet(2, (0.0, np.inf), 1.0)
        with pytest.raises(ValueError, match="energy must be finite"):
            ChannelSet(2, (0.0, 0.0), np.nan)

    def test_momentum_whose_energy_overflows_is_refused(self):
        with pytest.raises(ValueError, match=r"momentum 1e\+200 is too large"):
            ChannelSet.at_momentum((0.0, 0.0), 1e200)
        assert ChannelSet.at_momentum((0.0, 0.0), 1e154).energy == 1e154**2

    def test_momentum_whose_energy_underflows_is_refused(self):
        with pytest.raises(ValueError, match=r"momentum 1e-200 is too small: "
                                             r"its energy k\^2 underflows to 0"):
            ChannelSet.at_momentum((0.0, 0.0), 1e-200)
        assert ChannelSet.at_momentum((0.0, 0.0), 1e-160).energy == 1e-160**2 > 0

    def test_nonpositive_energy_rejected(self):
        bc = make_st_form(2, 1, [[1.0]])
        with pytest.raises(ValueError):
            smatrix(bc, ChannelSet(2, (0.0, 0.0), -1.0))

    @pytest.mark.parametrize("energy", [0.0, -0.0, -1.0])
    def test_nonpositive_energy_rejected_at_construction(self, energy):
        with pytest.raises(ValueError, match=f"energy must be positive, got {energy!r}"):
            ChannelSet(2, (0.0, 0.0), energy)


def _smatrix_oracle(bc, ch):
    """S by the module formula, written as plain numpy expressions: the
    momenta from the float64 differences E - U_i, A + i B K in one
    expression, and one LAPACK solve of [b | I]."""
    n = bc.n
    k = np.sqrt(np.asarray(ch.energy - np.array(ch.potentials), dtype=np.complex128))
    sqrt_k = np.sqrt(k)
    b = bc.B * (2j * sqrt_k)
    xy = np.linalg.solve(bc.A + bc.B * (1j * k), np.concatenate((b, np.eye(n)), axis=1))
    s = np.ascontiguousarray(xy[:, :n])
    s *= sqrt_k[:, None]
    s.flat[:: n + 1] -= 1.0
    return s


class TestSmatrixBits:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_st_and_delta_couplings_match_the_oracle(self, n):
        rng = rng_for(f"smatrix-bits-{n}")
        for _ in range(6):
            m = int(rng.integers(1, n))
            t = rng.normal(size=(m, n - m)) + 1j * rng.normal(size=(m, n - m))
            for bc in (make_st_form(n, m, t), make_delta(n, float(rng.normal()))):
                ch = random_channels(rng, n)
                assert smatrix(bc, ch).S.tobytes() == _smatrix_oracle(bc, ch).tobytes()


class TestScatteringMatrixRecord:
    def test_fields_are_the_matrix_and_its_channels(self):
        assert [f.name for f in dataclasses.fields(ScatteringMatrix)] == ["S", "channels"]

    def test_record_holds_the_channels_it_was_solved_for(self, filter_n3):
        ch = filter_n3.channels(0.5)
        sm = smatrix(filter_n3.boundary_condition(), ch)
        assert sm.channels is ch
        assert np.isnan(probabilities(sm)[:, 2]).all()  # line 3 closed at k = 0.5
