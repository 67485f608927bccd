"""The S-matrix engine against an independent ST-form formula.

For the scale-invariant coupling of an m x (n-m) block T (``make_st_form``)
and per-line momenta k_i = sqrt(E - U_i) on the principal branch,

    S = -I + 2 [I; T~^H] (I + T~ T~^H)^-1 [I, T~],
    T~[mu, nu] = T[mu, nu] sqrt(k_(m+nu) / k_mu),

where T~^H conjugates T but not the momentum ratio, so the formula also
holds for closed (evanescent) lines. It shares no code with the engine,
which solves (A K^-1 + i B K) S = -(A K^-1 - i B K).
"""

import numpy as np
import pytest

from qstar import ChannelSet, make_st_form, smatrix

from conftest import random_channels, rng_for

SAMPLES = 60
TOL = 1e-12


def st_oracle(T, potentials, energy):
    T = np.asarray(T, dtype=np.complex128)
    m, n = T.shape[0], sum(T.shape)
    k = np.sqrt(np.asarray(energy - np.asarray(potentials), dtype=np.complex128))
    ratio = np.sqrt(k[None, m:] / k[:m, None])
    t = T * ratio
    t_h = T.conj().T * ratio.T
    middle = np.linalg.inv(np.eye(m) + t @ t_h)
    return -np.eye(n) + 2 * np.vstack([np.eye(m), t_h]) @ middle @ np.hstack([np.eye(m), t])


def random_block(rng):
    """Seeded m x (n-m) block with n <= 8, real or complex."""
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, n))
    T = rng.uniform(-3.0, 3.0, size=(m, n - m))
    if rng.random() < 0.5:
        T = T + 1j * rng.uniform(-3.0, 3.0, size=T.shape)
    return n, m, T


def _cases(name):
    rng = rng_for(name)
    for _ in range(SAMPLES):
        n, m, T = random_block(rng)
        yield n, m, T, random_channels(rng, n)


def _scale(S):
    return max(1.0, float(np.abs(S).max()))


def test_engine_matches_st_oracle():
    for n, m, T, ch in _cases("st-oracle-engine"):
        S = smatrix(make_st_form(n, m, T), ch).S
        want = st_oracle(T, ch.potentials, ch.energy)
        assert np.abs(S - want).max() <= TOL * _scale(want), (T, ch)


def test_open_block_is_unitary():
    for n, m, T, ch in _cases("st-oracle-unitarity"):
        sm = smatrix(make_st_form(n, m, T), ch)
        assert sm.unitarity_defect() <= TOL, (T, ch)
        open_ = np.flatnonzero(ch.open_mask())
        block = st_oracle(T, ch.potentials, ch.energy)[np.ix_(open_, open_)]
        assert np.abs(block.conj().T @ block - np.eye(open_.size)).max(initial=0.0) <= TOL


@pytest.mark.parametrize("momenta", [(0.3, 2.7), (1e-3, 40.0)])
def test_scale_invariant_without_potentials(momenta):
    rng = rng_for("st-oracle-scale")
    for _ in range(SAMPLES):
        n, m, T = random_block(rng)
        bc = make_st_form(n, m, T)
        S1, S2 = (smatrix(bc, ChannelSet.at_momentum((0.0,) * n, k)).S for k in momenta)
        want = st_oracle(T, (0.0,) * n, 1.0)
        assert np.abs(S1 - S2).max() <= TOL
        assert np.abs(S1 - want).max() <= TOL
