"""The S-matrix engine against an independent ST-form formula.

For the scale-invariant coupling of an m x (n-m) block T (``make_st_form``)
and per-line momenta k_i = sqrt(E - U_i) on the principal branch,

    S = -I + 2 [I; T~^H] (I + T~ T~^H)^-1 [I, T~],
    T~[mu, nu] = T[mu, nu] sqrt(k_(m+nu) / k_mu),

where T~^H conjugates T but not the momentum ratio, so the formula also
holds for closed (evanescent) lines. It shares no code with the engine,
which solves (A K^-1 + i B K) S = -(A K^-1 - i B K). The delta chains of
``build_recipe`` are checked against it too, on stand-in targets with a
random real T.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from qstar import (
    ChannelSet,
    build_recipe,
    compound_smatrix,
    make_st_form,
    smatrix,
)
from qstar.analysis import _second_sheet_det
from qstar.assembly import MAGNETIC, V5_DELTA

from conftest import random_channels, rng_for

SAMPLES = 60
TOL = 1e-12


def scaled_block(T, k):
    """(T~, T~^H) of the block T for the per-line momenta k."""
    m = T.shape[0]
    ratio = np.sqrt(k[None, m:] / k[:m, None])
    return T * ratio, T.conj().T * ratio.T


def st_oracle(T, potentials, energy):
    T = np.asarray(T, dtype=np.complex128)
    m, n = T.shape[0], sum(T.shape)
    k = np.sqrt(np.asarray(energy - np.asarray(potentials), dtype=np.complex128))
    t, t_h = scaled_block(T, k)
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


def test_second_sheet_det_matches_st_oracle():
    # Poles are the zeros of det(I + T~ T~^H), the inverse in the oracle.
    # With k_j = k w_j, det(K_in) det(I + T~ T~^H) = k^m D(k), where D is
    # the real determinant that locate_pole root-finds: above every
    # threshold, with one line of positive potential on its second sheet.
    rng = rng_for("st-oracle-second-sheet-det")
    for _ in range(SAMPLES):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        T = rng.uniform(-3.0, 3.0, size=(m, n - m))
        potentials = rng.uniform(0.1, 4.0, size=n)
        k = np.sqrt(potentials.max()) * rng.uniform(1.01, 3.0)
        momenta = np.sqrt(k * k - potentials).astype(np.complex128)
        flipped = int(rng.integers(n))
        momenta[flipped] = -momenta[flipped]
        t, t_h = scaled_block(T.astype(np.complex128), momenta)
        want = np.prod(momenta[:m]) * np.linalg.det(np.eye(m) + t @ t_h) / k**m
        w = [float(x) for x in np.sqrt(1.0 - potentials / k**2)]
        w[flipped] = -w[flipped]
        D = _second_sheet_det(T.tolist(), w)
        assert abs(D - want) <= TOL * abs(want), (T, potentials, k, flipped)


@dataclass(frozen=True)
class _Target:
    """Stand-in device: ``build_recipe`` reads only these two fields."""

    coupling: tuple
    potentials: tuple


def _chain_distances(T, ch, variant, ds):
    """Largest |S_chain - S_oracle| of the recipe chain of T at each d."""
    target = _Target(tuple(map(tuple, T.tolist())), ch.potentials)
    want = st_oracle(T, ch.potentials, ch.energy)
    chains = [compound_smatrix(build_recipe(target, d, variant), ch.energy).S
              for d in ds]
    return [float(np.abs(S - want).max()) for S in chains], chains


def _orthogonal_rows(rng, m, p):
    """m x p block with orthogonal rows of random norms (any row if m = 1)."""
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    return rng.uniform(0.3, 2.0, size=(m, 1)) * q[:m]


CHAIN_D = (1e-2, 1e-3, 1e-4, 1e-5)


@pytest.mark.parametrize("variant", [MAGNETIC, V5_DELTA])
def test_chain_of_orthogonal_rows_converges_at_first_order(variant):
    rng = rng_for(f"st-oracle-chain-{variant}")
    for case in range(8):
        n = int(rng.integers(2, 8))
        m = 1 if case < 3 else int(rng.integers(1, n // 2 + 1))
        T = _orthogonal_rows(rng, m, n - m)
        ch = random_channels(rng, n)
        errors, _ = _chain_distances(T, ch, variant, CHAIN_D)
        # C from the d = 1e-2 and 1e-3 rows; a 10% margin absorbs the
        # second-order term, which raises err/d by at most 0.2% in these cases.
        C = max(e / d for e, d in zip(errors[:2], CHAIN_D[:2]))
        for e, d in zip(errors[2:], CHAIN_D[2:]):
            assert e <= 1.1 * C * d, (T, ch, errors)


def test_chain_of_non_orthogonal_rows_converges_elsewhere():
    # The chain still converges at first order in d, but to the S-matrix of
    # another vertex, a distance of order 1 from that of T.
    rng = rng_for("st-oracle-chain-non-orthogonal")
    for _ in range(6):
        n = int(rng.integers(4, 8))
        T = rng.uniform(-2.0, 2.0, size=(2, n - 2))
        ch = random_channels(rng, n)
        errors, chains = _chain_distances(T, ch, MAGNETIC, CHAIN_D)
        steps = [float(np.abs(a - b).max()) for a, b in zip(chains, chains[1:])]
        assert steps[2] < 0.2 * steps[0], (T, ch, steps)
        assert min(errors) > 0.1, (T, ch, errors)


def test_threshold_decouples_the_opening_line():
    # As E -> U_j+ for a line j of the second group, k_j -> 0 and S on the
    # other lines tends to the S-matrix of T with column j deleted, which is
    # the exact limit; the distance is O(sqrt(delta)) for E = U_j (1 + delta).
    rng = rng_for("st-oracle-threshold-decoupling")
    for _ in range(12):
        n, m, T = random_block(rng)
        j = int(rng.integers(m, n))
        while True:
            pots = rng.uniform(0.0, 4.0, size=n)
            pots[j] = rng.uniform(0.5, 4.0)
            if np.abs(np.delete(pots, j) - pots[j]).min() > 1e-3:
                break
        keep = [i for i in range(n) if i != j]
        bc = make_st_form(n, m, T)
        distances = []
        for delta in (1e-6, 1e-8):
            energy = pots[j] * (1 + delta)
            S = smatrix(bc, ChannelSet(n, tuple(pots), energy)).S[np.ix_(keep, keep)]
            want = st_oracle(np.delete(T, j - m, axis=1), pots[keep], energy)
            distances.append(float(np.abs(S - want).max()))
        assert 8.0 <= distances[0] / distances[1] <= 12.0, (T, pots, j, distances)
