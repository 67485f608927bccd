"""Scattering matrix of a star graph with per-line constant potentials.

For energy E, line i carries momentum k_i = sqrt(E - U_i) on the principal
branch: real and nonnegative for open channels, +i sqrt(U_i - E) for
closed (evanescent) ones, so continued amplitudes decay away from the
vertex. With K = diag(sqrt(k_i)) the scattering matrix solves

    (A K^-1 + i B K) S = -(A K^-1 - i B K),

which follows from matching the final-state waves

    psi_ij(x) = delta_ij exp(-i k_j x)/sqrt(k_j)
                + S_ij exp(+i k_i x)/sqrt(k_i)

against the vertex condition A Psi(0) + B Psi'(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AtThresholdError,
    ClosedIncomingChannelError,
    DimensionMismatchError,
)
from .numerics import solve_linear
from .vertex import BoundaryCondition

#: Relative width of the excluded band around each channel threshold.
THRESHOLD_TOL = 1e-14

#: Relative step that moves a momentum off a threshold it coincides with.
THRESHOLD_NUDGE = 1e-8


def nudge_off_threshold(momenta, potentials) -> np.ndarray:
    """Copy of ``momenta`` with points within 1e-12*max(1, t) of a threshold
    t = sqrt(U) > 0 moved to t*(1 + THRESHOLD_NUDGE), clear of THRESHOLD_TOL."""
    ks = np.array(momenta, dtype=np.float64)
    for u in potentials:
        if u <= 0:
            continue
        t = np.sqrt(u)
        coincident = np.abs(ks - t) <= 1e-12 * max(1.0, t)
        ks[coincident] = t * (1.0 + THRESHOLD_NUDGE)
    return ks


@dataclass(frozen=True)
class ChannelSet:
    """Per-line potentials and the common energy E = k^2."""

    n: int
    potentials: tuple[float, ...]
    energy: float

    def __post_init__(self):
        if self.n < 2:
            raise DimensionMismatchError(f"need n >= 2 lines, got {self.n}")
        pots = tuple(float(u) for u in self.potentials)
        if len(pots) != self.n:
            raise DimensionMismatchError(
                f"expected {self.n} potentials, got {len(pots)}"
            )
        if not all(np.isfinite(pots)):
            raise ValueError("potentials must be finite")
        if not np.isfinite(self.energy):
            raise ValueError("energy must be finite")
        object.__setattr__(self, "potentials", pots)

    @classmethod
    def at_momentum(cls, potentials, k: float) -> "ChannelSet":
        """Channels at reference momentum k (energy k^2)."""
        pots = tuple(float(u) for u in potentials)
        return cls(len(pots), pots, float(k) ** 2)

    def momenta(self) -> np.ndarray:
        """Complex momenta k_i = sqrt(E - U_i), principal branch."""
        u = np.array(self.potentials, dtype=np.float64)
        return np.sqrt(np.asarray(self.energy - u, dtype=np.complex128))

    def open_mask(self) -> np.ndarray:
        return self.energy > np.array(self.potentials)

    def assert_evaluable(self):
        """Raise ValueError unless E > 0, and AtThresholdError when E
        coincides with any U_i, where the momentum matrix K is singular."""
        if self.energy <= 0:
            raise ValueError(f"energy must be positive, got {self.energy!r}")
        for i, u in enumerate(self.potentials):
            if abs(self.energy - u) < THRESHOLD_TOL * max(abs(self.energy), abs(u)):
                raise AtThresholdError(self.energy, i + 1, u)


@dataclass(frozen=True)
class ScatteringMatrix:
    """S-matrix at one energy, with the open-channel mask.

    Restricted to open channels S is flux-unitary; rows/columns of closed
    channels hold the analytically continued amplitudes.
    """

    S: np.ndarray
    k: float
    open_mask: np.ndarray

    @property
    def n(self) -> int:
        return self.S.shape[0]

    def unitarity_defect(self) -> float:
        """max_j |sum_(i open) |S_ij|^2 - 1| over open incoming j."""
        open_idx = np.flatnonzero(self.open_mask)
        if open_idx.size == 0:
            return 0.0
        block = self.S[np.ix_(open_idx, open_idx)]
        sums = np.sum(np.abs(block) ** 2, axis=0)
        return float(np.abs(sums - 1.0).max())


def smatrix(bc: BoundaryCondition, ch: ChannelSet) -> ScatteringMatrix:
    """Evaluate the S-matrix of ``bc`` for the channels ``ch``."""
    if bc.n != ch.n:
        raise DimensionMismatchError(
            f"coupling degree {bc.n} != channel count {ch.n}"
        )
    ch.assert_evaluable()
    sqrt_k = np.sqrt(ch.momenta())
    lhs = bc.A / sqrt_k[None, :] + 1j * bc.B * sqrt_k[None, :]
    rhs = -(bc.A / sqrt_k[None, :] - 1j * bc.B * sqrt_k[None, :])
    s = solve_linear(lhs, rhs)
    return ScatteringMatrix(S=s, k=float(np.sqrt(ch.energy)), open_mask=ch.open_mask())


def probabilities(sm: ScatteringMatrix) -> np.ndarray:
    """Transmission/reflection probabilities |S_ij|^2.

    Entries into a closed line i (i != j) are zero — evanescent channels
    carry no flux. Columns of closed incoming lines are not physical and
    are flagged NaN.
    """
    p = np.abs(sm.S) ** 2
    open_ = np.asarray(sm.open_mask, dtype=bool)
    p[~open_, :] = 0.0
    p[:, ~open_] = np.nan
    return p


@dataclass(frozen=True)
class FinalStateWave:
    """Final-state wave for a unit flux coming in on line ``j`` (0-based).

    Evaluation uses psi_ij(x) with outward coordinate x >= 0 on every
    line; closed lines decay with the continued momentum.
    """

    j: int
    momenta: np.ndarray
    amplitudes: np.ndarray  # S[:, j]

    def value(self, i: int, x: float) -> complex:
        k = self.momenta
        out = self.amplitudes[i] * np.exp(1j * k[i] * x) / np.sqrt(k[i])
        if i == self.j:
            out += np.exp(-1j * k[self.j] * x) / np.sqrt(k[self.j])
        return complex(out)

    def derivative(self, i: int, x: float) -> complex:
        k = self.momenta
        out = 1j * k[i] * self.amplitudes[i] * np.exp(1j * k[i] * x) / np.sqrt(k[i])
        if i == self.j:
            out += -1j * k[self.j] * np.exp(-1j * k[self.j] * x) / np.sqrt(k[self.j])
        return complex(out)

    def boundary_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(Psi(0), Psi'(0)) across all lines."""
        n = self.momenta.shape[0]
        vals = np.array([self.value(i, 0.0) for i in range(n)])
        ders = np.array([self.derivative(i, 0.0) for i in range(n)])
        return vals, ders


def final_state(bc: BoundaryCondition, ch: ChannelSet, j: int) -> FinalStateWave:
    """Final-state wave for incoming line ``j`` (0-based); ``j`` must be open."""
    if not 0 <= j < ch.n:
        raise DimensionMismatchError(f"line index {j} out of range for n={ch.n}")
    if not ch.open_mask()[j]:
        raise ClosedIncomingChannelError(
            f"line {j + 1} is closed at energy {ch.energy!r}"
        )
    sm = smatrix(bc, ch)
    return FinalStateWave(j=j, momenta=ch.momenta(), amplitudes=sm.S[:, j].copy())


def wavefunction(bc: BoundaryCondition, ch: ChannelSet, j: int, x: float, i: int) -> complex:
    """psi_ij(x): component on line ``i`` of the wave incoming on ``j``."""
    if x < 0:
        raise ValueError("x is the outward coordinate and must be >= 0")
    return final_state(bc, ch, j).value(i, x)
