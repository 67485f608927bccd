"""Scattering matrix of a star graph with per-line constant potentials.

For energy E, line i carries momentum k_i = sqrt(E - U_i) on the principal
branch: real and nonnegative for open channels, +i sqrt(U_i - E) for
closed (evanescent) ones, so continued amplitudes decay away from the
vertex. With K = diag(k_i), matching the final-state waves

    psi_ij(x) = delta_ij exp(-i k_j x)/sqrt(k_j)
                + S_ij exp(+i k_i x)/sqrt(k_i)

against the vertex condition A Psi(0) + B Psi'(0) = 0 gives
(A + i B K) K^-1/2 (I + S) = 2i B K^1/2, so that

    S = -I + 2i K^1/2 (A + i B K)^-1 B K^1/2

(Kostrykin and Schrader, J. Phys. A 32 (1999) 595). No factor divides by
a momentum, so S is finite on a threshold E = U_j: there k_j = 0, row and
column j vanish off the diagonal and S_jj = -1, the limit in which line j
decouples. For a self-adjoint coupling, A + i B K is singular only where
the vertex has a bound state or a threshold resonance at E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ClosedIncomingChannelError,
    DimensionMismatchError,
    SingularMatrixError,
    SingularSystemError,
)
from .numerics import solve_linear
from .vertex import BoundaryCondition


def momentum_energy(k: float) -> float:
    """Energy k^2 of the momentum k. Raises ValueError unless k is positive
    and finite (k^2 would hide the sign of a negative k) and k^2 is a
    positive float."""
    k = float(k)
    if not 0 < k < np.inf:
        raise ValueError(f"momentum must be positive and finite, got {k!r}")
    try:
        energy = k**2
    except OverflowError:
        raise ValueError(f"momentum {k!r} is too large: its energy k^2 overflows") from None
    if energy == 0.0:
        raise ValueError(f"momentum {k!r} is too small: its energy k^2 underflows to 0")
    return energy


@dataclass(frozen=True)
class ChannelSet:
    """Per-line potentials and the common energy E = k^2 > 0."""

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
        if not all(map(math.isfinite, pots)):
            raise ValueError("potentials must be finite")
        if not math.isfinite(self.energy):
            raise ValueError("energy must be finite")
        if self.energy <= 0:
            raise ValueError(f"energy must be positive, got {self.energy!r}")
        object.__setattr__(self, "potentials", pots)

    @classmethod
    def at_momentum(cls, potentials, k: float) -> "ChannelSet":
        """Channels at reference momentum k (:func:`momentum_energy`)."""
        pots = tuple(float(u) for u in potentials)
        return cls(len(pots), pots, momentum_energy(k))

    def momenta(self) -> np.ndarray:
        """Complex momenta k_i = sqrt(E - U_i), principal branch."""
        u = np.array(self.potentials, dtype=np.float64)
        return np.sqrt(np.asarray(self.energy - u, dtype=np.complex128))

    def open_mask(self) -> np.ndarray:
        return self.energy > np.array(self.potentials)


@dataclass(frozen=True)
class ScatteringMatrix:
    """S-matrix for the channels it was solved for.

    Restricted to open channels S is flux-unitary; rows/columns of closed
    channels hold the analytically continued amplitudes.
    """

    S: np.ndarray
    channels: ChannelSet

    @property
    def n(self) -> int:
        return self.S.shape[0]

    def unitarity_defect(self) -> float:
        """max_j |sum_(i open) |S_ij|^2 - 1| over open incoming j."""
        open_idx = np.flatnonzero(self.channels.open_mask())
        if open_idx.size == 0:
            return 0.0
        block = self.S[np.ix_(open_idx, open_idx)]
        sums = np.sum(np.abs(block) ** 2, axis=0)
        return float(np.abs(sums - 1.0).max())


def smatrix(bc: BoundaryCondition, ch: ChannelSet) -> ScatteringMatrix:
    """Evaluate the S-matrix of ``bc`` for the channels ``ch`` by the
    formula of the module docstring. Raises SingularSystemError, with the
    energy and the solver's condition estimate and limit, where A + i B K
    is singular."""
    if bc.n != ch.n:
        raise DimensionMismatchError(
            f"coupling degree {bc.n} != channel count {ch.n}"
        )
    k = ch.momenta()
    sqrt_k = np.sqrt(k)
    try:
        s = solve_linear(bc.A + bc.B * (1j * k), bc.B * (2j * sqrt_k))
    except SingularMatrixError as exc:
        raise SingularSystemError(ch.energy, exc) from exc
    s *= sqrt_k[:, None]
    s.flat[:: ch.n + 1] -= 1.0  # in logical order, whatever the layout
    return ScatteringMatrix(s, ch)


def probabilities(sm: ScatteringMatrix) -> np.ndarray:
    """Transmission/reflection probabilities |S_ij|^2.

    Entries into a closed line i (i != j) are zero — evanescent channels
    carry no flux. Columns of closed incoming lines are not physical and
    are flagged NaN.
    """
    p = np.abs(sm.S) ** 2
    ch = sm.channels
    # open_mask's rule: a line on its threshold is closed.
    closed = [j for j, u in enumerate(ch.potentials) if not ch.energy > u]
    if closed:
        p[closed, :] = 0.0
        p[:, closed] = np.nan
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

    def _waves(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """(psi, psi') on every line at x: the outgoing parts
        S_ij exp(+i k_i x)/sqrt(k_i) and the incoming part on line j."""
        ik = 1j * self.momenta
        out = self.amplitudes * np.exp(ik * x) / np.sqrt(self.momenta)
        inc = np.zeros_like(out)
        inc[self.j] = np.exp(-ik[self.j] * x) / np.sqrt(self.momenta[self.j])
        return out + inc, ik * (out - inc)

    def value(self, i: int, x: float) -> complex:
        return complex(self._waves(x)[0][i])

    def derivative(self, i: int, x: float) -> complex:
        return complex(self._waves(x)[1][i])

    def boundary_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(Psi(0), Psi'(0)) across all lines."""
        return self._waves(0.0)


def final_state(bc: BoundaryCondition, ch: ChannelSet, j: int) -> FinalStateWave:
    """Final-state wave for incoming line ``j`` (0-based); ``j`` must be
    open, and no line may sit on its threshold, where the wave's
    normalisation 1/sqrt(k_i) is not defined."""
    if not 0 <= j < ch.n:
        raise DimensionMismatchError(f"line index {j} out of range for n={ch.n}")
    if not ch.open_mask()[j]:
        raise ClosedIncomingChannelError(
            f"line {j + 1} is closed at energy {ch.energy!r}"
        )
    momenta = ch.momenta()
    if not momenta.all():
        line = int(np.flatnonzero(momenta == 0)[0]) + 1
        raise ValueError(f"line {line} sits on its threshold at energy {ch.energy!r}: "
                         "its final-state wave is not defined")
    sm = smatrix(bc, ch)
    return FinalStateWave(j=j, momenta=momenta, amplitudes=sm.S[:, j].copy())


def wavefunction(bc: BoundaryCondition, ch: ChannelSet, j: int, x: float, i: int) -> complex:
    """psi_ij(x): component on line ``i`` of the wave incoming on ``j``."""
    if x < 0:
        raise ValueError("x is the outward coordinate and must be >= 0")
    return final_state(bc, ch, j).value(i, x)
