"""Closed-form models of the two filter devices.

Both are star graphs with a scale-invariant vertex, input on line 1,
output on line 2, and a controlling potential U on line 3. The three-line
filter (parameters a, b) passes a resonance peak pinned at the threshold
momentum sqrt(U); the four-line gate (parameter a, plus a drain line 4
with potential V) acts as a sluice gate, at a = 1/sqrt(2), V = 0 as a flat
filter with constant passband transmission 1/4, and with 0 < V < U as a
tunable band filter. One set of gate formulas holds for every V >= 0.

Each device is fixed by its ``coupling``, the ST block T of its vertex as a
tuple of real rows: [[a, b]] for the filter, [[a, a], [a, -a]] for the gate.
The boundary condition, the channels and the threshold are built from T and
the per-line ``potentials`` in one place, and so are the delta chains of
:mod:`qstar.assembly`.

Amplitudes are evaluated with w_X = sqrt(1 - X/k^2) on the principal
branch, so below a threshold w_X = i sqrt(X/k^2 - 1) and the formulas
continue analytically; transmission into a closed line (3, or the gate's
drain line 4 below sqrt(V)) carries an explicit step-function cutoff. The
formulas are finite on the thresholds themselves, so they take any k
without the grid nudge of :func:`scattering.nudge_off_threshold`. Each
device's amplitudes share one divisor, written in its S21 function, and
each transmission is |S21|^2 of that S21 expression; all of them need k
above ~1e-150, where U/k^2 overflows.

The resonance pole behind the threshold peak lies on the second sheet,
where w = -sqrt(1 - U/k^2). :func:`analysis.locate_pole` finds it from
``coupling`` and ``potentials`` alone; each device carries the pole's
closed form (``pole``), or None where it does not exist, as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

# Unused here; perfbench's tracer self-test reads ``qstar.devices.smatrix``.
from .scattering import ChannelSet, smatrix  # noqa: F401
from .vertex import BoundaryCondition, make_st_form

#: b/a ratio beyond which the three-line filter is flagged sharp-peaked.
SHARP_PEAK_RATIO = 3.0


class _StarDevice:
    """Vertex and channels shared by the devices, read from their
    ``coupling`` block T and per-line ``potentials``."""

    @property
    def threshold(self) -> float:
        return float(np.sqrt(self.U))

    def boundary_condition(self) -> BoundaryCondition:
        return make_st_form(len(self.potentials), len(self.coupling), self.coupling)

    def channels(self, k: float) -> ChannelSet:
        return ChannelSet.at_momentum(self.potentials, k)

    def _require_finite(self) -> None:
        if not all(map(math.isfinite, chain(self.potentials, *self.coupling))):
            raise ValueError(f"device parameters must be finite, got {self!r}")


@dataclass(frozen=True)
class FilterN3(_StarDevice):
    """Three-line spectral filter: coupling parameters (a, b), controlling
    potential U on line 3."""

    a: float
    b: float
    U: float = 1.0

    def __post_init__(self):
        self._require_finite()
        if not (self.a > 0 and self.b > 0):
            raise ValueError("coupling parameters a, b must be positive")
        if self.U < 0:
            raise ValueError("controlling potential U must be nonnegative")

    @property
    def peak_transmission(self) -> float:
        """Transmission at the threshold momentum, (2a/(1+a^2))^2; equals 1
        iff a = 1."""
        # Products, not powers: an extreme a gives 0 instead of OverflowError.
        root = 2 * self.a / (1 + self.a * self.a)
        return root * root

    @property
    def pole(self) -> float | None:
        """Closed-form second-sheet pole b^2 sqrt(U)/sqrt(b^4 - (1+a^2)^2),
        or None unless b^2 > 1 + a^2 and U > 0."""
        # Discriminants within 1e-12 of critical count as poleless: the pole
        # would sit at k ~ 1e6 sqrt(U), an artifact of parameter rounding.
        disc = self.b**4 - (1 + self.a**2) ** 2
        if self.U <= 0 or not disc > 1e-12 * (1 + self.a**2) ** 2:
            return None
        return float(self.b**2 * np.sqrt(self.U) / np.sqrt(disc))

    @property
    def peak_sharpness(self) -> float:
        """b/a; the peak is sharp when this is large and a >= 1."""
        return self.b / self.a

    @property
    def sharp_peak(self) -> bool:
        return self.a >= 1 and self.peak_sharpness >= SHARP_PEAK_RATIO

    @property
    def potentials(self) -> tuple[float, ...]:
        """Per-line potentials (0, 0, U)."""
        return (0.0, 0.0, self.U)

    @property
    def coupling(self) -> tuple[tuple[float, ...], ...]:
        """Coupling block T = [[a, b]]."""
        return ((self.a, self.b),)


@dataclass(frozen=True)
class GateN4(_StarDevice):
    """Four-line sluice gate: coupling parameter a, controlling potential U
    on line 3, drain potential V on line 4 (0 in the standard mode)."""

    a: float
    U: float = 1.0
    V: float = 0.0

    def __post_init__(self):
        self._require_finite()
        if not self.a > 0:
            raise ValueError("coupling parameter a must be positive")
        if self.U < 0 or self.V < 0:
            raise ValueError("potentials must be nonnegative")

    @property
    def peak_transmission(self) -> float:
        """Transmission at the threshold momentum, (beta/(1+beta))^2 with
        beta = 2a^2: 1/4 on the flat gate, and 1 where beta overflows."""
        beta = 2.0 * self.a * self.a
        return (beta / (1.0 + beta) if beta < math.inf else 1.0) ** 2

    @property
    def pole(self) -> float | None:
        """Closed-form second-sheet pole 2a^2 sqrt(U)/sqrt(4a^4 - 1), or None
        unless a > 1/sqrt(2) and U > 0. It does not depend on V; it is a
        real pole above both thresholds only where it exceeds sqrt(V)."""
        # Discriminants within 1e-12 of critical count as poleless, as for
        # FilterN3.pole: the double closest to 1/sqrt(2) is marginally above
        # critical, and the flat gate has no pole.
        disc = 4 * self.a**4 - 1
        if self.U <= 0 or not disc > 1e-12:
            return None
        return float(2 * self.a**2 * np.sqrt(self.U) / np.sqrt(disc))

    @property
    def flat(self) -> bool:
        """Flat-filter mode: beta^2 = 4a^4 = 1, i.e. a = 1/sqrt(2)."""
        beta = 2.0 * self.a * self.a
        return abs((beta - 1.0) * (beta + 1.0)) < 1e-12

    @property
    def potentials(self) -> tuple[float, ...]:
        """Per-line potentials (0, 0, U, V)."""
        return (0.0, 0.0, self.U, self.V)

    @property
    def coupling(self) -> tuple[tuple[float, ...], ...]:
        """Coupling block T = [[a, a], [a, -a]]."""
        return ((self.a, self.a), (self.a, -self.a))


def _branch(U: float, k: np.ndarray) -> np.ndarray:
    """sqrt(1 - U/k^2) continued below threshold (principal branch)."""
    return np.sqrt(np.asarray(1.0 - U / k**2, dtype=np.complex128))


def _quartic_open(U: float, k: np.ndarray) -> np.ndarray:
    """(1 - U/k^2)^(1/4) with the step cutoff for the closed channel."""
    ratio = 1.0 - U / k**2
    return np.where(ratio >= 0.0, np.abs(ratio) ** 0.25, 0.0)


def _momenta(k):
    """k as a float64 array, or as a numpy scalar when k is a scalar: the
    formulas then return scalars, and scalar arithmetic is several times
    cheaper than that of 0-d arrays (it decides the cost of a flux
    integrand call)."""
    return np.asarray(k, dtype=np.float64)[()]


def _n3_s21(f: FilterN3, k: np.ndarray):
    """S21 = 2a/(1 + a^2 + b^2 w) of the three-line filter, with w and the
    divisor that the other amplitudes share."""
    w = _branch(f.U, k)
    den = 1 + f.a**2 + f.b**2 * w
    return 2 * f.a / den, w, den


def n3_amplitudes(f: FilterN3, k):
    """(S11, S21, S31) of the three-line filter; vectorized over k > 0."""
    k = _momenta(k)
    s21, w, den = _n3_s21(f, k)
    s11 = (1 - f.a**2 - f.b**2 * w) / den
    s31 = 2 * f.b * _quartic_open(f.U, k) / den
    return s11, s21, s31


def n3_transmission(f: FilterN3, k):
    """Input -> output transmission |S21|^2 of the three-line filter.

    Grows on (0, sqrt(U)), peaks at the threshold, decays beyond it; one
    expression serves both sides and stays accurate as k -> 0.
    """
    return np.abs(_n3_s21(f, _momenta(k))[0]) ** 2


def _n4_s21(g: GateN4, k: np.ndarray):
    """S21 = 2a^2 ((U - V)/k^2)/((w_U + w_V) D) of the gate, with w_U, w_V
    and the divisor D that the other amplitudes share.

    This is 2a^2 (w_V - w_U)/D with the difference written as a quotient,
    which does not cancel for k >> sqrt(U), sqrt(V). In the standard mode
    V = 0 the drain line is open at every k and w_V = 1 exactly, taken
    without a square root.
    """
    w_u = _branch(g.U, k)
    w_v = _branch(g.V, k) if g.V else 1.0
    den = (1 + 2 * g.a**2 * w_v) * (1 + 2 * g.a**2 * w_u)
    if g.V == g.U:  # S21 = 0; at k = sqrt(U) the quotient below is 0/0
        return np.zeros_like(w_u)[()], w_u, w_v, den
    # The quotient is w_V - w_U; D divides last, so that an overflowing D
    # gives S21 = 0 rather than inf/inf.
    drop = (g.U - g.V) / k**2 / (w_u + w_v)
    return 2 * g.a**2 * drop / den, w_u, w_v, den


def n4_amplitudes(g: GateN4, k):
    """(S11, S21, S31, S41) of the four-line gate for any drain potential
    V >= 0; vectorized over k > 0."""
    k = _momenta(k)
    a = g.a
    s21, w_u, w_v, den = _n4_s21(g, k)
    s11 = (1 - 4 * a**4 * w_u * w_v) / den
    s31 = 2 * a * (1 + 2 * a**2 * w_v) * _quartic_open(g.U, k) / den
    s41 = (2 * a + 4 * a**3 * w_u) * _quartic_open(g.V, k) / den
    return s11, s21, s31, s41


def n4_transmission(g: GateN4, k):
    """Input -> output transmission |S21|^2 of the gate.

    Constant 1/4 below threshold in the flat-filter mode a = 1/sqrt(2),
    V = 0; with 0 < V < U the gate passes mainly momenta in
    [sqrt(V), sqrt(U)] (a tunable band filter). One expression serves
    every k, stays accurate as k -> 0 and is finite on both thresholds.
    """
    return np.abs(_n4_s21(g, _momenta(k))[0]) ** 2


class MomentumDistribution:
    """Nonnegative density of incoming momenta, rho(k)."""

    #: Momenta where the density has kinks (the knots of a table).
    knots: tuple[float, ...] = ()
    #: The value of a :meth:`constant` density, None for any other.
    rho: float | None = None

    def __init__(self, density_fn):
        self._density = density_fn

    @classmethod
    def constant(cls, rho: float) -> "MomentumDistribution":
        """Flat distribution (filled Fermi sea below the working range)."""
        if not 0 <= rho < np.inf:
            raise ValueError(f"density must be finite and nonnegative, got {rho!r}")
        dist = cls(lambda k: rho)
        dist.rho = rho
        return dist

    @classmethod
    def tabulated(cls, ks, values) -> "MomentumDistribution":
        ks = np.asarray(ks, dtype=np.float64)
        vals = np.asarray(values, dtype=np.float64)
        if ks.ndim != 1 or ks.shape != vals.shape or ks.size < 2:
            raise ValueError("need matching 1-D momentum/density tables")
        if not (np.isfinite(ks).all() and np.isfinite(vals).all()):
            raise ValueError("momentum/density tables must be finite")
        if (vals < 0).any():
            raise ValueError("density must be nonnegative")
        if (np.diff(ks) <= 0).any():
            raise ValueError("momentum table must be strictly increasing")

        def interp(k, ks=ks, vals=vals):
            return float(np.interp(k, ks, vals))

        dist = cls(interp)
        dist.knots = tuple(ks.tolist())
        return dist

    def density(self, k: float) -> float:
        return float(self._density(k))
