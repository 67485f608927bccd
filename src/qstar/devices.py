"""Closed-form models of the two filter devices.

Both are star graphs with a scale-invariant vertex, input on line 1,
output on line 2, and a controlling potential U on line 3. The three-line
filter (parameters a, b) passes a resonance peak pinned at the threshold
momentum sqrt(U); the four-line gate (parameter a, plus a drain line 4)
acts as a sluice gate, and at a = 1/sqrt(2) as a flat filter with constant
passband transmission 1/4.

Amplitudes are evaluated with w = sqrt(1 - U/k^2) on the principal branch,
so below threshold w = i sqrt(U/k^2 - 1) and the formulas continue
analytically; transmission into the closed line 3 carries an explicit
step-function cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidBandError
from .scattering import ChannelSet, smatrix
from .vertex import BoundaryCondition, make_st_form

#: b/a ratio beyond which the three-line filter is flagged sharp-peaked.
SHARP_PEAK_RATIO = 3.0


@dataclass(frozen=True)
class FilterN3:
    """Three-line spectral filter: coupling parameters (a, b), controlling
    potential U on line 3."""

    a: float
    b: float
    U: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("coupling parameters a, b must be positive")
        if self.U < 0:
            raise ValueError("controlling potential U must be nonnegative")

    @property
    def threshold(self) -> float:
        return float(np.sqrt(self.U))

    @property
    def peak_transmission(self) -> float:
        """Transmission at the threshold momentum, (2a/(1+a^2))^2; equals 1
        iff a = 1."""
        return (2 * self.a / (1 + self.a**2)) ** 2

    @property
    def high_momentum_transmission(self) -> float:
        return (2 * self.a / (1 + self.a**2 + self.b**2)) ** 2

    @property
    def peak_sharpness(self) -> float:
        """b/a; the peak is sharp when this is large and a >= 1."""
        return self.b / self.a

    @property
    def sharp_peak(self) -> bool:
        return self.a >= 1 and self.peak_sharpness >= SHARP_PEAK_RATIO

    def boundary_condition(self) -> BoundaryCondition:
        return make_st_form(3, 1, [[self.a, self.b]])

    def channels(self, k: float) -> ChannelSet:
        return ChannelSet.at_momentum((0.0, 0.0, self.U), k)


@dataclass(frozen=True)
class GateN4:
    """Four-line sluice gate: coupling parameter a, controlling potential U
    on line 3, drain potential V on line 4 (0 in the standard mode)."""

    a: float
    U: float = 1.0
    V: float = 0.0

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("coupling parameter a must be positive")
        if self.U < 0 or self.V < 0:
            raise ValueError("potentials must be nonnegative")

    @property
    def threshold(self) -> float:
        return float(np.sqrt(self.U))

    @property
    def peak_transmission(self) -> float:
        """Transmission at the threshold momentum, 4a^4/(1+2a^2)^2."""
        return 4 * self.a**4 / (1 + 2 * self.a**2) ** 2

    @property
    def low_momentum_transmission(self) -> float:
        return 1 / (1 + 2 * self.a**2) ** 2

    @property
    def flat(self) -> bool:
        """Flat-filter mode: 4a^4 = 1, i.e. a = 1/sqrt(2)."""
        return abs(4 * self.a**4 - 1.0) < 1e-12

    def boundary_condition(self) -> BoundaryCondition:
        return make_st_form(4, 2, [[self.a, self.a], [self.a, -self.a]])

    @cached_property
    def _band_setup(self) -> tuple[BoundaryCondition, tuple[float, float]]:
        """Boundary condition and thresholds of the band mode, built once
        per gate because a band-mode flux report evaluates one momentum per
        call of :func:`band_filter_transmission`."""
        return self.boundary_condition(), (np.sqrt(self.U), np.sqrt(self.V))

    def channels(self, k: float) -> ChannelSet:
        return ChannelSet.at_momentum((0.0, 0.0, self.U, self.V), k)


def _branch(U: float, k: np.ndarray) -> np.ndarray:
    """sqrt(1 - U/k^2) continued below threshold (principal branch)."""
    return np.sqrt(np.asarray(1.0 - U / k**2, dtype=np.complex128))


def _quartic_open(U: float, k: np.ndarray) -> np.ndarray:
    """(1 - U/k^2)^(1/4) with the step cutoff for the closed channel."""
    ratio = 1.0 - U / k**2
    return np.where(ratio >= 0.0, np.abs(ratio) ** 0.25, 0.0)


def _scalarize(was_scalar: bool, *arrays):
    if was_scalar:
        return tuple(arr[()] for arr in arrays)
    return arrays


def n3_amplitudes(f: FilterN3, k):
    """(S11, S21, S31) of the three-line filter; vectorized over k > 0."""
    k_arr = np.asarray(k, dtype=np.float64)
    scalar = k_arr.ndim == 0
    w = _branch(f.U, k_arr)
    den = 1 + f.a**2 + f.b**2 * w
    s21 = 2 * f.a / den
    s11 = (1 - f.a**2 - f.b**2 * w) / den
    s31 = 2 * f.b * _quartic_open(f.U, k_arr) / den
    return _scalarize(scalar, s11, s21, s31)


def n3_transmission(f: FilterN3, k):
    """Input -> output transmission probability of the three-line filter.

    Grows on (0, sqrt(U)), peaks at the threshold, decays beyond it. Both
    branches are evaluated in forms that stay finite for k -> 0.
    """
    k_arr = np.atleast_1d(np.asarray(k, dtype=np.float64))
    a2, b2 = f.a**2, f.b**2
    below = k_arr**2 <= f.U
    p = np.empty_like(k_arr)
    kb = k_arr[below]
    # below threshold: 4 a^2 k^2 / ((1+a^2)^2 k^2 + b^4 (U - k^2))
    p[below] = 4 * a2 * kb**2 / ((1 + a2) ** 2 * kb**2 + b2**2 * (f.U - kb**2))
    ka = k_arr[~below]
    p[~below] = 4 * a2 / (1 + a2 + b2 * np.sqrt(1.0 - f.U / ka**2)) ** 2
    return p[0] if np.asarray(k).ndim == 0 else p


def n4_amplitudes(g: GateN4, k):
    """(S11, S21, S31, S41) of the four-line gate in the standard V=0 mode."""
    if g.V != 0.0:
        raise InvalidBandError(
            "closed forms hold for V=0; use band_filter_transmission for V>0"
        )
    k_arr = np.asarray(k, dtype=np.float64)
    scalar = k_arr.ndim == 0
    a = g.a
    w = _branch(g.U, k_arr)
    den = (1 + 2 * a**2) * (1 + 2 * a**2 * w)
    s21 = 2 * a**2 * (1 - w) / den
    s11 = (1 - 4 * a**4 * w) / den
    s31 = 2 * a * (1 + 2 * a**2) * _quartic_open(g.U, k_arr) / den
    s41 = (2 * a + 4 * a**3 * w) / den
    return _scalarize(scalar, s11, s21, s31, s41)


def n4_transmission(g: GateN4, k):
    """Input -> output transmission of the gate (V=0).

    Constant 1/4 below threshold in the flat-filter mode a = 1/sqrt(2).
    Both branches are evaluated in forms that stay finite for k -> 0.
    """
    if g.V != 0.0:
        raise InvalidBandError(
            "closed forms hold for V=0; use band_filter_transmission for V>0"
        )
    k_arr = np.atleast_1d(np.asarray(k, dtype=np.float64))
    a2 = g.a**2
    below = k_arr**2 <= g.U
    p = np.empty_like(k_arr)
    kb = k_arr[below]
    # below threshold: 4 a^4 U / ((1+2a^2)^2 ((1-4a^4) k^2 + 4 a^4 U))
    p[below] = (
        4 * a2**2 * g.U
        / ((1 + 2 * a2) ** 2 * ((1 - 4 * a2**2) * kb**2 + 4 * a2**2 * g.U))
    )
    ka = k_arr[~below]
    w = np.sqrt(1.0 - g.U / ka**2)
    p[~below] = 4 * a2**2 * (1 - w) ** 2 / ((1 + 2 * a2) ** 2 * (1 + 2 * a2 * w) ** 2)
    return p[0] if np.asarray(k).ndim == 0 else p


def _snap_off_threshold(k: float, thresholds, rel: float = 1e-9) -> float:
    """Move k within ``rel`` of a threshold to the same-side nudged point,
    keeping engine evaluations off the singular set. The transmission is
    continuous there, so the induced error is below quadrature noise."""
    for t in thresholds:
        if t > 0 and abs(k - t) < rel * t:
            return t * (1.0 - rel) if k <= t else t * (1.0 + rel)
    return k


def band_filter_transmission(g: GateN4, k):
    """Input -> output transmission with a drain potential 0 <= V < U.

    No closed form exists here; each point is an engine evaluation with
    channel potentials (0, 0, U, V). With V > 0 the gate passes mainly
    momenta in [sqrt(V), sqrt(U)] (a tunable band filter).
    """
    if not 0 <= g.V < g.U:
        raise InvalidBandError(f"need 0 <= V < U, got V={g.V!r}, U={g.U!r}")
    bc, thresholds = g._band_setup
    k_arr = np.atleast_1d(np.asarray(k, dtype=np.float64))
    out = np.empty_like(k_arr)
    for idx, kk in enumerate(k_arr):
        sm = smatrix(bc, g.channels(_snap_off_threshold(float(kk), thresholds)))
        out[idx] = np.abs(sm.S[1, 0]) ** 2
    return float(out[0]) if np.asarray(k).ndim == 0 else out


class MomentumDistribution:
    """Nonnegative density of incoming momenta, rho(k)."""

    #: Momenta where the density has kinks (the knots of a table).
    knots: tuple[float, ...] = ()

    def __init__(self, density_fn, label: str):
        self._density = density_fn
        self.label = label

    @classmethod
    def constant(cls, rho: float) -> "MomentumDistribution":
        """Flat distribution (filled Fermi sea below the working range)."""
        if rho < 0:
            raise ValueError("density must be nonnegative")
        return cls(lambda k: rho, f"constant({rho!r})")

    @classmethod
    def tabulated(cls, ks, values) -> "MomentumDistribution":
        ks = np.asarray(ks, dtype=np.float64)
        vals = np.asarray(values, dtype=np.float64)
        if ks.ndim != 1 or ks.shape != vals.shape or ks.size < 2:
            raise ValueError("need matching 1-D momentum/density tables")
        if (vals < 0).any():
            raise ValueError("density must be nonnegative")
        if (np.diff(ks) <= 0).any():
            raise ValueError("momentum table must be strictly increasing")

        def interp(k, ks=ks, vals=vals):
            return float(np.interp(k, ks, vals))

        dist = cls(interp, "tabulated")
        dist.knots = tuple(ks.tolist())
        return dist

    def density(self, k: float) -> float:
        return float(self._density(k))
