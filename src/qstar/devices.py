"""Closed-form models of the two filter devices.

Both are star graphs with a scale-invariant vertex, input on line 1,
output on line 2, and a controlling potential U on line 3. The three-line
filter (parameters a, b) passes a resonance peak pinned at the threshold
momentum sqrt(U); the four-line gate (parameter a, plus a drain line 4)
acts as a sluice gate, and at a = 1/sqrt(2) as a flat filter with constant
passband transmission 1/4.

Each device is fixed by its ``coupling``, the ST block T of its vertex as a
tuple of real rows: [[a, b]] for the filter, [[a, a], [a, -a]] for the gate.
The boundary condition, the channels and the threshold are built from T and
the per-line ``potentials`` in one place, and so are the delta chains of
:mod:`qstar.assembly`.

Amplitudes are evaluated with w = sqrt(1 - U/k^2) on the principal branch,
so below threshold w = i sqrt(U/k^2 - 1) and the formulas continue
analytically; transmission into the closed line 3 carries an explicit
step-function cutoff. Each device writes its amplitude denominator once
(``denominator(w)``), and each transmission is |S21|^2 of the one S21
expression; all of them need k above ~1e-150, where U/k^2 overflows.

The same denominator with w flipped to -sqrt(1 - U/k^2) (the second sheet)
vanishes at the resonance pole behind the threshold peak; each device also
carries that pole's closed form (``pole``), or None where it does not exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .exceptions import InvalidBandError
# No formula here calls ``smatrix``; the binding stays because perfbench's
# tracer self-test reads ``qstar.devices.smatrix``.
from .scattering import ChannelSet, nudge_off_threshold, smatrix  # noqa: F401
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
        return (2 * self.a / (1 + self.a**2)) ** 2

    #: Existence condition of :attr:`pole`, for error messages.
    pole_condition = "b^2 > 1 + a^2"

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
    def high_momentum_transmission(self) -> float:
        return (2 * self.a / (1 + self.a**2 + self.b**2)) ** 2

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

    def denominator(self, w):
        """Amplitude denominator 1 + a^2 + b^2 w, w = sqrt(1 - U/k^2)."""
        return 1 + self.a**2 + self.b**2 * w


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
        """Transmission at the threshold momentum, 4a^4/(1+2a^2)^2."""
        return 4 * self.a**4 / (1 + 2 * self.a**2) ** 2

    #: Existence condition of :attr:`pole`, for error messages.
    pole_condition = "a > 1/sqrt(2)"

    @property
    def pole(self) -> float | None:
        """Closed-form second-sheet pole 2a^2 sqrt(U)/sqrt(4a^4 - 1), or None
        unless a > 1/sqrt(2) and U > 0. Raises InvalidBandError for V != 0,
        where the closed forms do not hold."""
        _require_zero_drain(self)
        # Discriminants within 1e-12 of critical count as poleless, as for
        # FilterN3.pole: the double closest to 1/sqrt(2) is marginally above
        # critical, and the flat gate has no pole.
        disc = 4 * self.a**4 - 1
        if self.U <= 0 or not disc > 1e-12:
            return None
        return float(2 * self.a**2 * np.sqrt(self.U) / np.sqrt(disc))

    @property
    def low_momentum_transmission(self) -> float:
        return 1 / (1 + 2 * self.a**2) ** 2

    @property
    def flat(self) -> bool:
        """Flat-filter mode: 4a^4 = 1, i.e. a = 1/sqrt(2)."""
        return abs(4 * self.a**4 - 1.0) < 1e-12

    @property
    def potentials(self) -> tuple[float, ...]:
        """Per-line potentials (0, 0, U, V)."""
        return (0.0, 0.0, self.U, self.V)

    @property
    def coupling(self) -> tuple[tuple[float, ...], ...]:
        """Coupling block T = [[a, a], [a, -a]]."""
        return ((self.a, self.a), (self.a, -self.a))

    def denominator(self, w):
        """Amplitude denominator (1 + 2a^2)(1 + 2a^2 w) of the V=0 mode,
        w = sqrt(1 - U/k^2)."""
        return (1 + 2 * self.a**2) * (1 + 2 * self.a**2 * w)


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


def _n3_s21(f: FilterN3, k: np.ndarray):
    """S21 = 2a/(1 + a^2 + b^2 w) of the three-line filter, with w and the
    denominator the other amplitudes share."""
    w = _branch(f.U, k)
    den = f.denominator(w)
    return 2 * f.a / den, w, den


def n3_amplitudes(f: FilterN3, k):
    """(S11, S21, S31) of the three-line filter; vectorized over k > 0."""
    k_arr = np.asarray(k, dtype=np.float64)
    scalar = k_arr.ndim == 0
    s21, w, den = _n3_s21(f, k_arr)
    s11 = (1 - f.a**2 - f.b**2 * w) / den
    s31 = 2 * f.b * _quartic_open(f.U, k_arr) / den
    return _scalarize(scalar, s11, s21, s31)


def n3_transmission(f: FilterN3, k):
    """Input -> output transmission |S21|^2 of the three-line filter.

    Grows on (0, sqrt(U)), peaks at the threshold, decays beyond it; one
    expression serves both sides and stays accurate as k -> 0.
    """
    return np.abs(_n3_s21(f, np.asarray(k, dtype=np.float64))[0]) ** 2


def _require_zero_drain(g: GateN4) -> None:
    if g.V != 0.0:
        raise InvalidBandError(f"closed forms hold only for V=0, got V={g.V!r}")


def _n4_s21(g: GateN4, k: np.ndarray):
    """S21 = 2a^2 (1 - w)/((1 + 2a^2)(1 + 2a^2 w)) of the gate (V=0), with
    w and the denominator the other amplitudes share."""
    w = _branch(g.U, k)
    den = g.denominator(w)
    return 2 * g.a**2 * (1 - w) / den, w, den


def n4_amplitudes(g: GateN4, k):
    """(S11, S21, S31, S41) of the four-line gate in the standard V=0 mode."""
    _require_zero_drain(g)
    k_arr = np.asarray(k, dtype=np.float64)
    scalar = k_arr.ndim == 0
    a = g.a
    s21, w, den = _n4_s21(g, k_arr)
    s11 = (1 - 4 * a**4 * w) / den
    s31 = 2 * a * (1 + 2 * a**2) * _quartic_open(g.U, k_arr) / den
    s41 = (2 * a + 4 * a**3 * w) / den
    return _scalarize(scalar, s11, s21, s31, s41)


def n4_transmission(g: GateN4, k):
    """Input -> output transmission |S21|^2 of the gate (V=0).

    Constant 1/4 below threshold in the flat-filter mode a = 1/sqrt(2);
    one expression serves both sides and stays accurate as k -> 0.
    """
    _require_zero_drain(g)
    return np.abs(_n4_s21(g, np.asarray(k, dtype=np.float64))[0]) ** 2


def band_filter_transmission(g: GateN4, k):
    """Input -> output transmission |S21|^2 with a drain potential 0 <= V < U.

    S21 = 2a^2 (w_V - w_U)/((1 + 2a^2 w_U)(1 + 2a^2 w_V)) with
    w_X = sqrt(1 - X/k^2) on the principal branch, where the difference is
    written as ((U - V)/k^2)/(w_U + w_V) so that it does not cancel for
    k >> sqrt(U). With V > 0 the gate passes mainly momenta in
    [sqrt(V), sqrt(U)] (a tunable band filter). Momenta on a threshold move
    as on a CLI grid (:func:`scattering.nudge_off_threshold`). Band-mode
    flux reports call this; the CLI band sweep does not, it solves the
    engine once per grid point for all four columns.
    """
    if not 0 <= g.V < g.U:
        raise InvalidBandError(f"need 0 <= V < U, got V={g.V!r}, U={g.U!r}")
    k_arr = nudge_off_threshold(np.atleast_1d(k), g.potentials)
    beta = 2 * g.a**2
    w_u, w_v = _branch(g.U, k_arr), _branch(g.V, k_arr)
    s21 = beta * ((g.U - g.V) / k_arr**2) / ((w_u + w_v) * (1 + beta * w_u) * (1 + beta * w_v))
    out = np.abs(s21) ** 2
    return float(out[0]) if np.asarray(k).ndim == 0 else out


class MomentumDistribution:
    """Nonnegative density of incoming momenta, rho(k)."""

    #: Momenta where the density has kinks (the knots of a table).
    knots: tuple[float, ...] = ()
    #: The value of a :meth:`constant` density, None for any other.
    rho: float | None = None

    def __init__(self, density_fn, label: str):
        self._density = density_fn
        self.label = label

    @classmethod
    def constant(cls, rho: float) -> "MomentumDistribution":
        """Flat distribution (filled Fermi sea below the working range)."""
        if not 0 <= rho < np.inf:
            raise ValueError(f"density must be finite and nonnegative, got {rho!r}")
        dist = cls(lambda k: rho, f"constant({rho!r})")
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

        dist = cls(interp, "tabulated")
        dist.knots = tuple(ks.tolist())
        return dist

    def density(self, k: float) -> float:
        return float(self._density(k))
