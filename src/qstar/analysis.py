"""Derived device quantities: half-maximum bandwidth, second-sheet
resonance poles, and the flux-control curve J(U).

The resonance pole sits on the unphysical sheet reached by flipping the
sign of sqrt(1 - U/k^2) in the device's own amplitude denominator
(``FilterN3.denominator``, ``GateN4.denominator``); for real k > sqrt(U)
that denominator is real, so a bracketed 1-D root find locates the pole
without any contour machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import (
    FilterN3,
    GateN4,
    MomentumDistribution,
    band_filter_transmission,
    n3_transmission,
    n4_transmission,
)
from .exceptions import NoBandError, NoPoleError
from .numerics import Tolerance, find_root, integrate

#: Empirical coefficient of the sharp-peak bandwidth estimate, W ~ C U/b^4.
BANDWIDTH_COEFFICIENT = 4.7

#: Root-finding tolerance of the band edges in :func:`bandwidth` and of the
#: pole in :func:`locate_pole`.
BANDWIDTH_TOLERANCE = Tolerance(abs_tol=1e-13, rel_tol=4e-16)

#: Quadrature tolerance of :func:`flux_report`.
FLUX_TOLERANCE = Tolerance(abs_tol=1e-12, rel_tol=1e-10)


@dataclass(frozen=True)
class BandReport:
    """Half-maximum band of the three-line filter, in momentum and energy."""

    center_k: float
    k_lo: float
    k_hi: float
    width_energy: float
    approx_width: float

    @property
    def approx_ratio(self) -> float:
        """Measured width over the C*U/b^4 estimate."""
        return self.width_energy / self.approx_width


def bandwidth(f: FilterN3) -> BandReport:
    """Half-maximum band edges of the filter around the threshold peak.

    The edges are located by root finding on P(k) - 1/2 on each side of
    sqrt(U); width is reported in energy (k^2) units. Raises NoBandError
    when the peak does not reach 1/2 (a too far from 1), or when
    transmission never falls back below 1/2 at high momentum (b too
    small).
    """
    if f.U <= 0:
        raise NoBandError("bandwidth needs a positive controlling potential")
    if f.peak_transmission <= 0.5:
        raise NoBandError(
            f"peak transmission {f.peak_transmission:.4g} <= 1/2: no band"
        )
    k_th = f.threshold

    def excess(k: float) -> float:
        return n3_transmission(f, k) - 0.5

    lo = k_th * 1e-3
    while excess(lo) > 0:  # pathological only for tiny b; shrink the bracket
        lo *= 1e-3
        if lo < 1e-300:
            raise NoBandError("no lower half-max edge found")
    k_lo = find_root(excess, lo, k_th, tol=BANDWIDTH_TOLERANCE)

    if f.high_momentum_transmission >= 0.5:
        raise NoBandError(
            "transmission stays above 1/2 at high momentum: unbounded band"
        )
    hi = 2.0 * k_th
    while excess(hi) > 0:
        hi *= 2.0
        if hi > 1e9 * k_th:
            raise NoBandError("no upper half-max edge found")
    k_hi = find_root(excess, k_th, hi, tol=BANDWIDTH_TOLERANCE)

    return BandReport(
        center_k=k_th,
        k_lo=k_lo,
        k_hi=k_hi,
        width_energy=k_hi**2 - k_lo**2,
        approx_width=BANDWIDTH_COEFFICIENT * f.U / f.b**4,
    )


@dataclass(frozen=True)
class PoleReport:
    """Second-sheet pole of the scattering matrix."""

    k_pole: float
    closed_form: float
    residual: float


def locate_pole(device: FilterN3 | GateN4) -> PoleReport:
    """Locate the real second-sheet pole behind the threshold peak.

    Root-finds ``device.denominator`` at w = -sqrt(1 - U/k^2) for
    k > sqrt(U) and reports the closed-form pole ``device.pole`` beside it.
    Raises NoPoleError when the parameters admit no pole, and
    InvalidBandError for a gate with V != 0.
    """
    closed = device.pole
    if closed is None:
        raise NoPoleError(
            f"no second-sheet pole: requires {device.pole_condition} and U > 0"
        )

    def den(k: float) -> float:
        return device.denominator(-np.sqrt(1 - device.U / k**2))

    k_th = float(np.sqrt(device.U))
    lo = k_th * (1 + 1e-12)
    hi = 2.0 * max(closed, k_th)
    while den(hi) > 0:
        hi *= 2.0
        if hi > 1e12 * k_th:
            raise NoPoleError("denominator does not change sign on the second sheet")
    k_pole = find_root(den, lo, hi, tol=BANDWIDTH_TOLERANCE)
    return PoleReport(k_pole=k_pole, closed_form=closed, residual=abs(den(k_pole)))


@dataclass(frozen=True)
class FluxReport:
    """Flux J = integral of rho(k) k P(k;U) over [0, k_F], split at the
    threshold."""

    total: float
    below_threshold: float
    above_threshold: float


@dataclass(frozen=True)
class FluxCurve:
    """Samples of the flux-control curve J(U) at fixed k_F."""

    potentials: tuple[float, ...]
    fluxes: tuple[float, ...]

    def linearity_deviation(self) -> float:
        """max_i |s_i / mean(s) - 1| over per-sample slopes s_i = J_i/U_i.

        Zero for an exactly linear J(U) through the origin; the
        above-threshold tail makes real curves deviate by a few percent.
        """
        u = np.asarray(self.potentials)
        j = np.asarray(self.fluxes)
        keep = u > 0
        slopes = j[keep] / u[keep]
        mean = slopes.mean()
        if mean == 0.0:
            return 0.0
        return float(np.abs(slopes / mean - 1.0).max())


def flux_report(g: GateN4, dist: MomentumDistribution, k_F: float) -> FluxReport:
    """Flux through the gate for momenta distributed as ``dist`` up to k_F.

    Quadrature splits at sqrt(U) (and sqrt(V) when V > 0), where the
    transmission has square-root cusps, and at the knots of a tabulated
    density, where it has kinks. For the flat filter with a constant
    distribution the below-threshold part is exactly rho*U/8 whenever
    k_F >= sqrt(U).
    """
    if k_F <= 0:
        raise ValueError("k_F must be positive")
    if g.U > 0 and np.sqrt(g.U) >= k_F:
        raise ValueError("working range sqrt(U) must stay below k_F")
    transmission = n4_transmission if g.V == 0.0 else band_filter_transmission

    def integrand(k: float) -> float:
        if k < 1e-20:  # rho*k*P vanishes linearly at the origin
            return 0.0
        return dist.density(k) * k * transmission(g, float(k))

    k_th = float(np.sqrt(g.U))
    cuts = [c for c in (np.sqrt(g.V), k_th, *dist.knots) if 0.0 < c < k_F]
    if g.U == 0.0:
        below = 0.0
        above = integrate(integrand, 0.0, k_F, tol=FLUX_TOLERANCE, breakpoints=cuts)
    else:
        below = integrate(integrand, 0.0, k_th, tol=FLUX_TOLERANCE, breakpoints=cuts)
        above = integrate(integrand, k_th, k_F, tol=FLUX_TOLERANCE, breakpoints=cuts)
    return FluxReport(
        total=below + above, below_threshold=below, above_threshold=above
    )


def flux(g: GateN4, dist: MomentumDistribution, k_F: float) -> float:
    """Total flux J(U); see :func:`flux_report` for the split."""
    return flux_report(g, dist, k_F).total


def flux_curve(
    a: float,
    dist: MomentumDistribution,
    k_F: float,
    potentials,
    V: float = 0.0,
) -> FluxCurve:
    """J(U) sampled over ``potentials`` for a gate with fixed a and V."""
    us = tuple(float(u) for u in potentials)
    js = tuple(flux(GateN4(a=a, U=u, V=V), dist, k_F) for u in us)
    return FluxCurve(potentials=us, fluxes=js)
