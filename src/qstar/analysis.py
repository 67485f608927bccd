"""Derived device quantities: half-maximum bandwidth, second-sheet
resonance poles, and the flux-control curve J(U).

The poles of a scale-invariant vertex with real ST block T are the zeros
of D(k) = det(diag(w_in) + T diag(w_out) T^T), w_j = sqrt(1 - U_j/k^2)
(Kostrykin and Schrader, J. Phys. A 32 (1999) 595). With line 3's w
flipped to -sqrt(1 - U/k^2), D is real above every threshold, so a
bracketed 1-D root find locates the resonance pole without contours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .devices import (
    FilterN3,
    GateN4,
    MomentumDistribution,
    n4_transmission,
)
from .exceptions import NoBandError, NoPoleError
from .numerics import find_root, integrate

#: Coefficient of the sharp-peak bandwidth estimate, W ~ C U/b^4. The closed
#: form of :func:`bandwidth` gives W b^4/U = (16a^2 - 4 sqrt(2) a (1 + a^2))
#: (1 + O(1/b^4)); C is its a = 1 value, 16 - 8 sqrt(2) = 4.686 (2.818 at
#: a = 0.8), rounded to the 4.7 that the bandwidth report golden pins.
BANDWIDTH_COEFFICIENT = 4.7

# sqrt(2) as a double plus the rounding error of that double.
_SQRT2 = math.sqrt(2.0)
_SQRT2_LO = -9.667293313452913e-17


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

    P(k) = 4a^2/|1 + a^2 + b^2 w|^2 with w = sqrt(1 - U/k^2) equals 1/2
    where |1 + a^2 + b^2 w| = 2 sqrt(2) a. With c = 2 sqrt(2) a - 1 - a^2:

    - above threshold w = c/b^2, so k_hi = sqrt(U)/sqrt(1 - w^2);
    - below it w = i v with v = sqrt(c (2 sqrt(2) a + 1 + a^2))/b^2, so
      k_lo = sqrt(U)/sqrt(1 + v^2);
    - the width in energy (k^2) units is
      k_hi^2 - k_lo^2 = U (w^2 + v^2)/((1 - w^2)(1 + v^2)),
      written without the difference of squares.

    c is the product (a - (sqrt(2) - 1))(sqrt(2) + 1 - a) with sqrt(2) in
    two parts, so it keeps its relative digits as a approaches the
    half-maximum boundaries sqrt(2) -/+ 1. The edges and the width are then
    exact to a few ulp, times the condition number 2w^2/(1 - w^2) of k_hi
    near the unbounded band (w -> 1). For b >~ 1e4 both edges round to
    sqrt(U) in double precision, while the width stays exact.

    Raises NoBandError when U <= 0, when the peak (2a/(1 + a^2))^2 does not
    exceed 1/2 (c <= 0), or when transmission stays at or above 1/2 at high
    momentum (w >= 1: b too small).
    """
    if f.U <= 0:
        raise NoBandError("bandwidth needs a positive controlling potential")
    a, b2 = f.a, f.b * f.b
    c = ((a - (_SQRT2 - 1.0)) - _SQRT2_LO) * ((1.0 - (a - _SQRT2)) + _SQRT2_LO)
    if c <= 0:
        raise NoBandError(
            f"peak transmission {f.peak_transmission:.4g} <= 1/2: no band"
        )
    w = c / b2 if c < b2 else 1.0  # b2 may underflow to 0
    if w >= 1:
        raise NoBandError(
            "transmission stays above 1/2 at high momentum: unbounded band"
        )
    v = math.sqrt(c * (2.0 * _SQRT2 * a + 1.0 + a * a)) / b2
    k_th = f.threshold
    return BandReport(
        center_k=k_th,
        k_lo=k_th / math.hypot(1.0, v),
        k_hi=k_th / math.sqrt((1.0 - w) * (1.0 + w)),
        width_energy=f.U * (w * w + v * v) / ((1.0 - w) * (1.0 + w) * (1.0 + v * v)),
        approx_width=BANDWIDTH_COEFFICIENT * f.U / f.b**4,
    )


@dataclass(frozen=True)
class PoleReport:
    """Second-sheet pole of the scattering matrix."""

    k_pole: float
    closed_form: float
    residual: float


def _second_sheet_det(T, w) -> float:
    """D = det(diag(w_in) + T diag(w_out) T^T) of the real m x (n - m) block
    T and one real w per line, w = (w_in, w_out). Written out for m <= 2
    (the devices), where numpy's det would cost more than the rest of D;
    for m = 1, D is w_1 + T_11^2 w_2 + ... summed left to right."""
    m = len(T)
    M = [[sum(map(mul, map(mul, r, s), w[m:]), w[i] if i == l else 0.0)
          for l, s in enumerate(T)] for i, r in enumerate(T)]
    if m == 1:
        return M[0][0]
    if m == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    return float(np.linalg.det(M))


def locate_pole(device: FilterN3 | GateN4) -> PoleReport:
    """Locate the real second-sheet pole behind the threshold peak.

    Root-finds D(k) (module docstring) of the device's ``coupling`` and
    ``potentials`` above the highest threshold, and reports ``device.pole``
    beside it; ``residual`` is |D(k_pole)|. Raises NoPoleError when the
    closed form has no pole, or when it does not clear the highest
    threshold by the bracket's 1e-12 (the gate with V >= k_pole^2).
    """
    closed = device.pole
    if closed is None:
        raise NoPoleError(f"no second-sheet pole: the closed form has none for {device!r}")
    pots = device.potentials
    top = max(range(len(pots)), key=pots.__getitem__)
    k_top = math.sqrt(pots[top])
    lo = k_top * (1 + 1e-12)
    if not closed > lo:
        raise NoPoleError(
            f"second-sheet pole {closed!r} of {device!r} does not clear the highest threshold",
            line=top + 1, threshold=k_top)

    def det(k: float) -> float:
        k2 = k**2
        w = [math.sqrt(1 - u / k2) for u in pots]
        w[2] = -w[2]  # line 3, the controlling potential U
        return _second_sheet_det(device.coupling, w)

    k_pole = find_root(det, lo, 2.0 * closed)
    return PoleReport(k_pole=k_pole, closed_form=closed, residual=abs(det(k_pole)))


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

        Zero for an exactly linear J(U) through the origin. With a constant
        density and V = 0 the below-threshold part is exactly linear, so
        only the above-threshold tail bends the curve, and only slightly:
        0.15% over U in [0.25, 1] on the flat gate with k_F = 4, and 0.94%
        over U in [0.3, 2.5] at a = 0.9, k_F = 2.9.
        """
        u = np.asarray(self.potentials)
        j = np.asarray(self.fluxes)
        keep = u > 0
        slopes = j[keep] / u[keep]
        mean = slopes.mean()
        if mean == 0.0:
            return 0.0
        return float(np.abs(slopes / mean - 1.0).max())


def _constant_density_gate_flux(g: GateN4, rho: float, k_F: float) -> tuple[float, float]:
    """(J_below, J_above) of the V=0 gate for the constant density rho.

    With beta = 2a^2 and s = k^2, the transmission below threshold is
    beta^2 U / ((1 + beta)^2 (beta^2 U + (1 - beta^2) s)), so

        J_below = (rho U / 2) (beta/(1 + beta))^2 ln(beta^2)/(beta^2 - 1),

    exactly linear in U (rho U/8 on the flat gate, beta = 1). Above
    threshold, w = sqrt(1 - U/k^2) turns rho k P dk into
    rho U (beta/(1 + beta))^2 w dw / ((1 + w)^2 (1 + beta w)^2), which is
    smooth on [0, w_F], w_F = sqrt(1 - U/k_F^2), and is integrated to
    numerics' QUAD_ABS_TOL and QUAD_REL_TOL. (beta/(1 + beta))^2 is
    ``g.peak_transmission``. Products stand in for powers, so an extreme a
    overflows to inf instead of raising; both parts then tend to 0 as
    ln(beta)/beta^2, and J_below is 0 once beta^2 overflows.
    """
    beta = 2.0 * g.a * g.a
    rho_peak = rho * g.peak_transmission
    scale = rho_peak * g.U
    if scale == 0.0:
        return 0.0, 0.0
    t = (beta - 1.0) * (beta + 1.0)  # beta^2 - 1, accurate near the flat gate
    if abs(t) < 0.5:
        log_ratio = math.log1p(t) / t if t else 1.0
    elif t < math.inf:  # log1p(t) would lose beta^2 to rounding as beta -> 0
        log_ratio = 2.0 * math.log(beta) / t
    else:  # ln(beta^2)/beta^2 underflows; ln(inf)/inf would be nan
        log_ratio = 0.0
    below = 0.5 * rho_peak * log_ratio * g.U  # U last: linear up to one rounding

    def tail(w: float) -> float:
        d = (1.0 + w) * (1.0 + beta * w)
        return scale * w / (d * d)

    k_th = g.threshold
    w_F = math.sqrt((k_F - k_th) * (k_F + k_th)) / k_F
    return below, integrate(tail, 0.0, w_F)


def _k_quadrature_flux(
    g: GateN4, dist: MomentumDistribution, k_F: float
) -> tuple[float, float]:
    """(J_below, J_above) by quadrature over k of rho(k) k P(k)."""

    def integrand(k: float) -> float:
        if k < 1e-20:  # rho*k*P vanishes linearly at the origin
            return 0.0
        return dist.density(k) * k * n4_transmission(g, float(k))

    k_th = g.threshold
    cuts = [c for c in (np.sqrt(g.V), k_th, *dist.knots) if 0.0 < c < k_F]
    if g.U == 0.0:
        return 0.0, integrate(integrand, 0.0, k_F, breakpoints=cuts)
    return (
        integrate(integrand, 0.0, k_th, breakpoints=cuts),
        integrate(integrand, k_th, k_F, breakpoints=cuts),
    )


def flux_report(g: GateN4, dist: MomentumDistribution, k_F: float) -> FluxReport:
    """Flux through the gate for momenta distributed as ``dist`` up to k_F.

    For V = 0 and a constant density the below-threshold part has a closed
    form, exactly linear in U and finite for every finite a, and the tail
    above threshold is one smooth quadrature in w = sqrt(1 - U/k^2). Any
    other density, and the band mode V > 0, integrate over k, split at the
    gate's ``threshold`` sqrt(U) (and at sqrt(V)), where the transmission
    has square-root cusps, and at the knots of a tabulated density, where
    it has kinks. How far the tail bends J(U) away from linear is measured
    by :meth:`FluxCurve.linearity_deviation`.
    """
    if not 0 < k_F < np.inf:
        raise ValueError(f"k_F must be positive and finite, got {k_F!r}")
    if g.threshold >= k_F:
        raise ValueError("working range sqrt(U) must stay below k_F")
    if g.V == 0.0 and dist.rho is not None:
        below, above = _constant_density_gate_flux(g, dist.rho, k_F)
    else:
        below, above = _k_quadrature_flux(g, dist, k_F)
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
