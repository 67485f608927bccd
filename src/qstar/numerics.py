"""Numerical kernels: small dense complex solves by LAPACK, refused where
a condition estimate shows that a pivot could fall below ``PIVOT_FLOOR``;
adaptive Gauss-Kronrod quadrature that splits at breakpoints and maps out
square-root cusps at them; and bracketed root finding.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NoConvergenceError,
    NoSignChangeError,
    SingularMatrixError,
)

#: :func:`solve_linear` refuses a system of order n whose condition
#: estimate ``max|a| * max|a^-1| * n^2`` reaches ``sqrt(n) / PIVOT_FLOOR``,
#: the least estimate of any system on which elimination with partial
#: pivoting can meet a pivot below this multiple of the largest entry.
PIVOT_FLOOR = 1e-14

#: Iteration budget of :func:`find_root`.
ROOT_MAX_ITER = 500
#: Bracket width at which :func:`find_root` stops:
#: ``max(ROOT_ABS_TOL, ROOT_REL_TOL * |x|)``.
ROOT_ABS_TOL = 1e-13
ROOT_REL_TOL = 4e-16

#: Bisection budget of :func:`integrate`: levels of panels below the first.
QUAD_MAX_DEPTH = 48
#: Error target of :func:`integrate`:
#: ``max(QUAD_ABS_TOL, QUAD_REL_TOL * |integral|)``.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for square complex ``a``.

    One LAPACK solve (``zgesv``, LU with partial pivoting) of
    ``a [x | y] = [b | I]`` gives x and the inverse y together. x is
    returned when the condition estimate ``est = max|a| * max|y| * n^2`` is
    below the limit ``sqrt(n) / PIVOT_FLOOR``; otherwise, and where LAPACK
    finds ``a`` exactly singular (est = inf), SingularMatrixError is raised
    with ``estimate`` and ``limit``. Wherever elimination with partial
    pivoting meets a pivot below ``PIVOT_FLOOR * max|a|``, the trailing
    Schur complement has a column of that modulus, so
    ``||a^-1||_2 >= 1 / (sqrt(n) * PIVOT_FLOOR * max|a|)`` and est reaches
    the limit (Higham, *Accuracy and Stability of Numerical Algorithms*).

    ``b`` may be a vector or a matrix of stacked right-hand sides; the
    result has the same shape and is a new C-contiguous array. ``a`` and
    ``b`` are never modified. Raises ValueError when an entry is not
    finite.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"expected square matrix, got shape {a.shape}")
    b = np.asarray(b, dtype=np.complex128)
    vector = b.ndim == 1
    if vector:
        b = b.reshape(-1, 1)
    if b.ndim != 2 or b.shape[0] != a.shape[0] or b.shape[1] < 1:
        raise DimensionMismatchError(
            f"right-hand side shape {b.shape} incompatible with {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side entries must be finite")
    n, r = b.shape
    limit = math.sqrt(n) / PIVOT_FLOOR
    try:
        xy = np.linalg.solve(a, np.concatenate((b, np.eye(n)), axis=1))
    except np.linalg.LinAlgError:
        estimate = math.inf
    else:
        estimate = float(np.abs(a).max()) * float(np.abs(xy[:, r:]).max()) * (n * n)
    if not estimate < limit:  # also a nan estimate
        raise SingularMatrixError(
            f"condition estimate {estimate:.3e} at or above {limit:.3e}",
            estimate=estimate, limit=limit,
        )
    return xy[:, 0].copy() if vector else np.ascontiguousarray(xy[:, :r])


# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15; Piessens et al., 1983):
# the nonnegative Kronrod nodes x_0 > x_1 > ... > x_7 = 0 with their weights,
# and the weights of the 7-point Gauss rule, whose nodes are x_1, x_3, x_5
# and x_7.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
# The same rules over all 15 nodes in ascending order; the Gauss weight is
# zero at the eight Kronrod-only nodes.
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_KRONROD = np.concatenate([_WK[:-1], _WK[::-1]])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = np.concatenate([_WG[:-1], _WG[::-1]])


def kronrod_panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """The 15-point Kronrod rule of :func:`integrate` on the single panel
    ``[lo, hi]``, with no error estimate and no bisection: exact to rounding
    for an ``f`` analytic well beyond the panel. ``f`` maps the array of
    the 15 nodes to their values."""
    centre, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return radius * float(f(centre + radius * _NODES) @ _KRONROD)


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    breakpoints: Iterable[float] = (),
) -> float:
    """Adaptive Gauss-Kronrod 7/15 quadrature of ``f`` over ``[lo, hi]``.

    ``breakpoints`` lists interior abscissae where the integrand has a kink
    or a square-root cusp (e.g. a channel threshold). The interval is split
    there, each piece is halved, and each half is mapped by
    ``x = end +- t^2`` from its outer end, so that a square-root cusp or a
    kink at a cut or a bound is smooth in ``t``. ``f`` is called with one
    float at a time, never at a cut or a bound. Every kink or jump must be
    listed: one that falls between a panel's outermost nodes and its edge
    is invisible to the rule.

    The error of a panel is estimated as ``|K15 - G7|``. Each panel's share
    of the target ``max(QUAD_ABS_TOL, QUAD_REL_TOL * |integral|)`` is its
    fraction of ``hi - lo`` (a bisected panel passes half its share to each
    child), so the shares sum to the target; panels that miss their share
    are bisected.
    A panel that spans only a few ulps in ``x`` is accepted, because
    bisection cannot resolve anything inside it. Raises NoConvergenceError
    when a panel still misses its share after ``QUAD_MAX_DEPTH`` bisections,
    and ValueError unless ``lo < hi`` are finite, and, naming the abscissa,
    on the first level of panels where ``f`` returns a value that is not
    finite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    cuts = sorted({float(p) for p in breakpoints if lo < p < hi})
    edges = np.array([lo, *cuts, hi], dtype=np.float64)
    halves = 0.5 * np.diff(edges)
    # Active panels [t0, t1] in the variable of the half they belong to,
    # mapped by x = end + sign * t^2 (two halves per piece).
    end = np.stack([edges[:-1], edges[1:]], axis=1).ravel()
    sign = np.tile([1.0, -1.0], halves.size)
    t0 = np.zeros(end.size)
    t1 = np.repeat(np.sqrt(halves), 2)
    share = np.repeat(halves / (hi - lo), 2)

    total = 0.0
    for depth in range(QUAD_MAX_DEPTH + 1):
        centre, radius = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        t = centre[:, None] + radius[:, None] * _NODES
        x = end[:, None] + sign[:, None] * t * t
        fx = np.array([f(xi) for xi in x.ravel().tolist()], dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(fx))
        if bad.size:  # a nan error estimate would bisect every panel
            i = int(bad[0])
            raise ValueError(f"integrand is {float(fx[i])!r} at x={float(x.flat[i])!r}")
        g = 2.0 * t * fx.reshape(x.shape)  # dx = 2t dt
        kronrod = radius * (g @ _KRONROD)
        error = np.abs(kronrod - radius * (g @ _GAUSS))
        target = max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(total + kronrod.sum()))
        ulps = 64.0 * np.finfo(float).eps * np.maximum(np.abs(end), 1.0)
        done = (error <= share * target) | (t1 * t1 - t0 * t0 <= ulps)
        total += float(kronrod[done].sum())
        if done.all():
            return total
        if depth == QUAD_MAX_DEPTH:
            break
        keep = ~done
        end, sign = np.repeat(end[keep], 2), np.repeat(sign[keep], 2)
        share = np.repeat(0.5 * share[keep], 2)
        t0, t1 = (
            np.stack([t0[keep], centre[keep]], axis=1).ravel(),
            np.stack([centre[keep], t1[keep]], axis=1).ravel(),
        )
    i = int(np.flatnonzero(~done)[0])
    xa, xb = sorted(float(end[i] + sign[i] * t * t) for t in (t0[i], t1[i]))
    raise NoConvergenceError(f"quadrature depth limit reached on [{xa!r}, {xb!r}]")


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> float:
    """Locate a root of ``f`` inside the bracket ``[lo, hi]``.

    Secant steps (Illinois weighting) accelerate plain bisection, with a
    forced bisection whenever the bracket fails to halve, so convergence is
    guaranteed. Stops when the bracket width drops below
    ``max(ROOT_ABS_TOL, ROOT_REL_TOL * |x|)``. Raises ValueError when a
    bound is not finite, NoSignChangeError when ``f(lo)`` and ``f(hi)`` have
    the same sign, and NoConvergenceError after ``ROOT_MAX_ITER``
    iterations.
    """
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"bounds must be finite, got [{lo!r}, {hi!r}]")
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChangeError(f"f({lo!r}) and f({hi!r}) have the same sign")

    side = 0
    force_bisect = False
    for _ in range(ROOT_MAX_ITER):
        width = b - a
        if width <= max(ROOT_ABS_TOL, ROOT_REL_TOL * max(abs(a), abs(b))):
            return 0.5 * (a + b)
        if force_bisect or fb == fa:
            x = 0.5 * (a + b)
        else:
            x = b - fb * (b - a) / (fb - fa)
            margin = 0.01 * width
            if not (a + margin < x < b - margin):
                x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
            if side == -1:
                fb *= 0.5  # Illinois: damp the stale endpoint
            side = -1
        else:
            b, fb = x, fx
            if side == 1:
                fa *= 0.5
            side = 1
        force_bisect = (b - a) > 0.5 * width
    raise NoConvergenceError(f"no root to tolerance within {ROOT_MAX_ITER} iterations")
