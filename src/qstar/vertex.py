"""Vertex couplings: boundary conditions A psi(0) + B psi'(0) = 0.

Two constructor families are provided. ``make_st_form`` builds the
scale-invariant couplings parametrized by an m x (n-m) block T, with

    B = [[I_m, T], [0, 0]]      acting on outward derivatives,
    A = [[0, 0], [-T*, I_n-m]]  acting on boundary values,

so the first m rows impose psi'_mu + sum_nu T[mu, nu] psi'_(m+nu) = 0 and
the last n-m rows impose psi_(m+nu) = sum_mu conj(T[mu, nu]) psi_mu.
``make_delta`` builds the standard delta coupling (continuity plus a
strength term in the Kirchhoff row).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    InvalidParameterError,
    SingularMatrixError,
)

#: Couplings whose S-matrix at two well-separated momenta (all potentials
#: zero) differs by less than this are reported scale-invariant.
SCALE_INVARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class BoundaryCondition:
    """Vertex coupling of degree ``n`` given by matrices (A, B).

    Construction only checks shapes and finiteness; rank and
    self-adjointness are reported by :func:`validate` so that defective
    inputs can be diagnosed rather than rejected.
    """

    n: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=np.complex128)
        B = np.array(self.B, dtype=np.complex128)
        if A.shape != (self.n, self.n) or B.shape != (self.n, self.n):
            raise DimensionMismatchError(
                f"A and B must be {self.n}x{self.n}, got {A.shape} and {B.shape}"
            )
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("boundary-condition entries must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)


def make_st_form(n: int, m: int, T) -> BoundaryCondition:
    """Scale-invariant coupling of degree ``n`` from an m x (n-m) block."""
    if not 1 <= m < n:
        raise DimensionMismatchError(f"need 1 <= m < n, got m={m}, n={n}")
    T = np.atleast_2d(np.array(T, dtype=np.complex128))
    if T.shape != (m, n - m):
        raise DimensionMismatchError(
            f"coupling block must be {m}x{n - m}, got {T.shape}"
        )
    if not np.isfinite(T).all():
        raise ValueError("coupling block entries must be finite")
    A = np.zeros((n, n), dtype=np.complex128)
    B = np.zeros((n, n), dtype=np.complex128)
    B[:m, :m] = np.eye(m)
    B[:m, m:] = T
    A[m:, :m] = -T.conj().T
    A[m:, m:] = np.eye(n - m)
    return BoundaryCondition(n, A, B)


def make_delta(n: int, strength: float) -> BoundaryCondition:
    """Delta coupling: common boundary value, sum of outward derivatives
    equals ``strength`` times that value. ``n=1`` degenerates to a Robin
    end, psi' = strength * psi."""
    if n < 1:
        raise DimensionMismatchError(f"need n >= 1, got {n}")
    if not np.isfinite(strength):
        raise ValueError("strength must be finite")
    A = np.zeros((n, n), dtype=np.complex128)
    B = np.zeros((n, n), dtype=np.complex128)
    for i in range(n - 1):
        A[i, i] = 1.0
        A[i, i + 1] = -1.0
    A[n - 1, 0] = -strength
    B[n - 1, :] = 1.0
    return BoundaryCondition(n, A, B)


@dataclass(frozen=True)
class VertexDiagnostics:
    """Report from :func:`validate`."""

    rank: int
    full_rank: bool
    hermiticity_defect: float
    self_adjoint: bool
    scale_invariant: bool


def validate(bc: BoundaryCondition) -> VertexDiagnostics:
    """Diagnose a coupling: rank of (A|B), Hermiticity defect of A B*, and
    whether the scattering matrix is momentum-independent at zero
    potential (the scale-invariance property)."""
    block = np.hstack([bc.A, bc.B])
    # Singular values above 1e-12 times the largest entry count.
    rank = int(np.linalg.matrix_rank(block, tol=1e-12 * np.abs(block).max()))
    full_rank = rank == bc.n
    defect = float(
        np.abs(bc.A @ bc.B.conj().T - bc.B @ bc.A.conj().T).max()
    )
    scale = max(float(np.abs(bc.A).max()), float(np.abs(bc.B).max()), 1.0)
    self_adjoint = full_rank and defect <= 1e-12 * scale

    scale_invariant = False
    if full_rank:
        from .scattering import ChannelSet, smatrix  # deferred: avoids cycle

        if bc.n >= 2:
            zeros = (0.0,) * bc.n
            try:
                s1 = smatrix(bc, ChannelSet(bc.n, zeros, energy=0.49))
                s2 = smatrix(bc, ChannelSet(bc.n, zeros, energy=3.61))
                scale_invariant = bool(
                    np.abs(s1.S - s2.S).max() < SCALE_INVARIANCE_TOL
                )
            except SingularMatrixError:
                scale_invariant = False
    return VertexDiagnostics(
        rank=rank,
        full_rank=full_rank,
        hermiticity_defect=defect,
        self_adjoint=self_adjoint,
        scale_invariant=scale_invariant,
    )


def _scalar_text(x) -> str:
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x != x:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return int.__repr__(int(x))
    x = float(x)
    return {math.inf: "Infinity", -math.inf: "-Infinity"}.get(x) or float.__repr__(x)


#: Array layouts kept by :func:`_array_template`, one per shape and indent
#: level. Couplings of degree 2..16 and their ``smatrix`` payloads use 45.
ARRAY_TEMPLATES = 128


@functools.lru_cache(maxsize=ARRAY_TEMPLATES)
def _array_template(shape: tuple[int, ...], level: int) -> str:
    """The JSON text of an array of ``shape`` at indent ``level`` with each
    element a ``%s``, in C order. Brackets, commas and whitespace are its
    only other characters, so element text is never read as a format."""
    items = ["%s"] * math.prod(shape)
    for axis in range(len(shape) - 1, -1, -1):  # innermost lists first
        size, pad = shape[axis], "\n" + "  " * (level + axis + 1)
        if size == 0:
            items = ["[]"] * math.prod(shape[:axis])
        else:
            items = ["[" + pad + ("," + pad).join(items[i:i + size]) + pad[:-2] + "]"
                     for i in range(0, len(items), size)]
    return items[0]


def json_text(obj, _level: int = 0) -> str:
    """The one JSON text writer: ``json.dumps(obj, indent=2, sort_keys=True)``
    byte for byte, with numpy scalars written as Python ones, nan as null,
    and a numpy array as its nested lists, substituted in one step into a
    cached layout. Dict keys must be strings."""
    if isinstance(obj, np.ndarray):
        values = obj.ravel().tolist()
        if obj.dtype != np.float64:
            values = map(_scalar_text, values)
        else:  # %s writes a float as its repr; only non-finite ones need text
            finite = np.isfinite(obj)
            if not finite.all():
                for i in np.flatnonzero(~finite).tolist():
                    values[i] = _scalar_text(values[i])
        return _array_template(obj.shape, _level) % tuple(values)
    if isinstance(obj, dict):
        brackets = "{}"
        items = [encode_basestring_ascii(k) + ": " + json_text(obj[k], _level + 1)
                 for k in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [json_text(v, _level + 1) for v in obj]
    else:
        return _scalar_text(obj)
    if not items:
        return brackets
    pad = "\n" + "  " * (_level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _pairs(mat: np.ndarray) -> np.ndarray:
    """A complex n x n matrix as its n x n x 2 [re, im] float view."""
    return np.ascontiguousarray(mat).view(np.float64).reshape(*mat.shape, 2)


def _matrix_from_json(data, n: int) -> np.ndarray:
    pairs = np.array(data, dtype=object)
    if pairs.shape != (n, n, 2):
        raise DimensionMismatchError(f"expected {n}x{n}x2 [re, im] pairs, got {pairs.shape}")
    if not set(map(type, pairs.flat)) <= {int, float}:  # no bool, str or null
        raise TypeError("matrix entries must be JSON numbers")
    return pairs.astype(np.float64).view(np.complex128)[..., 0]


def bc_to_dict(bc: BoundaryCondition) -> dict:
    """JSON-ready form: entries as [re, im] pairs."""
    return {"n": bc.n, "A": _pairs(bc.A).tolist(), "B": _pairs(bc.B).tolist()}


def bc_from_dict(data: dict) -> BoundaryCondition:
    """Inverse of :func:`bc_to_dict`. Raises InvalidParameterError when a
    key or an entry is missing or has the wrong type, shape or value."""
    try:
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):  # 3.7, "3"
            raise TypeError(f"n must be an integer, got {n!r}")
        return BoundaryCondition(
            n, _matrix_from_json(data["A"], n), _matrix_from_json(data["B"], n)
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"malformed boundary-condition config: {exc}") from exc


def bc_to_json(bc: BoundaryCondition) -> str:
    return json_text({"n": bc.n, "A": _pairs(bc.A), "B": _pairs(bc.B)})


def bc_from_json(text: str) -> BoundaryCondition:
    return bc_from_dict(json.loads(text))
