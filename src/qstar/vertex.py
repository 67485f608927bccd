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

import json
from dataclasses import dataclass

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
    scale = max(np.abs(bc.A).max(), np.abs(bc.B).max(), 1.0)
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


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _matrix_from_json(data, n: int) -> np.ndarray:
    mat = np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in data],
        dtype=np.complex128,
    )
    if mat.shape != (n, n):
        raise DimensionMismatchError(f"expected {n}x{n} matrix in JSON data")
    return mat


def bc_to_dict(bc: BoundaryCondition) -> dict:
    """JSON-ready form: entries as [re, im] pairs."""
    return {"n": bc.n, "A": _matrix_to_json(bc.A), "B": _matrix_to_json(bc.B)}


class _MalformedShapeError(InvalidParameterError, DimensionMismatchError):
    """A config matrix of the wrong shape: a config error that callers
    catching DimensionMismatchError still see as one."""


def bc_from_dict(data: dict) -> BoundaryCondition:
    """Inverse of :func:`bc_to_dict`. Raises InvalidParameterError when a
    key or an entry is missing or has the wrong type, shape or value."""
    try:
        n = int(data["n"])
        return BoundaryCondition(
            n, _matrix_from_json(data["A"], n), _matrix_from_json(data["B"], n)
        )
    except (LookupError, TypeError, ValueError) as exc:  # KeyError, IndexError
        error = (
            _MalformedShapeError
            if isinstance(exc, DimensionMismatchError)
            else InvalidParameterError
        )
        raise error(f"malformed boundary-condition config: {exc}") from exc


def bc_to_json(bc: BoundaryCondition) -> str:
    return json.dumps(bc_to_dict(bc), indent=2, sort_keys=True)


def bc_from_json(text: str) -> BoundaryCondition:
    return bc_from_dict(json.loads(text))
