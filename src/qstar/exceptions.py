"""Exception types shared across the package."""


class QStarError(Exception):
    """Base class for all errors raised by qstar."""


class DimensionMismatchError(QStarError, ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(QStarError, ArithmeticError):
    """A pivot fell below the singularity floor during elimination;
    ``pivot``, ``floor`` and ``column`` say where (None when not given)."""

    def __init__(self, message, pivot=None, floor=None, column=None):
        super().__init__(message)
        self.pivot = pivot
        self.floor = floor
        self.column = column


class NoConvergenceError(QStarError, ArithmeticError):
    """An iterative routine exhausted its depth or iteration budget."""


class NoSignChangeError(QStarError, ValueError):
    """Root bracket endpoints do not straddle a sign change."""


class AtThresholdError(QStarError, ValueError):
    """Energy coincides with the threshold U of line ``line`` (1-based),
    where the momentum matrix is singular; evaluate at a nudged momentum
    instead."""

    def __init__(self, energy, line, U):
        self.energy = energy
        self.line = line
        self.U = U
        super().__init__(
            f"energy {energy!r} sits on the threshold of line {line} (U={U!r}); "
            "nudge the momentum instead"
        )


class ClosedIncomingChannelError(QStarError, ValueError):
    """The requested incoming line is evanescent at this energy."""


class InvalidBandError(QStarError, ValueError):
    """Band-filter drain potential must satisfy 0 <= V < U."""


class NoBandError(QStarError, ValueError):
    """No half-maximum band exists for these filter parameters."""


class NoPoleError(QStarError, ValueError):
    """No second-sheet pole exists for these device parameters."""


class InvalidParameterError(QStarError, ValueError):
    """A structural parameter (edge length, degree, ...) is out of range."""


class SingularSystemError(QStarError, ArithmeticError):
    """The vertex system of a compound graph is singular at the requested
    energy: a discrete resonance of the finite structure, a bound state
    that the leads do not see. ``detail`` is the solver's account of the
    failed pivot, a SingularMatrixError whose ``pivot``, ``floor`` and
    ``column`` this error carries next to ``energy`` (None without one)."""

    def __init__(self, energy, detail=None):
        self.energy = energy
        self.pivot = getattr(detail, "pivot", None)
        self.floor = getattr(detail, "floor", None)
        self.column = getattr(detail, "column", None)
        message = f"wave-matching system singular at E={energy!r}"
        super().__init__(f"{message}: {detail}" if detail else message)
