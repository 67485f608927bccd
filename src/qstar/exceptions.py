"""Exception types shared across the package."""


class QStarError(Exception):
    """Base class for all errors raised by qstar."""


class DimensionMismatchError(QStarError, ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(QStarError, ArithmeticError):
    """A pivot fell below the singularity floor during elimination."""


class NoConvergenceError(QStarError, ArithmeticError):
    """An iterative routine exhausted its depth or iteration budget."""


class NoSignChangeError(QStarError, ValueError):
    """Root bracket endpoints do not straddle a sign change."""


class AtThresholdError(QStarError, ValueError):
    """Energy coincides with a channel threshold, where the momentum
    matrix is singular; evaluate at a nudged momentum instead."""


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
    """The wave-matching system is singular (discrete resonance of the
    finite structure) at the requested energy; ``detail`` is the solver's
    account of the failed pivot."""

    def __init__(self, energy, detail=None):
        self.energy = energy
        message = f"wave-matching system singular at E={energy!r}"
        super().__init__(f"{message}: {detail}" if detail else message)
