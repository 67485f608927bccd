"""Exception types shared across the package."""


class QStarError(Exception):
    """Base class for all errors raised by qstar."""


class DimensionMismatchError(QStarError, ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(QStarError, ArithmeticError):
    """A linear system is singular to working precision: its condition
    ``estimate`` (inf when exactly singular) is at or above ``limit``
    (None when not given)."""

    def __init__(self, message, estimate=None, limit=None):
        super().__init__(message)
        self.estimate = estimate
        self.limit = limit


class NoConvergenceError(QStarError, ArithmeticError):
    """An iterative routine exhausted its depth or iteration budget."""


class NoSignChangeError(QStarError, ValueError):
    """Root bracket endpoints do not straddle a sign change."""


class ClosedIncomingChannelError(QStarError, ValueError):
    """The requested incoming line is evanescent at this energy."""


class NoBandError(QStarError, ValueError):
    """No half-maximum band exists for these filter parameters."""


class NoPoleError(QStarError, ValueError):
    """No real second-sheet pole above every threshold exists for these
    device parameters: ``line`` (1-based) and ``threshold`` name the line
    whose threshold the closed-form pole does not clear, or are None when
    the closed form has no pole."""

    def __init__(self, message, line=None, threshold=None):
        self.line, self.threshold = line, threshold
        if line is not None:
            message += f" (line {line}, threshold {threshold!r})"
        super().__init__(message)


class InvalidParameterError(QStarError, ValueError):
    """A structural parameter (edge length, degree, ...) is out of range."""


class SingularSystemError(SingularMatrixError):
    """The wave-matching system is singular at the requested energy: a
    threshold resonance of a vertex, or a discrete resonance of a finite
    compound graph (a bound state that the leads do not see). ``detail`` is
    the solver's account, a SingularMatrixError whose ``estimate`` and
    ``limit`` this error carries next to ``energy`` (None without one)."""

    def __init__(self, energy, detail=None):
        self.energy = energy
        message = f"wave-matching system singular at E={energy!r}"
        super().__init__(f"{message}: {detail}" if detail else message,
                         getattr(detail, "estimate", None), getattr(detail, "limit", None))
