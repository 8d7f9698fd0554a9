"""Exception and warning types shared across the package."""


class SegbreakError(Exception):
    """Base class for all errors raised by segbreak."""


class DimensionMismatchError(SegbreakError):
    """Shapes of y, X, or attached truth information do not line up."""


class NonFiniteValueError(SegbreakError):
    """An input array contains NaN or infinity."""


class DegenerateInputError(SegbreakError):
    """Input is too small or too ill-posed for the requested operation."""


class TruthUnavailableError(SegbreakError):
    """An operation needs ground-truth information that the dataset lacks."""


class SingularGramError(SegbreakError):
    """Gram matrix is numerically singular."""


class UnderdeterminedError(SegbreakError):
    """Fewer observations than coefficients in a least-squares call."""


class SingularSystemError(SegbreakError):
    """A linear system has no unique solution."""


class NoConvergenceError(SegbreakError):
    """An iterative solver exhausted its iteration budget without passing
    its optimality check."""


class EmptySegmentError(SegbreakError):
    """Segment bounds describe an empty sample range."""


class AdaptiveUnavailableError(SegbreakError):
    """Per-segment least squares cannot be computed, so adaptive weights
    are undefined for this segment."""


class InfeasiblePartitionError(SegbreakError):
    """No admissible placement of the requested number of change-points."""


class SingularActiveGramError(SegbreakError):
    """Gram matrix restricted to an active set is numerically singular."""


class TooManyFailuresError(SegbreakError):
    """More than the tolerated fraction of Monte Carlo replications failed."""


class ConsistencyError(SegbreakError):
    """An internal consistency check failed: a chosen segment's fit is not
    stationary or its total, recomputed from the rows, drifted from the
    score the search found, or an exact search scored worse than the true
    breakpoints.  Raised in place of an ``assert`` so that the check also
    runs under ``python -O``."""


class WindowTooSmallWarning(UserWarning):
    """The truncation window of the limit-law sampler absorbs too much mass."""
