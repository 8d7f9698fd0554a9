"""Core types for multi-phase sparse linear regression.

A dataset holds a response vector ``y`` and a design matrix ``X`` whose rows
are observed in time order.  The sample is partitioned into contiguous
segments by integer breakpoints; each segment carries its own coefficient
vector.  Types in this module are immutable value objects: arrays are stored
as read-only float64 copies and every dataclass is frozen.

Index convention
----------------
Breakpoints are stored internally as the half-open convention ``(j1, j2]``
with sentinels ``l_0 = 0`` and ``l_{K+1} = n``.  A breakpoint value ``l_r``
equals the 1-based index of the last sample belonging to segment ``r``, so
the internal integers coincide with the reported ones.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    EmptySegmentError,
    NonFiniteValueError,
)

FAMILY_LASSO_TYPE = "lasso_type"
FAMILY_ADAPTIVE = "adaptive"

COMPLEXITY_K_ONLY = "K_only"
COMPLEXITY_K_TIMES_P = "K_times_p"


def check_sweep_budget(tol, max_iter, names=("tol", "max_iter")) -> None:
    """Raise ValueError unless ``tol`` is finite and above 0 and
    ``max_iter`` is an integer of at least 1: the stopping rule of every
    coordinate-descent solve.  ``names`` name the two in the message."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"{names[0]} must be finite and positive, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"{names[1]} must be an integer >= 1, got {max_iter!r}")


def _readonly(values, dtype=np.float64, ndmin: int = 0) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True, ndmin=ndmin)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TruthInfo:
    """Ground truth attached to a simulated dataset.

    ``breakpoints`` are the true interior breakpoints (last sample of each
    non-final regime), ``coefficients`` has one row per regime, and ``noise``
    optionally records the error draws that generated the response.
    Adjacent regimes must differ in at least one coordinate.
    """

    breakpoints: tuple[int, ...]
    coefficients: np.ndarray
    noise: np.ndarray | None = None

    def __post_init__(self):
        bps = tuple(int(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        coef = _readonly(self.coefficients, ndmin=2)
        object.__setattr__(self, "coefficients", coef)
        if self.noise is not None:
            object.__setattr__(self, "noise", _readonly(self.noise))
        if coef.ndim != 2:
            raise DimensionMismatchError("coefficients must be a 2-d array")
        if coef.shape[0] != len(bps) + 1:
            raise DimensionMismatchError(
                f"{len(bps)} breakpoints imply {len(bps) + 1} regimes, "
                f"got {coef.shape[0]} coefficient rows"
            )
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(b < 1 for b in bps):
            raise ValueError("breakpoints must be >= 1")
        for r in range(coef.shape[0] - 1):
            if np.array_equal(coef[r], coef[r + 1]):
                raise ValueError(
                    f"regimes {r} and {r + 1} have identical coefficients"
                )

    @property
    def n_regimes(self) -> int:
        return self.coefficients.shape[0]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Response vector, design matrix, and optional ground truth.  They are
    checked at construction (shapes, finiteness, the truth's fit to the
    sample), which raises DimensionMismatchError or NonFiniteValueError."""

    y: np.ndarray
    X: np.ndarray
    truth: TruthInfo | None = None

    def __post_init__(self):
        y, X = _readonly(self.y), _readonly(self.X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        if y.ndim != 1:
            raise DimensionMismatchError(f"y must be 1-d, got shape {y.shape}")
        if X.ndim != 2:
            raise DimensionMismatchError(f"X must be 2-d, got shape {X.shape}")
        if y.shape[0] != X.shape[0]:
            raise DimensionMismatchError(
                f"y has {y.shape[0]} samples but X has {X.shape[0]} rows"
            )
        if y.shape[0] < 1 or X.shape[1] < 1:
            raise DimensionMismatchError("need at least one sample and one covariate")
        if not np.all(np.isfinite(y)):
            raise NonFiniteValueError("y contains non-finite values")
        if not np.all(np.isfinite(X)):
            raise NonFiniteValueError("X contains non-finite values")
        truth = self.truth
        if truth is not None:
            n, p = self.n, self.p
            if truth.coefficients.shape[1] != p:
                raise DimensionMismatchError(
                    f"truth coefficients have {truth.coefficients.shape[1]} "
                    f"columns but X has {p}"
                )
            if any(not 1 <= b <= n - 1 for b in truth.breakpoints):
                raise DimensionMismatchError(
                    f"truth breakpoints {truth.breakpoints} outside 1..{n - 1}"
                )
            if truth.noise is not None and truth.noise.shape != (n,):
                raise DimensionMismatchError(
                    f"truth noise has shape {truth.noise.shape}, expected ({n},)"
                )
            if not np.all(np.isfinite(truth.coefficients)):
                raise NonFiniteValueError("truth coefficients contain non-finite values")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SegmentRange:
    """Half-open sample range ``(start, end]`` covering samples
    ``start + 1 .. end`` in 1-based counting, i.e. rows ``start .. end - 1``
    of the arrays."""

    start: int
    end: int

    def __post_init__(self):
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "end", int(self.end))
        if self.start < 0:
            raise ValueError(f"segment start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise EmptySegmentError(
                f"segment ({self.start}, {self.end}] is empty"
            )

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class PenaltyConfig:
    """Configuration of the per-segment penalized least-squares criterion.

    It fixes each segment's objective: the tuning constant ``lambda =
    lambda_scale * (segment length)**rho``, the penalty ``exponent`` and,
    for the adaptive family, the weights.  An adaptive segment without
    least-squares weights (shorter than p, or with a singular Gram matrix)
    is fitted by the unweighted lasso.

    Parameters
    ----------
    family : str
        ``"lasso_type"`` penalizes ``sum_k |phi_k|**gamma`` with a common
        exponent; ``"adaptive"`` penalizes ``sum_k w_k |phi_k|`` with
        weights ``w_k = |phi_LS,k|**(-g)`` from the per-segment least
        squares fit.
    gamma : float
        Penalty exponent for the lasso_type family.  1 gives the lasso,
        2 gives ridge; other positive values give bridge penalties.
    rho : float
        Exponent of the per-segment tuning constant.  Must lie in (0, 1/2].
    g : float
        Weight exponent of the adaptive family.  Must lie in (0, 1/4).
    cd_tolerance, cd_max_iterations :
        Stopping rule of the coordinate-descent solver: sweeps end when the
        largest coefficient change in a sweep falls to ``cd_tolerance``.
    lambda_scale : float
        Multiplier of ``(segment length)**rho``.  0 turns the penalty off;
        used for unpenalized diagnostics.
    """

    family: str = FAMILY_ADAPTIVE
    gamma: float = 1.0
    rho: float = 0.45
    g: float = 0.2
    cd_tolerance: float = 1e-8
    cd_max_iterations: int = 10000
    lambda_scale: float = 1.0

    def __post_init__(self):
        if self.family not in (FAMILY_LASSO_TYPE, FAMILY_ADAPTIVE):
            raise ValueError(f"unknown penalty family {self.family!r}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 < self.rho <= 0.5:
            raise ValueError(f"rho must lie in (0, 1/2], got {self.rho}")
        if self.family == FAMILY_ADAPTIVE and not 0.0 < self.g < 0.25:
            raise ValueError(f"g must lie in (0, 1/4), got {self.g}")
        check_sweep_budget(
            self.cd_tolerance, self.cd_max_iterations, ("cd_tolerance", "cd_max_iterations")
        )
        if self.lambda_scale < 0:
            raise ValueError("lambda_scale must be nonnegative")

    @property
    def exponent(self) -> float:
        """Exponent of the penalty: 1 for the adaptive family, gamma otherwise."""
        return 1.0 if self.family == FAMILY_ADAPTIVE else self.gamma

    @property
    def zero_clamp(self) -> float:
        """Magnitude at or below which fitted coefficients are snapped to 0:
        0 for the lasso penalties (exponent 1), whose solvers reach zero
        exactly, and 1e-10 for the others, which reach it only in the limit."""
        return 0.0 if self.exponent == 1.0 else 1e-10


@dataclass(frozen=True)
class CriterionConfig:
    """Configuration of breakpoint-count selection.

    ``bn_exponent`` sets the complexity scale ``B_n = n**bn_exponent`` and
    must lie strictly between 1/2 and 3/4.  ``complexity`` chooses the
    complexity function: ``"K_only"`` charges K, ``"K_times_p"`` charges
    K times the per-fit coefficient count.  ``min_seg_len`` of None defers
    to the family default: max(p + 1, 5) for adaptive fits, 5 otherwise.
    """

    bn_exponent: float = 0.625
    complexity: str = COMPLEXITY_K_ONLY
    k_max: int = 3
    min_seg_len: int | None = None
    use_estimated_pk: bool = True

    def __post_init__(self):
        if not 0.5 < self.bn_exponent < 0.75:
            raise ValueError(
                f"bn_exponent must lie in (1/2, 3/4), got {self.bn_exponent}"
            )
        if self.complexity not in (COMPLEXITY_K_ONLY, COMPLEXITY_K_TIMES_P):
            raise ValueError(f"unknown complexity tag {self.complexity!r}")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if self.min_seg_len is not None and self.min_seg_len < 1:
            raise ValueError("min_seg_len must be >= 1")


def effective_min_seg_len(
    penalty: PenaltyConfig, criterion: CriterionConfig | None, p: int
) -> int:
    """Minimum admissible segment length for a dataset with p covariates."""
    if criterion is not None and criterion.min_seg_len is not None:
        return criterion.min_seg_len
    if penalty.family == FAMILY_ADAPTIVE:
        return max(p + 1, 5)
    return 5


@dataclass(frozen=True, eq=False)
class SegmentFit:
    """Penalized fit of a single segment.

    ``penalized_cost`` is derived as ``rss + penalty_value`` at
    construction, so the decomposition identity holds by definition and is
    checked against independently computed costs in the tests.
    """

    coefficients: np.ndarray
    rss: float
    penalty_value: float
    active_set: frozenset[int]
    weights_used: np.ndarray | None = None
    penalized_cost: float = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _readonly(self.coefficients))
        object.__setattr__(self, "rss", float(self.rss))
        object.__setattr__(self, "penalty_value", float(self.penalty_value))
        object.__setattr__(self, "active_set", frozenset(int(k) for k in self.active_set))
        if self.weights_used is not None:
            object.__setattr__(self, "weights_used", _readonly(self.weights_used))
        if self.rss < 0:
            raise ValueError(f"negative rss {self.rss}")
        if self.penalty_value < 0:
            raise ValueError(f"negative penalty value {self.penalty_value}")
        object.__setattr__(self, "penalized_cost", self.rss + self.penalty_value)


@dataclass(frozen=True, eq=False)
class ChangePointFit:
    """Joint fit: K interior breakpoints plus K + 1 segment fits."""

    k: int
    breakpoints: tuple[int, ...]
    segment_fits: tuple[SegmentFit, ...]
    total_score: float
    family: str

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(int(b) for b in self.breakpoints))
        object.__setattr__(self, "segment_fits", tuple(self.segment_fits))
        object.__setattr__(self, "total_score", float(self.total_score))
        if self.k != len(self.breakpoints):
            raise DimensionMismatchError(
                f"k={self.k} but {len(self.breakpoints)} breakpoints"
            )
        if len(self.segment_fits) != self.k + 1:
            raise DimensionMismatchError(
                f"k={self.k} requires {self.k + 1} segment fits, "
                f"got {len(self.segment_fits)}"
            )


def center_columns(dataset: Dataset) -> Dataset:
    """Return a new dataset whose design columns have empirical mean 0.

    The response and any attached truth are carried over unchanged.
    Centering an already centered dataset is a no-op up to rounding.
    """
    if dataset.n < 2:
        raise DegenerateInputError(
            f"column centering needs at least 2 samples, got {dataset.n}"
        )
    centered = dataset.X - dataset.X.mean(axis=0, keepdims=True)
    return Dataset(y=dataset.y, X=centered, truth=dataset.truth)


def segment_ranges(breakpoints, n: int) -> tuple[SegmentRange, ...]:
    """Expand interior breakpoints into the K + 1 half-open segment ranges."""
    bounds = (0, *(int(b) for b in breakpoints), int(n))
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise EmptySegmentError(
            f"breakpoints {tuple(breakpoints)} do not partition 1..{n}"
        )
    return tuple(SegmentRange(a, b) for a, b in zip(bounds, bounds[1:]))


def breakpoints_from_ranges(ranges) -> tuple[int, ...]:
    """Inverse of segment_ranges: interior boundaries of a contiguous cover."""
    ranges = tuple(ranges)
    if not ranges:
        raise EmptySegmentError("no segments given")
    if ranges[0].start != 0:
        raise DimensionMismatchError("first segment must start at 0")
    for a, b in zip(ranges, ranges[1:]):
        if b.start != a.end:
            raise DimensionMismatchError(
                f"segments ({a.start}, {a.end}] and ({b.start}, {b.end}] "
                "are not contiguous"
            )
    return tuple(r.end for r in ranges[:-1])
