"""Breakpoint-count selection and post-fit inference.

The number of breakpoints is chosen by minimizing

    B(K) = n * log(max(s_K, 1e-300)) + G(K, p_K) * B_n,
    s_K  = (best K-break score) / n,
    B_n  = n ** bn_exponent,

over K = 0 .. k_max.  Under the ``K_only`` complexity tag G charges K
alone, so no coefficient count is needed; ``K_times_p`` charges K times
the coefficient count, either estimated from the active sets of the fit
or, on request, taken from the ground truth.

``active_set_standard_errors`` reports classical standard errors for the
active coordinates of an adaptive-family fit, with the noise variance
pooled across segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    InfeasiblePartitionError,
    SingularActiveGramError,
    TruthUnavailableError,
)
from .model import (
    COMPLEXITY_K_ONLY,
    FAMILY_ADAPTIVE,
    ChangePointFit,
    CriterionConfig,
    Dataset,
    PenaltyConfig,
    segment_ranges,
)
from .segmentation import _checked_search, _dense_fits, _two_stage_fit
from .solvers import _GRAM_COND_FLOOR

_SCORE_FLOOR = 1e-300
_TIE_REL = 1e-12


def _complexity(fit: ChangePointFit, dataset: Dataset, criterion: CriterionConfig) -> float:
    if criterion.complexity == COMPLEXITY_K_ONLY:
        return float(fit.k)
    if criterion.use_estimated_pk:
        p_k = sum(len(f.active_set) for f in fit.segment_fits)
    else:
        if dataset.truth is None:
            raise TruthUnavailableError(
                "truth-based coefficient count requested but the dataset "
                "carries no ground truth"
            )
        p_k = int(np.count_nonzero(dataset.truth.coefficients))
    return float(fit.k * p_k)


def criterion_value(
    dataset: Dataset, fit: ChangePointFit, criterion: CriterionConfig
) -> float:
    """Selection criterion B(K) evaluated at a fitted K-break model."""
    n = dataset.n
    s_k = fit.total_score / n
    b_n = float(n) ** criterion.bn_exponent
    return n * math.log(max(s_k, _SCORE_FLOOR)) + _complexity(fit, dataset, criterion) * b_n


@dataclass(frozen=True, eq=False)
class SelectionRow:
    """One line of the per-K diagnostic table."""

    k: int
    feasible: bool
    breakpoints: tuple[int, ...] | None
    s_k: float | None
    value: float | None


@dataclass(frozen=True, eq=False)
class SelectionResult:
    k_hat: int
    rows: tuple[SelectionRow, ...]
    best_fit: ChangePointFit


def select_k(
    dataset: Dataset,
    penalty: PenaltyConfig,
    criterion: CriterionConfig,
    *,
    grid_step: int | None = None,
) -> SelectionResult:
    """Fit K = 0 .. k_max and return the criterion minimizer.

    Ties within 1e-12 relative resolve toward the smaller K.  Infeasible K
    values (minimum segment length times K+1 exceeding n) are recorded in
    the table and skipped; if every K is infeasible the error propagates.
    Every feasible K is fitted before any criterion value is computed,
    through one search (``segmentation._Search``), so no segment is solved
    twice.  The default exact search solves every admissible segment once,
    and the fits of every K come from that one solve.  With ``grid_step``,
    each K runs ``refit_breakpoints_two_stage`` on that search.
    """
    if grid_step is not None and grid_step < 1:
        raise ValueError("grid_step must be >= 1")
    search = _checked_search(dataset, penalty, criterion)
    ks = range(criterion.k_max + 1)
    feasible = [k for k in ks if (k + 1) * search.min_len <= dataset.n]
    if grid_step is None:
        fits = _dense_fits(search, feasible)
    else:
        fits = {k: _two_stage_fit(search, k, grid_step) for k in feasible}
    rows = []
    best = None  # (value, k, fit)
    for k in ks:
        fit = fits.get(k)
        if fit is None:
            rows.append(SelectionRow(k, False, None, None, None))
            continue
        value = criterion_value(dataset, fit, criterion)
        rows.append(
            SelectionRow(k, True, fit.breakpoints, fit.total_score / dataset.n, value)
        )
        if best is None:
            best = (value, k, fit)
        else:
            tie = abs(value - best[0]) <= _TIE_REL * max(abs(value), abs(best[0]))
            if not tie and value < best[0]:
                best = (value, k, fit)
    if best is None:
        raise InfeasiblePartitionError(
            f"no K in 0..{criterion.k_max} admits segments of length "
            f">= {search.min_len} in {dataset.n} samples"
        )
    return SelectionResult(k_hat=best[1], rows=tuple(rows), best_fit=best[2])


@dataclass(frozen=True, eq=False)
class StandardErrorReport:
    """Pooled noise variance and per-segment active-coordinate standard errors.

    ``per_segment[r]`` maps coordinate index to its standard error; a
    segment with an empty active set gets an empty map.
    """

    sigma2: float
    dof: int
    per_segment: tuple[dict[int, float], ...]


def active_set_standard_errors(
    dataset: Dataset, fit: ChangePointFit
) -> StandardErrorReport:
    """Classical standard errors on the active set of each segment.

    The noise variance is pooled: residual sum of squares over all
    segments divided by n minus the total active count.  Within a segment
    the standard error of an active coordinate is the square root of the
    corresponding diagonal entry of sigma2 * (X_A' X_A)^{-1}, with X_A the
    segment rows restricted to active columns.
    """
    if fit.family != FAMILY_ADAPTIVE:
        raise ValueError(
            f"standard errors are defined for adaptive-family fits, "
            f"got {fit.family!r}"
        )
    ranges = segment_ranges(fit.breakpoints, dataset.n)
    total_active = sum(len(f.active_set) for f in fit.segment_fits)
    dof = dataset.n - total_active
    if dof <= 0:
        raise DegenerateInputError(
            f"{total_active} active coefficients leave no degrees of "
            f"freedom in {dataset.n} samples"
        )
    sigma2 = sum(f.rss for f in fit.segment_fits) / dof
    per_segment = []
    for rng, seg in zip(ranges, fit.segment_fits):
        active = sorted(seg.active_set)
        if not active:
            per_segment.append({})
            continue
        Xa = dataset.X[rng.start : rng.end][:, active]
        gram = Xa.T @ Xa
        w = np.linalg.eigvalsh(gram)
        if w[-1] <= 0.0 or w[0] < _GRAM_COND_FLOOR * w[-1]:
            raise SingularActiveGramError(
                f"active-set Gram of segment ({rng.start}, {rng.end}] is "
                f"numerically singular"
            )
        inv = np.linalg.inv(gram)
        per_segment.append(
            {k: float(np.sqrt(sigma2 * inv[i, i])) for i, k in enumerate(active)}
        )
    return StandardErrorReport(
        sigma2=float(sigma2), dof=int(dof), per_segment=tuple(per_segment)
    )
