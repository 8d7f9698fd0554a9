"""Scenario generation, Monte Carlo evaluation, and the localization limit law.

The built-in study design has ten independent Gaussian covariates with
unit variances and means (0, 0, 2, 4, 1, 0, 0, 0, 0, 0), standard normal
errors, and three coefficient regimes with 12 truly-zero and 18 truly
nonzero entries.  Five preset layouts place two breakpoints at increasing
sample sizes; ``table_preset`` returns them ready to run.

Reproducibility: every replication draws from a generator seeded by
``SeedSequence(master_seed, spawn_key=(replication_index,))``, so results
are bit-identical regardless of how replications are distributed over
worker processes.
"""

from __future__ import annotations

import numbers
import operator
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    SegbreakError,
    TooManyFailuresError,
    WindowTooSmallWarning,
)
from .model import (
    FAMILY_ADAPTIVE,
    CriterionConfig,
    Dataset,
    PenaltyConfig,
    TruthInfo,
    effective_min_seg_len,
    segment_ranges,
    _readonly,
)
from .segmentation import _check_feasible, _checked_search, _two_stage_fit
from .selection import active_set_standard_errors, select_k

REGIME_COEFFICIENTS = (
    (1.0, 0.0, 4.0, 0.0, -3.0, 5.0, 6.0, 0.0, -1.0, 0.0),
    (0.0, 3.0, -4.0, -3.0, 0.0, 1.0, 2.0, -3.0, 0.0, 10.0),
    (1.0, 3.0, 4.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
)

TABLE_LAYOUTS = {
    1: (50, (20, 35)),
    2: (100, (20, 85)),
    3: (400, (20, 385)),
    4: (500, (200, 400)),
    5: (1500, (200, 400)),
}

_ERROR_FAMILIES = ("gaussian", "uniform", "student_t")
# sample_limit_law draws each chunk's covariates and then its errors, so the
# chunk size fixes the order of draws: changing it changes every sample.
_LIMIT_CHUNK = 20000


def default_covariate_means(p: int) -> np.ndarray:
    """Study-design covariate means: 2, 4, 1 for the third, fourth, and
    fifth covariate, 0 elsewhere."""
    means = np.zeros(p)
    for idx, value in ((2, 2.0), (3, 4.0), (4, 1.0)):
        if idx < p:
            means[idx] = value
    return means


@dataclass(frozen=True)
class ErrorSpec:
    """Error distribution hook: gaussian, uniform, or student_t, scaled to
    standard deviation ``std`` (student_t needs df > 2)."""

    family: str = "gaussian"
    std: float = 1.0
    df: float | None = None

    def __post_init__(self):
        if self.family not in _ERROR_FAMILIES:
            raise ValueError(f"unknown error family {self.family!r}")
        for name in ("std", "df"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name!r} must be finite")
        if self.std < 0:
            raise ValueError("std must be nonnegative")
        if self.family == "student_t" and (self.df is None or self.df <= 2):
            raise ValueError("student_t errors need df > 2")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.family == "gaussian":
            return self.std * rng.standard_normal(size)
        if self.family == "uniform":
            return self.std * np.sqrt(3.0) * rng.uniform(-1.0, 1.0, size)
        return self.std * np.sqrt((self.df - 2.0) / self.df) * rng.standard_t(self.df, size)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(name: str, value) -> int:
    """``value`` as an int if it is an integer or an integral float (not a
    bool or a string); otherwise ValueError naming the field ``name``."""
    if _is_number(value) and (isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    raise ValueError(f"{name!r} must be an integer, got {value!r}")


def _numbers(name: str, value, ndim: int) -> np.ndarray:
    """``value`` as an array if it is a rectangular array of integers or floats
    of at most ``ndim`` dimensions; otherwise ValueError naming the field."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged
        array = None
    if array is None or array.dtype.kind not in "iuf" or array.ndim > ndim:
        raise ValueError(f"{name!r} must be a {ndim}-d array of numbers, got {value!r}")
    return array


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Complete description of a simulated dataset.

    ``breakpoints`` are the true interior breakpoints, ``coefficient_vectors``
    has one row per regime, and adjacent regimes must differ.
    ``covariate_means`` of None materializes the study-design default for
    the given p.  ``n``, the breakpoints and ``seed`` may be integral floats;
    a value of the wrong type raises ValueError naming its field.
    """

    n: int
    breakpoints: tuple[int, ...]
    coefficient_vectors: np.ndarray
    covariate_means: np.ndarray | None = None
    error_std: float = 1.0
    seed: int = 0
    error_family: str = "gaussian"
    error_df: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n))
        try:
            bps = tuple(_integer("breakpoints", b) for b in self.breakpoints)
        except (TypeError, ValueError):
            raise ValueError(
                f"'breakpoints' must be a sequence of integers, got {self.breakpoints!r}"
            ) from None
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if not _is_number(self.error_std):
            raise ValueError(f"'error_std' must be a number, got {self.error_std!r}")
        if not (self.error_df is None or _is_number(self.error_df)):
            raise ValueError(f"'error_df' must be a number or None, got {self.error_df!r}")
        coef = _readonly(_numbers("coefficient_vectors", self.coefficient_vectors, 2), ndmin=2)
        object.__setattr__(self, "coefficient_vectors", coef)
        if coef.shape[1] == 0:
            raise ValueError("'coefficient_vectors' must hold at least one column")
        if coef.shape[0] != len(self.breakpoints) + 1:
            raise ValueError(
                f"{len(self.breakpoints)} breakpoints imply "
                f"{len(self.breakpoints) + 1} regimes, got {coef.shape[0]} rows"
            )
        same = np.flatnonzero((coef[1:] == coef[:-1]).all(axis=1))
        if len(same):
            raise ValueError(f"'coefficient_vectors' rows {same[0]} and {same[0] + 1} are equal")
        means = (
            default_covariate_means(coef.shape[1])
            if self.covariate_means is None
            else _numbers("covariate_means", self.covariate_means, 1)
        )
        if means.shape != (coef.shape[1],):
            raise ValueError(
                f"covariate_means shape {means.shape} does not match p={coef.shape[1]}"
            )
        object.__setattr__(self, "covariate_means", _readonly(means))
        for name in ("coefficient_vectors", "covariate_means", "error_std", "error_df"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name!r} must be finite")
        bounds = (0, *self.breakpoints, self.n)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"breakpoints {self.breakpoints} do not partition 1..{self.n}"
            )
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        self.error_spec()  # validates family/std/df

    @property
    def p(self) -> int:
        return self.coefficient_vectors.shape[1]

    def error_spec(self) -> ErrorSpec:
        return ErrorSpec(family=self.error_family, std=self.error_std, df=self.error_df)


def _generate(spec: ScenarioSpec, seq: np.random.SeedSequence) -> Dataset:
    rng = np.random.default_rng(seq)
    X = rng.standard_normal((spec.n, spec.p)) + spec.covariate_means[None, :]
    eps = spec.error_spec().draw(rng, spec.n)
    y = np.empty(spec.n)
    bounds = (0, *spec.breakpoints, spec.n)
    for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
        y[a:b] = X[a:b] @ spec.coefficient_vectors[r] + eps[a:b]
    truth = TruthInfo(
        breakpoints=spec.breakpoints,
        coefficients=spec.coefficient_vectors,
        noise=eps,
    )
    return Dataset(y=y, X=X, truth=truth)


def generate_scenario(spec: ScenarioSpec) -> Dataset:
    """Draw the dataset described by ``spec``; bit-identical per seed."""
    return _generate(spec, np.random.SeedSequence(spec.seed))


def replication_dataset(spec: ScenarioSpec, replication: int) -> Dataset:
    """Dataset of one Monte Carlo replication under the master seed."""
    return _generate(
        spec, np.random.SeedSequence(spec.seed, spawn_key=(replication,))
    )


@dataclass(frozen=True)
class LsBaselineMetrics:
    """Zero-recovery metrics of unpenalized least squares refitted at the
    estimated breakpoints."""

    pct_true_zero: float
    pct_false_zero: float


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    """Aggregated Monte Carlo results.

    Zero-recovery percentages and breakpoint-error entries aggregate over
    the ``metric_replications`` replications whose fitted breakpoint count
    equals the true one (always the case under a fixed K equal to the
    truth).  ``median_breakpoints`` is the per-breakpoint lower median, an
    order statistic and hence always an observed integer value.
    ``selected_k_counts`` is populated when K was selected per replication
    rather than fixed; ``coverage_hits``/``coverage_total`` when interval
    coverage was requested.
    """

    replications: int
    completed: int
    metric_replications: int
    median_breakpoints: tuple[int, ...]
    pct_true_zero: float
    pct_false_zero: float
    breakpoint_error_histogram: dict[tuple[int, int], int]
    ls_baseline: LsBaselineMetrics
    failures: int
    true_zero_count: int
    true_nonzero_count: int
    truth_dominated: bool
    selected_k_counts: dict[int, int] | None = None
    coverage_hits: int | None = None
    coverage_total: int | None = None


@dataclass
class _RepOutcome:
    failed: bool = False
    message: str = ""
    comparable: bool = False
    breakpoints: tuple = ()
    offsets: tuple = ()
    true_zero_hits: int = 0
    false_zero_hits: int = 0
    ls_true_zero_hits: int = 0
    ls_false_zero_hits: int = 0
    k_hat: int | None = None
    coverage_hits: int = 0
    coverage_total: int = 0
    dominance_ok: bool = True


def _ls_zero_hits(dataset: Dataset, breakpoints, truth_zero_mask):
    """Exact-zero counts for least-squares refits at the given breakpoints.

    Uses the pseudoinverse solution, which is defined for segments of any
    length and has exactly-zero coordinates only on null sets.
    """
    true_hits = 0
    false_hits = 0
    for r, rng in enumerate(segment_ranges(breakpoints, dataset.n)):
        X = dataset.X[rng.start : rng.end]
        y = dataset.y[rng.start : rng.end]
        phi, *_ = np.linalg.lstsq(X, y, rcond=None)
        zero = phi == 0.0
        true_hits += int(np.count_nonzero(zero & truth_zero_mask[r]))
        false_hits += int(np.count_nonzero(zero & ~truth_zero_mask[r]))
    return true_hits, false_hits


def _replicate(args) -> _RepOutcome:
    (spec, rep, penalty, criterion, fixed_k, grid_step, with_se, z_value) = args
    out = _RepOutcome()
    dataset = replication_dataset(spec, rep)
    truth = dataset.truth
    true_k = len(truth.breakpoints)
    try:
        if fixed_k is None:
            selection = select_k(dataset, penalty, criterion, grid_step=grid_step)
            fit = selection.best_fit
            out.k_hat = selection.k_hat
        else:
            # grid step 1 is the exact search
            search = _checked_search(dataset, penalty, criterion)
            fit = _two_stage_fit(search, fixed_k, 1 if grid_step is None else grid_step)

        out.comparable = fit.k == true_k
        if not out.comparable:
            return out
        out.breakpoints = fit.breakpoints
        out.offsets = tuple(
            int(est - tru) for est, tru in zip(fit.breakpoints, truth.breakpoints)
        )

        truth_zero = truth.coefficients == 0.0
        est = np.stack([f.coefficients for f in fit.segment_fits])
        est_zero = est == 0.0
        out.true_zero_hits = int(np.count_nonzero(truth_zero & est_zero))
        out.false_zero_hits = int(np.count_nonzero(~truth_zero & est_zero))
        out.ls_true_zero_hits, out.ls_false_zero_hits = _ls_zero_hits(
            dataset, fit.breakpoints, truth_zero
        )

        if fixed_k is not None:
            bounds = np.array([0, *truth.breakpoints, dataset.n])
            starts, ends = bounds[:-1], bounds[1:]
            if (ends - starts >= search.min_len).all():
                # scored from the record that scored the search's segments
                truth_score = float(search.costs(starts, ends).sum())
                ok = fit.total_score <= truth_score * (1.0 + 1e-9) + 1e-9
                if grid_step is None and not ok:
                    raise ConsistencyError(
                        f"exact search score {fit.total_score!r} exceeds the "
                        f"true-breakpoint score {truth_score!r}"
                    )
                out.dominance_ok = bool(ok)

        if with_se and penalty.family == FAMILY_ADAPTIVE:
            report = active_set_standard_errors(dataset, fit)
            for r in range(true_k + 1):
                seg = fit.segment_fits[r]
                ses = report.per_segment[r]
                for kcoord, se in ses.items():
                    if truth.coefficients[r, kcoord] == 0.0:
                        continue
                    err = abs(seg.coefficients[kcoord] - truth.coefficients[r, kcoord])
                    out.coverage_total += 1
                    if err <= z_value * se:
                        out.coverage_hits += 1
    except SegbreakError as exc:
        out.failed = True
        out.message = f"{type(exc).__name__}: {exc}"
    return out


def _lower_median(values) -> int:
    ordered = sorted(values)
    return int(ordered[(len(ordered) - 1) // 2])


def run_monte_carlo(
    spec: ScenarioSpec,
    replications: int,
    penalty: PenaltyConfig,
    criterion: CriterionConfig | None = None,
    *,
    fixed_k: int | None = None,
    workers: int = 1,
    grid_step: int | None = None,
    with_standard_errors: bool = False,
    z_value: float = 1.96,
) -> MonteCarloReport:
    """Run replications of the scenario and aggregate recovery metrics.

    ``fixed_k`` of None selects K per replication with ``criterion`` (then
    required); otherwise every replication fits exactly ``fixed_k``
    breakpoints.  ``grid_step`` switches the per-replication search to the
    approximate two-stage grid and must be at least 1 (1 is the exact
    search); None keeps the exact dynamic program.
    Failed replications are counted and excluded; strictly more than 10%
    failures raises TooManyFailuresError.  Results are independent of
    ``workers``.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if fixed_k is None and criterion is None:
        raise ValueError("selecting K needs a CriterionConfig")
    if fixed_k is not None and fixed_k < 0:
        raise ValueError("fixed_k must be >= 0")
    if fixed_k is not None:
        _check_feasible(spec.n, fixed_k, effective_min_seg_len(penalty, criterion, spec.p))
    if grid_step is not None and grid_step < 1:
        raise ValueError("grid_step must be >= 1")
    args = [
        (spec, rep, penalty, criterion, fixed_k, grid_step,
         with_standard_errors, z_value)
        for rep in range(replications)
    ]
    if workers <= 1:
        outcomes = [_replicate(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, replications // (workers * 4))
            outcomes = list(pool.map(_replicate, args, chunksize=chunksize))

    failures = sum(1 for o in outcomes if o.failed)
    if failures * 10 > replications:
        first = next(o.message for o in outcomes if o.failed)
        raise TooManyFailuresError(
            f"{failures} of {replications} replications failed; first: {first}"
        )
    good = [o for o in outcomes if not o.failed]
    comparable = [o for o in good if o.comparable]

    true_zero_count = int(np.count_nonzero(spec.coefficient_vectors == 0.0))
    true_nonzero_count = spec.coefficient_vectors.size - true_zero_count
    n_metric = len(comparable)
    true_k = len(spec.breakpoints)

    if n_metric:
        medians = tuple(
            _lower_median([o.breakpoints[r] for o in comparable])
            for r in range(true_k)
        )
        zero_den = true_zero_count * n_metric
        nonzero_den = true_nonzero_count * n_metric
        pct_true = 100.0 * sum(o.true_zero_hits for o in comparable) / zero_den if zero_den else 0.0
        pct_false = 100.0 * sum(o.false_zero_hits for o in comparable) / nonzero_den if nonzero_den else 0.0
        ls_true = 100.0 * sum(o.ls_true_zero_hits for o in comparable) / zero_den if zero_den else 0.0
        ls_false = 100.0 * sum(o.ls_false_zero_hits for o in comparable) / nonzero_den if nonzero_den else 0.0
    else:
        medians = ()
        pct_true = pct_false = ls_true = ls_false = 0.0

    histogram: dict[tuple[int, int], int] = {}
    for o in comparable:
        for r, off in enumerate(o.offsets, start=1):
            key = (r, off)
            histogram[key] = histogram.get(key, 0) + 1

    selected = None
    if fixed_k is None:
        selected = dict(sorted(Counter(o.k_hat for o in good).items()))

    cov_hits = cov_total = None
    if with_standard_errors:
        cov_hits = sum(o.coverage_hits for o in comparable)
        cov_total = sum(o.coverage_total for o in comparable)

    return MonteCarloReport(
        replications=replications,
        completed=len(good),
        metric_replications=n_metric,
        median_breakpoints=medians,
        pct_true_zero=pct_true,
        pct_false_zero=pct_false,
        breakpoint_error_histogram=histogram,
        ls_baseline=LsBaselineMetrics(pct_true_zero=ls_true, pct_false_zero=ls_false),
        failures=failures,
        true_zero_count=true_zero_count,
        true_nonzero_count=true_nonzero_count,
        truth_dominated=all(o.dominance_ok for o in comparable),
        selected_k_counts=selected,
        coverage_hits=cov_hits,
        coverage_total=cov_total,
    )


@dataclass(frozen=True, eq=False)
class LimitLawSample:
    """Empirical law of the breakpoint localization error.

    ``probabilities`` maps each offset in -window..window to its mass;
    ``z_mean`` holds the average of the random walk at each offset, a
    drift diagnostic (positive away from 0 when the regimes differ).
    """

    window: int
    draws: int
    counts: dict[int, int]
    probabilities: dict[int, float]
    escape_rate: float
    z_mean: dict[int, float]


def _finite_vector(values, name: str) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name!r} must be 1-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name!r} must be finite")
    return out


def sample_limit_law(
    phi_left,
    phi_right,
    covariate_means,
    error: ErrorSpec | None = None,
    *,
    window: int = 30,
    draws: int = 100000,
    seed: int = 0,
) -> LimitLawSample:
    """Monte Carlo draw of the asymptotic breakpoint-error distribution.

    For a breakpoint between regimes with coefficients ``phi_left`` and
    ``phi_right``, the localization error converges to the argmin over
    integer offsets j of a two-sided random walk started at 0:  each step
    to the right adds ``(e - x'(phi_left - phi_right))^2 - e^2`` with fresh
    covariates x and error e, and each step to the left adds the mirrored
    increment with the difference reversed.  The walk is truncated at
    ``window`` steps per side; draws whose argmin lands on the edge are
    counted and a WindowTooSmallWarning is emitted if they exceed 1% of
    the total.  Ties resolve to the smallest |j|, then the smaller j.

    Draws are taken in chunks of at most ``_LIMIT_CHUNK``; the covariates
    of a chunk are drawn about 1 MiB at a time and kept only as their
    projection on the regime difference, so working memory is
    O(chunk * window) and independent of p.
    """
    window = operator.index(window)
    draws = operator.index(draws)
    if window < 1:
        raise ValueError("window must be >= 1")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    phi_left = _finite_vector(phi_left, "phi_left")
    phi_right = _finite_vector(phi_right, "phi_right")
    means = _finite_vector(covariate_means, "covariate_means")
    if phi_left.shape != phi_right.shape or phi_left.shape != means.shape:
        raise ValueError("phi_left, phi_right, covariate_means must share a shape")
    error = error or ErrorSpec()
    d_pos = phi_left - phi_right
    d_neg = -d_pos
    p = phi_left.shape[0]
    # column order 0, -1, +1, -2, +2, ...: argmin's first-hit rule then
    # matches the smallest-|j|, smaller-j tie rule
    col_offsets = np.empty(2 * window + 1, dtype=np.int64)
    col_offsets[0] = 0
    col_offsets[1::2] = -np.arange(1, window + 1)
    col_offsets[2::2] = np.arange(1, window + 1)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = np.zeros(2 * window + 1, dtype=np.int64)
    z_sum = np.zeros(2 * window + 1)
    # about 1 MiB of covariates at a time, filled in the generator's order
    block = np.empty((max(1, (1 << 17) // (window * max(p, 1))), window, p))
    done = 0
    while done < draws:
        c = min(_LIMIT_CHUNK, draws - done)
        vals = np.zeros((c, 2 * window + 1))
        proj = np.empty((c, window))
        for cols, diff in ((slice(2, None, 2), d_pos), (slice(1, None, 2), d_neg)):
            for start in range(0, c, block.shape[0]):
                rows = block[: c - start]
                rng.standard_normal(out=rows)
                rows += means
                proj[start : start + rows.shape[0]] = rows @ diff
            e = error.draw(rng, (c, window))
            steps = (e - proj) ** 2 - e**2
            vals[:, cols] = np.cumsum(steps, axis=1)
        picked = np.argmin(vals, axis=1)
        counts += np.bincount(picked, minlength=2 * window + 1)
        z_sum += vals.sum(axis=0)
        done += c

    escape = int(counts[2 * window - 1] + counts[2 * window])
    escape_rate = escape / draws
    if escape_rate > 0.01:
        warnings.warn(
            f"{100.0 * escape_rate:.2f}% of draws attained their minimum at "
            f"the window edge; enlarge window={window}",
            WindowTooSmallWarning,
            stacklevel=2,
        )
    order = np.argsort(col_offsets)
    return LimitLawSample(
        window=window,
        draws=draws,
        counts={int(col_offsets[i]): int(counts[i]) for i in order},
        probabilities={int(col_offsets[i]): counts[i] / draws for i in order},
        escape_rate=escape_rate,
        z_mean={int(col_offsets[i]): z_sum[i] / draws for i in order},
    )


def write_dataset(dataset: Dataset, path, delimiter: str = " ") -> None:
    """Write ``y`` then the columns of ``X`` as delimited text.

    Values are rendered with shortest round-trip precision, so reading the
    file back reproduces the arrays exactly.
    """
    rows = np.column_stack((dataset.y, dataset.X)).tolist()
    with open(path, "w") as fh:
        fh.writelines(delimiter.join(map(repr, row)) + "\n" for row in rows)


def table_preset(
    table: int, *, g: float = 0.2, rho: float = 0.45, seed: int = 0
) -> tuple[ScenarioSpec, PenaltyConfig]:
    """Scenario and adaptive penalty config of one of the five preset
    layouts; (g, rho) default to the column shared by all of them."""
    if table not in TABLE_LAYOUTS:
        raise ValueError(f"table must be one of {sorted(TABLE_LAYOUTS)}, got {table}")
    n, breakpoints = TABLE_LAYOUTS[table]
    spec = ScenarioSpec(
        n=n,
        breakpoints=breakpoints,
        coefficient_vectors=REGIME_COEFFICIENTS,
        seed=seed,
    )
    return spec, PenaltyConfig(family=FAMILY_ADAPTIVE, g=g, rho=rho)


def one_break_spec(n: int = 100, breakpoint: int = 35, seed: int = 0) -> ScenarioSpec:
    """Single-break design: first and third study regimes around one
    breakpoint; used to exercise breakpoint-count selection."""
    return ScenarioSpec(
        n=n,
        breakpoints=(breakpoint,),
        coefficient_vectors=(REGIME_COEFFICIENTS[0], REGIME_COEFFICIENTS[2]),
        seed=seed,
    )
