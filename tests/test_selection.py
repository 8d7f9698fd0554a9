"""Breakpoint-count selection criterion and post-fit standard errors."""

import math

import numpy as np
import pytest

import segbreak.segmentation as segmentation_module
import segbreak.selection as selection_module
from segbreak import (
    ChangePointFit,
    CriterionConfig,
    Dataset,
    DegenerateInputError,
    InfeasiblePartitionError,
    PenaltyConfig,
    SegmentFit,
    SingularActiveGramError,
    TruthInfo,
    TruthUnavailableError,
    active_set_standard_errors,
    criterion_value,
    optimal_breakpoints,
    select_k,
)


def _one_break(n=60, p=3, b=30, seed=0, sigma=0.3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    coef = np.zeros((2, p))
    coef[0, 0], coef[1, 1] = 3.0, -3.0
    y = np.empty(n)
    y[:b] = X[:b] @ coef[0]
    y[b:] = X[b:] @ coef[1]
    y += sigma * rng.standard_normal(n)
    truth = TruthInfo(breakpoints=(b,), coefficients=coef)
    return Dataset(y=y, X=X, truth=truth)


def _flat_fit(n, rss, active=(), family="adaptive", p=2):
    seg = SegmentFit(
        coefficients=np.zeros(p),
        rss=rss,
        penalty_value=0.0,
        active_set=frozenset(active),
        weights_used=None,
    )
    return ChangePointFit(
        k=0, breakpoints=(), segment_fits=(seg,), total_score=rss, family=family
    )


class TestCriterionValue:
    def test_hand_recomputation(self):
        ds = _one_break(seed=3)
        crit = CriterionConfig(bn_exponent=0.625)
        fit = optimal_breakpoints(ds, 1, PenaltyConfig(), crit)
        expected = ds.n * math.log(fit.total_score / ds.n) + 1.0 * ds.n**0.625
        assert criterion_value(ds, fit, crit) == pytest.approx(expected, rel=1e-12)

    def test_unit_score_zero_breaks_gives_zero(self):
        n = 50
        ds = Dataset(y=np.zeros(n), X=np.ones((n, 2)))
        fit = _flat_fit(n, rss=float(n))  # s_0 = 1, K = 0
        assert criterion_value(ds, fit, CriterionConfig()) == 0.0

    def test_zero_score_hits_floor_not_minus_inf(self):
        n = 40
        ds = Dataset(y=np.zeros(n), X=np.ones((n, 2)))
        fit = _flat_fit(n, rss=0.0)
        v = criterion_value(ds, fit, CriterionConfig())
        assert math.isfinite(v)
        assert v == pytest.approx(n * math.log(1e-300))

    def test_complexity_from_active_sets(self):
        ds = _one_break(seed=7)
        crit = CriterionConfig(complexity="K_times_p")
        fit = optimal_breakpoints(ds, 1, PenaltyConfig(), crit)
        p_hat = sum(len(f.active_set) for f in fit.segment_fits)
        expected = ds.n * math.log(fit.total_score / ds.n) + 1 * p_hat * ds.n**0.625
        assert criterion_value(ds, fit, crit) == pytest.approx(expected, rel=1e-12)

    def test_complexity_from_truth(self):
        ds = _one_break(seed=11)
        crit = CriterionConfig(complexity="K_times_p", use_estimated_pk=False)
        fit = optimal_breakpoints(ds, 1, PenaltyConfig(), crit)
        truth_nonzero = int(np.count_nonzero(ds.truth.coefficients))  # 2
        expected = (
            ds.n * math.log(fit.total_score / ds.n)
            + 1 * truth_nonzero * ds.n**0.625
        )
        assert criterion_value(ds, fit, crit) == pytest.approx(expected, rel=1e-12)

    def test_truth_complexity_without_truth_raises(self):
        ds = Dataset(y=np.zeros(30), X=np.random.default_rng(13).standard_normal((30, 2)))
        crit = CriterionConfig(complexity="K_times_p", use_estimated_pk=False)
        fit = optimal_breakpoints(ds, 1, PenaltyConfig(), crit)
        with pytest.raises(TruthUnavailableError):
            criterion_value(ds, fit, crit)


class TestSelectK:
    def test_clean_break_selected(self):
        ds = _one_break(n=60, b=30, seed=17, sigma=0.3)
        result = select_k(ds, PenaltyConfig(), CriterionConfig())
        assert result.k_hat == 1
        assert result.best_fit.breakpoints == (30,)

    def test_pure_noise_selects_zero(self):
        rng = np.random.default_rng(19)
        ds = Dataset(y=rng.standard_normal(100), X=rng.standard_normal((100, 3)))
        result = select_k(ds, PenaltyConfig(), CriterionConfig())
        assert result.k_hat == 0

    def test_rows_cover_all_k(self):
        ds = _one_break(n=60, b=30, seed=23)
        result = select_k(ds, PenaltyConfig(), CriterionConfig(k_max=3))
        assert [row.k for row in result.rows] == [0, 1, 2, 3]
        assert all(row.feasible for row in result.rows)
        feasible_vals = [row.value for row in result.rows]
        assert min(feasible_vals) == feasible_vals[result.k_hat]

    def test_infeasible_k_recorded_and_skipped(self):
        # n = 24 with min lengths of 11 admits K = 0 and K = 1 only
        ds = _one_break(n=24, p=10, b=12, seed=29)
        result = select_k(ds, PenaltyConfig(), CriterionConfig(k_max=3))
        flags = {row.k: row.feasible for row in result.rows}
        assert flags[0] and flags[1]
        assert not flags[2] and not flags[3]
        infeasible = [row for row in result.rows if not row.feasible]
        assert all(
            row.breakpoints is None and row.s_k is None and row.value is None
            for row in infeasible
        )

    def test_all_infeasible_raises(self):
        ds = _one_break(n=8, p=10, b=4, seed=31)
        with pytest.raises(InfeasiblePartitionError):
            select_k(ds, PenaltyConfig(), CriterionConfig())

    def test_exact_tie_prefers_smaller_k(self, monkeypatch):
        ds = _one_break(n=60, b=30, seed=37)
        monkeypatch.setattr(
            selection_module, "criterion_value", lambda dataset, fit, criterion: 5.0
        )
        result = select_k(ds, PenaltyConfig(), CriterionConfig())
        assert result.k_hat == 0

    def test_near_tie_within_tolerance_prefers_smaller_k(self, monkeypatch):
        ds = _one_break(n=60, b=30, seed=41)
        values = {0: 5.0, 1: 5.0 * (1.0 + 1e-13), 2: 3.0, 3: 10.0}

        def fake(dataset, fit, criterion):
            return values[fit.k]

        monkeypatch.setattr(selection_module, "criterion_value", fake)
        result = select_k(ds, PenaltyConfig(), CriterionConfig())
        assert result.k_hat == 2  # strict improvement wins; the 0-vs-1 tie kept 0

    def test_grid_search_agrees_with_exact_here(self):
        ds = _one_break(n=80, b=40, seed=43)
        exact = select_k(ds, PenaltyConfig(), CriterionConfig())
        staged = select_k(ds, PenaltyConfig(), CriterionConfig(), grid_step=5)
        assert staged.k_hat == exact.k_hat
        assert staged.best_fit.breakpoints == exact.best_fit.breakpoints

    def test_bad_grid_step_raises_before_any_statistics(self, monkeypatch):
        # the step is checked before the search builds its cumulative sums
        def unreachable(dataset):
            raise AssertionError("cumulative statistics built for a bad grid_step")

        monkeypatch.setattr(segmentation_module, "_cumulative_stats", unreachable)
        ds = _one_break(n=60, b=30, seed=47)
        with pytest.raises(ValueError, match="grid_step must be >= 1"):
            select_k(ds, PenaltyConfig(), CriterionConfig(), grid_step=0)


class TestStandardErrors:
    def _orthogonal_design(self, n=100):
        X = np.ones((n, 2))
        X[1::2, 1] = -1.0  # columns orthogonal, Gram = n * I
        return X

    def test_orthogonal_design_closed_form(self):
        # Gram = 100 I and pooled sigma2 = 1 give SE = sqrt(1/100) = 0.1
        n = 100
        X = self._orthogonal_design(n)
        seg = SegmentFit(
            coefficients=np.array([1.0, 2.0]),
            rss=float(n - 2),
            penalty_value=0.0,
            active_set=frozenset({0, 1}),
            weights_used=None,
        )
        fit = ChangePointFit(
            k=0, breakpoints=(), segment_fits=(seg,), total_score=seg.rss,
            family="adaptive",
        )
        ds = Dataset(y=np.zeros(n), X=X)
        report = active_set_standard_errors(ds, fit)
        assert report.sigma2 == pytest.approx(1.0, rel=1e-12)
        assert report.dof == n - 2
        assert report.per_segment[0][0] == pytest.approx(0.1, abs=1e-12)
        assert report.per_segment[0][1] == pytest.approx(0.1, abs=1e-12)

    def test_pooled_variance_across_segments(self):
        ds = _one_break(n=60, b=30, seed=47, sigma=0.5)
        fit = optimal_breakpoints(ds, 1, PenaltyConfig())
        report = active_set_standard_errors(ds, fit)
        total_active = sum(len(f.active_set) for f in fit.segment_fits)
        expected_sigma2 = sum(f.rss for f in fit.segment_fits) / (60 - total_active)
        assert report.sigma2 == pytest.approx(expected_sigma2, rel=1e-12)
        for seg, ses in zip(fit.segment_fits, report.per_segment):
            assert set(ses) == set(seg.active_set)
            assert all(v > 0 for v in ses.values())

    def test_empty_active_set_gets_empty_map(self):
        n = 40
        ds = Dataset(y=np.zeros(n), X=np.random.default_rng(53).standard_normal((n, 2)))
        fit = _flat_fit(n, rss=10.0)
        report = active_set_standard_errors(ds, fit)
        assert report.per_segment == ({},)
        assert report.sigma2 == pytest.approx(10.0 / n)

    def test_non_adaptive_family_rejected(self):
        ds = _one_break(seed=59)
        fit = _flat_fit(ds.n, rss=1.0, family="lasso_type", p=3)
        with pytest.raises(ValueError):
            active_set_standard_errors(ds, fit)

    def test_singular_active_gram(self):
        n = 30
        X = np.ones((n, 2))  # identical active columns
        ds = Dataset(y=np.zeros(n), X=X)
        seg = SegmentFit(
            coefficients=np.array([1.0, 1.0]),
            rss=5.0,
            penalty_value=0.0,
            active_set=frozenset({0, 1}),
            weights_used=None,
        )
        fit = ChangePointFit(
            k=0, breakpoints=(), segment_fits=(seg,), total_score=5.0,
            family="adaptive",
        )
        with pytest.raises(SingularActiveGramError):
            active_set_standard_errors(ds, fit)

    def test_no_degrees_of_freedom(self):
        n = 4
        ds = Dataset(y=np.zeros(n), X=np.eye(4))
        seg = SegmentFit(
            coefficients=np.ones(4),
            rss=0.0,
            penalty_value=0.0,
            active_set=frozenset(range(4)),
            weights_used=None,
        )
        fit = ChangePointFit(
            k=0, breakpoints=(), segment_fits=(seg,), total_score=0.0,
            family="adaptive",
        )
        with pytest.raises(DegenerateInputError):
            active_set_standard_errors(ds, fit)
