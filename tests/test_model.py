"""Domain types, validation, and index conventions."""

import numpy as np
import pytest

from segbreak import (
    ChangePointFit,
    CriterionConfig,
    Dataset,
    DegenerateInputError,
    DimensionMismatchError,
    EmptySegmentError,
    NonFiniteValueError,
    PenaltyConfig,
    SegmentFit,
    SegmentRange,
    TruthInfo,
    breakpoints_from_ranges,
    center_columns,
    effective_min_seg_len,
    segment_ranges,
)


def _dataset(n=6, p=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return Dataset(y=y, X=X)


_TRUTH = TruthInfo(breakpoints=(3,), coefficients=[[1.0, 0.0], [0.0, 1.0]])


class TestValidateDataset:
    """A Dataset checks itself at construction: every malformed sample
    raises there, with its class and message."""

    def test_well_formed_passes(self):
        ds = Dataset(y=np.zeros(3), X=np.ones((3, 2)))
        assert (ds.n, ds.p) == (3, 2)
        assert not ds.y.flags.writeable and not ds.X.flags.writeable
        ds = Dataset(y=np.zeros(6), X=np.ones((6, 2)), truth=_TRUTH)
        assert ds.truth is _TRUTH

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="^y has 3 samples but X has 4 rows$"):
            Dataset(y=np.zeros(3), X=np.ones((4, 2)))

    def test_non_finite_entry(self):
        X = np.ones((3, 2))
        X[1, 0] = np.nan
        with pytest.raises(NonFiniteValueError, match="^X contains non-finite values$"):
            Dataset(y=np.zeros(3), X=X)

    def test_non_finite_response(self):
        y = np.zeros(3)
        y[2] = np.inf
        with pytest.raises(NonFiniteValueError, match="^y contains non-finite values$"):
            Dataset(y=y, X=np.ones((3, 2)))

    @pytest.mark.parametrize(
        "y, X, message",
        [
            (np.zeros((3, 1)), np.ones((3, 2)), "y must be 1-d, got shape (3, 1)"),
            (np.zeros(3), np.ones(3), "X must be 2-d, got shape (3,)"),
            (np.zeros(3), np.ones((3, 2, 1)), "X must be 2-d, got shape (3, 2, 1)"),
            (np.zeros(0), np.ones((0, 2)), "need at least one sample and one covariate"),
            (np.zeros(3), np.ones((3, 0)), "need at least one sample and one covariate"),
        ],
        ids=["2-d-y", "1-d-X", "3-d-X", "no-rows", "no-columns"],
    )
    def test_malformed_shape_rejected(self, y, X, message):
        with pytest.raises(DimensionMismatchError) as exc:
            Dataset(y=y, X=X)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "n, truth, error, message",
        [
            (6, TruthInfo(breakpoints=(3,), coefficients=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
             DimensionMismatchError, "truth coefficients have 3 columns but X has 2"),
            (3, _TRUTH, DimensionMismatchError, "truth breakpoints (3,) outside 1..2"),
            (6, TruthInfo(breakpoints=(3,), coefficients=_TRUTH.coefficients, noise=np.zeros(5)),
             DimensionMismatchError, "truth noise has shape (5,), expected (6,)"),
            (6, TruthInfo(breakpoints=(3,), coefficients=[[1.0, np.nan], [0.0, 1.0]]),
             NonFiniteValueError, "truth coefficients contain non-finite values"),
        ],
        ids=["truth-columns", "truth-breakpoint-at-n",
             "truth-noise-shape", "truth-non-finite"],
    )
    def test_inconsistent_truth_rejected(self, n, truth, error, message):
        with pytest.raises(error) as exc:
            Dataset(y=np.zeros(n), X=np.ones((n, 2)), truth=truth)
        assert str(exc.value) == message

    def test_shapes(self):
        ds = _dataset(n=7, p=3)
        assert (ds.n, ds.p) == (7, 3)


class TestTruthInfo:
    def test_breakpoint_and_regime_counts(self):
        t = TruthInfo(breakpoints=(3,), coefficients=[[1.0, 0.0], [0.0, 1.0]])
        assert t.breakpoints == (3,)
        assert t.coefficients.shape == (2, 2)

    def test_rejects_equal_adjacent_regimes(self):
        with pytest.raises(ValueError):
            TruthInfo(breakpoints=(3,), coefficients=[[1.0, 0.0], [1.0, 0.0]])

    def test_rejects_unordered_breakpoints(self):
        with pytest.raises(ValueError):
            TruthInfo(
                breakpoints=(5, 3),
                coefficients=[[1.0], [2.0], [3.0]],
            )

    def test_truth_bounds_checked_against_sample(self):
        truth = TruthInfo(breakpoints=(9,), coefficients=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DimensionMismatchError, match=r"^truth breakpoints \(9,\) outside 1\.\.5$"):
            Dataset(y=np.zeros(6), X=np.ones((6, 2)), truth=truth)


class TestSegmentRange:
    def test_half_open_length(self):
        r = SegmentRange(3, 7)
        assert r.length == 4

    def test_empty_segment_rejected(self):
        with pytest.raises(EmptySegmentError):
            SegmentRange(4, 4)
        with pytest.raises(EmptySegmentError):
            SegmentRange(5, 4)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SegmentRange(-1, 4)

    def test_index_round_trip_exhaustive(self):
        # converting breakpoints -> half-open ranges -> breakpoints is the
        # identity for every n <= 100 and every single-break position
        for n in range(2, 101):
            for b in range(1, n):
                ranges = segment_ranges((b,), n)
                assert [(r.start, r.end) for r in ranges] == [(0, b), (b, n)]
                assert breakpoints_from_ranges(ranges) == (b,)

    def test_multi_break_round_trip(self):
        ranges = segment_ranges((20, 35), 50)
        assert [(r.start, r.end) for r in ranges] == [(0, 20), (20, 35), (35, 50)]
        assert breakpoints_from_ranges(ranges) == (20, 35)


class TestCenterColumns:
    def test_mean_removal(self):
        ds = Dataset(y=np.array([1.0, 2.0]), X=np.array([[1.0], [3.0]]))
        out = center_columns(ds)
        np.testing.assert_allclose(out.X[:, 0], [-1.0, 1.0])
        np.testing.assert_array_equal(out.y, ds.y)

    def test_idempotent(self):
        ds = _dataset(n=20, p=3, seed=4)
        once = center_columns(ds)
        twice = center_columns(once)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-12)
        assert np.abs(once.X.mean(axis=0)).max() <= 1e-12

    def test_constant_column(self):
        ds = Dataset(y=np.zeros(4), X=np.full((4, 1), 5.0))
        np.testing.assert_allclose(center_columns(ds).X, np.zeros((4, 1)), atol=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(DegenerateInputError):
            center_columns(Dataset(y=np.zeros(1), X=np.ones((1, 2))))


class TestPenaltyConfig:
    def test_defaults(self):
        c = PenaltyConfig()
        assert c.family == "adaptive"
        assert c.rho == 0.45
        assert c.g == 0.2

    def test_family_checked(self):
        with pytest.raises(ValueError):
            PenaltyConfig(family="elastic")

    def test_rho_range(self):
        PenaltyConfig(rho=0.5)  # boundary included
        with pytest.raises(ValueError):
            PenaltyConfig(rho=0.0)
        with pytest.raises(ValueError):
            PenaltyConfig(rho=0.51)

    def test_g_open_interval(self):
        with pytest.raises(ValueError):
            PenaltyConfig(family="adaptive", g=0.25)
        with pytest.raises(ValueError):
            PenaltyConfig(family="adaptive", g=0.0)

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            PenaltyConfig(family="lasso_type", gamma=0.0)

    @pytest.mark.parametrize(
        "budget",
        [{"cd_tolerance": 0.0}, {"cd_tolerance": -1e-8}, {"cd_tolerance": float("nan")},
         {"cd_tolerance": float("inf")}, {"cd_max_iterations": 0},
         {"cd_max_iterations": 2.5}, {"cd_max_iterations": True}],
    )
    def test_sweep_budget_checked(self, budget):
        # an infinite tolerance stops every solve after one sweep, and a
        # fractional budget fails only deep inside the engine
        with pytest.raises(ValueError):
            PenaltyConfig(**budget)

    def test_numpy_integer_budget_accepted(self):
        assert PenaltyConfig(cd_max_iterations=np.int64(50)).cd_max_iterations == 50

    def test_zero_clamp_defaults(self):
        assert PenaltyConfig().zero_clamp == 0.0
        assert PenaltyConfig(family="lasso_type", gamma=1.0).zero_clamp == 0.0
        assert PenaltyConfig(family="lasso_type", gamma=1.5).zero_clamp == 1e-10
        assert PenaltyConfig(family="lasso_type", gamma=2.0).zero_clamp == 1e-10
        assert PenaltyConfig(family="lasso_type", gamma=0.5).zero_clamp == 1e-10

    @pytest.mark.parametrize(
        "kwargs, exponent",
        [({}, 1.0), ({"gamma": 1.5}, 1.0), ({"family": "lasso_type", "gamma": 1.0}, 1.0),
         ({"family": "lasso_type", "gamma": 1.5}, 1.5),
         ({"family": "lasso_type", "gamma": 2.0}, 2.0),
         ({"family": "lasso_type", "gamma": 0.5}, 0.5)],
        ids=["adaptive", "adaptive-ignores-gamma", "lasso", "bridge-1.5", "ridge", "bridge-0.5"],
    )
    def test_exponent(self, kwargs, exponent):
        # the adaptive penalty is a weighted l1 norm whatever gamma says
        assert PenaltyConfig(**kwargs).exponent == exponent

    @pytest.mark.parametrize(
        "knob", [{"zero_clamp": 1e-6}, {"adaptive_fallback": False}],
        ids=["zero-clamp", "adaptive-fallback"],
    )
    def test_fixed_rules_take_no_argument(self, knob):
        # the clamp follows from the exponent, and an adaptive segment
        # without least-squares weights always falls back to the lasso
        with pytest.raises(TypeError):
            PenaltyConfig(**knob)


class TestCriterionConfig:
    def test_bn_exponent_strictly_inside(self):
        CriterionConfig(bn_exponent=0.625)
        with pytest.raises(ValueError):
            CriterionConfig(bn_exponent=0.5)
        with pytest.raises(ValueError):
            CriterionConfig(bn_exponent=0.75)

    def test_complexity_tag_checked(self):
        with pytest.raises(ValueError):
            CriterionConfig(complexity="K_squared")


class TestSegmentFit:
    def test_cost_decomposition(self):
        f = SegmentFit(
            coefficients=np.array([1.0, 0.0]),
            rss=2.5,
            penalty_value=0.75,
            active_set=frozenset({0}),
            weights_used=None,
        )
        assert f.penalized_cost == 2.5 + 0.75

    def test_negative_rss_rejected(self):
        with pytest.raises(ValueError):
            SegmentFit(
                coefficients=np.zeros(1),
                rss=-1.0,
                penalty_value=0.0,
                active_set=frozenset(),
                weights_used=None,
            )


class TestChangePointFit:
    def test_segment_count_checked(self):
        seg = SegmentFit(
            coefficients=np.zeros(1),
            rss=0.0,
            penalty_value=0.0,
            active_set=frozenset(),
            weights_used=None,
        )
        with pytest.raises(DimensionMismatchError):
            ChangePointFit(
                k=1,
                breakpoints=(5,),
                segment_fits=(seg,),  # needs k + 1 = 2 fits
                total_score=0.0,
                family="adaptive",
            )


class TestMinSegLen:
    def test_adaptive_needs_ols(self):
        pen = PenaltyConfig()
        crit = CriterionConfig()
        assert effective_min_seg_len(pen, crit, p=10) == 11
        assert effective_min_seg_len(pen, crit, p=3) == 5

    def test_lasso_type_floor(self):
        pen = PenaltyConfig(family="lasso_type", gamma=1.0)
        assert effective_min_seg_len(pen, CriterionConfig(), p=10) == 5

    def test_explicit_override_wins(self):
        crit = CriterionConfig(min_seg_len=3)
        assert effective_min_seg_len(PenaltyConfig(), crit, p=10) == 3
