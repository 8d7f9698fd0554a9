"""Segment costs, adaptive weights, dynamic programming, two-stage search."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from segbreak import (
    AdaptiveUnavailableError,
    ConsistencyError,
    CriterionConfig,
    Dataset,
    EmptySegmentError,
    InfeasiblePartitionError,
    NoConvergenceError,
    PenaltyConfig,
    SegmentRange,
    TruthInfo,
    adaptive_weights,
    build_cost_table,
    lambda_for_segment,
    optimal_breakpoints,
    pair_costs,
    penalized_objective,
    refit_breakpoints_two_stage,
    segment_cost,
    segment_ranges,
    select_k,
)
from segbreak import solvers
from segbreak.segmentation import _cumulative_stats, _lambdas
from segbreak.simulation import replication_dataset, table_preset
from segbreak.solvers import _FACE_EVERY, _batch_cd, face_step


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


def _ista_lasso(X, y, lam, weights=None, iters=200_000):
    """Independent proximal-gradient oracle for the weighted lasso."""
    m, p = X.shape
    w = np.ones(p) if weights is None else np.asarray(weights, dtype=np.float64)
    G = X.T @ X
    b = X.T @ y
    step = 1.0 / (2.0 * np.linalg.eigvalsh(G)[-1])
    phi = np.zeros(p)
    for _ in range(iters):
        z = phi - step * 2.0 * (G @ phi - b)
        t = step * lam * w
        phi = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
    return phi


class TestLambdaForSegment:
    def test_square_root_case(self):
        assert lambda_for_segment(SegmentRange(0, 16), 0.5) == 4.0

    def test_unit_length(self):
        assert lambda_for_segment((7, 8), 0.3) == 1.0

    def test_fractional_exponent(self):
        assert lambda_for_segment((0, 200), 0.4) == pytest.approx(8.3255, abs=1e-4)

    def test_tuple_and_range_agree(self):
        assert lambda_for_segment((3, 19), 0.45) == lambda_for_segment(
            SegmentRange(3, 19), 0.45
        )

    def test_empty_segment(self):
        with pytest.raises(EmptySegmentError):
            lambda_for_segment((5, 5), 0.45)

    def test_rho_validated(self):
        with pytest.raises(ValueError):
            lambda_for_segment((0, 10), 0.0)
        with pytest.raises(ValueError):
            lambda_for_segment((0, 10), 0.6)
        lambda_for_segment((0, 10), 0.5)

    @pytest.mark.parametrize("rho", [0.25, 0.45, 0.5])
    def test_equals_the_engine_lambda(self, rho):
        # Python's scalar ** can differ from numpy's array power in the last
        # bit (at rho = 0.45 on AVX-512 hosts, first at length 26)
        lengths = np.arange(1, 5001)
        pairs = np.column_stack([np.zeros_like(lengths), lengths])
        engine = _lambdas(PenaltyConfig(rho=rho), pairs)
        scalar = np.array([lambda_for_segment((0, m), rho) for m in lengths.tolist()])
        assert scalar.tobytes() == engine.tobytes()

    @pytest.mark.parametrize(
        "config",
        [PenaltyConfig(), PenaltyConfig(family="lasso_type", gamma=1.0)],
        ids=["adaptive", "lasso"],
    )
    def test_reported_penalty_uses_the_engine_lambda(self, config):
        # the middle segment (20, 386] of this fit has length 366, where the
        # two powers differ at rho = 0.45 on AVX-512 hosts
        spec, _ = table_preset(3)
        fit = optimal_breakpoints(replication_dataset(spec, 2), 2, config)
        pairs = np.array([(r.start, r.end) for r in segment_ranges(fit.breakpoints, spec.n)])
        for lam, seg in zip(_lambdas(config, pairs).tolist(), fit.segment_fits):
            penalty = solvers.penalty_sum(seg.coefficients, weights=seg.weights_used)
            assert seg.penalty_value == lam * penalty


class TestAdaptiveWeights:
    def test_unit_ls_coefficients_give_unit_weights(self):
        ds = Dataset(y=np.ones(4), X=np.eye(4))
        np.testing.assert_allclose(adaptive_weights(ds, (0, 4), 0.2), np.ones(4))

    def test_quarter_exponent_value(self):
        # |phi_LS| = 4 and g = 1/4 give 4**(-1/4) = 2**(-1/2)
        ds = Dataset(y=np.array([4.0, 4.0]), X=np.array([[1.0], [1.0]]))
        w = adaptive_weights(ds, (0, 2), 0.25)
        assert w[0] == pytest.approx(2.0 ** -0.5, abs=1e-12)

    def test_short_segment_unavailable(self):
        ds = _one_break()
        with pytest.raises(AdaptiveUnavailableError):
            adaptive_weights(ds, (0, 2), 0.2)

    def test_singular_segment_unavailable(self):
        X = np.ones((6, 2))  # identical columns
        ds = Dataset(y=np.arange(6.0), X=X)
        with pytest.raises(AdaptiveUnavailableError):
            adaptive_weights(ds, (0, 6), 0.2)

    def test_zero_ls_coefficient_gives_infinite_weight(self):
        ds = Dataset(y=np.array([1.0, 0.0]), X=np.eye(2))
        w = adaptive_weights(ds, (0, 2), 0.2)
        assert w[0] == 1.0
        assert w[1] == np.inf

    def test_g_must_be_positive(self):
        ds = _one_break()
        with pytest.raises(ValueError):
            adaptive_weights(ds, (0, 10), 0.0)
        adaptive_weights(ds, (0, 10), 0.25)  # op accepts any positive g


class TestSegmentCost:
    def test_noiseless_unpenalized_recovers_truth(self):
        ds = _one_break(sigma=0.0)
        config = PenaltyConfig(lambda_scale=0.0)
        fit = segment_cost(ds, (0, 30), config)
        assert fit.rss <= 1e-12
        np.testing.assert_allclose(fit.coefficients, ds.truth.coefficients[0], atol=1e-6)

    def test_cost_decomposition_self_consistent(self):
        ds = _one_break(seed=5)
        config = PenaltyConfig(family="lasso_type", gamma=1.0, rho=0.45)
        fit = segment_cost(ds, (0, 30), config)
        lam = lambda_for_segment((0, 30), 0.45)
        recomputed = penalized_objective(
            ds.X[:30], ds.y[:30], fit.coefficients, lam
        )
        assert fit.penalized_cost == pytest.approx(recomputed, rel=1e-9)

    def test_dominance_over_truth_and_zero(self):
        ds = _one_break(seed=9)
        config = PenaltyConfig(family="lasso_type", gamma=1.0)
        fit = segment_cost(ds, (0, 30), config)
        lam = lambda_for_segment((0, 30), config.rho)
        X, y = ds.X[:30], ds.y[:30]
        assert fit.penalized_cost <= penalized_objective(X, y, np.zeros(3), lam) + 1e-9
        assert (
            fit.penalized_cost
            <= penalized_objective(X, y, ds.truth.coefficients[0], lam) + 1e-9
        )

    def test_lasso_against_proximal_oracle(self):
        ds = _one_break(n=8, p=3, b=4, seed=13, sigma=0.5)
        config = PenaltyConfig(family="lasso_type", gamma=1.0, rho=0.5)
        fit = segment_cost(ds, (0, 8), config)
        lam = 8.0 ** 0.5
        oracle = _ista_lasso(ds.X, ds.y, lam)
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-4)

    def test_adaptive_against_proximal_oracle(self):
        ds = _one_break(n=12, p=3, b=6, seed=17, sigma=0.5)
        config = PenaltyConfig(family="adaptive", g=0.2, rho=0.45)
        fit = segment_cost(ds, (0, 12), config)
        lam = 12.0 ** 0.45
        w = adaptive_weights(ds, (0, 12), 0.2)
        oracle = _ista_lasso(ds.X, ds.y, lam, weights=w)
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-4)

    def test_adaptive_pins_zero_ls_coordinate(self):
        ds = Dataset(y=np.array([1.0, 0.0, 2.0, 0.0]), X=np.kron(np.ones((2, 1)), np.eye(2)))
        # OLS on the full segment gives (1.5, 0): second coordinate is pinned
        fit = segment_cost(ds, (0, 4), PenaltyConfig(family="adaptive", g=0.2))
        assert fit.coefficients[1] == 0.0
        assert np.isfinite(fit.penalized_cost)

    def test_short_adaptive_segment_falls_back(self):
        ds = _one_break()
        config = PenaltyConfig(family="adaptive", g=0.2)
        fit = segment_cost(ds, (0, 2), config)
        assert np.all(np.isfinite(fit.coefficients))
        assert fit.weights_used is None  # unweighted fallback

    def test_out_of_bounds_segment(self):
        ds = _one_break(n=20)
        with pytest.raises(EmptySegmentError):
            segment_cost(ds, (10, 25), PenaltyConfig())


_EVERY_FAMILY = pytest.mark.parametrize(
    "config",
    [
        PenaltyConfig(family="adaptive", g=0.2, rho=0.45),
        PenaltyConfig(family="lasso_type", gamma=1.0, rho=0.5),
        PenaltyConfig(family="lasso_type", gamma=2.0, rho=0.45),
        PenaltyConfig(family="lasso_type", gamma=1.5, rho=0.45),
        PenaltyConfig(family="lasso_type", gamma=0.5, rho=0.45),
        PenaltyConfig(family="adaptive", lambda_scale=0.0),
    ],
    ids=["adaptive", "lasso", "ridge", "bridge", "concave-bridge", "unpenalized"],
)


class TestPairCosts:
    @_EVERY_FAMILY
    def test_matches_scalar_path(self, config):
        # (37, 39] is shorter than p, late in the sample: its least-squares
        # fit (at lam = 0, and the concave bridge's start) comes from its rows
        ds = _one_break(n=40, p=3, b=20, seed=21)
        pairs = [(0, 10), (0, 40), (5, 25), (20, 40), (12, 19), (37, 39)]
        batch = pair_costs(ds, np.array(pairs), config)
        for cost, pair in zip(batch, pairs):
            scalar = _reference_fit(ds, pair, config).penalized_cost
            assert cost == pytest.approx(scalar, rel=1e-9, abs=1e-9)
            single = segment_cost(ds, pair, config).penalized_cost
            assert single == pytest.approx(scalar, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("noise", [1e-7, 1e-6])
    def test_matches_scalar_path_on_collinear_design(self, noise):
        # x3 = x1 + noise: the Gram matrix of segment (24, 38] is below the
        # condition floor of solvers.ols, so the engine must fall back to
        # the unweighted lasso, as the row-based reference does
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 3))
        X[:, 2] = X[:, 0] + noise * rng.standard_normal(60)
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(60)
        y[30:] += X[30:] @ np.array([2.0, 1.0, 0.0])
        ds = Dataset(y=y, X=X)
        config = PenaltyConfig()
        scalar = _reference_fit(ds, (24, 38), config)
        assert scalar.weights_used is None
        batch = pair_costs(ds, np.array([[24, 38]]), config)[0]
        assert batch == pytest.approx(scalar.penalized_cost, rel=1e-9)
        single = segment_cost(ds, (24, 38), config)
        assert single.weights_used is None
        assert single.penalized_cost == pytest.approx(scalar.penalized_cost, rel=1e-9)

    def test_sweep_budget_keeps_stationary_iterate(self):
        # orthonormal columns: one sweep lands on the closed-form minimizer,
        # so the problem that used its whole budget of 1 keeps its cost
        X, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((20, 3)))
        y = X @ np.array([3.0, -0.1, 1.5]) + 0.01 * np.arange(20)
        ds = Dataset(y=y, X=X)
        config = PenaltyConfig(family="lasso_type", gamma=1.0, cd_max_iterations=1)
        lam = lambda_for_segment((0, 20), config.rho)
        b = X.T @ y
        phi = np.sign(b) * np.maximum(np.abs(b) - lam / 2.0, 0.0)
        closed = penalized_objective(X, y, phi, lam)
        cost = pair_costs(ds, np.array([[0, 20]]), config)[0]
        assert cost == pytest.approx(closed, rel=1e-12)

    def test_sweep_budget_raises_when_not_stationary(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 3))
        X[:, 2] = X[:, 0] + 0.1 * rng.standard_normal(30)
        ds = Dataset(y=X @ np.array([2.0, -1.0, 2.0]), X=X)
        config = PenaltyConfig(family="lasso_type", gamma=1.0, cd_max_iterations=1)
        with pytest.raises(NoConvergenceError, match="all 1 sweeps"):
            pair_costs(ds, np.array([[0, 30]]), config)

    def test_stalled_problem_in_a_mixed_stack_raises(self):
        # rows 1-30 each load a single column, so every segment inside them
        # has a diagonal Gram matrix and converges in two sweeps; segment
        # (30, 60] is correlated and cannot settle in that budget
        rng = np.random.default_rng(5)
        X = np.zeros((60, 3))
        X[np.arange(30), np.arange(30) % 3] = rng.standard_normal(30)
        X[30:] = rng.standard_normal((30, 3))
        X[30:, 2] = X[30:, 0] + 0.1 * rng.standard_normal(30)
        ds = Dataset(y=X @ np.array([2.0, -1.0, 2.0]), X=X)
        config = PenaltyConfig(family="lasso_type", gamma=1.0, cd_max_iterations=2)
        settled = np.array([[0, 30], [0, 15], [3, 27], [12, 30]])
        assert np.all(np.isfinite(pair_costs(ds, settled, config)))
        mixed = np.insert(settled, 2, [30, 60], axis=0)
        with pytest.raises(NoConvergenceError, match="all 2 sweeps"):
            pair_costs(ds, mixed, config)

    @staticmethod
    def _zero_column_in_first_half():
        # column 3 is zero in rows 1-20, so segment (0, 20] has no
        # least-squares weights
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        X[:20, 2] = 0.0
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(40)
        return Dataset(y=y, X=X)

    def test_fallback_matches_scalar_path(self):
        ds = self._zero_column_in_first_half()
        scalar = _reference_fit(ds, (0, 20), PenaltyConfig())
        assert scalar.weights_used is None
        batch = pair_costs(ds, np.array([[0, 20]]), PenaltyConfig())[0]
        assert batch == pytest.approx(scalar.penalized_cost, rel=1e-9)
        single = segment_cost(ds, (0, 20), PenaltyConfig())
        assert single.weights_used is None
        assert single.penalized_cost == pytest.approx(scalar.penalized_cost, rel=1e-9)

    def test_rejects_bad_pairs(self):
        ds = _one_break(n=20)
        with pytest.raises(EmptySegmentError):
            pair_costs(ds, np.array([[5, 5]]), PenaltyConfig())
        with pytest.raises(EmptySegmentError):
            pair_costs(ds, np.array([[0, 25]]), PenaltyConfig())
        with pytest.raises(ValueError):
            pair_costs(ds, np.zeros((2, 3), dtype=int), PenaltyConfig())

    def test_empty_input(self):
        ds = _one_break(n=20)
        assert pair_costs(ds, np.empty((0, 2), dtype=int), PenaltyConfig()).shape == (0,)


def _mixed_gram_stack():
    """Weighted-lasso problems (p = 5) of one stack: a plain design, a
    near-collinear pair of columns, a column that is zero inside the
    segment, and infinite adaptive weights on a correlated design."""
    rng = np.random.default_rng(7)
    problems = []
    X = rng.standard_normal((40, 5))
    y = X @ np.array([1.0, 2.0, 0.1, 0.0, -1.0]) + rng.standard_normal(40)
    problems.append((X, y, np.array([1.0, 1.0, 3.0, np.inf, 0.2])))
    X = rng.standard_normal((40, 5))
    X[:, 2] = X[:, 0] + 1e-7 * rng.standard_normal(40)
    y = X @ np.array([3.0, -3.0, 0.0, 1.0, 0.0]) + 0.3 * rng.standard_normal(40)
    problems.append((X, y, np.ones(5)))
    X = rng.standard_normal((40, 5))
    X[:, 3] = 0.0
    y = X @ np.array([1.0, 0.0, -2.0, 0.0, 0.5]) + 0.3 * rng.standard_normal(40)
    problems.append((X, y, np.ones(5)))
    corr = 0.99 * np.ones((5, 5)) + 0.01 * np.eye(5)
    X = rng.standard_normal((40, 5)) @ np.linalg.cholesky(corr).T
    y = X @ np.array([2.0, 0.0, -1.5, 0.0, 0.7]) + 0.5 * rng.standard_normal(40)
    problems.append((X, y, np.array([1.0, np.inf, 0.5, 2.0, 1.0])))
    return problems


def _cd_oracle(G, b, lam, weights, tol, max_iter):
    """Cyclic coordinate descent on one Gram-form weighted-lasso problem,
    one scalar update at a time: the loop that ``_batch_cd`` runs over a
    stack, with the same stopping rule and face step.  Returns (phi,
    converged)."""
    p = b.shape[0]
    phi = np.zeros(p)
    diag = np.diag(G).copy()
    thr = lam * weights / 2.0
    for sweep in range(1, max_iter + 1):
        delta = 0.0
        for k in range(p):
            if diag[k] <= 0.0:
                continue  # zero column inside the segment: the penalty keeps it at 0
            c = b[k] - G[k] @ phi + diag[k] * phi[k]
            t = thr[k]
            new = (0.0 if abs(c) <= t else c - t if c > 0 else c + t) / diag[k]
            delta = max(delta, abs(new - phi[k]))
            phi[k] = new
        if delta <= tol:
            return phi, True
        if sweep % _FACE_EVERY == 0:
            jump = face_step(G, b, thr, phi)
            if jump is not None:
                phi = jump
    return phi, False


def _reference_fit(ds, rng, config):
    """Row-based fit of one segment under the engine's rules, from the
    public single-problem solvers: the minimum-norm ``lstsq`` fit at
    lam = 0 (``ols`` raises on a segment shorter than p), ``_cd_oracle``
    for the lasso family (with ``adaptive_weights``, or none where they
    are unavailable), ``ridge`` and ``bridge``."""
    rng = rng if isinstance(rng, SegmentRange) else SegmentRange(*rng)
    X, y = ds.X[rng.start : rng.end], ds.y[rng.start : rng.end]
    lam = config.lambda_scale * lambda_for_segment(rng, config.rho)
    clamp = config.zero_clamp
    if lam == 0.0:
        return solvers.wrap_coefficients(X, y, np.linalg.lstsq(X, y, rcond=None)[0], 0.0)
    if config.family == "adaptive" or config.gamma == 1.0:
        weights = None
        if config.family == "adaptive":
            try:
                weights = adaptive_weights(ds, rng, config.g)
            except AdaptiveUnavailableError:
                pass
        w = np.ones(ds.p) if weights is None else weights
        phi, converged = _cd_oracle(
            X.T @ X, X.T @ y, lam, w, config.cd_tolerance, config.cd_max_iterations
        )
        assert converged
        return solvers.wrap_coefficients(X, y, phi, lam, 1.0, weights, clamp)
    if config.gamma == 2.0:
        return solvers.wrap_coefficients(X, y, solvers.ridge(X, y, lam), lam, 2.0, None, clamp)
    return solvers.bridge(
        X, y, lam, config.gamma, tol=config.cd_tolerance,
        max_iter=config.cd_max_iterations, zero_clamp=clamp,
    )


class TestBatchCoordinateDescent:
    @pytest.mark.parametrize("max_iter", [10_000, 10, 8])
    def test_matches_scalar_solver_per_problem(self, max_iter):
        # the problems need 7 to 11 sweeps, so budgets 10 and 8 leave some
        # stalled, and both solvers must leave the same ones
        problems = _mixed_gram_stack()
        lam = 40**0.45
        G = np.stack([X.T @ X for X, _, _ in problems])
        b = np.stack([X.T @ y for X, y, _ in problems])
        thr = np.stack([lam * w / 2.0 for _, _, w in problems])
        with np.errstate(all="raise"):
            phi, stalled = _batch_cd(G, b, thr, 1e-8, max_iter)
        converged = []
        for i, (X, y, w) in enumerate(problems):
            ref, ok = _cd_oracle(X.T @ X, X.T @ y, lam, w, 1e-8, max_iter)
            # the engine's dot products are BLAS ddot on one row, as the
            # oracle's ``G[k] @ phi`` is, so the iterates agree bit for bit
            assert np.array_equal(phi[i], ref), i
            converged.append(ok)
        assert stalled.tolist() == [i for i, ok in enumerate(converged) if not ok]
        if max_iter < 10_000:
            assert 0 < len(stalled) < len(problems)

    def test_empty_stack_returns_at_once(self):
        start = time.perf_counter()
        phi, stalled = _batch_cd(
            np.zeros((0, 10, 10)), np.zeros((0, 10)), np.zeros((0, 10)), 1e-8, 100_000
        )
        # without the early return, 100,000 sweeps over empty arrays take tens of seconds
        assert time.perf_counter() - start < 1.0
        assert phi.shape == (0, 10) and stalled.shape == (0,)


def _assert_same_fit(got, want):
    scale = max(1.0, np.abs(want.coefficients).max())
    np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=0.0, atol=1e-9 * scale)
    assert got.penalized_cost == pytest.approx(want.penalized_cost, rel=1e-9, abs=1e-9)
    assert got.active_set == want.active_set


class TestSegmentCostMatchesSearch:
    """``segment_cost`` is the engine on one segment, reported as a
    search reports its chosen segments, so the two fits agree."""

    @_EVERY_FAMILY
    def test_chosen_segments(self, config):
        ds = _one_break(n=40, p=3, b=20, seed=21)
        for fit in (
            optimal_breakpoints(ds, 1, config),
            refit_breakpoints_two_stage(ds, 1, config, grid_step=5),
        ):
            for rng, seg in zip(segment_ranges(fit.breakpoints, ds.n), fit.segment_fits):
                _assert_same_fit(segment_cost(ds, rng, config), seg)

    def test_unpenalized_segment_shorter_than_p(self):
        # without a penalty a segment of 3 rows and 5 coefficients has many
        # exact fits; both report the minimum-norm one
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 5))
        ds = Dataset(y=rng.standard_normal(12), X=X)
        config = PenaltyConfig(lambda_scale=0.0)
        fit = optimal_breakpoints(ds, 3, config, CriterionConfig(min_seg_len=3))
        assert fit.breakpoints == (3, 6, 9)
        for rng, seg in zip(segment_ranges(fit.breakpoints, ds.n), fit.segment_fits):
            single = segment_cost(ds, rng, config)
            _assert_same_fit(single, seg)
            rows = slice(rng.start, rng.end)
            min_norm = np.linalg.pinv(X[rows]) @ ds.y[rows]
            np.testing.assert_allclose(single.coefficients, min_norm, rtol=0.0, atol=1e-9)

    def test_unpenalized_short_segments_late_in_a_long_sample(self):
        # layout 5 (n = 1500, p = 10): a segment shorter than p fits its
        # rows exactly, but the rounding of differenced cumulative Gram
        # matrices, which scales with the whole prefix, hides its null space
        ds = replication_dataset(table_preset(5)[0], 0)
        pairs = np.array([(a, a + m) for a in range(1400, 1492) for m in (3, 5, 8)])
        costs = pair_costs(ds, pairs, PenaltyConfig(lambda_scale=0.0))
        for cost, (a, b) in zip(costs, pairs):
            X, y = ds.X[a:b], ds.y[a:b]
            r = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
            assert cost == pytest.approx(r @ r, rel=0.0, abs=1e-9), (a, b)

    def test_rank_deficient_stretch_takes_few_batched_solves(self, monkeypatch):
        # A column that is zero over the first half leaves the 10,731
        # admissible segments inside it without a Gram solve; their rows are
        # fitted by one SVD per segment length, not one lstsq per segment.
        rng = np.random.default_rng(0)
        n, p = 300, 4
        X = rng.standard_normal((n, p))
        X[:150, 3] = 0.0
        y = X @ np.array([1.0, -1.0, 0.5, 2.0]) + rng.standard_normal(n)
        y[150:] += 2.0 * X[150:, 0]
        ds = Dataset(y=y, X=X)
        config = PenaltyConfig(family="lasso_type", gamma=1.0, lambda_scale=0.0)
        calls = []

        def counted(name):
            original = getattr(np.linalg, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)

        counted("lstsq")
        counted("svd")
        result = select_k(ds, config, CriterionConfig(k_max=2, min_seg_len=5))
        monkeypatch.undo()
        assert "lstsq" not in calls
        assert len(calls) <= 150, len(calls)  # one per length from 5 to 150 at most
        assert result.rows[1].breakpoints == (151,)
        # the batched fits are the minimum-norm ones of the rows
        pairs = np.array([(a, b) for a in range(0, 146, 7) for b in range(a + 5, 151, 11)])
        for cost, (a, b) in zip(pair_costs(ds, pairs, config), pairs):
            r = y[a:b] - X[a:b] @ np.linalg.lstsq(X[a:b], y[a:b], rcond=None)[0]
            assert cost == pytest.approx(r @ r, rel=1e-9, abs=1e-9), (a, b)


def _cumulative_stats_with_temporaries(ds):
    """The cumulative X'X, X'y and y'y summed from whole product arrays."""
    X, y = ds.X, ds.y
    n, p = X.shape
    cum_xx = np.zeros((n + 1, p, p))
    np.cumsum(np.einsum("ni,nj->nij", X, X), axis=0, out=cum_xx[1:])
    cum_xy = np.zeros((n + 1, p))
    np.cumsum(X * y[:, None], axis=0, out=cum_xy[1:])
    cum_yy = np.zeros(n + 1)
    np.cumsum(y * y, out=cum_yy[1:])
    return cum_xx, cum_xy, cum_yy


class TestCumulativeStats:
    @pytest.mark.parametrize("p", [1, 10])
    @pytest.mark.parametrize("n", [1, 1500, 20000])
    def test_equal_to_summing_product_arrays(self, n, p):
        rng = np.random.default_rng(n + p)
        scale = 10.0 ** rng.choice([-5, 0, 5], size=(n, 1))
        ds = Dataset(y=rng.standard_normal(n) * scale[:, 0], X=rng.standard_normal((n, p)) * scale)
        got = _cumulative_stats(ds)
        want = _cumulative_stats_with_temporaries(ds)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)

    def test_peak_memory_is_the_outputs(self):
        # summing whole product arrays peaks at 1.8 times the outputs
        rng = np.random.default_rng(3)
        ds = Dataset(y=rng.standard_normal(20000), X=rng.standard_normal((20000, 10)))
        tracemalloc.start()
        try:
            out = _cumulative_stats(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * sum(a.nbytes for a in out)


class TestCostTable:
    def test_inadmissible_entries_are_infinite(self):
        ds = _one_break(n=20, p=2, b=10, seed=25)
        config = PenaltyConfig(family="lasso_type", gamma=1.0)
        table = build_cost_table(ds, config, min_seg_len=5)
        assert table[0, 4] == np.inf
        assert np.isfinite(table[0, 5])
        assert table[3, 3] == np.inf
        whole = _reference_fit(ds, (0, 20), config).penalized_cost
        assert table[0, 20] == pytest.approx(whole, rel=1e-9)


class TestDynamicProgram:
    def test_matches_enumeration(self):
        ds = _one_break(n=18, p=2, b=9, seed=29)
        config = PenaltyConfig(family="lasso_type", gamma=1.0)
        crit = CriterionConfig(min_seg_len=3)
        fit = optimal_breakpoints(ds, 2, config, crit)

        best = (np.inf, None)
        for b1, b2 in itertools.combinations(range(1, 18), 2):
            if min(b1, b2 - b1, 18 - b2) < 3:
                continue
            total = sum(
                _reference_fit(ds, r, config).penalized_cost
                for r in segment_ranges((b1, b2), 18)
            )
            if total < best[0] - 1e-12:
                best = (total, (b1, b2))
        assert fit.breakpoints == best[1]
        assert fit.total_score == pytest.approx(best[0], rel=1e-9)

    def test_recovers_clean_break(self):
        ds = _one_break(n=60, p=3, b=30, seed=33, sigma=0.2)
        fit = optimal_breakpoints(ds, 1, PenaltyConfig())
        assert fit.breakpoints == (30,)
        assert fit.k == 1
        assert len(fit.segment_fits) == 2

    def test_lexicographic_tie_break(self):
        # all-zero response makes every admissible segment cost exactly 0,
        # so every placement ties and the smallest vector must win
        ds = Dataset(y=np.zeros(30), X=np.random.default_rng(37).standard_normal((30, 2)))
        fit = optimal_breakpoints(ds, 2, PenaltyConfig())
        assert fit.breakpoints == (5, 10)
        assert fit.total_score == 0.0

    def test_zero_breaks(self):
        ds = _one_break(n=30, p=2, b=15, seed=41)
        fit = optimal_breakpoints(ds, 0, PenaltyConfig())
        assert fit.breakpoints == ()
        assert len(fit.segment_fits) == 1

    def test_infeasible_partition(self):
        ds = _one_break(n=20, p=3, b=10, seed=43)
        with pytest.raises(InfeasiblePartitionError):
            optimal_breakpoints(ds, 4, PenaltyConfig())  # 5 segments of >= 5

    def test_negative_k_rejected(self):
        ds = _one_break(n=20, p=3, b=10, seed=47)
        with pytest.raises(ValueError):
            optimal_breakpoints(ds, -1, PenaltyConfig())


class TestChosenSegmentCheck:
    """The fits of the chosen segments are checked against the rows of X
    and y: their recomputed total against the search total (the dense
    table test in test_pruning.py), and each lasso-family segment for
    stationarity, which this class pins.  Both must hold under
    ``python -O``, where this file also runs."""

    @staticmethod
    def _off_by_one_percent(monkeypatch):
        # every coefficient stack the engine returns is scaled by 1.01, so
        # the search and the refit agree on costs that no minimizer attains
        engine = solvers._batch_cd

        def scaled(G, b, thr, tol, max_iter):
            phi, stalled = engine(G, b, thr, tol, max_iter)
            return 1.01 * phi, stalled

        monkeypatch.setattr(solvers, "_batch_cd", scaled)

    @pytest.mark.parametrize(
        "config",
        [PenaltyConfig(), PenaltyConfig(family="lasso_type", gamma=1.0)],
        ids=["adaptive", "lasso"],
    )
    def test_non_stationary_fit_raises(self, monkeypatch, config):
        ds = _one_break(n=60, p=3, b=30, seed=33, sigma=0.2)
        self._off_by_one_percent(monkeypatch)
        with pytest.raises(ConsistencyError, match=r"segment \(0, \d+\] .* not stationary"):
            optimal_breakpoints(ds, 1, config)
        with pytest.raises(ConsistencyError, match="not stationary"):
            refit_breakpoints_two_stage(ds, 1, config, grid_step=5)

    @pytest.mark.parametrize("tol", [1e-2, 0.1, 0.5])
    @pytest.mark.parametrize(
        "family", ["adaptive", "lasso_type"], ids=["adaptive", "lasso"]
    )
    def test_loose_cd_tolerance_passes(self, family, tol):
        # a loose stopping rule leaves each coordinate's correlation off
        # stationarity by what the later updates of its last sweep moved
        # it; the check allows exactly that drift
        spec, _ = table_preset(1)
        ds = replication_dataset(spec, 0)
        config = PenaltyConfig(family=family, gamma=1.0, cd_tolerance=tol)
        assert optimal_breakpoints(ds, 2, config).breakpoints == (20, 35)
        assert refit_breakpoints_two_stage(ds, 2, config, grid_step=5).breakpoints == (20, 35)


class TestTwoStage:
    def test_unit_grid_delegates_to_exact(self):
        ds = _one_break(n=40, p=2, b=20, seed=59)
        config = PenaltyConfig()
        exact = optimal_breakpoints(ds, 1, config)
        staged = refit_breakpoints_two_stage(ds, 1, config, grid_step=1)
        assert staged.breakpoints == exact.breakpoints
        assert staged.total_score == exact.total_score

    def test_coarse_grid_close_to_exact(self):
        ds = _one_break(n=200, p=3, b=105, seed=61, sigma=0.3)
        config = PenaltyConfig()
        exact = optimal_breakpoints(ds, 1, config)
        staged = refit_breakpoints_two_stage(ds, 1, config, grid_step=5)
        assert staged.total_score <= exact.total_score * 1.005 + 1e-9
        assert staged.breakpoints == exact.breakpoints  # refinement reaches 105

    def test_zero_breaks(self):
        ds = _one_break(n=40, p=2, b=20, seed=67)
        staged = refit_breakpoints_two_stage(ds, 0, PenaltyConfig(), grid_step=10)
        assert staged.breakpoints == ()

    def test_grid_step_validated(self):
        ds = _one_break(n=40, p=2, b=20, seed=71)
        with pytest.raises(ValueError):
            refit_breakpoints_two_stage(ds, 1, PenaltyConfig(), grid_step=0)

    def test_infeasible_detected_upfront(self):
        ds = _one_break(n=20, p=3, b=10, seed=73)
        with pytest.raises(InfeasiblePartitionError):
            refit_breakpoints_two_stage(ds, 4, PenaltyConfig(), grid_step=5)
