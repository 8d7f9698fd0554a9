"""Per-segment solvers: closed forms, independent oracles, optimality checks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import segbreak

from segbreak import (
    KktReport,
    NoConvergenceError,
    SingularGramError,
    SingularSystemError,
    UnderdeterminedError,
    bridge,
    kkt_check,
    lasso_cd,
    ols,
    penalized_objective,
    penalty_sum,
    ridge,
    wrap_coefficients,
)
from segbreak.solvers import (
    _FACE_EVERY,
    _SCALAR_LIVE,
    _batch_cd,
    _gram_scores,
    face_step,
    face_steps,
    gram_objective,
)


def _problem(m=50, p=5, seed=1, sigma=0.5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, p))
    phi0 = np.array([2.0, 0.0, -1.5, 0.0, 0.7][:p])
    y = X @ phi0 + sigma * rng.standard_normal(m)
    return X, y, phi0


def _orthonormal(m=40, p=6, seed=3):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, p)))
    y = rng.standard_normal(m)
    return Q, y


def _grid_zoom(obj, lo, hi, rounds=6, points=2001):
    """Scalar minimizer by repeated grid refinement; oracle for 1-d fits."""
    for _ in range(rounds):
        xs = np.linspace(lo, hi, points)
        vals = np.array([obj(x) for x in xs])
        i = int(np.argmin(vals))
        step = xs[1] - xs[0]
        lo, hi = xs[i] - step, xs[i] + step
    return 0.5 * (lo + hi)


class TestPenaltySum:
    def test_gamma_powers(self):
        phi = np.array([1.0, -2.0, 0.0])
        assert penalty_sum(phi, gamma=1.0) == 3.0
        assert penalty_sum(phi, gamma=2.0) == 5.0
        assert penalty_sum(phi, gamma=0.5) == pytest.approx(1.0 + np.sqrt(2.0))

    def test_weighted(self):
        phi = np.array([1.0, -2.0])
        w = np.array([0.5, 2.0])
        assert penalty_sum(phi, weights=w) == 0.5 + 4.0

    def test_infinite_weight_on_zero_contributes_zero(self):
        phi = np.array([0.0, 1.0])
        w = np.array([np.inf, 1.0])
        assert penalty_sum(phi, weights=w) == 1.0

    def test_infinite_weight_on_nonzero_is_infinite(self):
        phi = np.array([0.1, 1.0])
        w = np.array([np.inf, 1.0])
        assert penalty_sum(phi, weights=w) == np.inf


class TestOls:
    def test_identity_design(self):
        y = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(ols(np.eye(3), y), y, atol=1e-12)

    def test_normal_equations_oracle(self):
        X, y, _ = _problem(m=60, p=5, seed=7)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(ols(X, y), oracle, atol=1e-8)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            ols(np.ones((2, 3)), np.zeros(2))

    def test_singular_gram(self):
        X = np.ones((5, 2))  # duplicated column
        with pytest.raises(SingularGramError):
            ols(X, np.zeros(5))


class TestRidge:
    def test_matches_ols_at_zero(self):
        X, y, _ = _problem(m=60, p=5, seed=11)
        np.testing.assert_allclose(ridge(X, y, 0.0), ols(X, y), atol=1e-8)

    def test_closed_form_oracle(self):
        X, y, _ = _problem(m=30, p=4, seed=13)
        lam = 2.5
        oracle = np.linalg.solve(X.T @ X + lam * np.eye(4), X.T @ y)
        np.testing.assert_allclose(ridge(X, y, lam), oracle, atol=1e-8)

    def test_huge_lambda_crushes_coefficients(self):
        X, y, _ = _problem(m=30, p=4, seed=17)
        assert np.abs(ridge(X, y, 1e12)).max() <= 1e-6

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge(np.eye(2), np.zeros(2), -1.0)

    def test_singular_only_at_zero(self):
        X = np.ones((5, 2))
        with pytest.raises(SingularSystemError):
            ridge(X, np.zeros(5), 0.0)
        ridge(X, np.zeros(5), 1e-3)  # regularized system is fine


class TestLassoCd:
    def test_zero_lambda_matches_ols(self):
        X, y, _ = _problem(m=60, p=5, seed=19)
        fit = lasso_cd(X, y, 0.0)
        np.testing.assert_allclose(fit.coefficients, ols(X, y), atol=1e-6)

    def test_zero_response_gives_exact_zeros(self):
        X, _, _ = _problem(m=30, p=4, seed=23)
        fit = lasso_cd(X, np.zeros(30), 1.0)
        assert np.all(fit.coefficients == 0.0)
        assert fit.rss == 0.0
        assert fit.active_set == frozenset()

    def test_one_dimensional_grid_oracle(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((40, 1))
        y = 1.3 * x[:, 0] + 0.4 * rng.standard_normal(40)
        lam = 6.0

        def obj(v):
            return penalized_objective(x, y, np.array([v]), lam)

        oracle = _grid_zoom(obj, -4.0, 4.0)
        fit = lasso_cd(x, y, lam)
        assert abs(fit.coefficients[0] - oracle) <= 1e-4

    def test_orthonormal_closed_form(self):
        Q, y = _orthonormal()
        lam = 0.8
        z = Q.T @ y
        oracle = np.sign(z) * np.maximum(np.abs(z) - lam / 2.0, 0.0)
        fit = lasso_cd(Q, y, lam)
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-8)

    def test_orthonormal_weighted_closed_form(self):
        Q, y = _orthonormal(seed=31)
        lam = 1.1
        w = np.array([0.5, 1.0, 2.0, 0.1, 3.0, 1.7])
        z = Q.T @ y
        oracle = np.sign(z) * np.maximum(np.abs(z) - lam * w / 2.0, 0.0)
        fit = lasso_cd(Q, y, lam, weights=w)
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-8)

    def test_scaled_orthogonal_closed_form(self):
        # X'X = m I: threshold becomes lam * w / (2 m) on z = X'y / m
        Q, y = _orthonormal(seed=37)
        m = Q.shape[0]
        X = np.sqrt(m) * Q
        lam = 3.0
        z = X.T @ y / m
        oracle = np.sign(z) * np.maximum(np.abs(z) - lam / (2.0 * m), 0.0)
        fit = lasso_cd(X, y, lam)
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-8)

    def test_infinite_weight_pins_coordinate(self):
        X, y, _ = _problem(m=50, p=5, seed=41)
        w = np.array([1.0, np.inf, 1.0, 1.0, 1.0])
        fit = lasso_cd(X, y, 0.5, weights=w)
        assert fit.coefficients[1] == 0.0
        assert 1 not in fit.active_set
        assert np.isfinite(fit.penalty_value)

    def test_weight_validation(self):
        X, y, _ = _problem()
        with pytest.raises(ValueError):
            lasso_cd(X, y, 1.0, weights=np.array([1.0, -1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            lasso_cd(X, y, 1.0, weights=np.ones(3))
        with pytest.raises(ValueError):
            lasso_cd(X, y, 1.0, weights=np.array([1.0, np.nan, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            lasso_cd(X, y, -1.0)

    def test_solution_passes_kkt(self):
        X, y, _ = _problem(m=80, p=5, seed=43)
        lam = 4.0
        fit = lasso_cd(X, y, lam)
        report = kkt_check(fit, X, y, lam)
        assert isinstance(report, KktReport)
        assert report.passed
        assert report.worst_violation <= 1e-6

    def test_kkt_localizes_perturbation(self):
        X, y, _ = _problem(m=80, p=5, seed=47)
        lam = 4.0
        fit = lasso_cd(X, y, lam)
        j = min(fit.active_set)
        phi_bad = fit.coefficients.copy()
        phi_bad[j] += 1e-2
        report = kkt_check(phi_bad, X, y, lam)
        assert not report.passed
        assert report.worst_index == j

    def test_ols_passes_kkt_at_zero_lambda(self):
        X, y, _ = _problem(m=60, p=5, seed=53)
        report = kkt_check(ols(X, y), X, y, 0.0)
        assert report.passed

    def test_dominance_over_reference_points(self):
        X, y, phi0 = _problem(m=60, p=5, seed=59)
        lam = 3.0
        fit = lasso_cd(X, y, lam)
        assert fit.penalized_cost <= penalized_objective(X, y, np.zeros(5), lam) + 1e-9
        assert fit.penalized_cost <= penalized_objective(X, y, phi0, lam) + 1e-9
        rng = np.random.default_rng(61)
        for _ in range(20):
            cand = rng.standard_normal(5)
            assert fit.penalized_cost <= penalized_objective(X, y, cand, lam) + 1e-9

    def test_ill_conditioned_segment_converges(self):
        # condition number ~1e4 on the Gram matrix: plain cyclic descent
        # would exhaust the sweep budget here
        rng = np.random.default_rng(67)
        m, p = 11, 10
        U, _ = np.linalg.qr(rng.standard_normal((m, p)))
        V, _ = np.linalg.qr(rng.standard_normal((p, p)))
        s = np.logspace(0.0, -2.0, p)
        X = U @ np.diag(s) @ V.T * 3.0
        y = rng.standard_normal(m)
        lam = float(m**0.45)
        w = np.abs(ols(X, y)) ** -0.2
        fit = lasso_cd(X, y, lam, weights=w)
        assert kkt_check(fit, X, y, lam, weights=w).passed

    def test_budget_exhaustion_raises(self):
        X, y, _ = _problem(m=80, p=5, seed=71)
        with pytest.raises(NoConvergenceError):
            lasso_cd(X, y, 4.0, max_iter=1)

    @pytest.mark.parametrize(
        "budget",
        [{"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan}, {"tol": np.inf},
         {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.5}],
    )
    def test_sweep_budget_checked(self, budget):
        # a negative or NaN tolerance would spend the whole budget, and no
        # sweep at all would return the zero vector as a fit
        X, y, _ = _problem()
        with pytest.raises(ValueError):
            lasso_cd(X, y, 1.0, **budget)


def _descent_design(name, seed=0):
    """Designs on which coordinate descent takes many sweeps."""
    rng = np.random.default_rng(seed)
    if name == "correlated_infinite_weight":
        corr = 0.99 * np.ones((5, 5)) + 0.01 * np.eye(5)
        X = rng.standard_normal((40, 5)) @ np.linalg.cholesky(corr).T
        y = X @ np.array([2.0, 0.0, -1.5, 0.0, 0.7]) + 0.5 * rng.standard_normal(40)
        return X, y, np.array([1.0, np.inf, 0.5, 2.0, 1.0])
    # x3 = x1 + 1e-7 * noise: the lasso crawls along the near-tie of x1, x3
    X = rng.standard_normal((30, 3))
    X[:, 2] = X[:, 0] + 1e-7 * rng.standard_normal(30)
    y = X @ np.array([3.0, -3.0, 0.0]) + 0.3 * rng.standard_normal(30)
    if name == "zero_column":
        X = np.column_stack([X, np.zeros(30)])
    return X, y, np.ones(X.shape[1])


class TestCoordinateDescentDescent:
    @pytest.mark.parametrize(
        "design", ["near_collinear", "correlated_infinite_weight", "zero_column"]
    )
    def test_objective_never_rises(self, design):
        # the engine's s-sweep iterate for s = 1..60, across the face steps
        # every _FACE_EVERY sweeps: its objective must never rise
        X, y, w = _descent_design(design)
        lam = float(X.shape[0] ** 0.45)
        G, b, thr = X.T @ X, X.T @ y, lam * w / 2.0
        values = []
        for sweeps in range(1, 61):
            phi, _ = _batch_cd(G[None], b[None], thr[None], 0.0, sweeps)
            values.append(penalized_objective(X, y, phi[0], lam, weights=w))
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-9 * abs(before)
        assert values[-1] < values[0]


def _handover_stack():
    """Gram-form problems (p = 5) of one stack that leave it at different
    sweeps: two plain designs, a near-collinear pair of columns (x3 = x1 +
    1e-7 * noise), a column that is zero inside the segment, an infinite
    weight on a correlated design, and an ill-conditioned design with a
    small penalty that needs more than 200 sweeps."""
    rng = np.random.default_rng(35)
    problems = []

    def gram(X, y, lam, w):
        return X.T @ X, X.T @ y, lam * np.asarray(w, dtype=float) / 2.0

    for _ in range(2):
        X = rng.standard_normal((40, 5))
        y = X @ np.array([1.0, 2.0, 0.1, 0.0, -1.0]) + rng.standard_normal(40)
        problems.append(gram(X, y, 40**0.45, np.ones(5)))
    X = rng.standard_normal((30, 5))
    X[:, 2] = X[:, 0] + 1e-7 * rng.standard_normal(30)
    y = X @ np.array([3.0, -3.0, 0.0, 1.0, 0.0]) + 0.3 * rng.standard_normal(30)
    problems.append(gram(X, y, 30**0.45, np.ones(5)))
    X = rng.standard_normal((30, 5))
    X[:, 3] = 0.0
    y = X @ np.array([1.0, 0.0, -2.0, 0.0, 0.5]) + 0.3 * rng.standard_normal(30)
    problems.append(gram(X, y, 30**0.45, np.ones(5)))
    corr = 0.99 * np.ones((5, 5)) + 0.01 * np.eye(5)
    X = rng.standard_normal((40, 5)) @ np.linalg.cholesky(corr).T
    y = X @ np.array([2.0, 0.0, -1.5, 0.0, 0.7]) + 0.5 * rng.standard_normal(40)
    problems.append(gram(X, y, 40**0.45, [1.0, np.inf, 0.5, 2.0, 1.0]))
    U, _ = np.linalg.qr(rng.standard_normal((6, 5)))
    V, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    X = U @ np.diag(np.logspace(0.0, -2.0, 5)) @ V.T * 3.0
    y = X @ (2.0 * rng.standard_normal(5)) + 0.1 * rng.standard_normal(6)
    problems.append(gram(X, y, 0.01, np.ones(5)))
    return [np.stack(parts) for parts in zip(*problems)]


def _exit_sweep(G, b, thr, most=5000):
    """Least budget at which the lone problem converges: the sweep at
    which it leaves any stack it is solved in."""
    lo, hi = 1, most
    while lo < hi:
        mid = (lo + hi) // 2
        if _batch_cd(G[None], b[None], thr[None], 1e-8, mid)[1].size:
            lo = mid + 1
        else:
            hi = mid
    return lo


class TestScalarFinish:
    """Once at most ``_SCALAR_LIVE`` problems are live, ``_batch_cd``
    finishes each alone in Python floats; no row may depend on the stack
    it was solved in, nor on the sweep at which it was handed over."""

    def test_stack_design(self):
        # the problems leave the whole stack at sweeps 9-12, 171 and 551, so
        # the whole stack hands over at sweep 13: after the face step at 10,
        # before the one at 20, and not on a multiple of _FACE_EVERY
        G, b, thr = _handover_stack()
        exits = [_exit_sweep(*row) for row in zip(G, b, thr)]
        handover = sorted(exits)[-_SCALAR_LIVE - 1] + 1
        assert handover == 13 and _FACE_EVERY < handover < 2 * _FACE_EVERY
        assert max(exits) > 200
        assert len(set(exits)) >= 5

    @pytest.mark.parametrize("max_iter", [5, 10, 13, 20, 200, 10_000])
    def test_rows_match_lone_and_paired_solves(self, max_iter):
        # budgets end before the hand-over (5, and 10 on a face-step sweep),
        # on it (13), on the face-step sweep after it (20), with one problem
        # still running (200) and with every problem converged (10,000)
        G, b, thr = _handover_stack()
        m = len(b)
        with np.errstate(all="raise"):
            whole, stalled = _batch_cd(G, b, thr, 1e-8, max_iter)
            alone = [_batch_cd(G[[i]], b[[i]], thr[[i]], 1e-8, max_iter) for i in range(m)]
            for i, (phi, _) in enumerate(alone):
                assert np.array_equal(whole[i], phi[0]), i
            assert stalled.tolist() == [i for i, (_, st) in enumerate(alone) if st.size]
            for i in range(m):
                for j in range(i + 1, m):
                    pair, pair_stalled = _batch_cd(G[[i, j]], b[[i, j]], thr[[i, j]], 1e-8, max_iter)
                    assert np.array_equal(pair, whole[[i, j]]), (i, j)
                    assert [(i, j)[k] for k in pair_stalled] == [k for k in (i, j) if k in stalled]
        if max_iter == 200:
            assert stalled.tolist() == [m - 1]
        elif max_iter == 10_000:
            assert stalled.size == 0

    def test_face_steps_keep_their_sweeps_after_the_hand_over(self):
        # the slowest problem converges one sweep after the face step that
        # ends its crawl, hundreds of sweeps after the whole stack handed
        # over at sweep 13: it must take that step at the same sweep as
        # alone and so leave at the same sweep, which holds only if the
        # finish counts face-step sweeps from the start of the call
        G, b, thr = _handover_stack()
        last = len(b) - 1
        exit_last = _exit_sweep(G[last], b[last], thr[last])
        assert exit_last > 200 and exit_last % _FACE_EVERY == 1
        for max_iter, stalled_rows in ((exit_last - 1, [last]), (exit_last, [])):
            whole, stalled = _batch_cd(G, b, thr, 1e-8, max_iter)
            lone, _ = _batch_cd(G[[last]], b[[last]], thr[[last]], 1e-8, max_iter)
            assert stalled.tolist() == stalled_rows
            assert np.array_equal(whole[last], lone[0])

    def test_nan_problem_matches_its_whole_stack_row(self):
        # a NaN correlation stays NaN through np.maximum and never settles,
        # so the problem uses the whole budget in the stack and alone
        G, b, thr = _handover_stack()
        b = b.copy()
        b[1, 2] = np.nan
        whole, stalled = _batch_cd(G, b, thr, 1e-8, 40)
        lone, lone_stalled = _batch_cd(G[[1]], b[[1]], thr[[1]], 1e-8, 40)
        assert np.isnan(lone[0]).any() and lone_stalled.tolist() == [0]
        assert stalled.tolist() == [1, 4, 5]
        assert np.array_equal(whole[1], lone[0], equal_nan=True)

    def test_stalled_indices_ascend(self):
        # the two slowest problems first in the stack, then the rest: the
        # stalled list still comes back sorted
        G, b, thr = _handover_stack()
        order = [5, 4, 0, 1, 2, 3]
        _, stalled = _batch_cd(G[order], b[order], thr[order], 1e-8, 150)
        assert stalled.tolist() == [0, 1]

    def test_vecdot_rows_match_lone_dot_products(self):
        # the whole-stack update takes np.vecdot over one column of every
        # Gram matrix, the scalar finish ndarray.dot on the lone row: both
        # must be the lone row's ``@`` bit for bit, at any stack size
        rng = np.random.default_rng(5)
        for _ in range(300):
            m, p = int(rng.integers(1, 70)), int(rng.integers(1, 40))
            G = rng.standard_normal((m, p, p)) * 10.0 ** rng.uniform(-3.0, 3.0)
            x = rng.standard_normal((m, p)) * 10.0 ** rng.uniform(-3.0, 3.0)
            k = int(rng.integers(p))
            got = np.vecdot(G[:, k, :], x)
            for i in range(m):
                assert got[i] == G[i][k] @ x[i] == G[i][k].dot(x[i])


class TestFaceStep:
    def test_zero_support_returns_none(self):
        G = np.eye(3)
        assert face_step(G, np.ones(3), np.ones(3), np.zeros(3)) is None

    def test_proposal_respects_face_and_score(self):
        X, y, _ = _problem(m=50, p=5, seed=73)
        lam = 3.0
        G, b = X.T @ X, X.T @ y
        thr = np.full(5, lam / 2.0)
        phi = np.linalg.solve(G + np.eye(5), b)  # rough interior point
        cand = face_step(G, b, thr, phi)
        assert cand is not None
        assert np.all(np.sign(cand[phi != 0.0]) == np.sign(phi[phi != 0.0]))
        iterates = np.stack([cand, phi])[:, None]
        after, before = _gram_scores(G[None], b[None], thr[None], iterates)[:, 0]
        assert after <= before + 1e-12

    def test_fixed_point_at_solution(self):
        Q, y = _orthonormal(seed=79)
        lam = 0.8
        fit = lasso_cd(Q, y, lam)
        G, b = Q.T @ Q, Q.T @ y
        thr = np.full(Q.shape[1], lam / 2.0)
        cand = face_step(G, b, thr, fit.coefficients)
        assert cand is not None
        np.testing.assert_allclose(cand, fit.coefficients, atol=1e-10)


def _face_step_oracle(G, b, thr, phi):
    """One problem's face step on the active submatrix, the per-row rule
    that ``face_steps`` batches: candidate vector or None."""
    active = np.flatnonzero(phi)
    if active.size == 0:
        return None
    s = np.sign(phi[active])
    try:
        x = np.linalg.solve(G[np.ix_(active, active)], b[active] - thr[active] * s)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x)) or np.any(np.sign(x) != s):
        return None
    cand = np.zeros_like(phi)
    cand[active] = x

    def score(v):
        penalty = sum(t * abs(c) for t, c in zip(thr, v) if c != 0.0)
        return float(v @ G @ v - 2.0 * (b @ v)) + 2.0 * float(penalty)

    return None if score(cand) > score(phi) else cand


def _face_stack():
    """Rows of one face-step stack (p = 4), each named for its case."""
    rng = np.random.default_rng(11)
    rows = {}

    def gram_row(X, y, thr, phi):
        return X.T @ X, X.T @ y, np.asarray(thr, dtype=float), np.asarray(phi, dtype=float)

    X = rng.standard_normal((30, 4))
    y = X @ np.array([2.0, 0.0, -1.0, 0.5]) + 0.3 * rng.standard_normal(30)
    rows["accepted"] = gram_row(X, y, np.full(4, 1.5), [1.9, 0.0, -0.9, 0.4])
    rows["empty_support"] = gram_row(X, y, np.full(4, 1.5), np.zeros(4))
    Xd = X.copy()
    Xd[:, 1] = Xd[:, 0]  # duplicate columns: the active Gram is exactly singular
    rows["singular"] = gram_row(Xd, y, np.full(4, 1.5), [1.0, 1.0, -0.9, 0.0])
    rows["infinite_threshold"] = gram_row(
        X, y, [1.5, np.inf, 1.5, 1.5], [1.9, 0.0, -0.9, 0.4]
    )
    # the face minimizer of coordinate 3 is about +0.5, so a negative start flips
    rows["sign_flip"] = gram_row(X, y, np.full(4, 1.5), [1.9, 0.0, -0.9, -0.4])
    # a negative definite active block: the face's stationary point is its
    # maximum, so the signs hold but the objective rises
    G = -np.eye(4) - 0.1
    rows["objective_rise"] = (G, np.array([2.0, -1.0, -0.5, 0.0]), np.full(4, 0.1),
                              np.array([-1.0, 1.5, 1.0, 0.0]))
    X2 = rng.standard_normal((25, 4))
    y2 = X2 @ np.array([-1.0, 1.0, 0.0, 3.0]) + rng.standard_normal(25)
    rows["accepted_2"] = gram_row(X2, y2, np.full(4, 0.5), [-0.8, 0.9, 0.0, 2.9])
    return list(rows), [np.stack(parts) for parts in zip(*rows.values())]


class TestFaceSteps:
    def test_matches_per_row_oracle(self):
        names, (G, b, thr, phi) = _face_stack()
        with np.errstate(all="raise"):
            rows, cands = face_steps(G, b, thr, phi)
        oracle = {i: _face_step_oracle(G[i], b[i], thr[i], phi[i]) for i in range(len(names))}
        expected = [i for i, cand in oracle.items() if cand is not None]
        assert rows.tolist() == expected
        for i, cand in zip(rows, cands):
            np.testing.assert_allclose(cand, oracle[i], rtol=1e-12, atol=1e-12)
        assert {names[i] for i in rows} == {"accepted", "infinite_threshold", "accepted_2"}

    def test_each_rejected_row_takes_its_branch(self):
        names, (G, b, thr, phi) = _face_stack()

        def face_solution(name):
            i = names.index(name)
            a = np.flatnonzero(phi[i])
            rhs = b[i][a] - thr[i][a] * np.sign(phi[i][a])
            return np.linalg.solve(G[i][np.ix_(a, a)], rhs), np.sign(phi[i][a])

        # the singular block makes the stacked solve raise, so the
        # row-by-row retry runs while the other rows still get proposals
        with pytest.raises(np.linalg.LinAlgError):
            face_solution("singular")
        x, s = face_solution("sign_flip")
        assert np.any(np.sign(x) != s)
        x, s = face_solution("objective_rise")
        assert np.all(np.sign(x) == s)


class TestBridge:
    def test_reserved_exponents_rejected(self):
        X, y, _ = _problem()
        with pytest.raises(ValueError):
            bridge(X, y, 1.0, 1.0)
        with pytest.raises(ValueError):
            bridge(X, y, 1.0, 2.0)
        with pytest.raises(ValueError):
            bridge(X, y, 1.0, 0.0)

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    @pytest.mark.parametrize(
        "budget", [{"tol": -1e-8}, {"tol": np.nan}, {"max_iter": 0}, {"max_iter": 1.0}]
    )
    def test_sweep_budget_checked(self, gamma, budget):
        # max_iter=0 used to return the zero vector for gamma < 1
        X, y, _ = _problem()
        with pytest.raises(ValueError):
            bridge(X, y, 1.0, gamma, **budget)

    def test_zero_lambda_matches_ols(self):
        X, y, _ = _problem(m=60, p=5, seed=83)
        fit = bridge(X, y, 0.0, 1.5)
        np.testing.assert_allclose(fit.coefficients, ols(X, y), atol=1e-6)

    @pytest.mark.parametrize("gamma", [0.5, 1.5, 3.0])
    def test_one_dimensional_grid_oracle(self, gamma):
        rng = np.random.default_rng(89)
        x = rng.standard_normal((40, 1))
        y = 1.6 * x[:, 0] + 0.3 * rng.standard_normal(40)
        lam = 5.0

        def obj(v):
            return penalized_objective(x, y, np.array([v]), lam, gamma=gamma)

        oracle = _grid_zoom(obj, -4.0, 4.0)
        fit = bridge(x, y, lam, gamma)
        assert abs(fit.coefficients[0] - oracle) <= 1e-4

    def test_concave_zero_response(self):
        X, _, _ = _problem(m=30, p=4, seed=97)
        fit = bridge(X, np.zeros(30), 1.0, 0.5)
        assert np.all(fit.coefficients == 0.0)

    def test_smooth_exponent_near_zero_clamped(self):
        # gamma = 3 barely penalizes small coefficients, so no exact zeros
        # are expected; the clamp only snaps numerically dead coordinates
        X, y, _ = _problem(m=50, p=5, seed=101)
        fit = bridge(X, y, 1.0, 3.0)
        assert np.all((fit.coefficients == 0.0) | (np.abs(fit.coefficients) > 1e-10))


    def test_scipy_loads_only_for_the_smooth_bridge(self):
        code = (
            "import sys, numpy as np, segbreak\n"
            "print('scipy.optimize' in sys.modules)\n"
            "X = np.eye(3)\n"
            "segbreak.bridge(X, np.ones(3), 1.0, 0.5)\n"
            "print('scipy.optimize' in sys.modules)\n"
            "segbreak.bridge(X, np.ones(3), 1.0, 1.5)\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = str(Path(segbreak.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout.split()
        assert out == ["False", "False", "True"]


class TestGramObjective:
    def test_matches_row_objective(self):
        X, y, phi0 = _problem(m=30, p=5, seed=107)
        G, b, yy = (X.T @ X)[None], (X.T @ y)[None], np.array([y @ y])
        w = np.array([1.0, np.inf, 0.5, 2.0, 1.0])
        for phi, gamma, weights in (
            (phi0, 1.0, w), (phi0 + 0.1, 1.0, None), (phi0, 0.5, None), (phi0, 2.0, None),
        ):
            stack = None if weights is None else weights[None]
            got = gram_objective(G, b, yy, 3.0, phi[None], gamma, stack)
            want = penalized_objective(X, y, phi, 3.0, gamma=gamma, weights=weights)
            assert got[0] == pytest.approx(want, rel=1e-12)


class TestWrapCoefficients:
    def test_recomputes_rss_and_penalty(self):
        X, y, _ = _problem(m=30, p=4, seed=103)
        phi = np.array([1.0, 0.0, -2.0, 0.0])
        lam = 2.0
        fit = wrap_coefficients(X, y, phi, lam)
        r = y - X @ phi
        assert fit.rss == pytest.approx(float(r @ r), rel=1e-12)
        assert fit.penalty_value == pytest.approx(lam * 3.0, rel=1e-12)
        assert fit.active_set == frozenset({0, 2})
        assert fit.penalized_cost == pytest.approx(fit.rss + fit.penalty_value)

    def test_zero_clamp_snaps_small_values(self):
        X, y, _ = _problem(m=30, p=4, seed=107)
        phi = np.array([1.0, 1e-12, -2.0, -1e-11])
        fit = wrap_coefficients(X, y, phi, 1.0, zero_clamp=1e-10)
        assert fit.coefficients[1] == 0.0
        assert fit.coefficients[3] == 0.0
        assert fit.active_set == frozenset({0, 2})

    def test_negative_zero_reported_as_zero(self):
        # the batched soft-threshold leaves -0.0 where the correlation is
        # negative; reports must not print it
        X, y, _ = _problem(m=30, p=4, seed=109)
        fit = wrap_coefficients(X, y, np.array([1.0, -0.0, -2.0, 0.0]), 1.0)
        assert not np.signbit(fit.coefficients[fit.coefficients == 0.0]).any()
