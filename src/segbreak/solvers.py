"""Per-segment solvers.

Every solver minimizes, over the coefficient vector ``phi`` of a single
segment with design ``X`` (m rows) and response ``y``,

    sum_i (y_i - x_i' phi)^2  +  lam * penalty(phi)

where the penalty is ``sum_k w_k |phi_k|`` for the (weighted) lasso,
``sum_k phi_k^2`` for ridge, and ``sum_k |phi_k|^gamma`` for bridge
exponents.  The penalty is a plain sum: it is not divided by 2 or by the
segment length, and the tuning constant ``lam`` multiplies it directly.

The lasso path has one loop, ``_batch_cd``: cyclic coordinate descent
with exact soft-threshold updates in Gram form over a stack of problems,
which ``lasso_cd`` runs on a stack of one and the concave bridge descent
on every problem and start of a stack at once.  Whole-stack numpy calls
pay off only on several problems, so once at most two are live the loop
finishes each alone with the same updates in Python floats; a stack of
one runs entirely in that finish.  Every dot product is one BLAS ddot on
one row, so no problem's iterates depend on the stack.  The smooth bridge
exponents (gamma > 1) are solved one Gram-form problem at a time by
L-BFGS-B, and only they import ``scipy``; both bridges start from the
ridge fit, the concave one also from the least-squares fit.  Every
Gram-form cost is ``gram_objective``.  An infinite weight pins its
coordinate at exactly 0 and contributes nothing to the penalty value;
this is how downstream code encodes coordinates whose least-squares
estimate vanished.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign

import numpy as np

from .errors import (
    NoConvergenceError,
    SingularGramError,
    SingularSystemError,
    UnderdeterminedError,
)
from .model import SegmentFit, check_sweep_budget

# least smallest-to-largest Gram eigenvalue ratio of a least-squares fit
_GRAM_COND_FLOOR = 1e-10


def penalty_sum(phi: np.ndarray, gamma: float = 1.0, weights: np.ndarray | None = None) -> float:
    """Penalty term without the tuning constant.

    Weighted form uses ``sum_k w_k |phi_k|`` and applies the convention
    that an infinite weight paired with an exactly zero coefficient
    contributes 0.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if weights is None:
        return float(np.sum(np.abs(phi) ** gamma))
    return float(np.sum(_l1_terms(np.asarray(weights, dtype=np.float64), phi)))


def _l1_terms(w, phi):
    """Terms ``w * |phi|``, elementwise, with 0 wherever ``phi`` is 0: an
    infinite weight on an exactly zero coefficient contributes nothing."""
    return np.where(phi == 0.0, 0.0, w) * np.abs(phi)


def gram_objective(G, b, yy, lam, phi, gamma=1.0, weights=None):
    """Penalized objective of each Gram-form problem of a stack (``G``,
    ``b``, ``yy`` = X'X, X'y, y'y per problem; ``lam`` a scalar or one
    value per problem): ``yy - 2 b'phi + phi'G phi``, floored at 0, plus
    ``lam`` times ``sum_k w_k |phi_k|`` when ``weights`` are given and
    ``sum_k |phi_k|^gamma`` otherwise.  ``phi`` may carry leading axes of
    candidates.
    """
    rss = yy - 2.0 * np.einsum("ij,...ij->...i", b, phi)
    rss += np.einsum("...ij,ijk,...ik->...i", phi, G, phi)
    if weights is None:
        penalty = (np.abs(phi) ** gamma).sum(axis=-1)
    else:
        penalty = _l1_terms(weights, phi).sum(axis=-1)
    return np.maximum(rss, 0.0) + lam * penalty


def penalized_objective(
    X: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    lam: float,
    gamma: float = 1.0,
    weights: np.ndarray | None = None,
) -> float:
    """Full objective value at ``phi``; used for dominance and oracle checks."""
    r = y - X @ phi
    return float(r @ r) + lam * penalty_sum(phi, gamma=gamma, weights=weights)


def ols(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of a segment.

    Raises
    ------
    UnderdeterminedError
        When the segment has fewer rows than coefficients.
    SingularGramError
        When the Gram matrix is numerically singular: its smallest singular
        value falls below 1e-10 times its largest.  The singular values come
        from the same ``lstsq`` decomposition that gives the coefficients.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, p = X.shape
    if m < p:
        raise UnderdeterminedError(f"{m} rows cannot determine {p} coefficients")
    phi, _, _, s = np.linalg.lstsq(X, y, rcond=None)
    # singular values of the Gram matrix are the squares of those of X
    if s[0] == 0.0 or (s[-1] / s[0]) ** 2 < _GRAM_COND_FLOOR:
        raise SingularGramError(
            f"Gram condition {(s[-1] / s[0]) ** 2 if s[0] else 0.0:.3e} "
            f"below {_GRAM_COND_FLOOR:.0e}"
        )
    return phi


def ridge(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Solve (X'X + lam I) phi = X'y.

    Raises SingularSystemError when the system matrix is singular, which
    can only happen at lam = 0 with rank-deficient X.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = X.shape[1]
    A = X.T @ X + lam * np.eye(p)
    w = np.linalg.eigvalsh(A)
    if w[-1] <= 0.0 or w[0] < 1e-12 * w[-1]:
        raise SingularSystemError(
            f"system matrix singular at lam={lam} (eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return np.linalg.solve(A, X.T @ y)


@dataclass(frozen=True)
class KktReport:
    """Outcome of a stationarity check for a weighted-lasso objective.

    ``worst_violation`` is normalized by ``scale = 1 + max_k |X_k'y|`` so
    the same tolerance is meaningful across problem sizes.
    """

    passed: bool
    worst_violation: float
    worst_index: int
    tolerance: float
    scale: float


def kkt_check(
    fit,
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    weights: np.ndarray | None = None,
    tolerance: float = 1e-6,
) -> KktReport:
    """Verify the subgradient conditions of the weighted-lasso objective.

    For an active coordinate k the correlation 2 X_k'(y - X phi) must equal
    lam w_k sign(phi_k); for an inactive one its magnitude must not exceed
    lam w_k.  ``fit`` may be a SegmentFit or a bare coefficient vector.
    Pure function: no state is touched.
    """
    phi = fit.coefficients if isinstance(fit, SegmentFit) else np.asarray(fit, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = X.shape[1]
    w = np.ones(p) if weights is None else np.asarray(weights, dtype=np.float64)
    corr = 2.0 * (X.T @ (y - X @ phi))
    scale = 1.0 + float(np.max(np.abs(X.T @ y))) if p else 1.0
    with np.errstate(invalid="ignore"):
        bound = lam * w
    bound = np.where(np.isnan(bound), 0.0, bound)  # lam = 0 with infinite weight
    active = phi != 0.0
    viol = np.empty(p)
    viol[active] = np.abs(corr[active] - bound[active] * np.sign(phi[active]))
    viol[~active] = np.maximum(0.0, np.abs(corr[~active]) - bound[~active])
    viol /= scale
    worst = int(np.argmax(viol)) if p else 0
    worst_violation = float(viol[worst]) if p else 0.0
    return KktReport(
        passed=bool(worst_violation <= tolerance),
        worst_violation=worst_violation,
        worst_index=worst,
        tolerance=tolerance,
        scale=scale,
    )


_FACE_EVERY = 10

# Live problems at or below which ``_batch_cd`` finishes each one alone in
# Python floats.  A sweep at p = 10 (one CPU of a 2-vCPU VM, one BLAS
# thread, face steps included) costs 13-15 us per problem in the finish
# and 53-67 us for the whole-stack update on stacks of 1, 2 or 8
# problems.  Dense n = 50 select_k replications took the same time, within
# the spread of repeated runs, handing over at 2 or 4 live problems
# (p50 34-39 ms on 256 replications of seed 0 and of seed 1), and longer
# at 8.
_SCALAR_LIVE = 2


def _gram_scores(G, b, thr, phi):
    """Weighted-lasso objective minus the constant y'y term, for each
    problem of a stack; ``phi`` may carry leading axes of iterates.

    thr holds lam * w / 2, so the penalty contributes 2 sum thr |phi|.
    Coordinates pinned at zero by an infinite threshold contribute zero.
    """
    quad = np.einsum("...ij,ijk,...ik->...i", phi, G, phi)
    quad -= 2.0 * np.einsum("ij,...ij->...i", b, phi)
    return quad + 2.0 * _l1_terms(thr, phi).sum(axis=-1)


def face_steps(G, b, thr, phi):
    """Exact minimizers on the faces fixed by the current supports and signs.

    Near-collinear columns make plain coordinate descent crawl, but once
    the support and signs have settled the minimizer solves a linear
    system.  Over a stack of problems (Gram matrices ``G``, right-hand
    sides ``b``, thresholds ``thr`` = lam * w / 2, iterates ``phi``), each
    problem's p x p system keeps the Gram entries of its active (nonzero)
    coordinates and has the identity on the others, so one batched solve
    gives every proposal, with zeros off the support.  Only when that
    solve meets an exactly singular system is the stack solved row by row,
    and a singular row gets no proposal.  A proposal is accepted only if
    it is finite, keeps the signs of the support and does not increase
    the objective, so taking it can never break monotone descent.  Rows
    with an empty support get none.

    Returns ``(rows, proposals)``: the indices of the accepted problems
    and their candidate vectors, one per row.
    """
    active = phi != 0.0
    s = np.sign(phi)
    A = np.where(active[:, :, None] & active[:, None, :], G, np.eye(phi.shape[1]))
    rhs = np.where(active, b - np.where(active, thr, 0.0) * s, 0.0)
    try:
        x = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full_like(rhs, np.nan)  # a singular row stays NaN: no proposal
        for i in range(len(x)):
            try:
                x[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    ok = active.any(axis=1) & np.isfinite(x).all(axis=1)
    ok &= ((np.sign(x) == s) | ~active).all(axis=1)
    cand = np.where(ok[:, None] & active, x, 0.0)
    after, before = _gram_scores(G, b, thr, np.stack([cand, phi]))
    ok &= after <= before
    rows = np.flatnonzero(ok)
    return rows, cand[rows]


def face_step(G, b, thr, phi):
    """``face_steps`` of one problem: the accepted candidate vector, or
    None."""
    rows, cand = face_steps(G[None], b[None], thr[None], phi[None])
    return cand[0] if rows.size else None


def _batch_cd(G, b, thr, tol, max_iter):
    """Cyclic coordinate descent over a stack of Gram-form weighted-lasso
    problems (``thr`` = lam * w / 2).  Returns the coefficient stack and
    the indices of the problems that used up the sweep budget, ascending.

    A problem leaves the working set once no coordinate moved more than
    ``tol`` in a sweep, as in glmnet (Friedman, Hastie & Tibshirani 2010).
    Exact soft-threshold updates never raise the objective, nor does the
    ``face_steps`` call every ``_FACE_EVERY`` sweeps.  Each coordinate
    update is a few whole-stack numpy calls: a column that is zero inside
    its segment gets divisor 1 and threshold +inf, so it stays at 0.  Once
    at most ``_SCALAR_LIVE`` problems are live at the top of a sweep, each
    is finished alone by ``_finish_alone``.  Every dot product is BLAS
    ddot on one row, so a problem's iterates do not depend on the stack it
    is solved in: each row equals its lone solve bit for bit.
    """
    m, p = b.shape
    out = np.zeros((m, p))
    idx = np.arange(m)
    if not m:
        return out, idx
    x = np.zeros((m, p))
    diag = G[:, np.arange(p), np.arange(p)]
    live = diag > 0.0
    Gc, bc = G, b
    dc, tc = np.where(live, diag, 1.0), np.where(live, thr, np.inf)
    cols = [(Gc[:, k, :], bc[:, k], dc[:, k], tc[:, k], x[:, k]) for k in range(p)]
    for sweep in range(1, max_iter + 1):
        if len(idx) <= _SCALAR_LIVE:
            stalled = [
                not _finish_alone(Gc[j], bc[j], dc[j], tc[j], x[j], tol, sweep, max_iter)
                for j in range(len(idx))
            ]
            out[idx] = x
            return out, idx[stalled]
        start = x.copy()
        for Gk, bk, dk, tk, xk in cols:
            c = bk - np.vecdot(Gk, x) + dk * xk
            new = np.abs(c)
            new -= tk
            np.maximum(new, 0.0, out=new)
            np.copysign(new, c, out=xk)
            xk /= dk
        start -= x
        done = np.abs(start, out=start).max(axis=1) <= tol
        if done.any():
            out[idx[done]] = x[done]
            keep = ~done
            if not keep.any():
                return out, np.empty(0, dtype=int)
            idx = idx[keep]
            Gc, bc, tc, dc, x = Gc[keep], bc[keep], tc[keep], dc[keep], x[keep]
            cols = [(Gc[:, k, :], bc[:, k], dc[:, k], tc[:, k], x[:, k]) for k in range(p)]
        if sweep % _FACE_EVERY == 0:
            rows, jump = face_steps(Gc, bc, tc, x)
            x[rows] = jump
    out[idx] = x
    return out, idx


def _finish_alone(G, b, d, t, x, tol, first, max_iter):
    """Sweeps ``first`` to ``max_iter`` of ``_batch_cd`` on one problem,
    updating its iterate ``x`` in place; True once a sweep moves no
    coordinate more than ``tol``.

    The updates are ``_batch_cd``'s in Python floats, which round as
    numpy's elementwise operations do: ``max`` keeps a NaN first argument
    as ``np.maximum`` does, and ``G[k].dot(x)`` is the same BLAS ddot as
    ``np.vecdot`` on that row.  The face step is ``face_steps`` on a stack
    of one, at the same sweep numbers.
    """
    xs = x.tolist()
    cols = list(zip(range(len(xs)), [row.dot for row in G], b.tolist(), d.tolist(), t.tolist()))
    for sweep in range(first, max_iter + 1):
        settled = True
        for k, dot, bk, dk, tk in cols:
            old = xs[k]
            c = bk - float(dot(x)) + dk * old
            new = copysign(max(abs(c) - tk, 0.0), c) / dk
            x[k] = xs[k] = new
            if not abs(new - old) <= tol:  # a NaN change never settles
                settled = False
        if settled:
            return True
        if sweep % _FACE_EVERY == 0:
            rows, jump = face_steps(G[None], b[None], t[None], x[None])
            if rows.size:
                x[:] = jump[0]
                xs = x.tolist()
    return False


def wrap_coefficients(
    X: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    lam: float,
    gamma: float = 1.0,
    weights: np.ndarray | None = None,
    zero_clamp: float = 0.0,
) -> SegmentFit:
    """Package raw coefficients as a SegmentFit.

    Applies the zero clamp (exact zeros come out as +0.0), then recomputes
    the residual sum of squares and penalty value at the returned (clamped)
    coefficients so that the cost decomposition refers to what is reported.
    """
    phi = np.asarray(phi, dtype=np.float64)
    phi = np.where(np.abs(phi) <= zero_clamp, 0.0, phi)
    r = y - X @ phi
    rss = float(r @ r)
    penalty = lam * penalty_sum(phi, gamma=gamma, weights=weights)
    active = frozenset(int(k) for k in np.flatnonzero(phi != 0.0))
    return SegmentFit(
        coefficients=phi,
        rss=rss,
        penalty_value=penalty,
        active_set=active,
        weights_used=weights,
    )


def _require_stationary(phi, X, y, lam, weights, max_iter):
    """Accept a coordinate-descent iterate that used all ``max_iter`` sweeps.

    The iterate stands only if it passes ``kkt_check`` at 1e-6; otherwise
    NoConvergenceError is raised.  ``lasso_cd`` and the segment-cost
    engine share this rule.
    """
    report = kkt_check(phi, X, y, lam, weights=weights, tolerance=1e-6)
    if not report.passed:
        raise NoConvergenceError(
            f"coordinate descent used all {max_iter} sweeps; worst "
            f"stationarity violation {report.worst_violation:.3e} at "
            f"coordinate {report.worst_index}"
        )


def lasso_cd(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    weights: np.ndarray | None = None,
    *,
    tol: float = 1e-8,
    max_iter: int = 10000,
    zero_clamp: float = 0.0,
) -> SegmentFit:
    """Weighted lasso by coordinate descent: ``_batch_cd`` on a stack of
    one, which its scalar finish solves from the first sweep.

    Sweeps stop when the largest coefficient change in a sweep is at most
    ``tol``.  If the iteration budget runs out, the result is kept only if
    it still passes ``kkt_check`` at 1e-6; otherwise NoConvergenceError is
    raised.  Convergence trouble is never silent.  ``tol`` must be finite
    and positive and ``max_iter`` an integer of at least 1.

    Weights must be nonnegative; np.inf pins a coordinate at exactly 0.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    check_sweep_budget(tol, max_iter)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = X.shape[1]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (p,):
            raise ValueError(f"weights shape {weights.shape} != ({p},)")
        if np.any(weights < 0) or np.any(np.isnan(weights)):
            raise ValueError("weights must be nonnegative")
    w = np.ones(p) if weights is None else weights
    thr = lam * w / 2.0 if lam > 0 else np.zeros(p)  # lam = 0 unpins infinite weights
    phi, stalled = _batch_cd((X.T @ X)[None], (X.T @ y)[None], thr[None], tol, max_iter)
    if stalled.size:
        _require_stationary(phi[0], X, y, lam, w, max_iter)
    return wrap_coefficients(X, y, phi[0], lam, 1.0, weights, zero_clamp)


def _bridge_smooth(G, b, yy, lam, gamma, phi0):
    """Descent for the differentiable bridge penalties (gamma > 1) on one
    Gram-form problem, from ``phi0``, to gradient sup-norm at most
    1e-6 * (1 + max_k |b_k|)."""
    from scipy.optimize import minimize  # only this family needs scipy

    grad_tol = 1e-6 * (1.0 + float(np.max(np.abs(b))))

    def fun(phi):
        return float(gram_objective(G[None], b[None], yy, lam, phi[None], gamma)[0])

    def jac(phi):
        a = np.abs(phi)
        return 2.0 * (G @ phi - b) + lam * gamma * np.sign(phi) * a ** (gamma - 1.0)

    phi = phi0
    for _ in range(4):
        res = minimize(
            fun,
            phi,
            jac=jac,
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-16, "gtol": 0.1 * grad_tol},
        )
        phi = res.x
        if float(np.max(np.abs(jac(phi)))) <= grad_tol:
            return phi
    raise NoConvergenceError(
        f"bridge descent stalled with gradient norm "
        f"{float(np.max(np.abs(jac(phi)))):.3e} > {grad_tol:.3e}"
    )


def _bridge_lla(G, b, yy, lam, gamma, starts, tol, max_iter):
    """Local linear approximation for the concave penalties (gamma < 1).

    Works on a stack of Gram-form problems (``G``, ``b``, ``yy`` and
    ``lam`` hold one entry per problem) from each stack of ``starts``.
    Each pass replaces |phi_k|^gamma by its tangent at the current iterate
    and solves the resulting weighted lasso, which never increases the true
    objective; a pass is one ``_batch_cd`` call over the problems not yet
    settled.  Every problem keeps its best candidate; the zero vector
    always competes, so the result is never worse than giving up on the
    segment entirely.
    """
    m = len(b)
    phi = np.concatenate(starts).astype(np.float64)  # start r of problem i in row r * m + i
    owner = np.tile(np.arange(m), len(starts))
    live = np.arange(len(phi))
    for _ in range(100):
        at = owner[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = gamma * np.abs(phi[live]) ** (gamma - 1.0)  # inf at exact zeros: stays pinned
            thr = np.where(lam[at, None] > 0, lam[at, None] * w / 2.0, 0.0)
        new, _ = _batch_cd(G[at], b[at], thr, tol, max_iter)
        settled = np.max(np.abs(new - phi[live]), axis=1) <= max(tol, 1e-10)
        phi[live] = new
        live = live[~settled]
        if not live.size:
            break
    candidates = np.concatenate([np.zeros((1, *b.shape)), phi.reshape(len(starts), *b.shape)])
    best = np.argmin(gram_objective(G, b, yy, lam, candidates, gamma), axis=0)
    return candidates[best, np.arange(m)]


def bridge(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    gamma: float,
    *,
    tol: float = 1e-8,
    max_iter: int = 10000,
    zero_clamp: float = 1e-10,
) -> SegmentFit:
    """Bridge-penalized fit for exponents other than 1 and 2.

    gamma > 1 gives a smooth convex objective, minimized to gradient
    sup-norm at most 1e-6 * (1 + max_k |X_k'y|).  gamma < 1 is non-convex;
    the fit is a stationary point found by iterated local linearization
    from ridge and least-squares starts, with the zero vector as a fallback
    candidate.  It is a local minimizer, not a certified global one.
    ``tol`` and ``max_iter`` bound each coordinate-descent pass of the
    concave case and are checked as in ``lasso_cd`` for every exponent.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if gamma in (1.0, 2.0):
        raise ValueError("use lasso_cd for gamma=1 and ridge for gamma=2")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    check_sweep_budget(tol, max_iter)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    G = X.T @ X
    b = X.T @ y
    yy = float(y @ y)
    try:
        start = ridge(X, y, lam if lam > 0 else 1e-8)
    except SingularSystemError:
        start = np.zeros(X.shape[1])
    if gamma > 1:
        phi = _bridge_smooth(G, b, yy, lam, gamma, start)
    else:
        phi = _bridge_lla(
            G[None], b[None], np.array([yy]), np.array([lam]), gamma,
            [start[None], np.linalg.lstsq(X, y, rcond=None)[0][None]], tol, max_iter,
        )[0]
    return wrap_coefficients(X, y, phi, lam, gamma, None, zero_clamp)
