"""Segment costs and breakpoint search.

The score of a candidate breakpoint vector is the sum over its segments of
the attained per-segment penalized minimum, with the tuning constant
``lambda = (segment length)**rho`` recomputed for every candidate segment
(``_lambdas``).  ``optimal_breakpoints`` minimizes the score exactly by
dynamic programming over a table of segment costs; ties resolve to the
lexicographically smallest breakpoint vector.

Every segment cost a search compares comes from one vectorized engine
on cumulative sufficient statistics (running X'X, X'y, y'y), so each
candidate segment costs O(p^2) regardless of its length.
``_chunk_costs`` solves each penalty family (``solvers._batch_cd`` on a
whole stack for the lasso family, the ridge closed form, the batched
concave bridge, the smooth bridge one problem at a time) and returns
each segment's cost and coefficients.  Every search, and ``pair_costs``,
calls it through the record of a ``_Search``, which solves each segment
at most once, so the chosen segments' fits are the search's own solves.
Every fit is reported by one batched step, ``_report_fits``, which
derives the adaptive weights; ``segment_cost`` solves and reports one
segment from its rows.  ``select_k`` solves every admissible
segment once for all K.  A single K-break search (``optimal_breakpoints``
over every sample position, the coarse grid of the approximate
``refit_breakpoints_two_stage``) instead keeps a list of segments:
least-squares lower bounds, on a ladder of ever smaller blocks of
segments and then on single segments, measured against an incumbent
scored at its least-squares fit, leave only those that can lie on an
optimal partition, and only those are solved, in one engine call, for
one dynamic program.  No (n+1) x (n+1) array is built, a segment that
exhausts the sweep budget fails a search only if it survives, and the
result equals the dense table's (``optimal_breakpoints`` gives the rules
and the argument).  Every least-squares fit of the engine is
``_least_squares``, under the rule of ``solvers.ols``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AdaptiveUnavailableError,
    ConsistencyError,
    EmptySegmentError,
    InfeasiblePartitionError,
    SingularGramError,
    UnderdeterminedError,
)
from .model import (
    FAMILY_ADAPTIVE,
    ChangePointFit,
    CriterionConfig,
    Dataset,
    PenaltyConfig,
    SegmentRange,
    effective_min_seg_len,
    segment_ranges,
)
from . import solvers


def _as_range(rng) -> SegmentRange:
    if isinstance(rng, SegmentRange):
        return rng
    start, end = rng
    return SegmentRange(start, end)


def _segment_rows(dataset: Dataset, rng):
    """The SegmentRange of ``rng`` and its rows of ``X`` and ``y``;
    EmptySegmentError if it ends past the sample."""
    rng = _as_range(rng)
    if rng.end > dataset.n:
        raise EmptySegmentError(f"segment end {rng.end} exceeds n={dataset.n}")
    return rng, dataset.X[rng.start : rng.end], dataset.y[rng.start : rng.end]


def lambda_for_segment(rng, rho: float) -> float:
    """Per-segment tuning constant ``(j2 - j1)**rho`` for the range (j1, j2],
    with the bits of the engine's (``_lambdas``)."""
    if not 0.0 < rho <= 0.5:
        raise ValueError(f"rho must lie in (0, 1/2], got {rho}")
    return float((np.array([_as_range(rng).length], dtype=np.float64) ** rho)[0])


def _lambdas(config: PenaltyConfig, pairs) -> np.ndarray:
    """Tuning constants ``lambda_scale * (end - start)**rho`` of the segments
    in ``pairs``, the lambda of every fit.  The power is numpy's array power,
    which can differ in the last bit from Python's scalar ``**``."""
    return config.lambda_scale * (pairs[:, 1] - pairs[:, 0]).astype(np.float64) ** config.rho


def adaptive_weights(dataset: Dataset, rng, g: float) -> np.ndarray:
    """Weights ``|phi_LS,k|**(-g)`` from the segment least-squares fit.

    A coordinate whose least-squares estimate is exactly zero receives an
    infinite weight, which pins it at zero in the downstream fit while
    contributing nothing to the penalty value there.

    Raises AdaptiveUnavailableError when the segment is shorter than the
    coefficient count or its Gram matrix is numerically singular; the
    caller is expected to fall back to the unweighted lasso.
    """
    # config-level validation pins g inside (0, 1/4); the raw op only needs g > 0
    if g <= 0.0:
        raise ValueError(f"g must be positive, got {g}")
    rng, X, y = _segment_rows(dataset, rng)
    if rng.length < dataset.p:
        raise AdaptiveUnavailableError(
            f"segment of length {rng.length} cannot support least squares "
            f"with p={dataset.p}"
        )
    try:
        phi_ls = solvers.ols(X, y)
    except (UnderdeterminedError, SingularGramError) as exc:
        raise AdaptiveUnavailableError(str(exc)) from exc
    with np.errstate(divide="ignore"):
        return np.abs(phi_ls) ** (-g)


def segment_cost(dataset: Dataset, rng, config: PenaltyConfig):
    """Fit one segment under the configured penalty and return its SegmentFit.

    The objective is the one ``config`` fixes (``_lambdas``, ``exponent``).
    The engine (``_chunk_costs``) solves, and ``_report_fits`` reports, the
    Gram-form problem built from the segment's rows, not from cumulative
    sums.  When the tuning constant is zero the segment is fitted by least
    squares (the minimum-norm solution where the segment is shorter than
    p or its Gram matrix is singular).  An adaptive fit whose weights are
    unavailable falls back to the unweighted lasso and reports
    ``weights_used`` as None.
    """
    rng, X, y = _segment_rows(dataset, rng)
    pairs = np.array([[rng.start, rng.end]], dtype=np.int64)
    G, b = (X.T @ X)[None], (X.T @ y)[None]
    _, coefs = _chunk_costs(dataset, pairs, G, b, np.array([y @ y]), config)
    return _report_fits(dataset, pairs, G, b, coefs, config)[0]


def _report_fits(dataset: Dataset, pairs, G, b, coefs, config: PenaltyConfig) -> list:
    """SegmentFits of the engine's coefficients ``coefs`` for the segments
    in ``pairs``, whose Gram-form problems ``G``, ``b`` the engine solved.

    Adaptive weights come from those problems by the engine's rule (None
    where it fell back to the unweighted lasso).  A lasso-family fit
    (exponent 1) with lam > 0 must then pass ``kkt_check`` at
    1e-6 beyond the drift that the stopping rule leaves: a coordinate is
    exactly stationary once updated, and the rest of a last sweep, in
    which no coordinate moves more than ``cd_tolerance``, shifts its
    correlation ``2 X_k'(y - X phi)`` by at most ``2 cd_tolerance sum_{j
    != k} |X_j'X_k|`` (far below 1e-6 of the scale at the default
    tolerance); otherwise ConsistencyError is raised.
    ``solvers.wrap_coefficients`` then applies ``config.zero_clamp`` and
    recomputes the RSS and penalty from the rows of ``X`` and ``y``.  A
    least-squares fit (lam = 0) is reported with exponent 1 and unclamped.
    """
    weights = [None] * len(pairs)
    if config.family == FAMILY_ADAPTIVE and config.lambda_scale > 0.0:
        phi_ls, full = _least_squares(dataset, pairs, G, b)
        w = _adaptive_weights(phi_ls, full, config.g)
        weights = [w_m if ok else None for w_m, ok in zip(w, full)]
    gamma, lams = config.exponent, _lambdas(config, pairs).tolist()
    fits = []
    for (start, end), lam, phi, w in zip(pairs.tolist(), lams, coefs, weights):
        X, y = dataset.X[start:end], dataset.y[start:end]
        if lam == 0.0:
            fits.append(solvers.wrap_coefficients(X, y, phi, 0.0))
            continue
        if gamma == 1.0:
            XX = np.abs(X.T @ X)
            drift = 2.0 * config.cd_tolerance * np.max(XX.sum(axis=1) - np.diag(XX))
            report = solvers.kkt_check(phi, X, y, lam, w)
            if not report.worst_violation <= report.tolerance + drift / report.scale:
                raise ConsistencyError(
                    f"segment ({start}, {end}] is not stationary: worst "
                    f"violation {report.worst_violation:.3e} at coordinate "
                    f"{report.worst_index}"
                )
        fits.append(solvers.wrap_coefficients(
            X, y, phi, lam, gamma, w, config.zero_clamp
        ))
    return fits


# ---------------------------------------------------------------------------
# vectorized cost engine

def _cumulative_stats(dataset: Dataset):
    X, y = dataset.X, dataset.y
    n, p = X.shape
    # the products are written into the outputs and summed in place, so no
    # temporary as large as an output is made
    cum_xx = np.zeros((n + 1, p, p))
    np.einsum("ni,nj->nij", X, X, out=cum_xx[1:])
    cum_xy = np.zeros((n + 1, p))
    np.multiply(X, y[:, None], out=cum_xy[1:])
    cum_yy = np.zeros(n + 1)
    np.multiply(y, y, out=cum_yy[1:])
    for cum in (cum_xx, cum_xy, cum_yy):
        np.cumsum(cum[1:], axis=0, out=cum[1:])
    return cum_xx, cum_xy, cum_yy


def _least_squares(dataset, pairs, G, b):
    """Least-squares fits of a stack of segment problems, and the mask of
    those solved from ``G`` and ``b``: segments at least p long whose Gram
    eigenvalues pass the test of ``solvers.ols``.  The others get the
    minimum-norm fit of their rows, as differenced cumulative sums hide a
    null space, from one batched SVD per segment length (``_min_norm``)."""
    phi = np.zeros(b.shape)
    full = pairs[:, 1] - pairs[:, 0] >= b.shape[1]
    eig = np.linalg.eigvalsh(G[full])
    full[full] = (eig[:, -1] > 0.0) & (eig[:, 0] >= solvers._GRAM_COND_FLOOR * eig[:, -1])
    phi[full] = np.linalg.solve(G[full], b[full][..., None])[..., 0]
    rest = np.flatnonzero(~full)
    lengths = pairs[rest, 1] - pairs[rest, 0]
    for m in _distinct(lengths):
        group = rest[lengths == m]
        per = max(1, _ROW_BATCH // (int(m) * b.shape[1]))
        for lo in range(0, len(group), per):
            sub = group[lo : lo + per]
            rows = pairs[sub, 0][:, None] + np.arange(m)
            phi[sub] = _min_norm(dataset.X[rows], dataset.y[rows])
    return phi, full


def _adaptive_weights(phi, full, g: float) -> np.ndarray:
    """Weights ``|phi|**(-g)`` on the ``full`` rows of ``_least_squares``'s
    fits ``phi``; unit weights, the unweighted fallback, on the others."""
    w = np.ones(phi.shape)
    with np.errstate(divide="ignore"):
        w[full] = np.abs(phi[full]) ** (-g)
    return w


# Most design entries that one batched SVD of _least_squares stacks.
_ROW_BATCH = 1 << 20


def _min_norm(X, y):
    """Minimum-norm least-squares fits of a stack of row blocks ``X`` (S, m,
    p) and responses ``y`` (S, m), from one batched SVD: singular values at
    most ``eps * max(m, p)`` times the largest are taken as zero, the
    cut-off of ``np.linalg.lstsq`` with ``rcond=None``."""
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    keep = s > np.finfo(np.float64).eps * max(X.shape[1:]) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return np.einsum("skp,sk->sp", vt, inv * np.einsum("smk,sm->sk", u, y))


def _segment_stacks(stats, pairs):
    """Gram-form problems of the segments in ``pairs``, a chunk at a time.

    Yields ``(sl, G, b, yy)``: the slice of ``pairs`` in the chunk and its
    stacks of X'X, X'y and y'y, differenced from the cumulative statistics
    ``stats``.  The arrays are fresh, so callers may overwrite them.
    """
    cum_xx, cum_xy, cum_yy = stats
    p = cum_xy.shape[1]
    chunk = max(1024, int(6e6 / max(1, p * p)))  # about 48 MB of Gram matrices
    for lo in range(0, len(pairs), chunk):
        sl = slice(lo, min(lo + chunk, len(pairs)))
        j1, j2 = pairs[sl, 0], pairs[sl, 1]
        yield sl, cum_xx[j2] - cum_xx[j1], cum_xy[j2] - cum_xy[j1], cum_yy[j2] - cum_yy[j1]


def pair_costs(dataset: Dataset, pairs, config: PenaltyConfig) -> np.ndarray:
    """Penalized minimum cost for each half-open segment in ``pairs``.

    ``pairs`` is an integer array of shape (M, 2) of (start, end) bounds.
    The costs are a fresh ``_Search``'s (repeated or reordered pairs get
    the same bits), so each matches ``segment_cost(...).penalized_cost``,
    the minimum of the objective ``config`` fixes, within the rounding of
    the cumulative sums.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must have shape (M, 2), got {pairs.shape}")
    if pairs.size:
        if (pairs[:, 1] <= pairs[:, 0]).any():
            raise EmptySegmentError("pairs contain an empty segment")
        if (pairs[:, 0] < 0).any() or (pairs[:, 1] > dataset.n).any():
            raise EmptySegmentError("pairs reach outside the sample")
    return _Search(dataset, config, 1).costs(pairs[:, 0], pairs[:, 1])


def _chunk_costs(dataset, pairs, G, b, yy, config):
    """Costs of one chunk of Gram-form segment problems and the (M, p)
    stack of coefficients that attain them: the one place that solves each
    penalty family.  ``_least_squares`` gives the fits at lam = 0, the
    adaptive weights and the concave bridge's second start."""
    p = b.shape[1]
    if config.lambda_scale == 0.0:
        phi, _ = _least_squares(dataset, pairs, G, b)
        return solvers.gram_objective(G, b, yy, 0.0, phi), phi

    lam, gamma = _lambdas(config, pairs), config.exponent
    if gamma != 1.0:
        # ridge in closed form, which starts both bridges
        phi = np.linalg.solve(G + lam[:, None, None] * np.eye(p), b[..., None])[..., 0]
        if gamma < 1.0:
            phi = solvers._bridge_lla(
                G, b, yy, lam, gamma, [phi, _least_squares(dataset, pairs, G, b)[0]],
                config.cd_tolerance, config.cd_max_iterations,
            )
        else:
            for i in range(len(phi)) if gamma != 2.0 else ():
                phi[i] = solvers._bridge_smooth(G[i], b[i], yy[i], lam[i], gamma, phi[i])
        if gamma != 2.0:
            # the reported bridge fit is clamped, and so is its cost
            phi[np.abs(phi) <= config.zero_clamp] = 0.0
        return solvers.gram_objective(G, b, yy, lam, phi, gamma), phi

    w = np.ones((b.shape[0], p))
    if config.family == FAMILY_ADAPTIVE:
        phi, full = _least_squares(dataset, pairs, G, b)
        w = _adaptive_weights(phi, full, config.g)
    thr = lam[:, None] * w / 2.0
    phi, stalled = solvers._batch_cd(G, b, thr, config.cd_tolerance, config.cd_max_iterations)
    # a problem that used the whole sweep budget keeps its cost only if its
    # iterate is stationary, under the rule of lasso_cd
    for i in stalled:
        a, bnd = int(pairs[i, 0]), int(pairs[i, 1])
        solvers._require_stationary(
            phi[i], dataset.X[a:bnd], dataset.y[a:bnd], lam[i], w[i],
            config.cd_max_iterations,
        )
    return solvers.gram_objective(G, b, yy, lam, phi, weights=w), phi


class _Search:
    """One search: its dataset, ``config`` and ``min_len``, the dataset's
    ``_cumulative_stats``, the ``slack`` of its bounds and pruning tests,
    and the record of the segments it has solved.

    Each solved segment's cost and coefficients (``_chunk_costs``'s two
    outputs) are kept in arrays, sorted by the key ``start * (n + 1) +
    end``.  ``rows`` solves, in one engine call, only the segments not yet
    in the record, so a search solves each segment at most once; an engine
    row does not depend on its stack mates, so a fit taken from the record
    has the bits of a fresh solve.
    """

    def __init__(self, dataset: Dataset, config: PenaltyConfig, min_len: int):
        self.dataset, self.config, self.min_len = dataset, config, min_len
        self.stats = _cumulative_stats(dataset)
        self.slack = _BOUND_SLACK * float(self.stats[2][-1])
        self.key = np.empty(0, dtype=np.int64)
        self.cost = np.empty(0)
        self.coefs = np.empty((0, dataset.p))

    def rows(self, starts, ends) -> np.ndarray:
        """Record rows of the segments (starts[m], ends[m]], solving the
        ones not yet recorded."""
        n1 = self.dataset.n + 1
        starts, ends = np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64)
        key = starts * n1 + ends
        at = np.searchsorted(self.key, key)
        known = at < len(self.key)
        known[known] = self.key[at[known]] == key[known]
        new = _distinct(key[~known])
        del key, at, known  # a dense table's index arrays would add to its peak
        if len(new):
            pairs = np.column_stack(np.divmod(new, n1))
            cost, coefs = np.empty(len(new)), np.empty((len(new), self.dataset.p))
            for sl, G, b, yy in _segment_stacks(self.stats, pairs):
                cost[sl], coefs[sl] = _chunk_costs(self.dataset, pairs[sl], G, b, yy, self.config)
            into = np.searchsorted(self.key, new)
            self.key = np.insert(self.key, into, new)
            self.cost = np.insert(self.cost, into, cost)
            self.coefs = np.insert(self.coefs, into, coefs, axis=0)
        return np.searchsorted(self.key, starts * n1 + ends)

    def costs(self, starts, ends) -> np.ndarray:
        """Costs of the segments (starts[m], ends[m]], solving the ones not
        yet recorded."""
        rows = self.rows(starts, ends)  # before self.cost is read: it may grow
        return self.cost[rows]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, sorted: ``np.unique``, which first
    imports ``numpy.ma`` (1.7 MB of resident memory per process)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def build_cost_table(
    dataset: Dataset, config: PenaltyConfig, min_seg_len: int
) -> np.ndarray:
    """Dense (n+1) x (n+1) table of segment costs.

    Entry [j1, j2] is the penalized minimum over the segment (j1, j2];
    inadmissible entries (shorter than ``min_seg_len``) hold +inf.
    """
    if min_seg_len < 1:
        raise ValueError("min_seg_len must be >= 1")
    n = dataset.n
    j1, j2 = np.triu_indices(n + 1, min_seg_len)
    table = np.full((n + 1, n + 1), np.inf)
    table[j1, j2] = pair_costs(dataset, np.column_stack([j1, j2]), config)
    return table


# ---------------------------------------------------------------------------
# dynamic programming

def _least_chains(i, j, cost, n_nodes: int, stages: int, end: int) -> np.ndarray:
    """Entry [s, x]: the least ``cost`` total of s listed segments (m from
    node ``i[m]`` to ``j[m]``) chained from node x to node ``end``, +inf if
    none, for s = 0 .. ``stages``.  With ``i`` and ``j`` swapped the chains
    run from ``end`` to x; IEEE addition commutes, so no candidate changes."""
    best = np.full((stages + 1, n_nodes), np.inf)
    best[0, end] = 0.0
    for s in range(1, stages + 1):
        np.minimum.at(best[s], i, cost + best[s - 1][j])
    return best


def _dp_minimize(i, j, cost, n_nodes: int, k: int):
    """Minimize the K-break score over a list of segments.

    Segment m runs from node ``i[m]`` to node ``j[m]`` and costs
    ``cost[m]``; segments not listed are inadmissible.  The partition runs
    from node 0 to node ``n_nodes - 1`` in ``k + 1`` segments.  Returns
    (total, interior node indices).  Ties resolve to the lexicographically
    smallest vector: the reconstruction takes the smallest end node whose
    candidate equals the exact float minimum of the backward pass.
    """
    best = _least_chains(i, j, cost, n_nodes, k + 1, -1)
    total = best[k + 1][0]
    if not np.isfinite(total):
        raise InfeasiblePartitionError(f"no admissible placement of {k} breakpoints")
    nodes = []
    at = 0
    for stage in range(k + 1, 1, -1):
        out = i == at
        ties = cost[out] + best[stage - 1][j[out]] == best[stage][at]
        at = int(j[out][ties].min())
        nodes.append(at)
    return float(total), nodes


# ---------------------------------------------------------------------------
# bound-based pruning of the exact search

# Relative shift of each Gram diagonal entry in the least-squares bound; see
# _rss_bounds.  Scaled per column, it leaves the bound unchanged when a
# covariate is rescaled.
_BOUND_COND_FLOOR = solvers._GRAM_COND_FLOOR
# Rounding allowance of the bounds and of the pruning test, as a fraction of
# the sample's total y'y (which exceeds every partition's cost).
_BOUND_SLACK = 1e-9


def _rss_bounds(stats, pairs, slack: float) -> np.ndarray:
    """Lower bound on the cost of each segment in ``pairs``.

    Every penalized fit of a segment leaves at least the segment's
    unpenalized least-squares residual sum of squares ``yy - b'G^-1 b``,
    whatever the family.  The bound is ``yy - b'(G - S)^-1 b`` less
    ``slack``, floored at 0, where the diagonal shift S holds
    ``_BOUND_COND_FLOOR * G[k, k]`` for each column k: shifting G down can
    only lower the value, and in the column-scaled Gram matrix (unit
    diagonal) the shift outweighs the rounding of the Cholesky
    factorization that computes it by orders of magnitude.  The shift
    scales with each column, so rescaling a covariate leaves the bound as
    it was.  The factorization runs column by column over the whole chunk.
    A segment whose shifted Gram matrix is not positive definite, as
    happens when its column-scaled Gram matrix has an eigenvalue below the
    floor or a column is zero inside it, gets the bound 0, which is always
    valid.
    """
    p = stats[1].shape[1]
    out = np.zeros(len(pairs))
    for sl, G, b, yy in _segment_stacks(stats, pairs):
        # Cholesky factor L of G - S, built in the lower triangle of G;
        # b becomes L^-1 b, so that b'(G - S)^-1 b is its squared norm
        ok = np.ones(len(yy), dtype=bool)
        for k in range(p):
            row = G[:, k, :k]
            pivot = G[:, k, k] * (1.0 - _BOUND_COND_FLOOR) - np.einsum("ij,ij->i", row, row)
            ok &= pivot > 0.0
            root = np.sqrt(np.where(ok, pivot, 1.0))
            G[:, k + 1 :, k] -= np.einsum("irj,ij->ir", G[:, k + 1 :, :k], row)
            G[:, k + 1 :, k] /= root[:, None]
            b[:, k] = (b[:, k] - np.einsum("ij,ij->i", b[:, :k], row)) / root
        rss = yy - np.einsum("ij,ij->i", b, b)
        out[sl] = np.where(ok, np.maximum(rss - slack, 0.0), 0.0)
    return out


def _least_through(i, j, cost, n_nodes: int, k: int) -> np.ndarray:
    """Least ``cost`` total of a (k+1)-segment partition through each segment.

    The segments are listed as in ``_dp_minimize``.  Entry m is the least
    summed cost of a partition of node 0 .. last node into k + 1 listed
    segments that uses segment m; +inf where no such partition exists.
    """
    # fwd[s, x]: s segments from node 0 to x; bwd[s, x]: s segments from x to the end
    fwd = _least_chains(j, i, cost, n_nodes, k, 0)
    bwd = _least_chains(i, j, cost, n_nodes, k, -1)
    through = np.full(len(cost), np.inf)
    for s in range(k + 1):
        np.minimum(through, fwd[s][i] + bwd[k - s][j], out=through)
    return through + cost


def _block_sizes(n_nodes: int) -> tuple:
    """Sides s of the s x s blocks of (start, end) node pairs that the
    passes of the pruned search over ``n_nodes`` nodes bound as one,
    coarse to fine: the powers of 4 down to 1, from the largest that still
    cuts the starts (every node but the last) into at least 8 whole
    blocks.  Up to 32 nodes the per-segment pass runs alone: (1,).

    Each size divides the one before it, so a block of one pass is a union
    of whole blocks of the next (``_pairs_inside``), and a surviving block
    pair expands into 16 pairs of the next pass, not into the s^2 segments
    of a single coarse level.
    """
    sizes = [1]
    while 8 * 4 * sizes[0] < n_nodes:
        sizes.insert(0, 4 * sizes[0])
    return tuple(sizes)


def _blocks(n: int, size: int):
    """First and last of the nodes 0 .. n in each block of ``size``."""
    first = np.arange(0, n + 1, size)
    return first, np.minimum(first + size - 1, n)


def _pairs_inside(i, j, per: int, n_blocks: int):
    """Pairs (a, b) of blocks 0 .. n_blocks - 1 in row-major order, with a
    among the ``per`` blocks inside block i[m] of the level before and b
    among those inside block j[m], for some m."""
    r, c = np.divmod(np.arange(per * per), per)
    a, b = (i[:, None] * per + r).ravel(), (j[:, None] * per + c).ravel()
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    real = (a < n_blocks) & (b < n_blocks)
    return a[real], b[real]


def _block_bounds(stats, first, last, i, j, slack: float) -> np.ndarray:
    """Lower bound on the cost of every segment from a node of block i[m]
    to one of block j[m]; ``first`` and ``last`` are each block's end positions.

    Each such segment contains the segment (last[i], first[j]] when that
    is not empty, and a least-squares RSS only grows with its segment, so
    the ``_rss_bounds`` value of that innermost segment bounds them all;
    otherwise the bound is 0.  At block size 1 it is the segment's own.
    """
    out = np.zeros(len(i))
    inner = last[i] < first[j]
    out[inner] = _rss_bounds(
        stats, np.column_stack([last[i[inner]], first[j[inner]]]), slack
    )
    return out


def _incumbent_costs(search: _Search, pairs) -> np.ndarray:
    """Attained objective of each segment in ``pairs`` without a solve.

    Each segment's least-squares fit (``_least_squares``) is scored under
    the engine's lambda and exponent, an adaptive one with the weights it
    implies (without least-squares weights, the unit weights of the
    engine's fallback), and the zero fit
    with y'y; the lesser value is taken.  Both are values of the
    segment's objective at a point, so each is at least its minimum, up
    to the tolerance of the solver that computes that minimum.
    """
    config = search.config
    out = np.empty(len(pairs))
    for sl, G, b, yy in _segment_stacks(search.stats, pairs):
        phi, full = _least_squares(search.dataset, pairs[sl], G, b)
        w = _adaptive_weights(phi, full, config.g) if config.family == FAMILY_ADAPTIVE else None
        lam = _lambdas(config, pairs[sl])
        out[sl] = np.minimum(solvers.gram_objective(G, b, yy, lam, phi, config.exponent, w), yy)
    return out


def _survivors(search: _Search, k: int, nodes, upper=None):
    """The bound-and-prune passes of the pruned search over ``nodes``.

    Returns ``(i, j, upper, incumbent)``: the surviving segments as node
    indices, the U they were pruned against and the nodes of the incumbent
    that gave it.  With ``upper`` given, every pass prunes against it and
    scores no incumbent (``incumbent`` is then None, as it is when no
    pass has one).  ``optimal_breakpoints`` gives the rules.
    """
    end = len(nodes) - 1  # index of the last node
    scoring, incumbent = upper is None, None
    if scoring:
        upper = np.inf
    i, j, outer = np.array([0]), np.array([0]), end + 1  # one block of everything
    for size in _block_sizes(len(nodes)):
        # the admissible block pairs inside the last level's survivors on a K-partition
        first, last = _blocks(end, size)
        first_at, last_at = nodes[first], nodes[last]
        i, j = _pairs_inside(i, j, -(-outer // size), len(first))
        fits = last_at[j] - first_at[i] >= search.min_len
        on_path = np.isfinite(_least_through(i, j, np.where(fits, 0.0, np.inf), len(first), k))
        i, j = i[on_path], j[on_path]
        if not len(i):
            if outer > end:  # nothing is pruned yet
                raise InfeasiblePartitionError(f"no admissible placement of {k} breakpoints")
            break  # U lies below every partition left, which the certificate mends
        lower = _block_bounds(search.stats, first_at, last_at, i, j, search.slack)

        if scoring:
            # incumbent: the bound-optimal partition on the block starts
            grid = np.append(first[:-1], end)
            fits = nodes[grid[j]] - nodes[grid[i]] >= search.min_len
            try:
                _, picked = _dp_minimize(i[fits], j[fits], lower[fits], len(first), k)
            except InfeasiblePartitionError:
                pass  # no partition on this grid, so no incumbent at this level
            else:
                ends = grid[[0, *picked, -1]]
                at = np.column_stack([nodes[ends[:-1]], nodes[ends[1:]]])
                score = _incumbent_costs(search, at).sum()
                if score < upper:
                    upper, incumbent = score, ends
        keep = _least_through(i, j, lower, len(first), k) <= upper + search.slack
        i, j, outer = i[keep], j[keep], size
    return i, j, upper, incumbent


def _pruned_minimize(search: _Search, k: int, nodes):
    """Exact K-break minimum over ``nodes`` (increasing sample positions
    from 0 to n), with segments solved only where needed.

    The survivors of pruning and the incumbent's segments are solved in
    one call of the search's record, and the program runs over them.
    Returns ``(total, interior node indices)`` as ``_dp_minimize`` does;
    ``optimal_breakpoints`` gives the rules and the certificate.  Nodes
    with no K-partition raise InfeasiblePartitionError.
    """
    n_nodes = len(nodes)
    i, j, upper, incumbent = _survivors(search, k, nodes)
    listed = i * n_nodes + j
    if incumbent is not None:
        listed = np.concatenate([listed, incumbent[:-1] * n_nodes + incumbent[1:]])
    while True:
        i, j = np.divmod(_distinct(listed), n_nodes)
        total, picked = _dp_minimize(i, j, search.costs(nodes[i], nodes[j]), n_nodes, k)
        if total <= upper + search.slack:
            return total, picked
        # the solver attained more than U promised: prune again against the
        # attained total, which the next program cannot exceed
        more_i, more_j, upper, _ = _survivors(search, k, nodes, total)
        listed = np.concatenate([i * n_nodes + j, more_i * n_nodes + more_j])


def _assemble_fits(search: _Search, partitions, totals):
    """Fits of the breakpoint vectors in ``partitions``, taken from the
    search's record, which solves (in one engine call) only segments the
    search has not.

    All segments are reported by one ``_report_fits`` call, on Gram-form
    problems differenced from the statistics as the engine's were; it
    checks a lasso-family fit for stationarity and recomputes each RSS and
    penalty from the rows at the reported (clamped) coefficients.  A
    partition's total must then match its search total (from ``totals``,
    or the record's costs where that is None) within 1e-9 relative.
    Either failure raises ConsistencyError.
    """
    dataset, config = search.dataset, search.config
    ranges = [segment_ranges(bp, dataset.n) for bp in partitions]
    pairs = np.array([(r.start, r.end) for rs in ranges for r in rs], dtype=np.int64)
    pairs = pairs.reshape(-1, 2)  # (0, 2) when no partition is asked for
    j1, j2 = pairs.T
    rows = search.rows(j1, j2)
    cum_xx, cum_xy, _ = search.stats
    G, b = cum_xx[j2] - cum_xx[j1], cum_xy[j2] - cum_xy[j1]
    fits = _report_fits(dataset, pairs, G, b, search.coefs[rows], config)
    out, m = [], 0
    for bp, rs, expected in zip(partitions, ranges, totals):
        segment_fits, m = fits[m : m + len(rs)], m + len(rs)
        total = float(sum(f.penalized_cost for f in segment_fits))
        if expected is None:
            expected = float(search.cost[rows[m - len(rs) : m]].sum())
        if not abs(total - expected) <= 1e-9 * max(1.0, abs(expected)):
            raise ConsistencyError(
                f"segment refit total {total!r} drifted from search total "
                f"{expected!r}"
            )
        out.append(ChangePointFit(
            k=len(rs) - 1, breakpoints=tuple(bp), segment_fits=tuple(segment_fits),
            total_score=total, family=config.family,
        ))
    return out


def _dense_fits(search: _Search, ks) -> dict:
    """Exact fits by K for the feasible K in ``ks``: every admissible
    segment is solved once, the dynamic program runs per K, and the chosen
    segments' fits are taken from the same solve."""
    n_nodes = search.dataset.n + 1
    i, j = np.triu_indices(n_nodes, search.min_len)
    cost = search.costs(i, j)
    found = {k: _dp_minimize(i, j, cost, n_nodes, k) for k in ks}
    fits = _assemble_fits(
        search, [nodes for _, nodes in found.values()], [total for total, _ in found.values()]
    )
    return dict(zip(found, fits))


def _check_feasible(n: int, k: int, min_seg_len: int):
    if k < 0:
        raise ValueError("k must be >= 0")
    if (k + 1) * min_seg_len > n:
        raise InfeasiblePartitionError(
            f"{k + 1} segments of length >= {min_seg_len} do not fit in "
            f"{n} samples"
        )


def _checked_search(dataset: Dataset, config: PenaltyConfig, criterion) -> _Search:
    """The ``_Search`` of a request at its minimum segment length; each
    K-break fit checks its K (``_check_feasible``)."""
    return _Search(dataset, config, effective_min_seg_len(config, criterion, dataset.p))


def optimal_breakpoints(
    dataset: Dataset,
    k: int,
    config: PenaltyConfig,
    criterion: CriterionConfig | None = None,
) -> ChangePointFit:
    """Exact K-break minimizer of the segment-cost sum.

    Dynamic programming over a list of admissible segments; ties between
    score-equal breakpoint vectors resolve to the lexicographically
    smallest one.  Only the segments that can lie on an optimal partition
    are listed and solved.  The work runs coarse to fine, one pass per
    block size s of the ladder ``_block_sizes``: powers of 4 down to 1,
    from the largest that leaves at least 8 whole blocks of starts (16, 4
    and 1 at n = 500; 256 down to 1 at n = 5000; 1 alone up to n = 31).  A
    pass works on s x s blocks of (start, end) pairs, block i holding the
    nodes ``i*s .. i*s + s - 1``, and lists only the blocks inside those
    that survived the pass before; the last, with s = 1, lists single
    segments.  Each pass takes these steps:

    1. *Bound.*  Each segment's cost is at least its unpenalized
       least-squares RSS, which only grows with the segment.  The bound of
       a block is that of its innermost segment, from the block's last
       start to its first end (0 when that segment is empty), so it holds
       for every segment in the block; at s = 1 it is the segment's own.
       ``_rss_bounds`` computes it from the cumulative statistics, lowered
       by a slack of ``1e-9 * y'y``, y'y taken over the whole sample.
       Only blocks on some admissible K-partition are bounded; without
       one, the search raises InfeasiblePartitionError.
    2. *Best bound through each block.*  A forward and a backward pass
       over the bounded blocks give, for every block, the least bound
       total of a K-break partition through it.
    3. *Incumbent.*  The K-break partition on the block starts (and the
       last node) that minimizes the bound total is scored without a
       solve (``_incumbent_costs``): each of its segments at its
       least-squares fit, with the weights that fit implies, or at the
       zero fit if that is lower.  The score is attained, and U is the
       least such score so far.  A grid with no admissible K-partition
       scores none.
    4. *Prune.*  Blocks whose best bound exceeds U plus the slack are
       dropped, with every segment in them.

    Then the surviving segments and those of the incumbent that set U are
    solved, in one engine call of the record of the search (``_Search``),
    and one program runs over them.  U bounds the optimum only up to the
    solver's tolerance, so it is certified in a loop: while the program's
    total exceeds U plus the slack, every pass is run again against that
    total (an attained score, the new U), and the program runs again over
    the grown list, which holds the partition that attained it.  The
    chosen segments' fits are then taken from the record, so the common
    fit makes one engine call and runs one program.
    ``refit_breakpoints_two_stage`` runs the same passes over its grid's
    nodes, on which nothing below depends.

    The search over this list is exact.  A block dropped at any pass
    holds only segments on partitions whose bound total, and hence cost,
    exceeds the certified U, which is at least the optimum, so none of
    them is on an optimal partition.  The segments of the partition the
    dense table would return all survive, with the same costs, so the
    dynamic program finds the same minimum at every node it reconstructs
    from and makes the same lexicographic choices: breakpoints, tie-breaks
    and ``total_score`` equal those of the dense search.  Solver failures
    surface only from the segments actually solved.
    """
    return _two_stage_fit(_checked_search(dataset, config, criterion), k, 1)


def refit_breakpoints_two_stage(
    dataset: Dataset,
    k: int,
    config: PenaltyConfig,
    criterion: CriterionConfig | None = None,
    *,
    grid_step: int,
) -> ChangePointFit:
    """Approximate K-break search: coarse grid, then local refinement.

    Stage 1 is the pruned exact search of ``optimal_breakpoints`` on the
    grid of spacing ``grid_step`` plus 0 and n, halving the spacing until
    a K-partition fits; a grid segment that exhausts the sweep budget
    fails the fit only if it survives pruning.  Stage 2 re-optimizes each
    breakpoint within ``grid_step`` of its current value, holding the
    others fixed, sweeping until no breakpoint moves; a breakpoint moves
    only when some position strictly lowers the total of its two
    segments, and then to the first position of least total.  A position
    whose two segments' ``_rss_bounds`` sum exceeds the current total plus
    the slack of ``optimal_breakpoints`` cannot be that, and is not
    solved.  Every segment is solved at most once per fit, and the chosen
    segments' fits are taken from those solves, as in
    ``optimal_breakpoints``.  The result is coordinate-wise locally
    optimal but not guaranteed to be the global minimizer.
    ``grid_step=1`` is the exact search of ``optimal_breakpoints``.
    """
    if grid_step < 1:
        raise ValueError("grid_step must be >= 1")
    return _two_stage_fit(_checked_search(dataset, config, criterion), k, grid_step)


def _two_stage_fit(search: _Search, k: int, grid_step: int) -> ChangePointFit:
    """``refit_breakpoints_two_stage`` of K on ``search``, which a caller
    may share across K; grid step 1 is ``optimal_breakpoints``."""
    n, min_len = search.dataset.n, search.min_len
    _check_feasible(n, k, min_len)
    if grid_step == 1:
        total, picked = _pruned_minimize(search, k, np.arange(n + 1))
        return _assemble_fits(search, [picked], [total])[0]
    if k == 0:
        return _assemble_fits(search, [()], [None])[0]

    step = grid_step
    while True:
        interior = [t for t in range(step, n, step) if min_len <= t <= n - min_len]
        nodes = np.array([0, *interior, n], dtype=np.int64)
        try:
            _, picked = _pruned_minimize(search, k, nodes)
            break
        except InfeasiblePartitionError:
            if step == 1:
                raise
            step = max(1, step // 2)
    bounds = [0, *(int(nodes[i]) for i in picked), n]

    for _ in range(200):
        moved = False
        for r in range(1, k + 1):
            a, t, c = bounds[r - 1 : r + 2]
            lo, hi = max(a + min_len, t - grid_step), min(c - min_len, t + grid_step)
            ts = np.arange(lo, hi + 1)
            kept = _window_positions(search, a, ts, c, search.costs([a, t], [t, c]).sum())
            kept[t - lo] = True
            ts_kept = ts[kept]
            costs = search.costs(
                np.concatenate([np.full_like(ts_kept, a), ts_kept]),
                np.concatenate([ts_kept, np.full_like(ts_kept, c)]),
            )
            totals = np.full(len(ts), np.inf)
            totals[kept] = costs[: len(ts_kept)] + costs[len(ts_kept) :]
            best = int(np.argmin(totals))  # the first position of least total
            if totals[best] < totals[t - lo]:
                bounds[r] = lo + best
                moved = True
        if not moved:
            break
    return _assemble_fits(search, [bounds[1:-1]], [None])[0]


def _window_positions(search: _Search, a: int, ts, c: int, total: float) -> np.ndarray:
    """Mask of the positions t in ``ts`` whose segments (a, t] and (t, c]
    may cost ``total`` or less: the sum of their ``_rss_bounds`` is at most
    ``total`` plus the slack of ``optimal_breakpoints``.  A position off
    the mask costs more than ``total``."""
    lower = _rss_bounds(search.stats, np.concatenate([
        np.column_stack([np.full_like(ts, a), ts]),
        np.column_stack([ts, np.full_like(ts, c)]),
    ]), search.slack)
    return lower[: len(ts)] + lower[len(ts) :] <= total + search.slack
