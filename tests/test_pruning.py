"""Bound-based pruning of the exact search: same answer as the dense table.

``optimal_breakpoints`` without a ``cost_table`` solves only the segments
whose least-squares lower bound leaves them a chance of lying on an optimal
partition.  These tests hold it to the dense search bit for bit, check the
bound itself on awkward designs, and pin the typed consistency error that
replaced the runtime asserts (it must fire under ``python -O`` too).
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from segbreak import (
    ConsistencyError,
    Dataset,
    PenaltyConfig,
    build_cost_table,
    effective_min_seg_len,
    optimal_breakpoints,
    pair_costs,
    replication_dataset,
    table_preset,
)
from segbreak import segmentation
from segbreak.segmentation import _BOUND_SLACK, _cumulative_stats, _rss_bounds

ADAPTIVE = PenaltyConfig()
LASSO = PenaltyConfig(family="lasso_type", gamma=1.0)
RIDGE = PenaltyConfig(family="lasso_type", gamma=2.0)
LEAST_SQUARES = PenaltyConfig(family="lasso_type", gamma=1.0, lambda_scale=0.0)
BRIDGE = PenaltyConfig(family="lasso_type", gamma=0.5)


def _dense_table(ds, config):
    return build_cost_table(ds, config, effective_min_seg_len(config, None, ds.p))


def _assert_same_search(ds, ks, config):
    table = _dense_table(ds, config)
    for k in ks:
        dense = optimal_breakpoints(ds, k, config, cost_table=table)
        pruned = optimal_breakpoints(ds, k, config)
        assert pruned.breakpoints == dense.breakpoints, k
        assert pruned.total_score == dense.total_score, k


def _two_regimes(n, p, b, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = np.where(np.arange(n) < b, X[:, 0] * 2.0, -X[:, -1] * 2.0)
    y = y + 0.5 * rng.standard_normal(n)
    return Dataset(y=scale * y, X=X)


def _all_pairs(n, min_len):
    idx = np.arange(n + 1)
    j1, j2 = np.nonzero(idx[None, :] - idx[:, None] >= min_len)
    return np.column_stack([j1, j2])


# Replications whose dense table builds: on layout 3 replication 1, and on
# most layout-2 replications under the plain lasso, a segment the pruned
# search never solves exhausts the sweep budget and the dense build raises
# NoConvergenceError, which leaves nothing to compare with.
@pytest.mark.parametrize(
    "layout, reps",
    [(1, range(4)), (2, range(3)), (3, (0, 2))],
)
def test_pruned_matches_dense_on_presets(layout, reps):
    spec, config = table_preset(layout)
    for rep in reps:
        _assert_same_search(replication_dataset(spec, rep), range(4), config)


@pytest.mark.parametrize(
    "config",
    [ADAPTIVE, LASSO, RIDGE, LEAST_SQUARES],
    ids=["adaptive", "lasso", "ridge", "least-squares"],
)
def test_pruned_matches_dense_across_families(config):
    spec, _ = table_preset(2)
    for rep in (0, 7):
        _assert_same_search(replication_dataset(spec, rep), range(4), config)


def test_pruned_matches_dense_bridge():
    ds = _two_regimes(n=30, p=2, b=12, seed=3)
    _assert_same_search(ds, range(3), BRIDGE)


def test_tie_keeps_lexicographically_smallest():
    # A palindromic sample of integers: every cumulative sum is exact, so a
    # segment and its mirror image have statistics with the same bits, and
    # the split at t ties exactly with the split at n - t.  Regimes run
    # 1, 2, 2, 1, so the best single split sits at one of the two inner
    # regime boundaries and the search must return the earlier one.
    rng = np.random.default_rng(7)
    m, p = 12, 2
    XA = rng.integers(-3, 4, size=(m, p)).astype(float)
    XB = rng.integers(-3, 4, size=(m + 1, p)).astype(float)
    yA = XA @ np.array([3.0, 0.0]) + rng.integers(-1, 2, size=m)
    yB = XB @ np.array([0.0, -3.0]) + rng.integers(-1, 2, size=m + 1)
    half_X, half_y = np.vstack([XA, XB[:m]]), np.concatenate([yA, yB[:m]])
    X = np.vstack([half_X, XB[m:], half_X[::-1]])
    y = np.concatenate([half_y, yB[m:], half_y[::-1]])
    ds = Dataset(y=y, X=X)
    n = ds.n
    for config in (ADAPTIVE, LASSO):
        table = _dense_table(ds, config)
        totals = table[0, :] + table[:, n]
        tied = np.flatnonzero(totals == totals.min())
        assert tied.tolist() == [m, n - m]
        dense = optimal_breakpoints(ds, 1, config, cost_table=table)
        assert dense.breakpoints == (m,)
        pruned = optimal_breakpoints(ds, 1, config)
        assert pruned.breakpoints == dense.breakpoints
        assert pruned.total_score == dense.total_score


def _assert_few_solved(monkeypatch, ds, k, config):
    solved = []
    original = segmentation.pair_costs

    def counting(dataset, pairs, cfg):
        solved.append(len(pairs))
        return original(dataset, pairs, cfg)

    monkeypatch.setattr(segmentation, "pair_costs", counting)
    optimal_breakpoints(ds, k, config)
    admissible = len(_all_pairs(ds.n, effective_min_seg_len(config, None, ds.p)))
    assert k + 1 <= sum(solved) <= admissible // 20


def test_pruning_solves_few_segments(monkeypatch):
    spec, config = table_preset(2)
    _assert_few_solved(monkeypatch, replication_dataset(spec, 0), 2, config)


def _assert_bound_holds(ds, config, min_len, informative=True):
    pairs = _all_pairs(ds.n, min_len)
    stats = _cumulative_stats(ds)
    bounds = _rss_bounds(stats, pairs, _BOUND_SLACK * stats[2][-1])
    costs = pair_costs(ds, pairs, config)
    worst = int(np.argmax(bounds - costs))
    assert bounds[worst] <= costs[worst], (tuple(pairs[worst]), bounds[worst], costs[worst])
    assert (bounds >= 0.0).all()
    if informative:
        # a well-conditioned design must leave most bounds positive
        assert np.mean(bounds > 0.0) > 0.5


FAMILIES = [ADAPTIVE, LASSO, RIDGE, LEAST_SQUARES]
FAMILY_IDS = ["adaptive", "lasso", "ridge", "least-squares"]


@pytest.mark.parametrize("config", FAMILIES, ids=FAMILY_IDS)
def test_bound_with_segments_of_length_p(config):
    ds = _two_regimes(n=60, p=4, b=25, seed=11)
    _assert_bound_holds(ds, config, min_len=ds.p)


@pytest.mark.parametrize("config", FAMILIES, ids=FAMILY_IDS)
def test_bound_with_column_constant_inside_a_segment(config):
    ds = _two_regimes(n=70, p=3, b=35, seed=13)
    X = ds.X.copy()
    X[:35, 1] = 1.0  # constant over the first regime, varying after it
    X[40:48, 2] = 0.0  # and a column that vanishes over a stretch
    ds = Dataset(y=ds.y, X=X)
    _assert_bound_holds(ds, config, min_len=5)


def _scaled_column(column_scale):
    ds = _two_regimes(n=80, p=3, b=40, seed=17, scale=column_scale)
    X = ds.X.copy()
    X[:, 1] *= column_scale
    return Dataset(y=ds.y, X=X)


@pytest.mark.parametrize("column_scale", [1e-4, 1e4, 1e5])
@pytest.mark.parametrize("config", FAMILIES, ids=FAMILY_IDS)
def test_bound_with_extreme_column_scales(config, column_scale):
    # the shift is per column, so rescaling a covariate keeps the bound
    _assert_bound_holds(_scaled_column(column_scale), config, min_len=5)


def test_pruning_keeps_working_with_a_scaled_column(monkeypatch):
    ds = _scaled_column(1e5)
    _assert_same_search(ds, range(3), ADAPTIVE)
    _assert_few_solved(monkeypatch, ds, 1, ADAPTIVE)


@pytest.mark.parametrize("noise", [1e-7, 1e-4])
@pytest.mark.parametrize("config", [RIDGE, LEAST_SQUARES], ids=["ridge", "least-squares"])
def test_bound_on_collinear_design(config, noise):
    # x3 = x1 + noise: near-singular Grams, where the least-squares and the
    # lasso costs are hardest to evaluate.  The lasso families crawl for
    # minutes on this design, so the bound is checked against the closed
    # forms; least squares is also where bound and cost coincide.
    rng = np.random.default_rng(0)
    n, p = 60, 3
    X = rng.standard_normal((n, p))
    X[:, 2] = X[:, 0] + noise * rng.standard_normal(n)
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(n)
    y[30:] += X[30:] @ np.array([2.0, 1.0, 0.0])
    _assert_bound_holds(Dataset(y=y, X=X), config, min_len=4, informative=False)


def test_bound_on_bridge():
    ds = _two_regimes(n=24, p=2, b=12, seed=19)
    _assert_bound_holds(ds, BRIDGE, min_len=4)


def test_refit_drift_raises_typed_error():
    spec, config = table_preset(1)
    ds = replication_dataset(spec, 0)
    table = _dense_table(ds, config)
    with pytest.raises(ConsistencyError, match="drifted"):
        optimal_breakpoints(ds, 2, config, cost_table=0.5 * table)


def test_refit_drift_raises_typed_error_under_optimize_flag():
    src = Path(segmentation.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from segbreak import *\n"
        "spec, config = table_preset(1)\n"
        "ds = replication_dataset(spec, 0)\n"
        "table = build_cost_table(ds, config, effective_min_seg_len(config, None, ds.p))\n"
        "try:\n"
        "    optimal_breakpoints(ds, 2, config, cost_table=0.5 * table)\n"
        "except ConsistencyError:\n"
        "    print('typed', __debug__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "typed False"
