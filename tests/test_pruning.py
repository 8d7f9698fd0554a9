"""Bound-based pruning of the exact search: same answer as the dense table.

``optimal_breakpoints``, and the coarse grid of ``refit_breakpoints_two_stage``,
solve only the segments whose least-squares lower bound leaves them a chance
of lying on an optimal partition; the search bounds blocks of segments first
and refines the blocks that survive.
These tests hold both searches to their dense counterparts bit for bit
(the full table, and the grid with every admissible segment solved), also
at forced small block sizes, hold the exact ``select_k``, which takes the
fits of every K from one stack, to per-K fits on the dense table, check
the segment and block bounds on awkward designs, count the bounds and
solves an n = 1500 fit needs, bound the memory of an exact n = 5000 fit,
hold the dynamic programs over segment lists to their dense originals,
and pin the typed consistency error that replaced the runtime asserts (it
must fire under ``python -O`` too).  They also hold the searches exact
when the least-squares incumbents are scored below the optimum (the
certificate must catch it), count the engine calls of an exact fit and
the dynamic programs of each fit, hold each reported fit, and its
weights, to the engine's row and rule for its segment, hold the
bound-pruned refinement windows to whole ones, and hold ``select_k`` to
one solve per segment in either mode.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from segbreak import (
    ConsistencyError,
    CriterionConfig,
    Dataset,
    InfeasiblePartitionError,
    NoConvergenceError,
    PenaltyConfig,
    REGIME_COEFFICIENTS,
    ScenarioSpec,
    build_cost_table,
    effective_min_seg_len,
    generate_scenario,
    optimal_breakpoints,
    pair_costs,
    refit_breakpoints_two_stage,
    replication_dataset,
    select_k,
    table_preset,
)
from segbreak import segmentation, selection
from segbreak.segmentation import (
    _BOUND_SLACK,
    _Search,
    _adaptive_weights,
    _assemble_fits,
    _block_bounds,
    _blocks,
    _cumulative_stats,
    _dp_minimize,
    _least_squares,
    _least_through,
    _rss_bounds,
    _segment_stacks,
)

ADAPTIVE = PenaltyConfig()
LASSO = PenaltyConfig(family="lasso_type", gamma=1.0)
RIDGE = PenaltyConfig(family="lasso_type", gamma=2.0)
LEAST_SQUARES = PenaltyConfig(family="lasso_type", gamma=1.0, lambda_scale=0.0)
BRIDGE = PenaltyConfig(family="lasso_type", gamma=0.5)
FAMILIES = [ADAPTIVE, LASSO, RIDGE, LEAST_SQUARES]
FAMILY_IDS = ["adaptive", "lasso", "ridge", "least-squares"]
FAMILIES_WITH_BRIDGE = [*FAMILIES, BRIDGE]
FAMILY_IDS_WITH_BRIDGE = [*FAMILY_IDS, "bridge"]


# Block sizes the pruned search is forced to use besides its own rule's:
# the preset lengths 50, 100 and 400 are multiples of 2 and of neither 3
# nor 7, and the presets' minimum segment lengths (5 and 11) lie on both
# sides of them.
BLOCK_SIZES = (2, 3, 7)
# Ladders of block sizes, coarse to fine, that the pruned search is forced
# to walk besides its own rule's: one coarse level of each size above, and
# nested ones whose sizes divide each other but are no powers of 4.
BLOCK_LADDERS = (*((size, 1) for size in BLOCK_SIZES), (6, 3, 1), (14, 7, 1))


def _dense_table(ds, config, min_len=None):
    if min_len is None:
        min_len = effective_min_seg_len(config, None, ds.p)
    return build_cost_table(ds, config, min_len)


def _dense_fit(ds, k, config, table, min_len=None):
    """The dense reference search: ``_dp_minimize`` over every finite entry
    of ``table`` (``build_cost_table``'s), with the chosen segments' fits
    reported by ``_assemble_fits``."""
    if min_len is None:
        min_len = effective_min_seg_len(config, None, ds.p)
    i, j = np.nonzero(np.isfinite(table))
    total, nodes = _dp_minimize(i, j, table[i, j], ds.n + 1, k)
    return _assemble_fits(_Search(ds, config, min_len), [nodes], [total])[0]


def _each_block_ladder(monkeypatch):
    """Yield the forced ladder of block sizes, None under the rule, with
    each in force."""
    rule = segmentation._block_sizes
    for ladder in (None, *BLOCK_LADDERS):
        monkeypatch.setattr(
            segmentation, "_block_sizes", rule if ladder is None else lambda n_nodes: ladder
        )
        yield ladder
    monkeypatch.setattr(segmentation, "_block_sizes", rule)


def _assert_same_search(monkeypatch, ds, ks, config, min_len=None):
    """Pruned == dense, under the block-size rule and on each forced
    ladder, and the exact ``select_k`` over K = 0 .. max(ks) == dense."""
    table, dense = _assert_same_exact(monkeypatch, ds, ks, config, min_len)
    _assert_same_selection(monkeypatch, ds, config, min_len, table, dense)


def _assert_same_exact(monkeypatch, ds, ks, config, min_len=None):
    """Pruned == dense, under the block-size rule and on each forced
    ladder; returns the dense table and the dense fits by K."""
    crit = None if min_len is None else CriterionConfig(min_seg_len=min_len)
    table = _dense_table(ds, config, min_len)
    dense = {k: _dense_fit(ds, k, config, table, min_len) for k in ks}
    for ladder in _each_block_ladder(monkeypatch):
        for k in ks:
            pruned = optimal_breakpoints(ds, k, config, crit)
            assert pruned.breakpoints == dense[k].breakpoints, (ladder, k)
            assert pruned.total_score == dense[k].total_score, (ladder, k)
    return table, dense


def _assert_same_selection(monkeypatch, ds, config, min_len, table, dense):
    """``select_k``'s exact path, which solves one dense list of segments
    and takes the fits of every K from one stack, against the per-K
    ``_dense_fit`` on ``table`` (``dense`` holds some of those fits
    already): the same rows, breakpoints and ``k_hat``,
    each s_K within 1e-12 relative and the coefficients within 1e-10."""
    crit = CriterionConfig(k_max=max(dense), min_seg_len=min_len)
    for k in range(crit.k_max + 1):
        if k not in dense:
            try:
                dense[k] = _dense_fit(ds, k, config, table, min_len)
            except InfeasiblePartitionError:
                pass
    original = selection._dense_fits
    stacked = {}

    def recording(*args):
        stacked.update(original(*args))
        return stacked

    def per_k(search, ks):
        return {k: dense[k] for k in ks if k in dense}

    try:
        monkeypatch.setattr(selection, "_dense_fits", recording)
        got = select_k(ds, config, crit)
        monkeypatch.setattr(selection, "_dense_fits", per_k)
        want = select_k(ds, config, crit)
    finally:
        monkeypatch.setattr(selection, "_dense_fits", original)
    assert got.k_hat == want.k_hat
    assert stacked.keys() == dense.keys()
    for row, ref in zip(got.rows, want.rows, strict=True):
        assert (row.k, row.feasible, row.breakpoints) == (ref.k, ref.feasible, ref.breakpoints)
        assert row.s_k == pytest.approx(ref.s_k, rel=1e-12, abs=0.0), row.k
    for k, fit in stacked.items():
        for seg, ref in zip(fit.segment_fits, dense[k].segment_fits, strict=True):
            np.testing.assert_allclose(seg.coefficients, ref.coefficients, rtol=0.0, atol=1e-10)


def _admissible_pairs(nodes, min_len):
    """Node indices (a, b) of the segments at least ``min_len`` long."""
    return np.nonzero(nodes[None, :] - nodes[:, None] >= min_len)


def _dense_grid_table(dataset, config, min_seg_len, nodes):
    """Every admissible segment between the nodes solved, as the two-stage
    coarse stage did before it was pruned, in the ``(i, j, cost,
    n_nodes)`` form ``_dp_minimize`` takes.  A node set with no
    K-partition yields segments on which the dynamic program raises
    InfeasiblePartitionError."""
    i1, i2 = _admissible_pairs(nodes, min_seg_len)
    costs = pair_costs(dataset, np.column_stack([nodes[i1], nodes[i2]]), config)
    return i1, i2, costs, len(nodes)


def _with_dense_grid(monkeypatch, run):
    """``run()`` with ``segmentation._pruned_minimize`` replaced by the
    program over every grid segment, solved densely by the reference.

    ``run`` searches one dataset under one config, so the segments depend
    only on the nodes and minimum length, and are solved once for all K."""
    pruned = segmentation._pruned_minimize
    tables = {}

    def dense(search, k, nodes):
        key = (search.min_len, nodes.tobytes())
        if key not in tables:
            tables[key] = _dense_grid_table(search.dataset, search.config, search.min_len, nodes)
        return _dp_minimize(*tables[key], k)

    monkeypatch.setattr(segmentation, "_pruned_minimize", dense)
    try:
        return run()
    finally:
        monkeypatch.setattr(segmentation, "_pruned_minimize", pruned)


def _assert_same_two_stage(monkeypatch, ds, ks, config, steps, min_len=None):
    """Pruned coarse grid == dense coarse grid for each K and grid step,
    under the block-size rule and on each forced ladder."""
    crit = None if min_len is None else CriterionConfig(min_seg_len=min_len)
    cases = [(k, step) for k in ks for step in steps]

    def fits():
        return [refit_breakpoints_two_stage(ds, k, config, crit, grid_step=step)
                for k, step in cases]

    dense = _with_dense_grid(monkeypatch, fits)
    for ladder in _each_block_ladder(monkeypatch):
        for case, want, got in zip(cases, dense, fits()):
            assert got.breakpoints == want.breakpoints, (ladder, case)
            assert got.total_score == want.total_score, (ladder, case)


def _two_regimes(n, p, b, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = np.where(np.arange(n) < b, X[:, 0] * 2.0, -X[:, -1] * 2.0)
    y = y + 0.5 * rng.standard_normal(n)
    return Dataset(y=scale * y, X=X)


def _many_regimes(n, p, breaks, seed):
    """A sample whose regimes change at ``breaks``, each with its own
    coefficients drawn at random."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    coef = 2.0 * rng.standard_normal((len(breaks) + 1, p))
    regime = np.searchsorted(breaks, np.arange(n), side="right")
    y = np.einsum("ij,ij->i", X, coef[regime]) + 0.5 * rng.standard_normal(n)
    return Dataset(y=y, X=X)


def _all_pairs(n, min_len):
    return np.column_stack(_admissible_pairs(np.arange(n + 1), min_len))


# Replications whose dense table builds: on layout 3 replication 1, and on
# most layout-2 replications under the plain lasso, a segment the pruned
# search never solves exhausts the sweep budget and the dense build raises
# NoConvergenceError, which leaves nothing to compare with.
@pytest.mark.parametrize(
    "layout, reps",
    [(1, range(4)), (2, range(3)), (3, (0, 2))],
)
def test_pruned_matches_dense_on_presets(monkeypatch, layout, reps):
    spec, config = table_preset(layout)
    for rep in reps:
        _assert_same_search(monkeypatch, replication_dataset(spec, rep), range(4), config)


@pytest.mark.parametrize(
    "config",
    [ADAPTIVE, LASSO, RIDGE, LEAST_SQUARES],
    ids=["adaptive", "lasso", "ridge", "least-squares"],
)
def test_pruned_matches_dense_across_families(monkeypatch, config):
    spec, _ = table_preset(2)
    for rep in (0, 7):
        _assert_same_search(monkeypatch, replication_dataset(spec, rep), range(4), config)


def test_pruned_matches_dense_bridge(monkeypatch):
    ds = _two_regimes(n=30, p=2, b=12, seed=3)
    _assert_same_search(monkeypatch, ds, range(3), BRIDGE)


# 42 is the first node of a block at every level of every forced ladder,
# 41 and 43 are one sample off it; 85 is a multiple of none of the sizes.
@pytest.mark.parametrize("b", [41, 42, 43])
def test_pruned_matches_dense_around_block_edges(monkeypatch, b):
    ds = _two_regimes(n=85, p=3, b=b, seed=23)
    _assert_same_search(monkeypatch, ds, range(4), LASSO)


@pytest.mark.parametrize("min_len", [1, 2, 6, 12])
def test_pruned_matches_dense_at_minimum_lengths_around_block_sizes(monkeypatch, min_len):
    ds = _two_regimes(n=57, p=2, b=28, seed=29)
    _assert_same_search(monkeypatch, ds, range(4), LASSO, min_len=min_len)


def test_pruned_matches_dense_when_the_block_grid_has_no_partition(monkeypatch):
    # n = (K+1) * min_len leaves one 2-break partition, (12, 24), and the
    # block starts at size 7 miss it, so that level scores no incumbent
    ds = _two_regimes(n=36, p=2, b=12, seed=31)
    _assert_same_search(monkeypatch, ds, range(3), LASSO, min_len=12)


@pytest.mark.parametrize("config", [ADAPTIVE, LASSO], ids=["adaptive", "lasso"])
def test_pruned_matches_dense_with_eight_breaks(monkeypatch, config):
    # Many breaks let many coarse blocks survive, so every level of the
    # ladder (16, 4, 1 at n = 200) passes blocks on to the next.
    ds = _many_regimes(n=200, p=2, breaks=(20, 41, 62, 85, 105, 127, 150, 173), seed=41)
    _assert_same_exact(monkeypatch, ds, (7, 8), config, min_len=12)


def test_tie_keeps_lexicographically_smallest(monkeypatch):
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
        dense = _dense_fit(ds, 1, config, table)
        assert dense.breakpoints == (m,)
        _assert_same_search(monkeypatch, ds, (1,), config)


def _dense_dp_minimize(cost, k):
    """``_dp_minimize`` as it ran over a node-indexed cost matrix (+inf
    where inadmissible), kept as the reference for the list form."""
    n_nodes = cost.shape[0]
    last = n_nodes - 1
    best = np.empty((k + 2, n_nodes))
    best[1] = cost[:, last]
    for stage in range(2, k + 2):
        best[stage] = np.min(cost + best[stage - 1][None, :], axis=1)
    total = best[k + 1][0]
    if not np.isfinite(total):
        raise InfeasiblePartitionError(f"no admissible placement of {k} breakpoints")
    nodes = []
    at = 0
    for stage in range(k + 1, 1, -1):
        vals = cost[at, :] + best[stage - 1]
        at = int(np.flatnonzero(vals == best[stage][at])[0])
        nodes.append(at)
    return float(total), nodes


def _dense_least_through(table, k):
    """``_least_through`` as it ran over a node-indexed matrix, kept as the
    reference for the list form."""
    n_nodes = table.shape[0]
    fwd = np.full((k + 1, n_nodes), np.inf)
    bwd = np.full((k + 1, n_nodes), np.inf)
    fwd[0, 0] = 0.0
    bwd[0, -1] = 0.0
    for s in range(1, k + 1):
        fwd[s] = np.min(fwd[s - 1][:, None] + table, axis=0)
        bwd[s] = np.min(table + bwd[s - 1][None, :], axis=1)
    through = np.full(table.shape, np.inf)
    for s in range(k + 1):
        np.minimum(through, fwd[s][:, None] + bwd[k - s][None, :], out=through)
    return through + table


def test_segment_list_programs_match_dense_matrices():
    # Integer costs in 0..3 make exact ties common, so the tie-breaking of
    # the reconstruction is exercised; about 30% of the entries are +inf,
    # and the list holds the finite ones in shuffled order.
    rng = np.random.default_rng(37)
    infeasible = 0
    for _ in range(400):
        n_nodes = int(rng.integers(2, 13))
        table = rng.integers(0, 4, size=(n_nodes, n_nodes)).astype(float)
        table[rng.random((n_nodes, n_nodes)) < 0.3] = np.inf
        i, j = np.nonzero(np.isfinite(table))
        order = rng.permutation(len(i))
        i, j = i[order], j[order]
        for k in range(4):
            through = _least_through(i, j, table[i, j], n_nodes, k)
            assert (through == _dense_least_through(table, k)[i, j]).all(), (table, k)
            try:
                want = _dense_dp_minimize(table, k)
            except InfeasiblePartitionError:
                infeasible += 1
                with pytest.raises(InfeasiblePartitionError):
                    _dp_minimize(i, j, table[i, j], n_nodes, k)
            else:
                assert _dp_minimize(i, j, table[i, j], n_nodes, k) == want, (table, k)
    # both outcomes occur often
    assert 100 < infeasible < 1500, infeasible


def _count_solved(monkeypatch):
    """List that receives the row count of every batched cost call."""
    solved = []
    original = segmentation._chunk_costs

    def counting(dataset, pairs, G, b, yy, cfg):
        solved.append(len(pairs))
        return original(dataset, pairs, G, b, yy, cfg)

    monkeypatch.setattr(segmentation, "_chunk_costs", counting)
    return solved


def _assert_few_solved(monkeypatch, ds, k, config):
    solved = _count_solved(monkeypatch)
    optimal_breakpoints(ds, k, config)
    admissible = len(_all_pairs(ds.n, effective_min_seg_len(config, None, ds.p)))
    assert k + 1 <= sum(solved) <= admissible // 20


def test_pruning_solves_few_segments(monkeypatch):
    spec, config = table_preset(2)
    _assert_few_solved(monkeypatch, replication_dataset(spec, 0), 2, config)


def _halve_incumbents(monkeypatch):
    """Score every incumbent at half its least-squares value, which can lie
    below the optimum it should bound; returns the list that receives each
    U the certificate prunes against again."""
    incumbent = segmentation._incumbent_costs
    survivors = segmentation._survivors
    repruned = []

    def recording(search, k, nodes, upper=None):
        if upper is not None:
            repruned.append(upper)
        return survivors(search, k, nodes, upper)

    monkeypatch.setattr(segmentation, "_incumbent_costs", lambda *args: 0.5 * incumbent(*args))
    monkeypatch.setattr(segmentation, "_survivors", recording)
    return repruned


# Each family on a replication whose dense table and dense grids complete
# (see the comparisons above); layout 3 runs only the preset penalty.
CERTIFIED = [
    (1, ADAPTIVE), (2, ADAPTIVE), (3, ADAPTIVE),
    (1, LASSO), (2, RIDGE), (2, LEAST_SQUARES), (None, BRIDGE),
]


@pytest.mark.parametrize(
    "layout, config", CERTIFIED,
    ids=["adaptive-1", "adaptive-2", "adaptive-3", "lasso-1", "ridge-2",
         "least-squares-2", "bridge"],
)
def test_certificate_keeps_searches_exact_below_the_optimum(monkeypatch, layout, config):
    # An incumbent below the optimum prunes segments of the optimal
    # partition; the certificate sees the solved total exceed it and
    # prunes again against that total, so both searches still equal dense.
    if layout is None:
        ds, ks = _two_regimes(n=30, p=2, b=12, seed=3), range(3)
    else:
        ds, ks = replication_dataset(table_preset(layout)[0], 0), range(4)
    repruned = _halve_incumbents(monkeypatch)
    _assert_same_exact(monkeypatch, ds, ks, config)
    _assert_same_two_stage(monkeypatch, ds, [k for k in ks if k], config, (5, 10))
    assert repruned


def _count_engine_calls(monkeypatch):
    """Dict of the ``_chunk_costs`` and ``solvers._batch_cd`` call counts,
    and of the ``_chunk_costs`` calls made inside ``_assemble_fits``."""
    calls = {"chunk_costs": 0, "batch_cd": 0, "in_assemble": 0}
    inside = [False]
    chunk_costs, batch_cd, assemble = (
        segmentation._chunk_costs, segmentation.solvers._batch_cd, segmentation._assemble_fits
    )

    def counting_chunks(*args):
        calls["chunk_costs"] += 1
        calls["in_assemble"] += inside[0]
        return chunk_costs(*args)

    def counting_cd(*args):
        calls["batch_cd"] += 1
        return batch_cd(*args)

    def flagged(*args):
        inside[0] = True
        try:
            return assemble(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(segmentation, "_chunk_costs", counting_chunks)
    monkeypatch.setattr(segmentation.solvers, "_batch_cd", counting_cd)
    monkeypatch.setattr(segmentation, "_assemble_fits", flagged)
    return calls


@pytest.mark.parametrize("rep", range(6))
def test_exact_fit_makes_one_engine_call(monkeypatch, rep):
    # the incumbents are scored without the engine, the survivors and the
    # incumbent's segments are solved together, and the chosen segments'
    # fits are taken from that solve
    spec, config = table_preset(4)
    ds = replication_dataset(spec, rep)
    calls = _count_engine_calls(monkeypatch)
    optimal_breakpoints(ds, 2, config)
    assert calls == {"chunk_costs": 1, "batch_cd": 1, "in_assemble": 0}


def _record_programs(monkeypatch):
    """List that receives the arguments of every ``_dp_minimize`` call."""
    programs = []
    original = segmentation._dp_minimize

    def recording(i, j, cost, n_nodes, k):
        programs.append((i.tobytes(), j.tobytes(), cost.tobytes(), n_nodes, k))
        return original(i, j, cost, n_nodes, k)

    monkeypatch.setattr(segmentation, "_dp_minimize", recording)
    return programs


@pytest.mark.parametrize(
    "layout, rep, grid_step",
    [(4, rep, None) for rep in range(6)] + [(5, rep, 20) for rep in range(2)],
    ids=[f"exact-4-{rep}" for rep in range(6)] + [f"grid-20-5-{rep}" for rep in range(2)],
)
def test_fit_runs_each_program_once(monkeypatch, layout, rep, grid_step):
    # the pruned search returns the minimizer of its own program, so no
    # fit runs the dynamic program twice over the same segments and costs
    spec, config = table_preset(layout)
    ds = replication_dataset(spec, rep)
    programs = _record_programs(monkeypatch)
    if grid_step is None:
        optimal_breakpoints(ds, 2, config)
    else:
        refit_breakpoints_two_stage(ds, 2, config, grid_step=grid_step)
    assert programs
    assert len(set(programs)) == len(programs)


@pytest.mark.parametrize(
    "config, min_len",
    [*((config, None) for config in FAMILIES_WITH_BRIDGE), (ADAPTIVE, 3)],
    ids=[*FAMILY_IDS_WITH_BRIDGE, "adaptive-short"],
)
def test_reported_fits_are_the_engine_rows(monkeypatch, config, min_len):
    # Each reported fit's coefficients before the zero clamp are the bits
    # the engine gives that segment solved alone: the record's row does
    # not depend on the segments it was solved with.  Its weights are the
    # bits the engine's rule gives the lone segment, None where it has no
    # least-squares weights (segments shorter than p + 1 admit such rows).
    reported = []
    report = segmentation._report_fits

    def recording(dataset, pairs, G, b, coefs, cfg):
        fits = report(dataset, pairs, G, b, coefs, cfg)
        reported.extend(zip(pairs.tolist(), coefs.copy(), (f.weights_used for f in fits)))
        return fits

    monkeypatch.setattr(segmentation, "_report_fits", recording)
    spec, _ = table_preset(1)
    samples = [replication_dataset(spec, rep) for rep in range(2)]
    if config is BRIDGE:  # the concave bridge is slow on the preset's dense table
        samples = [_two_regimes(n=30, p=2, b=12, seed=3)]
    if min_len is not None:  # replication 1 stalls on a short dense-table segment
        samples = samples[:1]
    criterion = CriterionConfig(k_max=3, min_seg_len=min_len)
    fallbacks = 0
    for ds in samples:
        for k in range(4):
            optimal_breakpoints(ds, k, config, criterion)
            if k:
                refit_breakpoints_two_stage(ds, k, config, criterion, grid_step=5)
        select_k(ds, config, criterion)
        select_k(ds, config, criterion, grid_step=5)
        assert reported
        for pair, phi, weights in reported:
            alone = _Search(ds, config, 1)
            row = alone.rows(*np.array([pair]).T)[0]  # before alone.coefs is read: it grows
            assert np.array_equal(phi, alone.coefs[row]), pair
            want = None
            if config is ADAPTIVE:
                (_, G, b, _), = _segment_stacks(alone.stats, np.array([pair]))
                phi_ls, full = _least_squares(ds, np.array([pair]), G, b)
                if full[0]:
                    want = _adaptive_weights(phi_ls, full, config.g)[0].tobytes()
            assert (weights if weights is None else weights.tobytes()) == want, pair
            fallbacks += config is ADAPTIVE and weights is None
        reported.clear()
    assert (fallbacks > 0) == (min_len is not None)


def _without_window_bound(monkeypatch, run):
    """``run()`` with every position of every refinement window solved."""
    bound = segmentation._window_positions
    monkeypatch.setattr(
        segmentation, "_window_positions", lambda search, a, ts, c, total: np.ones(len(ts), bool)
    )
    try:
        return run()
    finally:
        monkeypatch.setattr(segmentation, "_window_positions", bound)


def _outcome(run):
    """Breakpoints and score of ``run()``, or the type and text of its error."""
    try:
        fit = run()
    except NoConvergenceError as exc:
        return type(exc), str(exc)
    return fit.breakpoints, fit.total_score


@pytest.mark.parametrize("layout", [1, 2, 3])
@pytest.mark.parametrize("config", FAMILIES, ids=FAMILY_IDS)
def test_pruned_refinement_windows_match_full_windows(monkeypatch, layout, config):
    # Positions whose bound exceeds the current total cannot lower it, so
    # dropping them leaves every move, and every fit, as it was.  Under the
    # plain lasso some fits raise NoConvergenceError; they must raise the
    # same error with the windows whole.
    ds = replication_dataset(table_preset(layout)[0], 0)
    cases = [(k, step) for k in (1, 2, 3) for step in (2, 5, 10)]

    def fits():
        return [_outcome(lambda: refit_breakpoints_two_stage(ds, k, config, grid_step=step))
                for k, step in cases]

    assert fits() == _without_window_bound(monkeypatch, fits)


def _record_minimize_calls(monkeypatch):
    """List that receives, for each ``_pruned_minimize`` call, its nodes,
    whether it raised InfeasiblePartitionError and the rows it solved."""
    solved = _count_solved(monkeypatch)
    calls = []
    original = segmentation._pruned_minimize

    def recording(search, k, nodes):
        before, infeasible = len(solved), False
        try:
            return original(search, k, nodes)
        except InfeasiblePartitionError:
            infeasible = True
            raise
        finally:
            calls.append((nodes.tolist(), infeasible, sum(solved[before:])))

    monkeypatch.setattr(segmentation, "_pruned_minimize", recording)
    return calls


GRID_STEPS = (2, 3, 5, 10)


@pytest.mark.parametrize("layout", [1, 2, 3])
def test_pruned_grid_matches_dense_grid_on_presets(monkeypatch, layout):
    spec, config = table_preset(layout)
    ds = replication_dataset(spec, 0)
    _assert_same_two_stage(monkeypatch, ds, (1, 2, 3), config, GRID_STEPS)


# Replications whose dense grid search completes: under the plain lasso a
# grid segment of layout 2 replication 1 and of layout 3 replication 0
# exhausts the sweep budget.  The lasso stays off layout 3, where its
# refinement windows make this comparison take about 25 s.
@pytest.mark.parametrize(
    "layout, config",
    [(1, LASSO), (2, LASSO), (1, RIDGE), (2, RIDGE), (3, RIDGE),
     (1, LEAST_SQUARES), (2, LEAST_SQUARES), (3, LEAST_SQUARES)],
    ids=["lasso-1", "lasso-2", "ridge-1", "ridge-2", "ridge-3",
         "least-squares-1", "least-squares-2", "least-squares-3"],
)
def test_pruned_grid_matches_dense_grid_across_families(monkeypatch, layout, config):
    spec, _ = table_preset(layout)
    ds = replication_dataset(spec, 0)
    _assert_same_two_stage(monkeypatch, ds, (1, 2, 3), config, GRID_STEPS)


def test_pruned_grid_matches_dense_grid_bridge(monkeypatch):
    ds = _two_regimes(n=30, p=2, b=12, seed=3)
    _assert_same_two_stage(monkeypatch, ds, (1, 2), BRIDGE, GRID_STEPS)


@pytest.mark.parametrize("layout", [1, 2])
def test_pruned_grid_selection_matches_dense_grid(monkeypatch, layout):
    spec, config = table_preset(layout)
    ds = replication_dataset(spec, 0)

    def selection():
        result = select_k(ds, config, CriterionConfig(k_max=3), grid_step=5)
        return result.k_hat, [
            (r.k, r.feasible, r.breakpoints, r.s_k, r.value) for r in result.rows
        ]

    dense = _with_dense_grid(monkeypatch, selection)
    for ladder in _each_block_ladder(monkeypatch):
        assert selection() == dense, ladder


@pytest.mark.parametrize("grid_step", [None, 5], ids=["exact", "grid-5"])
@pytest.mark.parametrize("layout", [1, 2])
def test_select_k_solves_each_segment_at_most_once(monkeypatch, layout, grid_step):
    # every K of one select_k call draws on the same record of solved fits
    seen = []
    original = segmentation._chunk_costs

    def recording(dataset, pairs, G, b, yy, cfg):
        seen.extend(map(tuple, pairs.tolist()))
        return original(dataset, pairs, G, b, yy, cfg)

    monkeypatch.setattr(segmentation, "_chunk_costs", recording)
    spec, config = table_preset(layout)
    select_k(replication_dataset(spec, 0), config, CriterionConfig(k_max=3), grid_step=grid_step)
    assert seen
    assert len(set(seen)) == len(seen)


def test_grid_without_a_partition_halves_its_step(monkeypatch):
    # n = (K+1) * min_len leaves one 2-break partition, (12, 24).  The grid
    # of step 5 holds only 15 and 20 between the minimum lengths, so it has
    # no 2-break partition and the search halves the step to 2.
    ds = _two_regimes(n=36, p=2, b=12, seed=31)
    _assert_same_two_stage(monkeypatch, ds, (2,), LASSO, (5,), min_len=12)
    calls = _record_minimize_calls(monkeypatch)
    fit = refit_breakpoints_two_stage(
        ds, 2, LASSO, CriterionConfig(min_seg_len=12), grid_step=5
    )
    assert fit.breakpoints == (12, 24)
    # the grid without a partition raises before it solves any segment
    assert calls[0] == ([0, 15, 20, 36], True, 0)
    assert [c[:2] for c in calls[1:]] == [([0, *range(12, 25, 2), 36], False)]


def test_stalled_grid_segment_is_pruned():
    # Under the plain lasso a segment of this step-2 grid exhausts the
    # sweep budget: with every grid segment solved, the fit raises
    # NoConvergenceError.  The segment lies on no partition that can win,
    # so the pruned grid never solves it.
    spec, _ = table_preset(2)
    ds = replication_dataset(spec, 1)
    fit = refit_breakpoints_two_stage(ds, 1, LASSO, grid_step=2)
    assert fit.total_score >= optimal_breakpoints(ds, 1, LASSO).total_score


def test_two_stage_fit_at_n1500_solves_few_grid_segments(monkeypatch):
    # A deterministic proxy for the run time of the two-stage n = 1500 fit:
    # solving all 2,850 admissible grid segments would be most of it.
    spec, config = table_preset(5)
    ds = replication_dataset(spec, 0)
    calls = _record_minimize_calls(monkeypatch)
    fit = refit_breakpoints_two_stage(ds, 2, config, grid_step=20)
    assert fit.breakpoints == (200, 400)
    [(nodes, infeasible, solved)] = calls
    m = effective_min_seg_len(config, None, ds.p)
    admissible = len(_admissible_pairs(np.array(nodes), m)[0])
    assert (admissible, infeasible) == (2850, False)
    assert solved <= 10, solved


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




def _length_p_design():
    return _two_regimes(n=60, p=4, b=25, seed=11)


def _constant_column_design():
    ds = _two_regimes(n=70, p=3, b=35, seed=13)
    X = ds.X.copy()
    X[:35, 1] = 1.0  # constant over the first regime, varying after it
    X[40:48, 2] = 0.0  # and a column that vanishes over a stretch
    return Dataset(y=ds.y, X=X)


def _scaled_column(column_scale):
    ds = _two_regimes(n=80, p=3, b=40, seed=17, scale=column_scale)
    X = ds.X.copy()
    X[:, 1] *= column_scale
    return Dataset(y=ds.y, X=X)


def _collinear_design(noise):
    # x3 = x1 + noise: near-singular Grams, where the least-squares and the
    # lasso costs are hardest to evaluate
    rng = np.random.default_rng(0)
    n, p = 60, 3
    X = rng.standard_normal((n, p))
    X[:, 2] = X[:, 0] + noise * rng.standard_normal(n)
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(n)
    y[30:] += X[30:] @ np.array([2.0, 1.0, 0.0])
    return Dataset(y=y, X=X)


@pytest.mark.parametrize("config", FAMILIES, ids=FAMILY_IDS)
def test_bound_with_segments_of_length_p(config):
    ds = _length_p_design()
    _assert_bound_holds(ds, config, min_len=ds.p)


@pytest.mark.parametrize("config", FAMILIES, ids=FAMILY_IDS)
def test_bound_with_column_constant_inside_a_segment(config):
    _assert_bound_holds(_constant_column_design(), config, min_len=5)


@pytest.mark.parametrize("column_scale", [1e-4, 1e4, 1e5])
@pytest.mark.parametrize("config", FAMILIES, ids=FAMILY_IDS)
def test_bound_with_extreme_column_scales(config, column_scale):
    # the shift is per column, so rescaling a covariate keeps the bound
    _assert_bound_holds(_scaled_column(column_scale), config, min_len=5)


def test_pruning_keeps_working_with_a_scaled_column(monkeypatch):
    ds = _scaled_column(1e5)
    _assert_same_search(monkeypatch, ds, range(3), ADAPTIVE)
    _assert_few_solved(monkeypatch, ds, 1, ADAPTIVE)


@pytest.mark.parametrize("noise", [1e-7, 1e-4])
@pytest.mark.parametrize("config", [RIDGE, LEAST_SQUARES], ids=["ridge", "least-squares"])
def test_bound_on_collinear_design(config, noise):
    # The lasso families crawl for minutes on this design, so the bound is
    # checked against the closed forms; least squares is also where bound
    # and cost coincide.
    _assert_bound_holds(_collinear_design(noise), config, min_len=4, informative=False)


def test_bound_on_bridge():
    ds = _two_regimes(n=24, p=2, b=12, seed=19)
    _assert_bound_holds(ds, BRIDGE, min_len=4)


# The awkward designs above, each with the minimum segment length of its
# bound test.
AWKWARD = {
    "length-p": (_length_p_design, 4),
    "constant-column": (_constant_column_design, 5),
    "column-scale-1e-4": (lambda: _scaled_column(1e-4), 5),
    "column-scale-1e4": (lambda: _scaled_column(1e4), 5),
    "column-scale-1e5": (lambda: _scaled_column(1e5), 5),
    "collinear-1e-7": (lambda: _collinear_design(1e-7), 4),
    "collinear-1e-4": (lambda: _collinear_design(1e-4), 4),
}


@pytest.mark.parametrize("design", AWKWARD)
def test_block_bound_below_every_segment_in_its_block(design):
    # Every family's cost of a segment is at least its least-squares RSS,
    # computed here from the rows.  The block bound is held to that, not to
    # the segment's own ``_rss_bounds`` value: the diagonal shift and the
    # positive-definiteness gate of that bound are not monotone in the
    # segment, and on the collinear 1e-4 design a block bound exceeds the
    # shifted bound of a segment in its block.
    build, min_len = AWKWARD[design]
    ds = build()
    pairs = _all_pairs(ds.n, min_len)
    rss = np.empty(len(pairs))
    for m, (a, b) in enumerate(pairs):
        X, y = ds.X[a:b], ds.y[a:b]
        rss[m] = np.sum((y - X @ np.linalg.lstsq(X, y, rcond=None)[0]) ** 2)
    stats = _cumulative_stats(ds)
    slack = _BOUND_SLACK * stats[2][-1]
    positive = (_rss_bounds(stats, pairs, slack) > 0.0).any()
    for size in (*BLOCK_SIZES, 16):
        first, last = _blocks(ds.n, size)
        block = _block_bounds(stats, first, last, pairs[:, 0] // size, pairs[:, 1] // size, slack)
        worst = int(np.argmax(block - rss))
        assert block[worst] <= rss[worst], (size, tuple(pairs[worst]), block[worst], rss[worst])
        # where segments get positive bounds, blocks must too, or the coarse
        # pass prunes nothing
        assert (block > 0.0).any() == positive, size


def _count_bounded(monkeypatch):
    """List that receives the row count of every ``_rss_bounds`` call."""
    rows = []
    original = segmentation._rss_bounds

    def counting(stats, pairs, slack):
        rows.append(len(pairs))
        return original(stats, pairs, slack)

    monkeypatch.setattr(segmentation, "_rss_bounds", counting)
    return rows


def test_exact_fit_at_n1500_bounds_few_segments(monkeypatch):
    # A deterministic proxy for the run time of an exact n = 1500 fit: the
    # per-segment bounds were nearly all of it before the block pass.
    spec, config = table_preset(5)
    ds = replication_dataset(spec, 0)
    rows = _count_bounded(monkeypatch)
    fit = optimal_breakpoints(ds, 2, config)
    monkeypatch.undo()
    m = effective_min_seg_len(config, None, ds.p)
    admissible = (ds.n + 1 - m) * (ds.n + 2 - m) // 2
    assert sum(rows) < admissible // 100, (rows, admissible)

    truth = np.array([0, *spec.breakpoints, ds.n])
    true_score = pair_costs(ds, np.column_stack([truth[:-1], truth[1:]]), config).sum()
    two_stage = refit_breakpoints_two_stage(ds, 2, config, grid_step=20).total_score
    for other in (true_score, two_stage):
        assert fit.total_score <= other * (1.0 + 1e-9), (fit.total_score, other)


def test_two_stage_fit_at_n1500_bounds_few_rows(monkeypatch):
    # A deterministic proxy for the run time of the two-stage n = 1500 fit
    # at grid step 20, of which the bounds were the largest part: its 76
    # grid nodes get a pass over blocks of 4, where the per-segment pass
    # alone bounded all 2,847 admissible grid segments (3,011 rows with the
    # refinement windows).
    spec, config = table_preset(5)
    ds = replication_dataset(spec, 0)
    rows = _count_bounded(monkeypatch)
    fit = refit_breakpoints_two_stage(ds, 2, config, grid_step=20)
    assert fit.breakpoints == (200, 400)
    assert sum(rows) < 1000, rows


def test_exact_fit_at_n5000_with_eight_breaks_bounds_few_rows(monkeypatch):
    # A deterministic proxy for the run time of a many-break exact fit: a
    # poor coarse incumbent lets most blocks survive.  A single coarse
    # level of side 35 expanded each into its 1,225 segments and bounded
    # 27% of the admissible segments; a pass of the ladder expands each
    # surviving block pair into 16.
    _, config = table_preset(1)
    n, k = 5000, 8
    breaks = tuple(round(n * (r + 1) / (k + 1)) for r in range(k))
    coef = [REGIME_COEFFICIENTS[r % len(REGIME_COEFFICIENTS)] for r in range(k + 1)]
    spec = ScenarioSpec(n=n, breakpoints=breaks, coefficient_vectors=coef, seed=0)
    ds = generate_scenario(spec)
    rows = _count_bounded(monkeypatch)
    fit = optimal_breakpoints(ds, k, config)
    monkeypatch.undo()
    m = effective_min_seg_len(config, None, ds.p)
    admissible = (n + 1 - m) * (n + 2 - m) // 2
    assert sum(rows) < admissible // 50, (rows, admissible)
    assert fit.breakpoints == breaks

    truth = np.array([0, *breaks, n])
    true_score = pair_costs(ds, np.column_stack([truth[:-1], truth[1:]]), config).sum()
    assert fit.total_score <= true_score * (1.0 + 1e-9), (fit.total_score, true_score)


def test_exact_fit_at_n5000_holds_no_dense_table():
    # One (n+1) x (n+1) table of floats would take 200 MB at n = 5000; the
    # search keeps only lists of segments, so the fit peaks far below that.
    _, config = table_preset(1)
    spec = ScenarioSpec(
        n=5000, breakpoints=(1500, 3200), coefficient_vectors=REGIME_COEFFICIENTS, seed=0
    )
    ds = generate_scenario(spec)
    tracemalloc.start()
    try:
        fit = optimal_breakpoints(ds, 2, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.breakpoints == (1500, 3200)
    assert peak < 64 * 2**20, peak

    truth = np.array([0, *spec.breakpoints, ds.n])
    true_score = pair_costs(ds, np.column_stack([truth[:-1], truth[1:]]), config).sum()
    two_stage = refit_breakpoints_two_stage(ds, 2, config, grid_step=20).total_score
    for other in (true_score, two_stage):
        assert fit.total_score <= other * (1.0 + 1e-9), (fit.total_score, other)


def test_refit_drift_raises_typed_error():
    # the chosen segments' fits, held to half the total they attain
    spec, config = table_preset(1)
    ds = replication_dataset(spec, 0)
    fit = optimal_breakpoints(ds, 2, config)
    search = _Search(ds, config, effective_min_seg_len(config, None, ds.p))
    with pytest.raises(ConsistencyError, match="drifted"):
        _assemble_fits(search, [fit.breakpoints], [0.5 * fit.total_score])


def test_refit_drift_raises_typed_error_under_optimize_flag():
    src = Path(segmentation.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from segbreak import *\n"
        "from segbreak.segmentation import _Search, _assemble_fits\n"
        "spec, config = table_preset(1)\n"
        "ds = replication_dataset(spec, 0)\n"
        "fit = optimal_breakpoints(ds, 2, config)\n"
        "search = _Search(ds, config, effective_min_seg_len(config, None, ds.p))\n"
        "try:\n"
        "    _assemble_fits(search, [fit.breakpoints], [0.5 * fit.total_score])\n"
        "except ConsistencyError:\n"
        "    print('typed', __debug__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "typed False"
