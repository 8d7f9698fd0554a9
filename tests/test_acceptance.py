"""Acceptance campaign: end-to-end checks with pinned bands and tolerances.

Each test prints one ``CRITERION k: PASS/FAIL`` line with the measured
values, then asserts.  The Monte Carlo campaigns are shared module-scoped
fixtures so every report is computed once.
"""

import itertools
import json
import sys
import time

import numpy as np
import pytest

from segbreak import (
    CriterionConfig,
    Dataset,
    PenaltyConfig,
    build_cost_table,
    kkt_check,
    lasso_cd,
    bridge,
    ols,
    one_break_spec,
    optimal_breakpoints,
    penalized_objective,
    run_monte_carlo,
    sample_limit_law,
    table_preset,
)
from segbreak.cli import main as cli_main
from segbreak.segmentation import _Search, _assemble_fits, _dp_minimize
from segbreak.simulation import REGIME_COEFFICIENTS, default_covariate_means


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    return line


def _first_break_offsets(report) -> list[int]:
    out = []
    for (r, off), count in report.breakpoint_error_histogram.items():
        if r == 1:
            out.extend([off] * count)
    return out


def _iqr(values) -> float:
    lo, hi = np.percentile(values, [25.0, 75.0])
    return float(hi - lo)


@pytest.fixture(scope="module")
def table1_campaign():
    spec, penalty = table_preset(1, g=0.2, rho=0.45)
    start = time.perf_counter()
    report = run_monte_carlo(spec, 200, penalty, fixed_k=2)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def table4_tuned_campaign():
    # the configuration pinned for the n=500 reproduction: g=9/40, rho=2/5
    spec, penalty = table_preset(4, g=0.225, rho=0.4)
    start = time.perf_counter()
    report = run_monte_carlo(spec, 100, penalty, fixed_k=2, grid_step=10)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def table4_shared_campaign():
    # shared-column configuration (g=1/5, rho=9/20) used by the trend,
    # localization, and limit-law checks
    spec, penalty = table_preset(4, g=0.2, rho=0.45)
    report = run_monte_carlo(spec, 200, penalty, fixed_k=2, grid_step=10)
    return report


@pytest.fixture(scope="module")
def table5_campaign():
    spec, penalty = table_preset(5, g=0.2, rho=0.45)
    report = run_monte_carlo(
        spec, 100, penalty, fixed_k=2, grid_step=20, with_standard_errors=True
    )
    return report


@pytest.fixture(scope="module")
def one_break_selection_campaign():
    spec = one_break_spec(n=100, breakpoint=35)
    penalty = PenaltyConfig(family="adaptive", g=0.2, rho=0.45)
    criterion = CriterionConfig(bn_exponent=0.625, complexity="K_only", k_max=3)
    report = run_monte_carlo(spec, 100, penalty, criterion)
    return report


@pytest.fixture(scope="module")
def limit_law_sample():
    return sample_limit_law(
        np.array(REGIME_COEFFICIENTS[0]),
        np.array(REGIME_COEFFICIENTS[1]),
        default_covariate_means(10),
        window=30,
        draws=100_000,
        seed=0,
    )


def test_criterion_1_table1_reproduction(table1_campaign):
    report, seconds = table1_campaign
    medians_ok = report.median_breakpoints == (20, 35)
    true0_ok = 67.0 <= report.pct_true_zero <= 87.0
    false0_ok = 10.0 <= report.pct_false_zero <= 30.0
    time_ok = seconds <= 300.0
    ok = medians_ok and true0_ok and false0_ok and time_ok
    detail = (
        f"medians={report.median_breakpoints}, "
        f"true0={report.pct_true_zero:.1f} (band [67, 87]), "
        f"false0={report.pct_false_zero:.1f} (band [10, 30]), "
        f"{report.replications} reps in {seconds:.0f}s"
    )
    line = _report(1, ok, detail)
    assert ok, line


def test_criterion_2_table4_reproduction(table4_tuned_campaign):
    report, seconds = table4_tuned_campaign
    medians_ok = report.median_breakpoints == (200, 400)
    true0_ok = report.pct_true_zero >= 95.0
    false0_ok = report.pct_false_zero <= 12.0
    time_ok = seconds <= 1800.0
    ok = medians_ok and true0_ok and false0_ok and time_ok
    detail = (
        f"medians={report.median_breakpoints}, "
        f"true0={report.pct_true_zero:.1f} (>= 95), "
        f"false0={report.pct_false_zero:.1f} (<= 12), "
        f"{report.replications} reps in {seconds:.0f}s"
    )
    line = _report(2, ok, detail)
    assert ok, line


def test_criterion_3_sample_size_trend(table4_shared_campaign, table5_campaign):
    t4, t5 = table4_shared_campaign, table5_campaign
    true0_ok = t5.pct_true_zero >= t4.pct_true_zero
    false0_ok = t5.pct_false_zero <= t4.pct_false_zero + 2.0
    ok = true0_ok and false0_ok
    detail = (
        f"true0: n=1500 {t5.pct_true_zero:.1f} vs n=500 {t4.pct_true_zero:.1f}, "
        f"false0: n=1500 {t5.pct_false_zero:.1f} vs n=500 {t4.pct_false_zero:.1f}+2"
    )
    line = _report(3, ok, detail)
    assert ok, line


def test_criterion_4_selection_consistency(one_break_selection_campaign):
    report = one_break_selection_campaign
    counts = report.selected_k_counts
    frac = counts.get(1, 0) / report.completed
    ok = frac >= 0.95
    detail = f"K_hat=1 in {100.0 * frac:.1f}% of {report.completed} reps (>= 95%)"
    line = _report(4, ok, detail)
    assert ok, line


def test_criterion_5_ls_baseline_never_zeroes(
    table1_campaign,
    table4_tuned_campaign,
    table4_shared_campaign,
    table5_campaign,
    one_break_selection_campaign,
):
    reports = {
        "table1": table1_campaign[0],
        "table4": table4_tuned_campaign[0],
        "table4_shared": table4_shared_campaign,
        "table5": table5_campaign,
        "one_break": one_break_selection_campaign,
    }
    values = {name: r.ls_baseline.pct_true_zero for name, r in reports.items()}
    ok = all(v == 0.0 for v in values.values())
    detail = "ls pct_true_zero by campaign: " + ", ".join(
        f"{name}={v:.1f}" for name, v in values.items()
    )
    line = _report(5, ok, detail)
    assert ok, line


def _enumeration_mismatch(trial, name, fit, best_bps, best_total):
    if fit.breakpoints != best_bps:
        return f"trial {trial}: {name}={fit.breakpoints} enum={best_bps}"
    if abs(fit.total_score - best_total) > 1e-9 * max(1.0, abs(best_total)):
        return f"trial {trial}: {name} score {fit.total_score} enum {best_total}"
    return None


def test_criterion_6_dp_matches_enumeration():
    rng = np.random.default_rng(2024)
    families = [
        PenaltyConfig(family="adaptive", g=0.2, rho=0.45),
        PenaltyConfig(family="lasso_type", gamma=1.0, rho=0.45),
        PenaltyConfig(family="lasso_type", gamma=2.0, rho=0.5),
    ]
    start = time.perf_counter()
    checked = 0
    mismatch = None
    for trial in range(500):
        n = int(rng.integers(10, 25))
        p = int(rng.integers(1, 4))
        min_len = int(rng.integers(3, 6))
        k = int(rng.integers(0, 3))
        if (k + 1) * min_len > n:
            k = n // min_len - 1
        config = families[trial % len(families)]
        crit = CriterionConfig(min_seg_len=min_len)
        X = rng.standard_normal((n, p))
        phi = rng.standard_normal(p) * 2.0
        b = n // 2
        y = X @ phi
        y[b:] -= 2.0 * X[b:, 0]
        y += 0.5 * rng.standard_normal(n)
        ds = Dataset(y=y, X=X)

        table = build_cost_table(ds, config, min_len)
        best_total, best_bps = np.inf, None
        for bps in itertools.combinations(range(1, n), k):
            bounds = (0, *bps, n)
            if any(b2 - b1 < min_len for b1, b2 in zip(bounds, bounds[1:])):
                continue
            # fold right to left, mirroring the backward recursion, so that
            # sub-ulp ties resolve on the same floats the search compares
            total = 0.0
            for b1, b2 in reversed(list(zip(bounds, bounds[1:]))):
                total = table[b1, b2] + total
            if total < best_total:
                best_total, best_bps = total, bps

        # the search over the dense table, and the pruned search on its own
        i, j = np.nonzero(np.isfinite(table))
        dp_total, nodes = _dp_minimize(i, j, table[i, j], n + 1, k)
        dense = _assemble_fits(_Search(ds, config, min_len), [nodes], [dp_total])[0]
        mismatch = _enumeration_mismatch(
            trial, "dp", dense, best_bps, best_total,
        ) or _enumeration_mismatch(
            trial, "pruned", optimal_breakpoints(ds, k, config, crit),
            best_bps, best_total,
        )
        if mismatch:
            break
        checked += 1
    seconds = time.perf_counter() - start
    ok = mismatch is None and checked == 500 and seconds <= 120.0
    detail = (
        f"{checked}/500 random instances agree with the dense and the pruned "
        f"search, {seconds:.0f}s (<= 120s)"
    )
    if mismatch:
        detail += f"; first mismatch: {mismatch}"
    line = _report(6, ok, detail)
    assert ok, line


def test_criterion_7_solver_correctness():
    rng = np.random.default_rng(7)
    kkt_failures = 0
    for _ in range(40):
        m = int(rng.integers(12, 60))
        p = int(rng.integers(2, 8))
        X = rng.standard_normal((m, p))
        y = X @ (rng.standard_normal(p) * 2.0) + rng.standard_normal(m)
        lam = float(m) ** 0.45
        weights = None
        if rng.random() < 0.5 and m > p:
            weights = np.abs(ols(X, y)) ** -0.2
        fit = lasso_cd(X, y, lam, weights=weights)
        if not kkt_check(fit, X, y, lam, weights=weights).passed:
            kkt_failures += 1

    def grid_zoom(obj, lo, hi):
        for _ in range(6):
            xs = np.linspace(lo, hi, 2001)
            vals = np.array([obj(x) for x in xs])
            i = int(np.argmin(vals))
            step = xs[1] - xs[0]
            lo, hi = xs[i] - step, xs[i] + step
        return 0.5 * (lo + hi)

    worst_obj_gap = 0.0
    for gamma in (1.0, 0.5, 1.5, 3.0):
        for seed in (1, 2, 3):
            g = np.random.default_rng(100 * seed + int(10 * gamma))
            x = g.standard_normal((30, 1))
            y = 1.5 * x[:, 0] + 0.5 * g.standard_normal(30)
            lam = 4.0

            def obj(v):
                return penalized_objective(x, y, np.array([v]), lam, gamma=gamma)

            oracle_obj = obj(grid_zoom(obj, -4.0, 4.0))
            if gamma == 1.0:
                fit = lasso_cd(x, y, lam)
            else:
                fit = bridge(x, y, lam, gamma)
            gap = abs(fit.penalized_cost - oracle_obj) / (1.0 + abs(oracle_obj))
            worst_obj_gap = max(worst_obj_gap, gap)

    worst_ortho = 0.0
    for seed in (11, 12, 13):
        g = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(g.standard_normal((50, 6)))
        y = g.standard_normal(50)
        lam = 0.9
        w = np.abs(g.standard_normal(6)) + 0.2
        z = Q.T @ y
        closed = np.sign(z) * np.maximum(np.abs(z) - lam * w / 2.0, 0.0)
        fit = lasso_cd(Q, y, lam, weights=w)
        worst_ortho = max(worst_ortho, float(np.abs(fit.coefficients - closed).max()))

    ok = kkt_failures == 0 and worst_obj_gap <= 1e-4 and worst_ortho <= 1e-8
    detail = (
        f"kkt failures {kkt_failures}/40, worst 1-d objective gap "
        f"{worst_obj_gap:.2e} (<= 1e-4), worst orthonormal deviation "
        f"{worst_ortho:.2e} (<= 1e-8)"
    )
    line = _report(7, ok, detail)
    assert ok, line


def test_criterion_8_localization_stability(table4_shared_campaign, table5_campaign):
    iqr4 = _iqr(_first_break_offsets(table4_shared_campaign))
    iqr5 = _iqr(_first_break_offsets(table5_campaign))
    ok = iqr5 <= iqr4 + 2.0
    detail = f"IQR(l1_hat - 200): n=1500 {iqr5:.1f} vs n=500 {iqr4:.1f}+2"
    line = _report(8, ok, detail)
    assert ok, line


def test_criterion_9_limit_law_cross_validation(
    table4_shared_campaign, limit_law_sample
):
    report = table4_shared_campaign
    offsets = _first_break_offsets(report)
    n_emp = len(offsets)
    emp = {}
    for off in offsets:
        emp[off] = emp.get(off, 0) + 1
    law = limit_law_sample.probabilities
    support = set(law) | set(emp)
    tv = 0.5 * sum(
        abs(law.get(j, 0.0) - emp.get(j, 0) / n_emp) for j in support
    )
    core = (-1, 0, 1)
    law_core = sum(law.get(j, 0.0) for j in core)
    emp_core = sum(emp.get(j, 0) for j in core) / n_emp
    ok = tv <= 0.15 and law_core >= 0.5 and emp_core >= 0.5 and n_emp >= 200
    detail = (
        f"TV={tv:.3f} (<= 0.15), mass on {{-1,0,1}}: limit {law_core:.2f}, "
        f"empirical {emp_core:.2f} (both >= 0.5), {n_emp} reps"
    )
    line = _report(9, ok, detail)
    assert ok, line


def test_criterion_10_coverage(table5_campaign):
    report = table5_campaign
    rate = report.coverage_hits / report.coverage_total
    ok = 0.90 <= rate <= 0.99
    detail = (
        f"95% interval coverage {rate:.3f} over {report.coverage_total} "
        f"true nonzero coefficients (band [0.90, 0.99])"
    )
    line = _report(10, ok, detail)
    assert ok, line


def test_criterion_11_worker_determinism(tmp_path):
    scenario = {
        "n": 60,
        "breakpoints": [30],
        "coefficients": [list(REGIME_COEFFICIENTS[0]), list(REGIME_COEFFICIENTS[2])],
        "error_std": 1.0,
        "seed": 12,
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    blobs = []
    for workers in (1, 4, 8):
        out_path = tmp_path / f"report_w{workers}.json"
        code = cli_main(
            [
                "simulate", "--scenario", str(scenario_path), "--reps", "8",
                "--workers", str(workers), "--out", str(out_path),
            ]
        )
        assert code == 0
        blobs.append(out_path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    detail = f"reports byte-identical across workers {{1, 4, 8}}: {ok}"
    line = _report(11, ok, detail)
    assert ok, line
