"""Scenario generation, Monte Carlo aggregation, and the limit-law sampler."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from segbreak import (
    CriterionConfig,
    Dataset,
    ErrorSpec,
    InfeasiblePartitionError,
    LimitLawSample,
    MonteCarloReport,
    PenaltyConfig,
    ScenarioSpec,
    TooManyFailuresError,
    WindowTooSmallWarning,
    default_covariate_means,
    generate_scenario,
    one_break_spec,
    replication_dataset,
    run_monte_carlo,
    sample_limit_law,
    table_preset,
    write_dataset,
)
from segbreak.cli import _read_matrix
from segbreak import segmentation, simulation
from segbreak.segmentation import _assemble_fits
from segbreak.simulation import REGIME_COEFFICIENTS, TABLE_LAYOUTS, _lower_median, _replicate


def _small_spec(n=60, b=30, seed=0):
    return one_break_spec(n=n, breakpoint=b, seed=seed)


class TestDefaults:
    def test_study_means(self):
        np.testing.assert_array_equal(
            default_covariate_means(10),
            [0.0, 0.0, 2.0, 4.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        )

    def test_truncated_means(self):
        np.testing.assert_array_equal(default_covariate_means(3), [0.0, 0.0, 2.0])

    def test_regime_sparsity(self):
        coef = np.array(REGIME_COEFFICIENTS)
        assert coef.shape == (3, 10)
        assert int(np.count_nonzero(coef == 0.0)) == 12
        assert int(np.count_nonzero(coef)) == 18


class TestErrorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorSpec(family="laplace")
        with pytest.raises(ValueError):
            ErrorSpec(std=-1.0)
        with pytest.raises(ValueError):
            ErrorSpec(family="student_t", df=2.0)
        with pytest.raises(ValueError):
            ErrorSpec(family="student_t")  # df required

    @pytest.mark.parametrize(
        "field, value",
        [("std", np.nan), ("std", np.inf), ("df", np.nan), ("df", np.inf)],
        ids=["std-nan", "std-inf", "df-nan", "df-inf"],
    )
    @pytest.mark.parametrize("family", ["gaussian", "student_t"])
    def test_non_finite_values_rejected(self, family, field, value):
        # a NaN std made every error NaN, and sample_limit_law then put all
        # of its draws at the first offset of the window, with no escapes
        values = {"df": 5.0, field: value}
        with pytest.raises(ValueError, match=repr(field)):
            ErrorSpec(family=family, **values)

    @pytest.mark.parametrize(
        "spec",
        [
            ErrorSpec(family="gaussian", std=1.5),
            ErrorSpec(family="uniform", std=2.0),
            ErrorSpec(family="student_t", std=0.8, df=5.0),
        ],
        ids=["gaussian", "uniform", "student_t"],
    )
    def test_std_scaling(self, spec):
        rng = np.random.default_rng(0)
        draws = spec.draw(rng, 200_000)
        assert np.std(draws) == pytest.approx(spec.std, rel=0.02)
        assert np.mean(draws) == pytest.approx(0.0, abs=4 * spec.std / np.sqrt(200_000))


class TestScenarioSpec:
    def test_regime_count_must_match_breaks(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n=50, breakpoints=(20,), coefficient_vectors=[[1.0, 2.0]])

    def test_breakpoints_must_partition(self):
        coef = [[1.0], [2.0]]
        with pytest.raises(ValueError):
            ScenarioSpec(n=50, breakpoints=(0,), coefficient_vectors=coef)
        with pytest.raises(ValueError):
            ScenarioSpec(n=50, breakpoints=(50,), coefficient_vectors=coef)

    def test_means_shape_checked(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                n=50,
                breakpoints=(),
                coefficient_vectors=[[1.0, 2.0]],
                covariate_means=[0.0],
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n=50, breakpoints=(), coefficient_vectors=[[1.0]], seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("error_std", np.nan), ("error_std", np.inf), ("coefficient_vectors", [[np.nan, 1.0]]),
         ("covariate_means", [np.inf, 0.0]), ("coefficient_vectors", [[]])],
        ids=["error-std-nan", "error-std-inf", "coefficient-nan", "mean-inf", "no-coefficients"],
    )
    def test_non_finite_or_empty_values_rejected(self, field, value):
        # each of these would fail every replication of a Monte Carlo run
        values = {"coefficient_vectors": [[1.0, 2.0]], field: value}
        with pytest.raises(ValueError, match=repr(field)):
            ScenarioSpec(n=50, breakpoints=(), **values)

    @pytest.mark.parametrize(
        "field, values",
        [("n", {"n": 50.7}), ("n", {"n": "50"}), ("n", {"n": True}),
         ("breakpoints", {"breakpoints": (20.9, 35)}), ("breakpoints", {"breakpoints": 20}),
         ("breakpoints", {"breakpoints": "20"}), ("breakpoints", {"breakpoints": (True, 35)}),
         ("seed", {"seed": 1.5}), ("seed", {"seed": "1"}), ("seed", {"seed": None}),
         ("error_std", {"error_std": "x"}), ("error_std", {"error_std": None}),
         ("error_df", {"error_df": "x"})],
        ids=["n-fraction", "n-string", "n-bool", "breakpoint-fraction", "breakpoints-scalar",
             "breakpoints-string", "breakpoint-bool", "seed-fraction", "seed-string",
             "seed-none", "error-std-string", "error-std-none", "error-df-string"],
    )
    def test_value_of_wrong_type_rejected(self, field, values):
        # these were truncated (50.7 to 50), kept (seed 1.5, n '50') or
        # failed with a bare TypeError
        spec = {"n": 50, "breakpoints": (20, 35), "coefficient_vectors": [[1.0], [2.0], [3.0]]}
        with pytest.raises(ValueError, match=repr(field)):
            ScenarioSpec(**{**spec, **values})

    def test_integral_floats_accepted(self):
        spec = ScenarioSpec(
            n=50.0, breakpoints=(20.0, np.int64(35)), coefficient_vectors=[[1.0], [2.0], [3.0]],
            seed=np.float64(3.0), error_std=2, error_df=None,
        )
        assert (spec.n, spec.breakpoints, spec.seed) == (50, (20, 35), 3)
        assert all(type(v) is int for v in (spec.n, *spec.breakpoints, spec.seed))

    def test_identical_adjacent_regimes_rejected(self):
        # this used to raise only when the first replication was drawn,
        # after any worker pool had started
        coef = [[1.0, 2.0], [1.0, 2.0], [0.0, 2.0]]
        with pytest.raises(ValueError, match="'coefficient_vectors' rows 0 and 1"):
            ScenarioSpec(n=50, breakpoints=(20, 35), coefficient_vectors=coef)
        ScenarioSpec(n=50, breakpoints=(20, 35), coefficient_vectors=[[1.0, 2.0], [0.0, 2.0], [1.0, 2.0]])

    def test_error_spec_passthrough(self):
        spec = ScenarioSpec(
            n=50,
            breakpoints=(),
            coefficient_vectors=[[1.0]],
            error_family="student_t",
            error_std=2.0,
            error_df=6.0,
        )
        err = spec.error_spec()
        assert (err.family, err.std, err.df) == ("student_t", 2.0, 6.0)


class TestGenerateScenario:
    def test_deterministic_per_seed(self):
        spec = _small_spec(seed=3)
        a, b = generate_scenario(spec), generate_scenario(spec)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.X, b.X)

    def test_seed_changes_draw(self):
        a = generate_scenario(_small_spec(seed=3))
        b = generate_scenario(_small_spec(seed=4))
        assert not np.array_equal(a.y, b.y)

    def test_truth_attached(self):
        ds = generate_scenario(_small_spec())
        assert ds.truth is not None
        assert ds.truth.breakpoints == (30,)
        assert ds.truth.noise.shape == (60,)

    def test_noiseless_response_on_plane(self):
        spec = ScenarioSpec(
            n=80,
            breakpoints=(40,),
            coefficient_vectors=(REGIME_COEFFICIENTS[0], REGIME_COEFFICIENTS[1]),
            error_std=0.0,
        )
        ds = generate_scenario(spec)
        rss = 0.0
        for (a, b), coef in zip(((0, 40), (40, 80)), spec.coefficient_vectors):
            r = ds.y[a:b] - ds.X[a:b] @ coef
            rss += float(r @ r)
        assert rss <= 1e-18 * spec.n

    def test_law_of_large_numbers(self):
        spec = ScenarioSpec(
            n=100_000, breakpoints=(), coefficient_vectors=[[1.0, 0.0, 2.0]]
        )
        ds = generate_scenario(spec)
        tol = 4.0 / np.sqrt(spec.n)
        np.testing.assert_allclose(ds.X.mean(axis=0), [0.0, 0.0, 2.0], atol=tol)
        np.testing.assert_allclose(ds.X.std(axis=0), [1.0, 1.0, 1.0], atol=tol)
        resid = ds.y - ds.X @ [1.0, 0.0, 2.0]
        assert np.std(resid) == pytest.approx(1.0, abs=tol)


class TestReplicationDataset:
    def test_replications_distinct(self):
        spec = _small_spec(seed=7)
        a = replication_dataset(spec, 0)
        b = replication_dataset(spec, 1)
        assert not np.array_equal(a.y, b.y)

    def test_replication_deterministic(self):
        spec = _small_spec(seed=7)
        a = replication_dataset(spec, 5)
        b = replication_dataset(spec, 5)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.X, b.X)

    def test_spawn_key_differs_from_root_stream(self):
        spec = _small_spec(seed=7)
        root = generate_scenario(spec)
        rep0 = replication_dataset(spec, 0)
        assert not np.array_equal(root.y, rep0.y)


class TestRunMonteCarlo:
    def test_small_campaign_metrics(self):
        spec = _small_spec(n=60, b=30, seed=11)
        report = run_monte_carlo(spec, 4, PenaltyConfig(), fixed_k=1)
        assert isinstance(report, MonteCarloReport)
        assert report.replications == 4
        assert report.completed == 4
        assert report.failures == 0
        assert report.metric_replications == 4
        assert report.true_zero_count == 9
        assert report.true_nonzero_count == 11
        assert 0.0 <= report.pct_true_zero <= 100.0
        assert 0.0 <= report.pct_false_zero <= 100.0
        assert report.median_breakpoints == (30,)
        assert sum(report.breakpoint_error_histogram.values()) == 4
        assert report.truth_dominated
        assert report.selected_k_counts is None
        assert report.coverage_hits is None

    def test_worker_count_does_not_change_results(self):
        spec = _small_spec(n=60, b=30, seed=13)
        serial = run_monte_carlo(spec, 4, PenaltyConfig(), fixed_k=1, workers=1)
        parallel = run_monte_carlo(spec, 4, PenaltyConfig(), fixed_k=1, workers=2)
        assert dataclasses.asdict(serial) == dataclasses.asdict(parallel)

    def test_selection_mode_counts_k(self):
        spec = _small_spec(n=60, b=30, seed=17)
        report = run_monte_carlo(
            spec, 3, PenaltyConfig(), CriterionConfig(k_max=2)
        )
        assert report.selected_k_counts is not None
        assert sum(report.selected_k_counts.values()) == report.completed

    def test_coverage_fields_populated(self):
        spec = _small_spec(n=60, b=30, seed=19)
        report = run_monte_carlo(
            spec, 3, PenaltyConfig(), fixed_k=1, with_standard_errors=True
        )
        assert report.coverage_total > 0
        assert 0 <= report.coverage_hits <= report.coverage_total

    def test_infeasible_fixed_k_raises_upfront(self):
        spec = _small_spec(n=30, b=15)
        with pytest.raises(InfeasiblePartitionError):
            run_monte_carlo(spec, 2, PenaltyConfig(), fixed_k=2)

    def test_too_many_failures(self):
        spec = _small_spec(n=60, b=30, seed=23)
        strangled = PenaltyConfig(cd_max_iterations=1)
        with pytest.raises(TooManyFailuresError):
            run_monte_carlo(spec, 3, strangled, fixed_k=1)

    def test_exact_fit_worse_than_truth_counts_as_failure(self, monkeypatch):
        def misplaced(search, k, grid_step):
            return _assemble_fits(search, [(10,)], [None])[0]

        monkeypatch.setattr(simulation, "_two_stage_fit", misplaced)
        spec, penalty = _small_spec(n=60, b=30, seed=23), PenaltyConfig()
        out = _replicate((spec, 0, penalty, None, 1, None, False, 1.96))
        assert out.failed
        assert out.message.startswith("ConsistencyError: exact search score")

    @pytest.mark.parametrize("grid_step", [None, 5], ids=["exact", "grid-5"])
    def test_fixed_k_replication_builds_one_search(self, monkeypatch, grid_step):
        # the fit and the score of the true breakpoints share one record,
        # so the cumulative statistics are built once
        built = []
        original = segmentation._cumulative_stats

        def counting(dataset):
            built.append(dataset.n)
            return original(dataset)

        monkeypatch.setattr(segmentation, "_cumulative_stats", counting)
        spec, penalty = table_preset(1)
        out = _replicate((spec, 0, penalty, None, 2, grid_step, False, 1.96))
        assert not out.failed and out.comparable
        assert built == [spec.n]

    @pytest.mark.parametrize("fixed_k", [1, None], ids=["fixed-k", "select"])
    def test_grid_step_checked_before_any_replication(self, monkeypatch, fixed_k):
        drawn = []
        original = simulation.replication_dataset

        def recording(spec, rep):
            drawn.append(rep)
            return original(spec, rep)

        monkeypatch.setattr(simulation, "replication_dataset", recording)
        with pytest.raises(ValueError, match="^grid_step must be >= 1$"):
            run_monte_carlo(_small_spec(), 2, PenaltyConfig(), CriterionConfig(),
                            fixed_k=fixed_k, grid_step=0)
        assert drawn == []

    def test_selection_requires_criterion(self):
        spec = _small_spec()
        with pytest.raises(ValueError):
            run_monte_carlo(spec, 2, PenaltyConfig())

    def test_replication_count_validated(self):
        spec = _small_spec()
        with pytest.raises(ValueError):
            run_monte_carlo(spec, 0, PenaltyConfig(), fixed_k=1)


class TestLowerMedian:
    def test_odd_count(self):
        assert _lower_median([3, 1, 2]) == 2

    def test_even_count_takes_lower(self):
        assert _lower_median([1, 2, 3, 4]) == 2

    def test_singleton(self):
        assert _lower_median([5]) == 5


def _whole_array_limit_law(phi_left, phi_right, means, error, window, draws, seed):
    """Reference: the sampler drawing each half-chunk's covariates as one
    chunk x window x p array, in the same generator order."""
    d_pos = phi_left - phi_right
    p = phi_left.shape[0]
    col_offsets = np.empty(2 * window + 1, dtype=np.int64)
    col_offsets[0] = 0
    col_offsets[1::2] = -np.arange(1, window + 1)
    col_offsets[2::2] = np.arange(1, window + 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = np.zeros(2 * window + 1, dtype=np.int64)
    z_sum = np.zeros(2 * window + 1)
    done = 0
    while done < draws:
        c = min(simulation._LIMIT_CHUNK, draws - done)
        vals = np.zeros((c, 2 * window + 1))
        for cols, diff in ((slice(2, None, 2), d_pos), (slice(1, None, 2), -d_pos)):
            X = rng.standard_normal((c, window, p)) + means
            e = error.draw(rng, (c, window))
            steps = (e - X @ diff) ** 2 - e**2
            vals[:, cols] = np.cumsum(steps, axis=1)
        counts += np.bincount(np.argmin(vals, axis=1), minlength=2 * window + 1)
        z_sum += vals.sum(axis=0)
        done += c
    order = np.argsort(col_offsets)
    return (
        {int(col_offsets[i]): int(counts[i]) for i in order},
        {int(col_offsets[i]): counts[i] / draws for i in order},
        int(counts[2 * window - 1] + counts[2 * window]) / draws,
        {int(col_offsets[i]): z_sum[i] / draws for i in order},
    )


class TestSampleLimitLaw:
    def _sample(self, **kw):
        args = dict(
            phi_left=np.array(REGIME_COEFFICIENTS[0]),
            phi_right=np.array(REGIME_COEFFICIENTS[1]),
            covariate_means=default_covariate_means(10),
            window=10,
            draws=4000,
            seed=0,
        )
        args.update(kw)
        return sample_limit_law(**args)

    def test_distribution_normalized(self):
        s = self._sample()
        assert isinstance(s, LimitLawSample)
        assert sum(s.counts.values()) == s.draws
        assert abs(sum(s.probabilities.values()) - 1.0) <= 1e-12
        assert set(s.counts) == set(range(-10, 11))

    def test_escape_rate_matches_edge_mass(self):
        s = self._sample()
        assert s.escape_rate == (s.counts[-10] + s.counts[10]) / s.draws

    def test_deterministic_per_seed(self):
        a, b = self._sample(seed=3), self._sample(seed=3)
        assert a.counts == b.counts
        assert a.z_mean == b.z_mean
        c = self._sample(seed=4)
        assert a.counts != c.counts

    def test_positive_drift_away_from_origin(self):
        s = self._sample(draws=8000)
        assert s.z_mean[0] == 0.0
        for j in (-5, -1, 1, 5):
            assert s.z_mean[j] > 0.0

    def test_huge_separation_concentrates_at_zero(self):
        s = self._sample(
            phi_left=100.0 * np.array(REGIME_COEFFICIENTS[0]),
            phi_right=100.0 * np.array(REGIME_COEFFICIENTS[1]),
            draws=2000,
        )
        assert s.probabilities[0] >= 0.999
        assert s.escape_rate == 0.0

    def test_small_separation_warns(self):
        p = 10
        left = np.zeros(p)
        right = np.full(p, 0.02)
        with pytest.warns(WindowTooSmallWarning):
            s = sample_limit_law(
                left, right, np.zeros(p), window=3, draws=2000, seed=0
            )
        assert s.escape_rate > 0.01

    def test_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            self._sample(window=0)
        with pytest.raises(ValueError):
            self._sample(draws=0)
        with pytest.raises(ValueError):
            sample_limit_law(np.zeros(3), np.zeros(2), np.zeros(3))
        # a NaN or infinite input used to return every draw at offset -1
        bad = np.array(REGIME_COEFFICIENTS[0])
        bad[4] = np.nan
        with pytest.raises(ValueError, match="'phi_left' must be finite"):
            self._sample(phi_left=bad)
        with pytest.raises(ValueError, match="'phi_right' must be finite"):
            self._sample(phi_right=-bad)
        means = default_covariate_means(10)
        means[2] = np.inf
        with pytest.raises(ValueError, match="'covariate_means' must be finite"):
            self._sample(covariate_means=means)
        # equal 2-D shapes used to reach numpy's broadcasting error
        with pytest.raises(ValueError, match="'phi_left' must be 1-D"):
            sample_limit_law(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="'covariate_means' must be 1-D"):
            sample_limit_law(np.zeros(3), np.ones(3), np.zeros((1, 3)))
        # a float count used to fail only after the first 20,000 draws
        monkeypatch.setattr(
            np.random, "default_rng", lambda *a: pytest.fail("drew before validating")
        )
        with pytest.raises(TypeError):
            self._sample(draws=25000.0)

    @pytest.mark.parametrize("p", [3, 10])
    @pytest.mark.parametrize(
        "error",
        [ErrorSpec(), ErrorSpec(family="uniform"), ErrorSpec(family="student_t", df=5.0)],
        ids=["gaussian", "uniform", "student_t"],
    )
    def test_stream_matches_whole_array_reference(self, error, p):
        left = np.array(REGIME_COEFFICIENTS[0][:p])
        right = np.array(REGIME_COEFFICIENTS[1][:p])
        means = default_covariate_means(p)
        for window, draws in (
            (1, 1), (1, 45001), (5, 999), (5, 45001), (30, 1), (30, 999), (30, 20000)
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WindowTooSmallWarning)
                s = sample_limit_law(
                    left, right, means, error, window=window, draws=draws, seed=7
                )
            counts, probabilities, escape_rate, z_mean = _whole_array_limit_law(
                left, right, means, error, window, draws, seed=7
            )
            case = (window, draws)
            assert s.counts == counts, case
            assert s.probabilities == probabilities, case
            assert s.escape_rate == escape_rate, case
            assert list(s.z_mean) == list(z_mean), case
            assert np.array(list(s.z_mean.values())).tobytes() == (
                np.array(list(z_mean.values())).tobytes()
            ), case

    def test_memory_independent_of_chunk_covariates(self):
        # the whole-array loop peaked at 156.6 MiB here: three
        # chunk x window x p arrays of 48 MB each
        tracemalloc.start()
        try:
            self._sample(window=30, draws=20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


def _write_row_by_row(dataset, path, delimiter=" "):
    """Each row's values rendered one by one, a line written per row."""
    with open(path, "w") as fh:
        for i in range(dataset.n):
            row = (dataset.y[i], *dataset.X[i])
            fh.write(delimiter.join(repr(float(v)) for v in row) + "\n")


class TestWriteDataset:
    def test_round_trip_exact(self, tmp_path):
        ds = generate_scenario(_small_spec(n=25, b=12, seed=29))
        path = tmp_path / "data.txt"
        write_dataset(ds, path)
        mat = _read_matrix(str(path), header=False, delimiter=None)
        np.testing.assert_array_equal(mat[:, 0], ds.y)
        np.testing.assert_array_equal(mat[:, 1:], ds.X)

    @pytest.mark.parametrize("delimiter", [" ", ","])
    @pytest.mark.parametrize(
        "y, X",
        [
            ([-0.0, 5e-324, 1e308], [[1e308, -0.0], [0.1, -5e-324], [1.0, 2.5]]),
            ([-0.0], [[5e-324]]),
            ([1.0, -1e308, 0.3], [[-0.0], [7.0], [1e-300]]),
        ],
        ids=["edge-values", "n1-p1", "p1"],
    )
    def test_bytes_equal_row_by_row_writer(self, tmp_path, y, X, delimiter):
        ds = Dataset(y=y, X=X)
        write_dataset(ds, tmp_path / "new.txt", delimiter)
        _write_row_by_row(ds, tmp_path / "old.txt", delimiter)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

    def test_preset_bytes_equal_row_by_row_writer(self, tmp_path):
        ds = replication_dataset(table_preset(5, seed=0)[0], 0)
        write_dataset(ds, tmp_path / "new.txt")
        _write_row_by_row(ds, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


class TestPresets:
    def test_layouts(self):
        assert TABLE_LAYOUTS == {
            1: (50, (20, 35)),
            2: (100, (20, 85)),
            3: (400, (20, 385)),
            4: (500, (200, 400)),
            5: (1500, (200, 400)),
        }

    def test_table_preset_contents(self):
        spec, penalty = table_preset(4, g=0.225, rho=0.4, seed=9)
        assert (spec.n, spec.breakpoints) == (500, (200, 400))
        assert spec.seed == 9
        np.testing.assert_array_equal(
            spec.coefficient_vectors, np.array(REGIME_COEFFICIENTS)
        )
        assert penalty.family == "adaptive"
        assert (penalty.g, penalty.rho) == (0.225, 0.4)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            table_preset(6)

    def test_one_break_spec(self):
        spec = one_break_spec(n=120, breakpoint=50, seed=2)
        assert (spec.n, spec.breakpoints, spec.seed) == (120, (50,), 2)
        np.testing.assert_array_equal(spec.coefficient_vectors[0], REGIME_COEFFICIENTS[0])
        np.testing.assert_array_equal(spec.coefficient_vectors[1], REGIME_COEFFICIENTS[2])
