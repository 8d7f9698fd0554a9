"""Workloads: their inputs, one timed round each, and the output checks.

Every input comes from ``table_preset`` / ``replication_dataset`` under the
benchmark seed, and the program sees only the files written here and its
argv.  A round is what the timed loop repeats:

* fit workloads: one ``segbreak fit`` call (``cli.main``) on one input file;
* simulate workloads: one ``segbreak simulate`` call followed by one
  ``sample_limit_law`` draw for the breakpoint between the first two
  regimes.  Each replication's ``select_k`` call inside the study is timed
  too, in the pool workers as well (see ``timing_replications``).

The loop takes the pool's inputs in order and cycles only when the time
outlasts the pool.  Per-input cost varies (one n=50 replication takes
0.07-0.5 s, and one that does not converge about a second more), so a run
averages over many distinct inputs rather than repeating a few.
"""

from __future__ import annotations

import functools
import glob
import json
import math
import os
import traceback
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from segbreak import cli, segmentation, simulation, solvers
from segbreak.errors import (
    AdaptiveUnavailableError,
    EmptySegmentError,
    WindowTooSmallWarning,
)
from segbreak.model import Dataset, segment_ranges

REFERENCE_PATH = Path(__file__).with_name("reference.json")

K = 2  # breakpoints requested by every fit workload
REL_TOL = 1e-9
KKT_TOL = 1e-6
TWO_STAGE_GRID = 20
LIMIT_WINDOW = 30
MAX_ESCAPE = 0.01


@dataclass(frozen=True)
class Workload:
    """One named workload.  ``reps > 0`` makes it a simulate workload."""

    name: str
    layout: int  # table_preset layout: 1..5
    pool: int  # distinct inputs the timed loop takes in turn
    grid_step: int | None = None
    reps: int = 0
    workers: int = 1
    draws: int = 0

    @property
    def simulate(self) -> bool:
        return self.reps > 0


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
# A few in a thousand n=50 replications stop at the 10,000-sweep limit.
# simulate excludes up to 10% failures and exits with code 4 above that,
# so a call of 16 replications fails whenever two of them do.  32
# replications per call need four failures for that, while the excluded
# failures still cost time and are reported.  Calls of 32 rather than 64
# replications fill the timed phase more evenly.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-n500", layout=4, pool=6),
        Workload("two-stage-n1500", layout=5, pool=32, grid_step=TWO_STAGE_GRID),
        Workload("mc-select-n50", layout=1, pool=32, reps=32, workers=2, draws=20000),
    )
}


@dataclass
class FitInput:
    index: int
    path: str
    dataset: Dataset
    bounds: dict[str, float] | None = None  # upper bounds on the exact score


@dataclass
class SimulateInput:
    index: int
    seed: int


def penalty_for(workload: Workload):
    return simulation.table_preset(workload.layout)[1]


def make_inputs(workload: Workload, seed: int, workdir, write: bool = True):
    """The workload's input pool under ``seed``; fit inputs are written as
    text files into ``workdir`` when ``write`` is set."""
    if workload.simulate:
        seeds = np.random.SeedSequence(seed).generate_state(workload.pool)
        return [SimulateInput(i, int(s)) for i, s in enumerate(seeds)]
    spec, _ = simulation.table_preset(workload.layout, seed=seed)
    inputs = []
    for i in range(workload.pool):
        dataset = simulation.replication_dataset(spec, i)
        path = os.path.join(workdir, f"input-{i}.txt")
        if write:
            simulation.write_dataset(dataset, path)
        inputs.append(FitInput(i, path, dataset))
    return inputs


def cli_argv(workload: Workload, inp, out_path: str, workers: int) -> list[str]:
    if workload.simulate:
        return [
            "simulate", "--table", str(workload.layout), "--select",
            "--reps", str(workload.reps), "--seed", str(inp.seed),
            "--workers", str(workers), "--out", out_path,
        ]
    argv = ["fit", inp.path, "--k", str(K), "--out", out_path]
    if workload.grid_step is not None:
        argv += ["--grid-step", str(workload.grid_step)]
    return argv


@dataclass
class Round:
    """Timings and outputs of one round."""

    call_s: float = 0.0
    law_s: float = 0.0
    op_s: list[float] = field(default_factory=list)  # per replication
    rc: int | None = None
    doc: dict | None = None
    law: object = None
    call_error: str = ""
    law_error: str = ""

    @property
    def seconds(self) -> float:
        return self.call_s + self.law_s


@contextmanager
def timing_replications(directory):
    """Time every ``select_k`` call made through ``simulation`` while active.

    ``run_monte_carlo`` calls it once per replication, in this process or
    in pool workers forked inside the call, which inherit the patch.  Each
    process appends its durations to its own file in ``directory``;
    ``read_replication_times`` collects and removes them.  A failing
    replication is timed as well.
    """
    original = simulation.select_k

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds = perf_counter() - t0
            path = os.path.join(directory, f"op-times-{os.getpid()}.txt")
            with open(path, "a") as fh:
                fh.write(f"{seconds!r}\n")

    simulation.select_k = timed
    try:
        yield
    finally:
        simulation.select_k = original


def read_replication_times(directory) -> list[float]:
    times = []
    for path in sorted(glob.glob(os.path.join(directory, "op-times-*.txt"))):
        with open(path) as fh:
            times += [float(line) for line in fh]
        os.remove(path)
    return times


def run_round(workload: Workload, inp, workdir, workers: int) -> Round:
    """Run one round; only the program calls are inside the timings.

    ``cli.main`` and ``simulation.sample_limit_law`` are looked up at call
    time so that a tracer's patches apply.
    """
    rnd = Round()
    out_path = os.path.join(workdir, "report.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = cli_argv(workload, inp, out_path, workers)
    with timing_replications(workdir) if workload.simulate else nullcontext():
        t0 = perf_counter()
        try:
            rnd.rc = cli.main(argv)
        except Exception:  # counted as a failed output, never fatal to the run
            rnd.call_error = "cli raised:\n" + traceback.format_exc()
        rnd.call_s = perf_counter() - t0
    rnd.op_s = read_replication_times(workdir) if workload.simulate else [rnd.call_s]
    if workload.draws:
        left, right = simulation.REGIME_COEFFICIENTS[:2]
        means = simulation.default_covariate_means(len(left))
        t0 = perf_counter()
        try:
            with warnings.catch_warnings():
                # escape above 1% is counted by check_limit_law
                warnings.simplefilter("ignore", WindowTooSmallWarning)
                rnd.law = simulation.sample_limit_law(
                    left, right, means, window=LIMIT_WINDOW,
                    draws=workload.draws, seed=inp.seed,
                )
        except Exception:
            rnd.law_error = "sample_limit_law raised:\n" + traceback.format_exc()
        rnd.law_s = perf_counter() - t0
    if rnd.rc == 0:
        with open(out_path) as fh:
            rnd.doc = json.load(fh)
    return rnd


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output passes


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _not_above(score: float, bound: float) -> bool:
    return score <= bound * (1.0 + REL_TOL) + REL_TOL


def exact_bounds(inp: FitInput, penalty) -> dict[str, float]:
    """Scores the exact search must not exceed: the true breakpoints' score
    from ``segment_cost`` and the two-stage search's score on the same data."""
    if inp.bounds is None:
        ds = inp.dataset
        truth = segment_ranges(ds.truth.breakpoints, ds.n)
        inp.bounds = {
            "true-breakpoint score": math.fsum(
                segmentation.segment_cost(ds, r, penalty).penalized_cost for r in truth
            ),
            "two-stage score": segmentation.refit_breakpoints_two_stage(
                ds, K, penalty, grid_step=TWO_STAGE_GRID
            ).total_score,
        }
    return inp.bounds


def check_fit(doc: dict, dataset: Dataset, penalty, k: int, bounds=None) -> list[str]:
    """Check a ``segbreak fit`` report against the data it was fitted on.

    ``total_score`` must equal the summed segment costs, each segment's
    cost must be its objective at the reported coefficients, and each
    segment must pass ``kkt_check`` at 1e-6 with its own adaptive weights.
    ``bounds`` (exact search only) are scores the report may not exceed.
    """
    res = doc["results"]
    problems = []
    breakpoints = tuple(res["breakpoints"])
    if len(breakpoints) != k:
        return [f"{len(breakpoints)} breakpoints reported, {k} requested"]
    try:
        ranges = segment_ranges(breakpoints, dataset.n)
    except EmptySegmentError as exc:
        return [f"breakpoints {breakpoints} do not partition the sample: {exc}"]
    segments = res["segments"]
    if len(segments) != len(ranges):
        return [f"{len(segments)} segments reported for {len(ranges)} ranges"]
    total = res["total_score"]
    summed = math.fsum(seg["penalized_cost"] for seg in segments)
    if not _close(total, summed):
        problems.append(f"total_score {total!r} != summed segment costs {summed!r}")
    for rng, seg in zip(ranges, segments):
        label = f"segment ({rng.start}, {rng.end}]"
        if (seg["first_sample"], seg["last_sample"]) != (rng.start + 1, rng.end):
            problems.append(f"{label}: reported as {seg['first_sample']}..{seg['last_sample']}")
            continue
        X = dataset.X[rng.start : rng.end]
        y = dataset.y[rng.start : rng.end]
        lam = penalty.lambda_scale * float(rng.length) ** penalty.rho
        try:
            weights = segmentation.adaptive_weights(dataset, rng, penalty.g)
        except AdaptiveUnavailableError:
            weights = None  # the fit falls back to the unweighted lasso
        phi = np.asarray(seg["coefficients"], dtype=np.float64)
        kkt = solvers.kkt_check(phi, X, y, lam, weights=weights, tolerance=KKT_TOL)
        if not kkt.passed:
            problems.append(f"{label}: KKT violation {kkt.worst_violation:.3e}")
        cost = solvers.penalized_objective(X, y, phi, lam, weights=weights)
        if not _close(cost, seg["penalized_cost"]):
            problems.append(
                f"{label}: penalized_cost {seg['penalized_cost']!r} but the "
                f"objective at its coefficients is {cost!r}"
            )
    for label, bound in (bounds or {}).items():
        if not _not_above(total, bound):
            problems.append(f"exact score {total!r} exceeds the {label} {bound!r}")
    return problems


def check_simulate(doc: dict, reps: int) -> list[str]:
    """Check a ``segbreak simulate`` report for internal consistency.

    A replication that fails (for instance NoConvergenceError on a
    near-singular n=50 segment) is counted in ``failures`` and excluded, as
    the program documents; the run reports those counts as
    ``simulation.failed_replications`` instead of failing the report.
    """
    res = doc["results"]
    problems = []
    if res["replications"] != reps:
        problems.append(f"{res['replications']} replications run, {reps} requested")
    if res["completed"] + res["failures"] != res["replications"]:
        problems.append(
            f"completed={res['completed']} plus failures={res['failures']} "
            f"!= replications={res['replications']}"
        )
    if res["failures"] * 10 > res["replications"]:
        problems.append(f"{res['failures']} of {res['replications']} replications failed")
    counts = res["selected_k_counts"] or {}
    if sum(counts.values()) != res["completed"]:
        problems.append(
            f"selected_k_counts {counts} do not sum to completed={res['completed']}"
        )
    return problems


def check_limit_law(law, draws: int) -> list[str]:
    problems = []
    if law.draws != draws or sum(law.counts.values()) != draws:
        problems.append(f"{sum(law.counts.values())} draws counted, {draws} requested")
    mass = math.fsum(law.probabilities.values())
    if abs(mass - 1.0) > REL_TOL:
        problems.append(f"limit-law probabilities sum to {mass!r}")
    if law.escape_rate > MAX_ESCAPE:
        problems.append(f"limit-law escape rate {law.escape_rate:.4f} above {MAX_ESCAPE}")
    return problems


# ---------------------------------------------------------------------------
# pinned reference outputs at the reference seed


def fit_summary(doc: dict) -> dict:
    res = doc["results"]
    return {
        "breakpoints": res["breakpoints"],
        "total_score": res["total_score"],
        "segment_costs": [seg["penalized_cost"] for seg in res["segments"]],
    }


_SIMULATE_EXACT = (
    "completed", "failures", "median_breakpoints", "selected_k_counts",
    "metric_replications", "breakpoint_error_histogram",
)
_SIMULATE_CLOSE = ("pct_true_zero", "pct_false_zero")


def simulate_summary(doc: dict) -> dict:
    res = doc["results"]
    return {key: res[key] for key in _SIMULATE_EXACT + _SIMULATE_CLOSE}


def law_summary(law) -> dict:
    return {str(k): v for k, v in law.counts.items()}


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference_entry(reference: dict, workload: Workload, seed: int, index: int):
    """The pinned outputs for this input, or None when none are pinned.

    A workload pinned with other parameters yields an entry that fails
    every comparison, so a changed workload cannot pass against stale pins.
    """
    if seed != reference["seed"]:
        return None
    pinned = reference["workloads"].get(workload.name)
    if pinned is None:
        return None
    if pinned["workload"] != asdict(workload):
        return {"stale": True}
    return pinned["inputs"].get(str(index))


def check_fit_reference(doc: dict, entry: dict) -> list[str]:
    """Breakpoints must match exactly, scores within 1e-9 relative."""
    got = fit_summary(doc)
    if got["breakpoints"] != entry["breakpoints"]:
        return [f"breakpoints {got['breakpoints']} != pinned {entry['breakpoints']}"]
    pairs = [(got["total_score"], entry["total_score"])]
    pairs += list(zip(got["segment_costs"], entry["segment_costs"]))
    return [
        f"score {value!r} != pinned {pinned!r}"
        for value, pinned in pairs
        if not _close(value, pinned)
    ]


def check_simulate_reference(doc: dict, entry: dict) -> list[str]:
    got, pinned = simulate_summary(doc), entry["simulate"]
    problems = [
        f"{key} {got[key]} != pinned {pinned[key]}"
        for key in _SIMULATE_EXACT
        if got[key] != pinned[key]
    ]
    problems += [
        f"{key} {got[key]!r} != pinned {pinned[key]!r}"
        for key in _SIMULATE_CLOSE
        if not _close(got[key], pinned[key])
    ]
    return problems


def check_law_reference(law, entry: dict) -> list[str]:
    if law_summary(law) != entry["limit_law_counts"]:
        return ["limit-law counts differ from the pinned sample"]
    return []


def check_round(workload: Workload, inp, rnd: Round, penalty, ref_entry) -> list[list[str]]:
    """Problems per checked output of the round: one list per fit, two
    (simulate report, limit-law sample) per simulate round."""
    stale = ref_entry is not None and "stale" in ref_entry
    pinned = None if stale else ref_entry
    call = [rnd.call_error] if rnd.call_error else []
    if rnd.rc not in (0, None):
        call.append(f"exit code {rnd.rc}")
    if rnd.doc is None:
        call = call or ["no report written"]
    elif workload.simulate:
        call += check_simulate(rnd.doc, workload.reps)
        if len(rnd.op_s) != workload.reps:
            call.append(f"{len(rnd.op_s)} replications timed, {workload.reps} run")
        if pinned is not None:
            call += check_simulate_reference(rnd.doc, pinned)
    else:
        exact = workload.grid_step is None
        bounds = exact_bounds(inp, penalty) if exact else None
        call += check_fit(rnd.doc, inp.dataset, penalty, K, bounds)
        if pinned is not None:
            call += check_fit_reference(rnd.doc, pinned)
    outputs = [call]
    if workload.simulate:
        law = [rnd.law_error] if rnd.law_error else []
        if rnd.law is not None:
            law += check_limit_law(rnd.law, workload.draws)
            if pinned is not None:
                law += check_law_reference(rnd.law, pinned)
        outputs.append(law)
    if stale:
        for problems in outputs:
            problems.append("reference.json was pinned for other workload parameters")
    return outputs
