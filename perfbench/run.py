"""segbreak benchmark: end-to-end workloads through the CLI, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload exact-n500 --seed 0 --seconds 38 --trace 0

Workloads (see README.md for why each was chosen):

* ``exact-n500``      ``segbreak fit --k 2``, exact DP, layout 4 (n=500)
* ``two-stage-n1500`` ``segbreak fit --k 2 --grid-step 20``, layout 5 (n=1500)
* ``mc-select-n50``   ``segbreak simulate --table 1 --select --workers 2``
                      plus a ``sample_limit_law`` draw

Each run sets up (imports segbreak and writes the inputs) several times in
fresh interpreters, makes one untimed warm-up call, then repeats rounds of
the workload for ``--seconds`` of measured time and checks every output.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each round runs untraced and then traced, and the line
carries per-layer metrics from spans recorded around calls into segbreak's
public functions (see ``tracing.py``).  The lines before it are for people:
further figures (call_p50_s, ops_per_s, wall_s, fits_per_s, reps_per_s,
limit_draws_per_s, failed_ratio), the sample counts and the environment.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: with default threads two
# Monte Carlo workers oversubscribe the cores and timings swing with load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_TRIALS = 3
SETUP_TIMEOUT_S = 120
CHECK_ERRORS = (KeyError, TypeError, ValueError, IndexError)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_segbreak() -> float:
    """Import segbreak from this checkout's sources; return the seconds."""
    if not (SRC / "segbreak" / "__init__.py").is_file():
        raise SystemExit(f"error: no segbreak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import segbreak

    seconds = perf_counter() - t0
    if Path(segbreak.__file__).resolve().parent != SRC / "segbreak":
        raise SystemExit(f"error: segbreak imported from {segbreak.__file__}, not {SRC}")
    return seconds


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Wall seconds of each set-up trial; the last one leaves the inputs."""
    times = []
    for _ in range(SETUP_TRIALS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_inputs.py"), name, str(seed), str(workdir)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
    return times


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without structured build info
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and the largest peak among its finished
    children (set-up trials, pool workers), in MiB; Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def timed_phase(workload, inputs, seconds, workdir, workers, tracer):
    """Run rounds on successive inputs of the pool for ``seconds`` of
    measured time.

    Returns [(input, round, traced)].  At least one round runs; after that
    a round starts only if, at the mean round time so far, it would end
    within ``seconds``, so a run with slow rounds (about 5-14 s on
    ``exact-n500``) does not overrun.  The pool is large enough that a run
    at the program's current speed uses each input about once, so the
    figures average over as many distinct inputs as the time allows; a
    faster program moves on to further inputs, then cycles.  With a tracer
    every round runs untraced and then traced on the same input.
    """
    from workloads import run_round

    rounds = []
    measured = 0.0
    i = 0
    while i == 0 or measured * (i + 1) / i <= seconds:
        inp = inputs[i % len(inputs)]
        rnd = run_round(workload, inp, workdir, workers)
        rounds.append((inp, rnd, False))
        measured += rnd.seconds
        if tracer is not None:
            with tracer.traced_run(i):
                traced = run_round(workload, inp, workdir, workers)
            rounds.append((inp, traced, True))
            measured += traced.seconds
        i += 1
    return rounds


def check_rounds(workload, seed, rounds):
    """Check every output; return per-round lists of problems per output."""
    from workloads import check_round, load_reference, penalty_for, reference_entry

    reference = load_reference()
    penalty = penalty_for(workload)
    outcomes = []
    for inp, rnd, _ in rounds:
        n_outputs = 2 if workload.simulate else 1
        try:
            entry = reference_entry(reference, workload, seed, inp.index)
            outcome = check_round(workload, inp, rnd, penalty, entry)
        except CHECK_ERRORS as exc:  # a malformed report is a failed output
            outcome = [[f"report could not be checked: {exc!r}"]] * n_outputs
        outcomes.append(outcome)
    return outcomes


def tally(outcomes) -> tuple[int, int]:
    """(outputs attempted, outputs with at least one problem)."""
    attempted = sum(len(out) for out in outcomes)
    failed = sum(1 for out in outcomes for problems in out if problems)
    return attempted, failed


def end_to_end(workload, rounds, outcomes, setup_s, rss_mb):
    """The JSON metrics, plus further figures printed for people."""
    plain = [(rnd, out) for (_, rnd, traced), out in zip(rounds, outcomes) if not traced]
    measured = sum(rnd.seconds for rnd, _ in plain)
    calls = [rnd.call_s for rnd, _ in plain]
    ops = [t for rnd, _ in plain for t in rnd.op_s]
    if not ops:
        raise SystemExit("error: no operation was timed")
    if workload.simulate:
        units = sum(rnd.doc["results"]["completed"] for rnd, out in plain if not out[0])
        law_s = sum(rnd.law_s for rnd, _ in plain)
        good_draws = sum(workload.draws for _, out in plain if not out[1])
        people = {
            "reps_per_s": (units / sum(calls), "1/s"),
            "limit_draws_per_s": (good_draws / law_s, "1/s"),
            "failed_replications": (failed_replications(rnd for rnd, _ in plain), "count"),
        }
    else:
        units = sum(1 for _, out in plain if not out[0])
        people = {"fits_per_s": (units / measured, "1/s")}
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "peak_rss_mb": (sum(rss_mb), "MB"),
    }
    if len(ops) >= 100:  # at least ten operations above the 90th percentile
        people["op_p90_s"] = (statistics.quantiles(ops, n=10)[-1], "s")
    people["call_p50_s"] = (statistics.median(calls), "s")
    people["ops_per_s"] = (units / measured, "1/s")
    people["wall_s"] = (measured, "s")
    people["rss_self_mb"] = (rss_mb[0], "MB")
    people["rss_children_mb"] = (rss_mb[1], "MB")
    return metrics, people, len(calls), len(ops)


def failed_replications(rounds) -> int:
    """Monte Carlo replications the program counted as failed (and excluded)."""
    return sum((rnd.doc or {}).get("results", {}).get("failures", 0) for rnd in rounds)


def per_layer(tracer, rounds):
    """Per-layer metrics per traced round, plus the tracing overhead."""
    from tracing import layer_stats, stubborn_resolves

    spans = tracer.arrays()
    n_rounds = sum(1 for _, _, traced in rounds if traced)
    metrics = {}
    stats = layer_stats(spans)
    for label, st in stats.items():
        metrics[f"{label}.calls"] = (st["calls"] / n_rounds, "count")
        metrics[f"{label}.self_s"] = (st["self_s"] / n_rounds, "s")
        metrics[f"{label}.total_s"] = (st["total_s"] / n_rounds, "s")
    counters = tracer.counters
    face_calls = stats["solvers.face_step"]["calls"]
    metrics["segmentation.pairs_costed"] = (
        counters["segmentation.pairs_costed"] / n_rounds, "count")
    metrics["segmentation.stubborn_resolves"] = (stubborn_resolves(spans) / n_rounds, "count")
    metrics["segmentation.cost_table_bytes"] = (counters["segmentation.cost_table_bytes"], "B")
    metrics["solvers.face_step.accept_ratio"] = (
        counters["solvers.face_step.accepted"] / face_calls if face_calls else 0.0, "ratio")
    traced = (rnd for _, rnd, is_traced in rounds if is_traced)
    metrics["simulation.failed_replications"] = (failed_replications(traced) / n_rounds, "count")
    pairs = [(rounds[i][1].seconds, rounds[i + 1][1].seconds) for i in range(0, len(rounds), 2)]
    metrics["trace.overhead_s"] = (statistics.median(t - u for u, t in pairs), "s")
    return metrics, stats, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_segbreak()
    from tracing import Tracer
    from workloads import WORKLOADS, make_inputs, run_round

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        raise SystemExit("error: --seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = measure_setup(workload.name, args.seed, workdir)
        inputs = make_inputs(workload, args.seed, workdir, write=False)

        # traced runs keep every span in this process
        workers = 1 if args.trace else workload.workers
        warm_dir = workdir / "warmup"
        warm_dir.mkdir()
        warm = dataclasses.replace(
            workload, name="warmup", layout=1, pool=1,
            reps=min(workload.reps, 2), draws=min(workload.draws, 1000),
        )
        warm_input = make_inputs(warm, args.seed, warm_dir)[0]
        run_round(warm, warm_input, warm_dir, workers)

        tracer = Tracer() if args.trace else None
        rounds = timed_phase(workload, inputs, args.seconds, workdir, workers, tracer)
        rss_mb = peak_rss_mb()
        outcomes = check_rounds(workload, args.seed, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(outcomes)
    for (inp, _, traced), out in zip(rounds, outcomes):
        for problems in out:
            for problem in problems:
                print(f"FAILED input {inp.index}{' (traced)' if traced else ''}: {problem}",
                      file=sys.stderr)

    env = environment()
    setup_s = statistics.median(setup_times)
    metrics, people, n_calls, n_ops = end_to_end(workload, rounds, outcomes, setup_s, rss_mb)
    people["failed_ratio"] = (failed / attempted, "ratio")
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  workers {workers}")
    print(f"environment {json.dumps(env)}")
    print(f"setup trials {[round(t, 4) for t in setup_times]} s; in-process import {import_s:.4f} s")
    print(f"op_p50_s over {n_ops} operations in {n_calls} untraced calls; "
          f"{attempted} outputs checked, {failed} failed")
    for name, (value, unit) in {**metrics, **people}.items():
        print(f"  {name:<18} {value:.6g} {unit}")

    result_name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_trials_s": setup_times,
              "rounds": [{"input": inp.index, "traced": traced, "call_s": rnd.call_s,
                          "law_s": rnd.law_s, "op_s": rnd.op_s, "problems": out}
                         for (inp, rnd, traced), out in zip(rounds, outcomes)]}
    if args.trace:
        metrics, stats, spans = per_layer(tracer, rounds)
        tracer.save(WORK / f"spans-{workload.name}-seed{args.seed}.npz")
        print(f"per traced round ({len(rounds) // 2} rounds, {len(spans['name'])} spans):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<50} {value:.6g} {unit}")
        main_total = stats["cli.main"]["total_s"]
        if main_total:
            share = stats["segmentation.build_cost_table"]["total_s"] / main_total
            print(f"build_cost_table share of traced cli.main time: {share:.3f}")
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["people"] = {name: {"value": v, "unit": u} for name, (v, u) in people.items()}
    (WORK / f"{result_name}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
