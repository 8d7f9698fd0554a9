"""Pin the reference outputs the benchmark compares against at seed 0.

    python3 perfbench/pin_reference.py

Runs every input of every workload once at the reference seed, requires
all the other output checks to pass, and writes ``reference.json``:
breakpoints and scores of each fit, and the aggregate results and
limit-law counts of each Monte Carlo round.  Re-pin only when a change is
meant to alter outputs, and say so in the change.
"""

import os

import run  # noqa: F401  (pins BLAS threads before numpy loads)

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

REFERENCE_SEED = 0


def main() -> int:
    run.import_segbreak()
    import workloads as wl

    workdir = run.WORK / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    pinned = {}
    try:
        for workload in wl.WORKLOADS.values():
            penalty = wl.penalty_for(workload)
            entries = {}
            for inp in wl.make_inputs(workload, REFERENCE_SEED, workdir):
                rnd = wl.run_round(workload, inp, workdir, workload.workers)
                problems = wl.check_round(workload, inp, rnd, penalty, None)
                if any(problems):
                    print(f"{workload.name} input {inp.index}: {problems}", file=sys.stderr)
                    return 1
                if workload.simulate:
                    entry = {"simulate": wl.simulate_summary(rnd.doc),
                             "limit_law_counts": wl.law_summary(rnd.law)}
                else:
                    entry = wl.fit_summary(rnd.doc)
                entries[str(inp.index)] = entry
                print(f"{workload.name} input {inp.index}: {rnd.seconds:.2f} s", flush=True)
            pinned[workload.name] = {"workload": dataclasses.asdict(workload), "inputs": entries}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"seed": REFERENCE_SEED, "workloads": pinned}
    wl.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
