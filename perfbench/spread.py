"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload two-stage-n1500 --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric its median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound from BENCHMARK.json.  A spread above a third of its bound means
the metric is not yet steady enough to judge a change by.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(median):.3f}"
        else:
            spread = "n/a"
        print(f"{name:<48} median {median:.6g}  spread {spread}  bound {bounds.get(name, '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
