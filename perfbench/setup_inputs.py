"""One set-up trial: import segbreak and write a workload's inputs.

    python3 perfbench/setup_inputs.py <workload> <seed> <directory>

``run.py`` times this script several times per run and reports the median
as ``setup_s``, so import cost and input generation show up in the
benchmark.  The environment (thread pinning) is inherited from ``run.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, make_inputs  # noqa: E402  (imports segbreak)


def main(argv) -> int:
    name, seed, directory = argv
    make_inputs(WORKLOADS[name], int(seed), directory)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
