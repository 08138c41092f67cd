"""Time one workload's set-up in a fresh interpreter.

Set-up is the imports plus the construction of the workload's inputs
(platform, traffic profile, metrics registry, experiment modules), which
only a new process pays in full.  ``run.py`` starts this script several
times and reports the median as ``setup_s``.

Usage: ``python3 perfbench/probe.py <workload> <seed>``; prints the
reference seconds and the raw host seconds.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup(name: str, seed: int) -> None:
    from perfbench.workloads import WORKLOADS

    WORKLOADS[name](seed).setup()


def main(argv) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.meter import SpeedMeter

    _none, host_s, reference_s = SpeedMeter().timed(lambda: setup(argv[0], int(argv[1])))
    print(reference_s, host_s)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
