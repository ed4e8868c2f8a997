"""Set-up alone, for setup_s; started by run.py.

    setup_child.py --workload W --seed N

Under a Pace (pace.py), imports numpy and berngen and generates the
workload's inputs, stopping before the first pass.  Prints the
CLOCK_MONOTONIC time at which the inputs are ready, the seconds spent in
the pace handler, and the pace factor over the set-up.
"""

import argparse
import sys
import time
from pathlib import Path

from pace import Pace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with Pace() as clock:
        start = clock.mark()
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import numpy  # noqa: F401
        from workloads import WORKLOADS
        WORKLOADS[args.workload].inputs(args.seed)
        ready = time.monotonic()
        end = clock.mark()
    print(repr(ready), repr(clock.spent), repr(clock.factor(start[0], end[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
