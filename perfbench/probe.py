"""Set-up probe: import prefixsim.cli in a fresh interpreter, run one
workload's warm-up ops, and print the monotonic clock.

    python3 perfbench/probe.py <workload> <seed>

The caller reads the clock before starting this process, so the difference
is the set-up time a user pays before the first timed op.
"""

import sys
import time

import workloads


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.run_warm_up(workloads.WORKLOADS[name], seed)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
