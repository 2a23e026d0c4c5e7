"""Set one workload up in a fresh process and print the clock when done.

    python3 perfbench/setup_child.py <workload> <seed> <simulated seconds>

run.py starts this to time set-up from process start: imports, the
scenario build and the workload's set-up. ``perf_counter`` reads the
system-wide monotonic clock on Linux, so the parent subtracts the time it
took just before starting the process.
"""

import sys
from pathlib import Path
from time import perf_counter


def main(argv) -> None:
    name, seed, duration_s = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.WORKLOADS[name].setup(int(seed), float(duration_s))
    print(repr(perf_counter()))


if __name__ == "__main__":
    main(sys.argv[1:])
