"""Set-up probe, run in a fresh process: import the program, pick the backend,
build one workload's squares, then print ``ready``.

The parent times this from spawn to the ``ready`` line, which is the set-up a
user pays before the first verdict.
Usage: python3 perfbench/probe.py WORKLOAD
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.build_inputs(sys.argv[1])
    print("ready", workloads.BACKEND, flush=True)
