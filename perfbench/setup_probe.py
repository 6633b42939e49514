"""Set-up probe: a fresh interpreter imports critfish and builds one workload's config.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times this whole process from outside for the setup_s metric.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.config(sys.argv[1], int(sys.argv[2]))
