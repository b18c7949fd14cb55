"""Set-up probe: a fresh process that makes a workload's inputs ready and says so.

``run.py`` times several of these, from start to the "ready" line, for
``setup_s``. Importing ``workloads`` imports precis-lab, numpy and scipy,
as the ``precis-lab`` command does.

    python3 -m perfbench.setup_probe gene-assumption 1 full .perfbench
"""
import sys
from pathlib import Path

from perfbench import workloads

if __name__ == "__main__":
    workload, seed, size, work_dir = sys.argv[1:5]
    workloads.setup(workload, int(seed), size, Path(work_dir))
    print("ready", flush=True)
