"""Benchmark of precis-lab's sweep workloads; run it with ``python3 perfbench/run.py``."""
