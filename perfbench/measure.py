"""Measuring process of one benchmark run; ``run.py`` starts it.

It makes the workload's inputs ready, runs whole rounds until the run
length is spent (at least two), checks the first round's outputs, compares every later
round's CSVs with the first byte for byte, and prints one JSON line:
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics of
traced rounds that follow one untraced round.

    python3 -m perfbench.measure --workload gene-assumption --seed 1 \
        --seconds 20 --trace 0 --size full --work-dir .perfbench
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from . import checks, spans, workloads

# Every run of a workload times at least this many rounds, so that its
# median does not rest on one round that a slow spell of the host fell in.
MIN_ROUNDS = 2


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, for pooled sweeps, workers times the
    largest worker's peak: an upper bound on the peak of their sum."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pooled = workers if workers > 1 else 0
    return (own + pooled * children) / 1024.0  # ru_maxrss is in KiB on Linux


def _csv_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


class Rounds:
    """Output directories of a run's rounds; round 0 is the one checked."""

    def __init__(self, root: Path):
        shutil.rmtree(root, ignore_errors=True)
        self.root = root
        self.dirs = []

    def next_dir(self) -> Path:
        path = self.root / f"round-{len(self.dirs)}"
        path.mkdir(parents=True)
        self.dirs.append(path)
        return path


def _timed_round(inputs, out_dir: Path) -> tuple[float, float]:
    cpu0 = _cpu_s()
    start = time.perf_counter()
    workloads.run_round(inputs, out_dir)
    wall = time.perf_counter() - start
    return wall, _cpu_s() - cpu0


def _traced_round(inputs, out_dir: Path, tracer: spans.Tracer, untraced_s: float) -> dict:
    start = time.perf_counter()
    results = workloads.run_round(inputs, out_dir, span=tracer.span)
    tracer.record(spans.ROOT, start, time.perf_counter())
    return spans.round_metrics(
        spans.collect(tracer, results),
        workers=inputs.workers,
        untraced_sweep_s=untraced_s,
        load_expression_s=inputs.load_expression_s,
    )


def measure(args) -> dict:
    work_dir = Path(args.work_dir)
    workloads.prepare(work_dir)
    inputs = workloads.setup(args.workload, args.seed, args.size, work_dir)
    rounds = Rounds(work_dir / "out" / args.workload)

    walls, cpus = [], []
    layer_rounds = []
    start = time.perf_counter()
    if args.trace:
        untraced_s, _ = _timed_round(inputs, rounds.next_dir())
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            start = time.perf_counter()
            while True:
                layer_rounds.append(_traced_round(inputs, rounds.next_dir(), tracer, untraced_s))
                if time.perf_counter() - start >= args.seconds:
                    break
        finally:
            spans.uninstall()
    else:
        while True:
            wall, cpu = _timed_round(inputs, rounds.next_dir())
            walls.append(wall)
            cpus.append(cpu)
            if len(walls) >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = _peak_rss_mb(inputs.workers)

    # outside the timed region: check round 0, compare the rest with it
    correct = True
    try:
        failures = checks.check_round(inputs, rounds.dirs[0])
    except checks.Malformed as exc:
        print(f"malformed output: {exc}")
        correct, failures = False, []
    first = _csv_bytes(rounds.dirs[0])
    for path in rounds.dirs[1:]:
        if _csv_bytes(path) != first:
            print(f"{path.name}: CSVs differ from round-0")
            correct = False
    for line in failures:
        print(f"failed: {line}")
    for name, data in first.items():
        print(f"{name} sha256 {hashlib.sha256(data).hexdigest()}")

    n_rounds = len(rounds.dirs)
    print(f"{args.workload}: {n_rounds} rounds of {inputs.operations} operations")
    if walls:
        print("round wall s: " + " ".join(f"{w:.3f}" for w in walls))
    result = {
        "correct": correct,
        "attempted": inputs.operations * n_rounds,
        "failed": len(failures) * n_rounds,
    }
    if args.trace:
        metrics = {
            name: {"value": statistics.fmean(r[name] for r in layer_rounds), "unit": unit}
            for name, unit in spans.METRICS
        }
    else:
        metrics = {
            "sweep_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
