#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at its smoke size, with the
same checks as a full run. Takes about 30 s.

    python3 perfbench/smoke.py

It checks that each run's last line is the result object with the metric
names and units of BENCHMARK.json, that the only failed operations are the
SCIO fits of latent-lownoise, that CSVs are byte-identical across runs of
one seed and between the pooled and a serial wide sweep, and that the
benchmark exits non-zero, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark's files. Exits non-zero on a failure.
"""
from __future__ import annotations

import filecmp
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "smoke"

# share of failed operations per workload: latent-lownoise's one SCIO fit
# in each round of four fails on the SCIO stall
FAILED_SHARE = {"latent-lownoise": 0.25, "latent-wide": 0.0, "gene-assumption": 0.0}


def _run(args: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int, spec: dict) -> list[str]:
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke"], ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1
    share = result["failed"] / result["attempted"]
    assert share == FAILED_SHARE[workload], (workload, result["failed"], result["attempted"])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(units), set(got) ^ set(units)
    for name, metric in got.items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if not trace:
        assert all(got[m]["value"] > 0 for m in units), got
    print(f"ok  {workload} trace {trace}: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    return [line for line in lines if " sha256 " in line]


def _pooled_equals_serial() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    (sweep,) = workloads.sweeps("latent-wide", 3, "smoke")
    assert sweep.workers > 1
    serial = replace(sweep, config=replace(sweep.config, workers=1))
    dirs = []
    for k, variant in enumerate((sweep, serial)):
        out = WORK / f"pool-{k}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        workloads.run_round(workloads.Inputs((variant,)), out)
        dirs.append(out)
    for name in ("wide.csv", "wide.summary.csv"):
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name
    print("ok  latent-wide pooled CSVs equal serial CSVs")


def _bare_directory_fails() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "latent-wide", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], bare)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout
    print("ok  a directory without the program gives exit code", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        digests = [_result(workload, trace, spec) for trace in (0, 1)]
        assert digests[0] == digests[1] and digests[0], f"{workload}: CSVs differ between runs"
    _pooled_equals_serial()
    _bare_directory_fails()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
