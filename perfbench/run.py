#!/usr/bin/env python3
"""precis-lab benchmark: runs one workload and prints its metrics as one JSON line.

From the root of a checkout:

    python3 perfbench/run.py --workload latent-lownoise --seed 1 --seconds 20 --trace 0

Workloads: latent-lownoise, latent-wide, gene-assumption (see
perfbench/README.md). With ``--trace 0`` the last line holds the
end-to-end metrics (setup_s, sweep_s, cpu_s, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics of a traced run. ``--size
smoke`` runs a small version of the workload with the same checks.

This process imports nothing from precis-lab. It starts the measuring
process, then several set-up probes, each with one BLAS thread, and
exits with a non-zero code, printing no result, if any of them fails or
the run outlives its time limit. Run outputs go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _kill(proc: subprocess.Popen) -> None:
    """Stop a child and everything it started (it leads its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _run_measure(args, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.measure",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--work-dir", WORK_DIR,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise RunFailed("the measuring process outlived the time limit") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        raise RunFailed(f"the measuring process exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def _setup_seconds(args, env: dict, deadline: float) -> float:
    cmd = [sys.executable, "-m", "perfbench.setup_probe",
           args.workload, str(args.seed), args.size, WORK_DIR]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise RunFailed("a set-up probe outlived the time limit") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RunFailed(f"a set-up probe exited with code {proc.returncode}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "precis_lab" / "__init__.py").is_file():
        print(f"precis-lab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = _child_env()
    try:
        result = _run_measure(args, env, deadline)
        if not args.trace:
            samples = [_setup_seconds(args, env, deadline) for _ in range(SETUP_SAMPLES)]
            print("setup_s samples: " + " ".join(f"{s:.4f}" for s in samples))
            result["metrics"] = {
                "setup_s": {"value": statistics.median(samples), "unit": "s"},
                **result["metrics"],
            }
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
