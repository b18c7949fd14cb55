"""Check that two source trees write byte-identical outputs.

Usage:
    python3 tools/csv_parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are checkouts of this repository (directories holding
``src/precis_lab``), for example a ``git archive`` of the parent commit and
the working tree. The commands in ``RUNS`` are run in order against each
tree, in its own temporary directory, and every file they write (sweep
CSVs and summaries, model and estimate matrices, the diagnose report, and
each command's standard output, kept as ``runNN.stdout``) is compared byte
for byte. For each CSV that differs, the columns that differ are listed
with the number of rows in which each does and the largest relative
difference over its numeric cells, followed by whether any non-numeric
cell (a status, say) differs; any other file is only reported as
differing. The exit status is 1 when a command fails, when the trees write
different files or when any file differs, and 0 otherwise.

The commands use small pinned configurations, so the whole check takes
about 24 s on two cores. Some settings are left at their defaults on
purpose, so that a default that moved between the trees shows up too.
Standard library only.
"""
from __future__ import annotations

import csv
import filecmp
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# A config file that sets every latent sweep setting; the run that reads
# it also gives --n, which must beat the file's n.
CONFIG = """\
# every key of a latent sweep
grid = 0.3,1
replicates = 2
n = 150
d1 = 1
d2 = 4
sigma_x2 = 2
sigma_eps2 = 0.04
methods = glasso,clime,naive
scale = 0.5
sparsity = 0.25
penalize_diagonal = yes
workers = 1
"""

# The arguments of each command, in the order they run: the estimate and
# diagnose runs read the files that generate writes. Each sweep also
# writes its summary next to its --out.
RUNS = (
    ["bench-noise", "--seed", "7", "--grid", "0.1,1", "--k", "2", "--d2", "5",
     "--out", "noise.csv"],
    ["bench-noise", "--seed", "7", "--grid", "0.1,1", "--k", "2", "--d2", "5",
     "--workers", "2", "--out", "noise-w2.csv"],
    ["bench-noise", "--seed", "8", "--config", "sweep.cfg", "--n", "120",
     "--out", "noise-config.csv"],
    # sigma_eps = 0.01: the nearly linear regime, where the active-set solve
    # of glasso and SCIO meets near-singular blocks and zero crossings most
    ["bench-noise", "--seed", "7", "--grid", "0.01", "--k", "2", "--d2", "5",
     "--methods", "glasso,scio", "--out", "noise-lownoise.csv"],
    ["bench-dim", "--seed", "7", "--axis", "outdim", "--grid", "4,6", "--k", "2",
     "--n", "200", "--out", "outdim.csv"],
    ["bench-dim", "--seed", "7", "--axis", "indim", "--grid", "1,2", "--k", "2",
     "--n", "200", "--sparsity", "0.3", "--out", "indim.csv"],
    ["bench-gamma", "--seed", "7", "--grid", "0.05,0.5,3", "--k", "2", "--d2", "5",
     "--out", "gamma.csv"],
    ["bench-objective", "--seed", "7", "--grid", "0.1,1", "--k", "2", "--n", "150",
     "--d2", "5", "--penalize-diagonal", "--out", "objective.csv"],
    ["gene-assumption", "--seed", "7", "--synthetic", "--dims", "4,8", "--subsets", "3",
     "--out", "gene-assumption.csv"],
    ["gene-precision", "--seed", "7", "--synthetic", "--genes", "30", "--samples", "150",
     "--rank", "4", "--dims", "4,6", "--n-grid", "100", "--out", "gene-precision.csv"],
    ["generate", "--kind", "latent", "--seed", "1", "--n", "300", "--out-prefix", "latent"],
    ["estimate", "--method", "glasso", "--cov", "latent_cov.txt", "--lam", "0.1",
     "--out", "glasso-lam.txt"],
    ["estimate", "--method", "clime", "--cov", "latent_cov.txt", "--lam", "0.1",
     "--out", "clime-lam.txt"],
    ["estimate", "--method", "scio", "--data", "latent_data.txt", "--lam", "0.1",
     "--out", "scio-lam.txt"],
    ["estimate", "--method", "glasso", "--cov", "latent_cov.txt", "--target-edges", "5",
     "--penalize-diagonal", "--out", "glasso-target.txt"],
    ["estimate", "--method", "naive", "--data", "latent_data.txt", "--target-edges", "5",
     "--out", "naive-target.txt"],
    ["diagnose", "--precision", "latent_prec.txt", "--out", "diagnose.csv"],
)


def run_all(checkout: Path, work: Path) -> bool:
    """Run every command against ``checkout`` inside ``work``; False if one fails."""
    work.mkdir()
    (work / "sweep.cfg").write_text(CONFIG)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    ok = True
    for k, args in enumerate(RUNS):
        cmd = [sys.executable, "-m", "precis_lab.cli", *args]
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
        (work / f"run{k:02d}.stdout").write_text(proc.stdout)
        if proc.returncode != 0:
            print(f"{checkout}: run{k:02d} {' '.join(args)} exited "
                  f"{proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
    return ok


def relative_difference(a: str, b: str) -> float | None:
    """|x - y| / max(|x|, |y|) of two cells read as numbers; None unless
    both are finite numbers."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def differing_columns(old: Path, new: Path) -> str:
    """The columns that differ between two CSVs of one run, each with the
    number of rows in which it differs and the largest relative difference
    over its numeric cells, then whether any non-numeric cell differs."""
    def table(path):
        with open(path, newline="") as fh:
            return list(csv.reader(line for line in fh if not line.startswith("#")))

    (old_head, *old_rows), (new_head, *new_rows) = table(old), table(new)
    if old_head != new_head:
        return f"header {old_head} -> {new_head}"
    if len(old_rows) != len(new_rows):
        return f"{len(old_rows)} -> {len(new_rows)} rows"
    counts = dict.fromkeys(old_head, 0)
    worst: dict = {}
    text = set()
    for old_row, new_row in zip(old_rows, new_rows):
        for column, a, b in zip(old_head, old_row, new_row):
            if a == b:
                continue
            counts[column] += 1
            rel = relative_difference(a, b)
            if rel is None:
                text.add(column)
            else:
                worst[column] = max(worst.get(column, 0.0), rel)
    moved = []
    for column, n in counts.items():
        if n:
            notes = [f"max rel {worst[column]:.2e}"] if column in worst else []
            notes += ["non-numeric"] if column in text else []
            moved.append(f"{column} {n} ({', '.join(notes)})")
    if not moved:
        return "comment lines only"
    return (f"{', '.join(moved)} of {len(old_rows)} rows; non-numeric cells "
            f"{'differ' if text else 'identical'}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    for checkout in (old, new):
        if not (checkout / "src" / "precis_lab").is_dir():
            print(f"{checkout} holds no src/precis_lab", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="csv-parity-") as tmp:
        old_dir, new_dir = Path(tmp) / "old", Path(tmp) / "new"
        ok = run_all(old, old_dir) & run_all(new, new_dir)
        old_files = sorted(p.name for p in old_dir.iterdir())
        new_files = sorted(p.name for p in new_dir.iterdir())
        if old_files != new_files:
            print(f"different files: {old_files} vs {new_files}")
            ok = False
        for name in sorted(set(old_files) & set(new_files)):
            same = filecmp.cmp(old_dir / name, new_dir / name, shallow=False)
            if same:
                print(f"identical {name}")
            elif name.endswith(".csv"):
                print(f"DIFFERS   {name}: "
                      f"{differing_columns(old_dir / name, new_dir / name)}")
            else:
                print(f"DIFFERS   {name}")
            ok &= same
    print("all identical" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
