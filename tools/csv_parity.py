"""Check that two source trees write byte-identical outputs.

Usage:
    python3 tools/csv_parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are checkouts of this repository (directories holding
``src/precis_lab``), for example a ``git archive`` of the parent commit and
the working tree. The commands in ``RUNS`` are run in order against each
tree, in its own temporary directory, and every file they write (sweep
CSVs and summaries, model and estimate matrices, the diagnose reports, a
synthetic expression file and the gene sweep that reads it back, and each
command's standard output, kept as ``runNN.stdout``) is compared byte
for byte. Besides the tab-separated files the commands write, they read
three fixtures written here: a comma-separated expression matrix with
genes in rows, a comma-separated data matrix with comments, and a
covariance symmetric only to print precision. For each CSV that differs, the columns that differ are listed
with the number of rows in which each does and the largest relative
difference over its numeric cells, followed by whether any non-numeric
cell (a status, say) differs. In a sweep CSV each column's count is also
split by the method of the rows that differ, as in
``lambda_used 4 rows [glasso 4]``. For each matrix file that differs (a
``.txt`` file of whitespace-separated numbers: the estimates, model
matrices and data), the entries that differ are counted, with their
largest relative difference, followed by whether the support, the
entries with |x| > ``SUPPORT_EPSILON``, moved. For each standard output
that differs, the first line that differs is shown as it reads on each
side. Any other file is only reported as differing. The exit status is 1
when a command fails, when the trees write different files or when any
file differs, and 0 otherwise.

The 35 commands use small pinned configurations, so the whole check takes
about 20 s on two cores, 1.5 s of it in the run with 30- and 40-gene
subsets. Some settings are left at their defaults on purpose, so that a
default that moved between the trees shows up too. Standard library only.
"""
from __future__ import annotations

import csv
import filecmp
from collections import Counter
from itertools import zip_longest
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the magnitude above which an entry of an estimate counts as an edge, as
# precis_lab.estimators.SUPPORT_EPSILON (this tool imports neither tree)
SUPPORT_EPSILON = 1e-8

# A config file that sets every key bench-noise reads; the run that reads
# it also gives --n, which must beat the file's n.
CONFIG = """\
# every key of bench-noise
grid = 0.3,1
replicates = 2
n = 150
d1 = 1
d2 = 4
sigma_x2 = 2
methods = glasso,clime,naive
scale = 0.5
sparsity = 0.25
penalize_diagonal = yes
workers = 1
"""

# A covariance that is symmetric only to print precision (entry (0, 1)
# carries a 1e-13 asymmetry): read_sym_matrix averages it, the one place
# that does.
ASYM_COV = """\
1.0 0.3000000000001 0 0.1
0.3 1.0 0.2 0
0 0.2 1.0 0.25
0.1 0 0.25 1.0
"""

# An expression matrix with one gene per line, comma-separated, under a
# header of sample labels: gene-assumption --genes-in rows reads it.
EXPR_ROWS = """\
# 8 genes of 16 samples
gene,s00,s01,s02,s03,s04,s05,s06,s07,s08,s09,s10,s11,s12,s13,s14,s15
gene0,0.089,-0.405,2.074,1.558,-0.504,1.828,-0.126,0.820,-0.115,-1.664,-0.591,-0.322,1.952,0.757,-0.452,0.628
gene1,1.117,-1.465,0.029,0.114,0.245,1.309,0.321,-0.405,-0.033,-0.774,-0.305,-0.302,0.673,-1.240,-0.901,-0.084
gene2,0.716,-0.802,-0.014,-0.328,-2.365,0.896,-0.269,-1.125,0.280,-0.446,-0.941,-0.377,-1.291,0.448,0.236,-0.440
gene3,-0.204,1.206,-1.448,-0.350,-1.450,-0.112,-0.339,2.011,0.542,0.619,0.388,-0.563,0.008,0.997,-0.941,0.698
gene4,-0.713,-0.511,1.681,-0.967,1.223,-0.408,-2.020,-0.193,-1.003,0.070,0.577,0.533,-1.214,-0.043,1.481,-0.980
gene5,0.387,-1.440,2.570,1.095,-0.590,-0.732,-0.072,1.831,0.174,0.309,0.581,-0.574,1.790,0.261,-0.505,-0.124
gene6,0.308,1.334,-0.821,0.022,0.580,-0.488,0.225,2.129,-1.502,0.316,-1.329,-1.069,-1.524,0.949,-1.091,0.090
gene7,0.648,0.211,-0.195,0.861,0.313,-1.252,0.558,-1.224,-0.448,0.115,0.438,-1.027,0.354,0.311,-0.035,-2.241
"""

# A comma-separated data matrix (24 samples of 4 variables) with a comment
# line and a comment after a row: estimate --data reads it.
DATA_CSV = """\
# 24 samples of 4 variables
0.366,-0.184,-0.492,0.448
-0.289,0.590,0.819,0.481
0.464,-0.307,0.590,-1.087
-1.482,3.456,2.118,1.960
-1.694,0.877,0.670,0.878
-4.352,1.205,-1.176,4.121
-0.788,2.052,0.759,1.298
4.718,-0.792,1.815,-4.000 # the largest first entry
0.097,-1.344,-0.993,-0.389
-4.119,3.149,-0.430,4.918
-2.547,1.151,-1.999,3.789
1.672,0.661,0.947,-1.182
-2.361,-0.120,-1.036,1.065
-2.645,0.320,0.219,0.885
0.514,0.400,-0.694,0.097
-2.102,0.821,0.953,1.726
-0.391,0.527,-0.687,1.208
-3.633,2.293,1.302,3.344
-1.740,3.554,1.763,2.232
3.102,-0.035,0.939,-2.702
0.727,0.132,0.952,-0.256
0.302,-1.429,-0.576,-1.896
-2.191,0.032,-1.078,1.792
-4.447,1.131,-1.751,4.279
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
    # sigma_eps2 here: bench-noise and bench-objective set it from their grid
    ["bench-dim", "--seed", "7", "--axis", "outdim", "--grid", "4,6", "--k", "2",
     "--n", "200", "--sigma-eps2", "0.04", "--out", "outdim.csv"],
    # sigma_eps2 = 0.01 at d2 = 30: the nearly linear, p = 32 fits in which
    # glasso's edge-count window sits just under max|s_ij|
    ["bench-dim", "--seed", "7", "--axis", "outdim", "--grid", "30", "--k", "2",
     "--methods", "glasso", "--out", "outdim-lownoise.csv"],
    # the same p = 32 fits for CLIME, whose warm-started column programs
    # meet near-singular bases there
    ["bench-dim", "--seed", "7", "--axis", "outdim", "--grid", "30", "--k", "2",
     "--methods", "clime", "--out", "outdim-lownoise-clime.csv"],
    ["bench-dim", "--seed", "7", "--axis", "indim", "--grid", "1,2", "--k", "2",
     "--n", "200", "--sparsity", "0.3", "--out", "indim.csv"],
    ["bench-gamma", "--seed", "7", "--grid", "0.05,0.5,3", "--k", "2", "--d2", "5",
     "--out", "gamma.csv"],
    ["bench-objective", "--seed", "7", "--grid", "0.1,1", "--k", "2", "--n", "150",
     "--d2", "5", "--penalize-diagonal", "--out", "objective.csv"],
    # the one sweep CSV in which sigma_x2 shows: the truth terms score the
    # covariance-scale precision
    ["bench-objective", "--seed", "7", "--grid", "0.1,1", "--k", "1", "--d2", "5",
     "--sigma-x2", "4", "--out", "objective-sx4.csv"],
    ["gene-assumption", "--seed", "7", "--synthetic", "--dims", "4,8", "--subsets", "3",
     "--out", "gene-assumption.csv"],
    # the threshold and the summary's cutoffs away from their defaults
    ["gene-assumption", "--seed", "7", "--synthetic", "--dims", "4,8", "--subsets", "3",
     "--delta", "0.15", "--cutoffs", "0.5,3", "--out", "gene-assumption-delta.csv"],
    # blocks of several hundred rows, which assumption1_gamma builds in row
    # blocks: the run above never reaches a second one
    ["gene-assumption", "--seed", "7", "--synthetic", "--dims", "30,40", "--subsets", "2",
     "--out", "gene-assumption-wide.csv"],
    ["gene-precision", "--seed", "7", "--synthetic", "--genes", "30", "--samples", "150",
     "--rank", "4", "--dims", "4,6", "--n-grid", "100", "--out", "gene-precision.csv"],
    ["generate", "--kind", "latent", "--seed", "1", "--n", "300", "--out-prefix", "latent"],
    # the expression writer, then the reader on what it wrote
    ["generate", "--kind", "expression", "--seed", "3", "--samples", "40", "--genes", "12",
     "--out", "expr.tsv"],
    ["gene-assumption", "--seed", "7", "--expression", "expr.tsv", "--dims", "4,6",
     "--subsets", "2", "--out", "gene-file.csv"],
    ["gene-assumption", "--seed", "7", "--expression", "expr_rows.csv", "--genes-in", "rows",
     "--dims", "4,6", "--subsets", "2", "--out", "gene-file-rows.csv"],
    ["estimate", "--method", "glasso", "--cov", "latent_cov.txt", "--lam", "0.1",
     "--out", "glasso-lam.txt"],
    ["estimate", "--method", "clime", "--cov", "latent_cov.txt", "--lam", "0.1",
     "--out", "clime-lam.txt"],
    ["estimate", "--method", "scio", "--data", "latent_data.txt", "--lam", "0.1",
     "--out", "scio-lam.txt"],
    ["estimate", "--method", "glasso", "--cov", "latent_cov.txt", "--target-edges", "5",
     "--penalize-diagonal", "--out", "glasso-target.txt"],
    # a calibrated CLIME fit starts its column programs from the bases of an
    # earlier lambda; its stdout prints the pivots taken from them
    ["estimate", "--method", "clime", "--cov", "latent_cov.txt", "--target-edges", "5",
     "--out", "clime-target.txt"],
    ["estimate", "--method", "naive", "--data", "latent_data.txt", "--target-edges", "5",
     "--out", "naive-target.txt"],
    ["estimate", "--method", "glasso", "--data", "data.csv", "--lam", "0.2",
     "--out", "glasso-csv.txt"],
    ["diagnose", "--precision", "latent_prec.txt", "--out", "diagnose.csv"],
    # a support smaller than the precision's nonzeros (21 -> 13 edges): both
    # gammas are read on it
    ["diagnose", "--precision", "latent_prec.txt", "--support-eps", "50",
     "--out", "diagnose-eps.csv"],
    ["estimate", "--method", "scio", "--cov", "asym_cov.txt", "--lam", "0.05",
     "--out", "scio-asym.txt"],
    ["diagnose", "--precision", "asym_cov.txt", "--out", "diagnose-asym.csv"],
    # both gammas by their row sums instead of their row maxima
    ["diagnose", "--precision", "latent_prec.txt", "--row-sums", "--out",
     "diagnose-rows.csv"],
    # no --out: the report goes to standard output
    ["diagnose", "--precision", "latent_prec.txt"],
    # lambda = 0: the unpenalised fits, which invert the covariance
    ["estimate", "--method", "glasso", "--cov", "latent_cov.txt", "--lam", "0",
     "--out", "glasso-lam0.txt"],
    ["estimate", "--method", "scio", "--cov", "latent_cov.txt", "--lam", "0",
     "--out", "scio-lam0.txt"],
    # the one calibrated SCIO fit; appended last so that no runNN.stdout is
    # renumbered
    ["estimate", "--method", "scio", "--cov", "latent_cov.txt", "--target-edges", "5",
     "--out", "scio-target.txt"],
)


def run_all(checkout: Path, work: Path) -> bool:
    """Run every command against ``checkout`` inside ``work``; False if one fails."""
    work.mkdir()
    (work / "sweep.cfg").write_text(CONFIG)
    (work / "asym_cov.txt").write_text(ASYM_COV)
    (work / "expr_rows.csv").write_text(EXPR_ROWS)
    (work / "data.csv").write_text(DATA_CSV)
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
    number of rows in which it differs (split by method in a sweep CSV) and
    the largest relative difference over its numeric cells, then whether
    any non-numeric cell differs."""
    def table(path):
        with open(path, newline="") as fh:
            return list(csv.reader(line for line in fh if not line.startswith("#")))

    (old_head, *old_rows), (new_head, *new_rows) = table(old), table(new)
    if old_head != new_head:
        return f"header {old_head} -> {new_head}"
    if len(old_rows) != len(new_rows):
        return f"{len(old_rows)} -> {len(new_rows)} rows"
    # rows that differ in each column, by the row's method in a sweep CSV
    counts = {column: Counter() for column in old_head}
    method_at = old_head.index("method") if "method" in old_head else None
    worst: dict = {}
    text = set()
    for old_row, new_row in zip(old_rows, new_rows):
        for column, a, b in zip(old_head, old_row, new_row):
            if a == b:
                continue
            counts[column][old_row[method_at] if method_at is not None else ""] += 1
            rel = relative_difference(a, b)
            if rel is None:
                text.add(column)
            else:
                worst[column] = max(worst.get(column, 0.0), rel)
    moved = []
    for column, by_method in counts.items():
        n = sum(by_method.values())
        if n:
            notes = [f"max rel {worst[column]:.2e}"] if column in worst else []
            notes += ["non-numeric"] if column in text else []
            methods = ", ".join(f"{m} {k}" for m, k in by_method.items() if m)
            moved.append(f"{column} {n} rows{f' [{methods}]' if methods else ''} "
                         f"({', '.join(notes)})")
    if not moved:
        return "comment lines only"
    return (f"{', '.join(moved)} of {len(old_rows)} rows; non-numeric cells "
            f"{'differ' if text else 'identical'}")


def differing_entries(old: Path, new: Path) -> str:
    """The entries that differ between two matrix files of one run, with
    their largest relative difference, then whether the support (the
    entries with |x| > SUPPORT_EPSILON) moved."""
    def matrix(path):
        return [line.split() for line in path.read_text().splitlines() if line.strip()]

    old_rows, new_rows = matrix(old), matrix(new)
    if [len(row) for row in old_rows] != [len(row) for row in new_rows]:
        return "shape differs"
    moved, worst, support_moved, total = 0, 0.0, False, 0
    for old_row, new_row in zip(old_rows, new_rows):
        for a, b in zip(old_row, new_row):
            total += 1
            if a == b:
                continue
            moved += 1
            rel = relative_difference(a, b)
            if rel is None:
                return f"non-numeric entry {a!r} -> {b!r}"
            worst = max(worst, rel)
            support_moved |= (abs(float(a)) > SUPPORT_EPSILON) != (abs(float(b)) > SUPPORT_EPSILON)
    return (f"{moved} of {total} entries (max rel {worst:.2e}); support "
            f"{'moved' if support_moved else 'unchanged'}")


def differing_line(old: Path, new: Path) -> str:
    """The first line that differs between two text files, as it reads on
    each side."""
    old_lines, new_lines = old.read_text().splitlines(), new.read_text().splitlines()
    for k, (a, b) in enumerate(zip_longest(old_lines, new_lines, fillvalue="(none)"), 1):
        if a != b:
            return f"line {k}: {a} -> {b}"
    return "line endings only"


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
            elif name.endswith(".txt"):
                print(f"DIFFERS   {name}: "
                      f"{differing_entries(old_dir / name, new_dir / name)}")
            elif name.endswith(".stdout"):
                print(f"DIFFERS   {name}: "
                      f"{differing_line(old_dir / name, new_dir / name)}")
            else:
                print(f"DIFFERS   {name}")
            ok &= same
    print("all identical" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
