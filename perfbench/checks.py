"""Output checks, run after the timed rounds.

Each check holds a CSV row against a computation made apart from the
program (numpy and LAPACK inverses and solves, the HiGHS LP solver) or
against a condition the method's solution must meet. None of them
compares with a stored copy of earlier output.

A latent fit's input is rebuilt from the replicate's seed, and the fit is
solved again at the row's ``lambda_used``. An operation that fails a check
is reported as failed; a file that is missing rows or cannot be read makes
the run's output incorrect (``Malformed``).
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.linalg import solve as lapack_solve
from scipy.optimize import linprog

from precis_lab import bench
from precis_lab.estimators import (
    SUPPORT_EPSILON,
    EstimatorConfig,
    clime_columns,
    glasso,
    naive,
    scio_columns,
)
from precis_lab.models import (
    LatentModelSpec,
    latent_precision,
    random_a,
    rng_for,
    sample_covariance,
    sample_mvn,
    seed_fingerprint,
    standardize,
)

from .workloads import GeneSweep, Inputs, LatentSweep

# Tolerances, each relative to the scale named beside it.
GLASSO_KKT_TOL = 1e-5      # of lambda: |inv(omega) - s - lambda * subgradient|
SCIO_KKT_TOL = 1e-6        # of lambda: |s b - e_i + lambda * subgradient|
CLIME_FEAS_TOL = 1e-6      # of lambda: excess of |s b - e_i| over lambda
CLIME_OPT_TOL = 1e-6       # of the HiGHS optimum of a column's l1 norm
NAIVE_TIE_TOL = 1e-9       # of the largest |inv(s)| entry
GAMMA_TOL = 1e-8           # of gamma
DENSE_KRON_MAX_D = 40      # largest d whose p^2 x p^2 Kronecker product is built


class Malformed(Exception):
    """An output file is missing, unreadable or does not hold the expected rows."""


def _read_rows(path: Path, tag: str) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            first = fh.readline().rstrip("\n")
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise Malformed(f"{path.name}: {exc}") from exc
    if first != f"# {bench.SCHEMA_TAG} {tag}":
        raise Malformed(f"{path.name}: header {first!r}")
    return rows


def check_round(inputs: Inputs, out_dir: Path) -> list[str]:
    """Check one round's CSVs; returns one line per failed operation."""
    failures = []
    for sweep in inputs.sweeps:
        path = Path(out_dir) / f"{sweep.name}.csv"
        if isinstance(sweep, LatentSweep):
            failures += _latent_failures(sweep, path)
        elif isinstance(sweep, GeneSweep):
            failures += _gene_failures(sweep, inputs.expression, path)
    return failures


# ---------------------------------------------------------------- latent fits

def _latent_failures(sweep: LatentSweep, path: Path) -> list[str]:
    cfg = sweep.config
    rows = _read_rows(path, cfg.experiment)
    keys = {(m, rep) for m in cfg.methods for rep in range(cfg.replicates)}
    try:
        found = {(r["method"], int(r["replicate"])) for r in rows}
        _check_summary(path, cfg, rows)
    except (KeyError, ValueError) as exc:
        raise Malformed(f"{path.name}: {exc}") from exc
    if found != keys or len(rows) != len(keys):
        raise Malformed(f"{path.name}: rows do not match the planned fits")
    replicates: dict = {}
    failures = []
    for row in rows:
        try:
            reason = _fit_failure(cfg, row, replicates)
        except (KeyError, ValueError) as exc:  # an unparseable field
            raise Malformed(f"{path.name}: {exc}") from exc
        if reason:
            failures.append(f"{sweep.name} {row['method']} replicate {row['replicate']}: {reason}")
    return failures


def _check_summary(path: Path, cfg, rows: list[dict]) -> None:
    summary = _read_rows(bench.summary_path(path), f"{cfg.experiment} summary")
    by_method = {r["method"]: r for r in summary}
    if set(by_method) != set(cfg.methods) or len(summary) != len(cfg.methods):
        raise Malformed(f"{path.name}: summary rows do not match the methods")
    for method, srow in by_method.items():
        ok = [r for r in rows if r["method"] == method and r["status"].startswith("ok")]
        if int(srow["replicates_ok"]) != len(ok) or (
            int(srow["replicates_ok"]) + int(srow["replicates_failed"]) != cfg.replicates
        ):
            raise Malformed(f"{path.name}: summary counts of {method} disagree with the rows")
        if ok:
            mean = sum(float(r["hamming"]) for r in ok) / len(ok)
            if not math.isclose(float(srow["hamming_mean"]), mean, rel_tol=1e-12, abs_tol=1e-12):
                raise Malformed(f"{path.name}: summary hamming mean of {method} disagrees")


def _replicate(cfg, rep: int, attempt: int):
    """The replicate's sample covariance, rebuilt from its seed, and the
    true edge set read directly off the coupling matrix A."""
    rng = rng_for(cfg.master_seed, 0, rep, attempt)
    a = random_a(cfg.d1, cfg.d2, cfg.scale, cfg.sparsity, rng)
    sigma_eps = float(cfg.grid[0])
    model = latent_precision(LatentModelSpec(cfg.d1, cfg.d2, cfg.sigma_x2, sigma_eps**2, a))
    s = sample_covariance(standardize(sample_mvn(model.covariance, cfg.n, rng)))
    ata = a.T @ a
    truth = {(i, j) for i in range(cfg.d1) for j in range(i + 1, cfg.d1) if ata[i, j] != 0.0}
    truth |= {(i, cfg.d1 + r) for r in range(cfg.d2) for i in range(cfg.d1) if a[r, i] != 0.0}
    return s, frozenset(truth)


def _fit_failure(cfg, row: dict, replicates: dict) -> str | None:
    if not row["status"].startswith("ok"):
        return f"status {row['status']}"
    rep, attempt = int(row["replicate"]), int(row["attempts"]) - 1
    if seed_fingerprint(cfg.master_seed, 0, rep, attempt) != int(row["seed"]):
        return "seed column does not match the replicate's stream"
    if (rep, attempt) not in replicates:
        replicates[(rep, attempt)] = _replicate(cfg, rep, attempt)
    s, truth = replicates[(rep, attempt)]
    target = len(truth)
    if int(row["true_edges"]) != target:
        return f"true_edges {row['true_edges']}, A gives {target}"
    lam = float(row["lambda_used"])
    method = row["method"]
    if method == "glasso":
        support, reason = _glasso_check(s, lam, cfg.penalize_diagonal)
    elif method == "scio":
        support, reason = _scio_check(s, lam)
    elif method == "clime":
        support, reason = _clime_check(s, lam)
    else:
        support, reason = _naive_check(s, target)
    if reason:
        return reason
    if len(support) != target:
        return f"{len(support)} edges at lambda {lam!r}, target {target}"
    if int(row["estimated_edges"]) != len(support):
        return f"estimated_edges {row['estimated_edges']}, re-solve gives {len(support)}"
    hamming = len(support ^ truth)
    precision = len(support & truth) / len(support) if support else 0.0
    if float(row["hamming"]) != hamming:
        return f"hamming {row['hamming']}, recomputed {hamming}"
    if not math.isclose(float(row["precision"]), precision, rel_tol=1e-12):
        return f"precision {row['precision']}, recomputed {precision!r}"
    return None


def _pairs(m: np.ndarray) -> frozenset:
    ii, jj = np.triu_indices(m.shape[0], k=1)
    keep = np.abs(m[ii, jj]) > SUPPORT_EPSILON
    return frozenset(zip(ii[keep].tolist(), jj[keep].tolist()))


def _symmetrize(raw: np.ndarray) -> np.ndarray:
    """Min-magnitude symmetrisation, as the column-wise methods define it."""
    return np.where(np.abs(raw) <= np.abs(raw.T), raw, raw.T)


def _subgradient_residual(grad: np.ndarray, coef: np.ndarray, lam: float,
                          penalized: np.ndarray) -> float:
    """Largest violation of 0 in grad + lam * d|coef| over penalised entries,
    and of grad = 0 over the others."""
    nz = coef != 0.0
    viol = np.where(nz, np.abs(grad + lam * np.sign(coef)), np.maximum(np.abs(grad) - lam, 0.0))
    viol = np.where(penalized, viol, np.abs(grad))
    return float(viol.max())


def _glasso_check(s, lam: float, penalize_diagonal: bool):
    omega = glasso(s, EstimatorConfig(lam=lam, penalize_diagonal=penalize_diagonal)).omega.values
    # stationarity of log det - tr(omega s) - lam |omega|_1: inv(omega) - s = lam * subgradient
    grad = s.values - np.linalg.inv(omega)
    penalized = np.ones_like(omega, dtype=bool)
    if not penalize_diagonal:
        np.fill_diagonal(penalized, False)
    resid = _subgradient_residual(grad, omega, lam, penalized) / lam
    if not resid <= GLASSO_KKT_TOL:
        return None, f"glasso KKT residual {resid:.3e} x lambda"
    return _pairs(omega), None


def _scio_check(s, lam: float):
    raw, _, _ = scio_columns(s, lam)
    # column i minimises 0.5 b's b - b_i + lam |b|_1: s b - e_i = -lam * subgradient
    grad = s.values @ raw - np.eye(s.dim)
    resid = _subgradient_residual(grad, raw, lam, np.ones_like(raw, dtype=bool)) / lam
    if not resid <= SCIO_KKT_TOL:
        return None, f"SCIO subgradient residual {resid:.3e} x lambda"
    return _pairs(_symmetrize(raw)), None


def _clime_check(s, lam: float):
    raw, _ = clime_columns(s, lam)
    sv = s.values
    p = s.dim
    excess = float((np.abs(sv @ raw - np.eye(p)) - lam).max()) / lam
    if not excess <= CLIME_FEAS_TOL:
        return None, f"CLIME column infeasible by {excess:.3e} x lambda"
    a_ub = np.vstack([np.hstack([sv, -sv]), np.hstack([-sv, sv])])
    for i in range(p):
        e = np.zeros(p)
        e[i] = 1.0
        lp = linprog(np.ones(2 * p), A_ub=a_ub, b_ub=np.concatenate([lam + e, lam - e]),
                     bounds=(0, None), method="highs")
        if lp.status != 0:
            return None, f"HiGHS could not solve column {i}: {lp.message}"
        norm = float(np.abs(raw[:, i]).sum())
        if not abs(norm - lp.fun) <= CLIME_OPT_TOL * max(1.0, lp.fun):
            return None, f"CLIME column {i} l1 norm {norm!r}, HiGHS optimum {lp.fun!r}"
    return _pairs(_symmetrize(raw)), None


def _naive_check(s, target: int):
    kept = naive(s, target).support.pairs
    inv = np.abs(np.linalg.inv(s.values))
    ii, jj = np.triu_indices(s.dim, k=1)
    is_kept = np.array([(i, j) in kept for i, j in zip(ii.tolist(), jj.tolist())])
    mags = inv[ii, jj]
    if is_kept.all() or not is_kept.any():
        return frozenset(kept), None
    gap = float(mags[is_kept].min() - mags[~is_kept].max())
    if gap < -NAIVE_TIE_TOL * float(mags.max()):
        return None, f"a dropped pair of inv(s) outweighs a kept one by {-gap:.3e}"
    return frozenset(kept), None


# --------------------------------------------------------------- gene subsets

def _gene_failures(sweep: GeneSweep, expression: np.ndarray, path: Path) -> list[str]:
    rows = _read_rows(path, "gene-assumption")
    keys = {(d, k) for d in sweep.dims for k in range(sweep.subsets)}
    try:
        found = {(int(r["d"]), int(r["subset"])) for r in rows}
    except (KeyError, ValueError) as exc:
        raise Malformed(f"{path.name}: {exc}") from exc
    if found != keys or len(rows) != len(keys):
        raise Malformed(f"{path.name}: rows do not match the planned subsets")
    failures = []
    for row in rows:
        try:
            reason = _subset_failure(sweep, expression, row)
        except (KeyError, ValueError) as exc:  # an unparseable field
            raise Malformed(f"{path.name}: {exc}") from exc
        if reason:
            failures.append(f"{sweep.name} d={row['d']} subset {row['subset']}: {reason}")
    return failures


def _subset_failure(sweep: GeneSweep, expression: np.ndarray, row: dict) -> str | None:
    if row["status"] != "ok":
        return f"status {row['status']}"
    d, subset = int(row["d"]), int(row["subset"])
    d_idx = sweep.dims.index(d)
    if seed_fingerprint(sweep.master_seed, d_idx, subset) != int(row["seed"]):
        return "seed column does not match the subset's stream"
    # replay the subset draws: one choice per rejected subset, then the kept one
    rng = rng_for(sweep.master_seed, d_idx, subset)
    for _ in range(int(row["resamples"]) + 1):
        idx = rng.choice(expression.shape[1], size=d, replace=False)
    x = expression[:, np.sort(idx)]
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    lam0 = np.linalg.inv(z.T @ z / z.shape[0])
    lam = np.where(np.abs(lam0) > sweep.delta, lam0, 0.0)
    np.fill_diagonal(lam, lam0.diagonal())
    sigma = np.linalg.inv(lam)
    edges = int(np.count_nonzero(np.triu(lam, 1)))
    if int(row["edges"]) != edges:
        return f"edges {row['edges']}, recomputed {edges}"
    gamma = _gamma(sigma, lam != 0.0)
    recorded = float(row["gamma"])
    if not abs(recorded - gamma) <= GAMMA_TOL * gamma:
        return f"gamma {recorded!r}, recomputed {gamma!r}"
    return None


def _gamma(sigma: np.ndarray, support: np.ndarray) -> float:
    """Largest column sum of |G[off, on] inv(G[on, on])| for G = sigma (x) sigma,
    over row-major ordered pairs; the Kronecker product is built outright
    at small d, and its blocks are built from sigma at large d."""
    d = sigma.shape[0]
    flat = support.ravel()
    on, off = np.flatnonzero(flat), np.flatnonzero(~flat)
    if d <= DENSE_KRON_MAX_D:
        g = np.kron(sigma, sigma)
        g_on, g_cross = g[np.ix_(on, on)], g[np.ix_(on, off)]
        del g
    else:
        oi, oj = np.divmod(on, d)
        fi, fj = np.divmod(off, d)
        g_on = sigma[np.ix_(oi, oi)] * sigma[np.ix_(oj, oj)]
        g_cross = sigma[np.ix_(oi, fi)] * sigma[np.ix_(oj, fj)]
    m_t = lapack_solve(g_on, g_cross, assume_a="pos", overwrite_a=True, overwrite_b=True)
    return float(np.abs(m_t).sum(axis=1).max())
