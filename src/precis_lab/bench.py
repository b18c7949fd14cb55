"""Experiment orchestration: sweeps over model parameters, CSV emission.

Each experiment expands into independent (grid point, replicate) tasks
that own their RNG stream, so results are identical whether tasks run
serially or in a process pool. Rows are sorted canonically before writing
and wall-clock timings are kept in memory only, which keeps repeated runs
byte-identical.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import assumption1_gamma, glasso_objective
from .errors import (
    ConstantColumn,
    Infeasible,
    LPNumericalFailure,
    NotPositiveDefinite,
    ResampleExhausted,
    SingularGamma,
)
from .estimators import EstimatorConfig, calibrate_lambda
from .matops import SymMatrix, to_correlation
from .metrics import random_guess_expectation, score
from .models import (
    Dataset,
    GroundTruthModel,
    LatentModelSpec,
    gene_model_from_correlation,
    latent_precision,
    random_a,
    rng_for,
    sample_covariance,
    sample_mvn,
    seed_fingerprint,
    standardize,
)

SCHEMA_TAG = "precis-lab v1"
MAX_ATTEMPTS = 5
_RETRYABLE = (NotPositiveDefinite, Infeasible, LPNumericalFailure, ConstantColumn)

DEFAULT_METHODS = ("glasso", "clime", "scio", "naive")

# Span-matched default grids; endpoints follow the regimes the experiments
# are meant to cover, with point counts kept desk-scale.
DEFAULT_NOISE_GRID = tuple(np.logspace(-2, 1, 13))          # sigma_eps values
DEFAULT_OUTDIM_GRID = tuple(range(4, 31, 2))                # d2 values
DEFAULT_INDIM_GRID = tuple(range(1, 11))                    # d1 values
DEFAULT_GAMMA_GRID = tuple(np.logspace(-2, 1, 13))          # coupling scales
DEFAULT_OBJECTIVE_GRID = tuple(np.logspace(-2, 0.5, 7))     # sigma_eps values
DEFAULT_GENE_DIMS = (5, 10, 20, 40)
DEFAULT_GENE_CUTOFFS = (1.0, 2.0, 5.0, 10.0, 20.0)

RECORD_COLUMNS = (
    "experiment",
    "swept",
    "value",
    "n",
    "method",
    "replicate",
    "seed",
    "status",
    "attempts",
    "lambda_used",
    "true_edges",
    "estimated_edges",
    "hamming",
    "precision",
    "gamma",
    "rand_hamming",
    "rand_precision",
    "obj_log_det",
    "obj_neg_trace",
    "obj_penalty",
    "obj_total",
    "truth_log_det",
    "truth_neg_trace",
    "truth_penalty",
    "truth_total",
    "truth_penalty_bound",
)

SUMMARY_COLUMNS = (
    "experiment",
    "swept",
    "value",
    "n",
    "method",
    "replicates_ok",
    "replicates_failed",
    "hamming_mean",
    "hamming_se",
    "precision_mean",
    "precision_se",
    "gamma_mean",
    "lambda_mean",
)

GENE_ASSUMPTION_COLUMNS = (
    "experiment",
    "d",
    "subset",
    "seed",
    "status",
    "resamples",
    "edges",
    "gamma",
)


@dataclass(frozen=True)
class SweepConfig:
    """Parameters shared by the latent-model sweeps.

    ``grid`` is the swept quantity of the experiment (noise standard
    deviations, dimensions or coupling scales). Defaults follow the usual
    test setting: two latent inputs, ten outputs, noise variance 0.01.
    """

    experiment: str
    grid: tuple = ()
    n: int = 1000
    d1: int = 2
    d2: int = 10
    sigma_x2: float = 1.0
    sigma_eps2: float = 0.01
    replicates: int = 10
    master_seed: int = 0
    methods: tuple = DEFAULT_METHODS
    scale: float = 1.0
    sparsity: float = 0.0
    penalize_diagonal: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        bad = [m for m in self.methods if m not in DEFAULT_METHODS]
        if bad:
            raise ValueError(f"unknown methods: {bad}")


@dataclass
class SweepRecord:
    """One (grid point, method, replicate) row of a sweep."""

    experiment: str
    swept: str
    value: float
    n: int
    method: str
    replicate: int
    seed: int
    status: str = "ok"
    attempts: int = 1
    lambda_used: float = math.nan
    true_edges: int = 0
    estimated_edges: int = 0
    hamming: float = math.nan
    precision: float = math.nan
    gamma: float = math.nan
    rand_hamming: float = math.nan
    rand_precision: float = math.nan
    obj_log_det: float = math.nan
    obj_neg_trace: float = math.nan
    obj_penalty: float = math.nan
    obj_total: float = math.nan
    truth_log_det: float = math.nan
    truth_neg_trace: float = math.nan
    truth_penalty: float = math.nan
    truth_total: float = math.nan
    truth_penalty_bound: float = math.nan
    wall_time: float = field(default=math.nan, compare=False)  # never serialised


@dataclass
class GeneAssumptionRecord:
    experiment: str
    d: int
    subset: int
    seed: int
    status: str = "ok"
    resamples: int = 0
    edges: int = 0
    gamma: float = math.nan


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return repr(v)


def _record_sort_key(r: SweepRecord):
    return (r.value, r.n, r.method, r.replicate)


def write_records(path, experiment: str, records: list[SweepRecord]) -> None:
    rows = sorted(records, key=_record_sort_key)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {SCHEMA_TAG} {experiment}\n")
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, col)) for col in RECORD_COLUMNS) + "\n")


def _mean_se(values: list[float]) -> tuple[float, float]:
    vals = [v for v in values if not math.isnan(v)]
    if not vals:
        return (math.nan, math.nan)
    mean = sum(vals) / len(vals)
    if len(vals) < 2:
        return (mean, 0.0)
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return (mean, math.sqrt(var / len(vals)))


def summarize(records: list[SweepRecord]) -> list[dict]:
    groups: dict[tuple, list[SweepRecord]] = {}
    for r in records:
        groups.setdefault((r.experiment, r.swept, r.value, r.n, r.method), []).append(r)
    rows = []
    for key in sorted(groups, key=lambda k: (k[2], k[3], k[4])):
        experiment, swept, value, n, method = key
        ok = [r for r in groups[key] if r.status.startswith("ok")]
        failed = [r for r in groups[key] if not r.status.startswith("ok")]
        h_mean, h_se = _mean_se([r.hamming for r in ok])
        p_mean, p_se = _mean_se([r.precision for r in ok])
        g_mean, _ = _mean_se([r.gamma for r in ok])
        l_mean, _ = _mean_se([r.lambda_used for r in ok])
        rows.append(
            {
                "experiment": experiment,
                "swept": swept,
                "value": value,
                "n": n,
                "method": method,
                "replicates_ok": len(ok),
                "replicates_failed": len(failed),
                "hamming_mean": h_mean,
                "hamming_se": h_se,
                "precision_mean": p_mean,
                "precision_se": p_se,
                "gamma_mean": g_mean,
                "lambda_mean": l_mean,
            }
        )
    return rows


def summary_path(out_path) -> Path:
    p = Path(out_path)
    suffix = p.suffix if p.suffix else ".csv"
    return p.with_name(p.stem + ".summary" + suffix)


def write_summary(path, experiment: str, records: list[SweepRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {SCHEMA_TAG} {experiment} summary\n")
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in summarize(records):
            fh.write(",".join(_fmt(row[col]) for col in SUMMARY_COLUMNS) + "\n")


def _run_pool(fn, tasks, workers: int):
    if workers <= 1:
        nested = [fn(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(fn, tasks))
    return [record for chunk in nested for record in chunk]


def _ok_status(attempt: int, converged: bool) -> str:
    """Status of a fit that ran: "ok", with the retry count and an
    unconverged solve noted in parentheses."""
    notes = ([f"retry={attempt}"] if attempt else []) + ([] if converged else ["unconverged"])
    return f"ok({','.join(notes)})" if notes else "ok"


def _estimate_methods(s: SymMatrix, model: GroundTruthModel, methods,
                      penalize_diagonal: bool, base: SweepRecord,
                      collect_objective: bool = False,
                      objective_extra: dict | None = None) -> list[SweepRecord]:
    records = []
    target = len(model.support)
    config = EstimatorConfig(penalize_diagonal=penalize_diagonal)
    for method in methods:
        start = time.perf_counter()
        outcome = calibrate_lambda(method, s, target, config=config)
        elapsed = time.perf_counter() - start
        sc = score(model.support, outcome.result.support)
        rh, rp = random_guess_expectation(s.dim, target, target)
        rec = replace(
            base,
            method=method,
            status=_ok_status(base.attempts - 1, outcome.result.converged),
            lambda_used=outcome.result.lambda_used,
            true_edges=target,
            estimated_edges=len(outcome.result.support),
            hamming=float(sc.hamming),
            precision=sc.precision,
            rand_hamming=rh,
            rand_precision=rp,
            wall_time=elapsed,
        )
        if collect_objective and outcome.result.objective_terms is not None:
            ld, nt, npen = outcome.result.objective_terms
            rec.obj_log_det = ld
            rec.obj_neg_trace = nt
            rec.obj_penalty = -npen
            rec.obj_total = ld + nt + npen
            truth = glasso_objective(
                model.precision, s, outcome.result.lambda_used, penalize_diagonal
            )
            rec.truth_log_det = truth.log_det_term
            rec.truth_neg_trace = truth.neg_trace_term
            rec.truth_penalty = truth.penalty_term
            rec.truth_total = truth.total
            if objective_extra:
                rec.truth_penalty_bound = outcome.result.lambda_used * objective_extra["bound_factor"]
        records.append(rec)
    return records


def _failure_records(base: SweepRecord, methods, error: Exception,
                     attempts: int) -> list[SweepRecord]:
    status = f"failed({type(error).__name__})"
    return [
        replace(base, method=method, status=status, attempts=attempts)
        for method in methods
    ]


def _latent_task(cfg: SweepConfig, swept: str, task) -> list[SweepRecord]:
    grid_idx, rep = task
    value = cfg.grid[grid_idx]
    d1, d2 = cfg.d1, cfg.d2
    sigma_eps2 = cfg.sigma_eps2
    if swept == "sigma_eps":
        sigma_eps2 = float(value) ** 2
    elif swept == "d2":
        d2 = int(value)
    elif swept == "d1":
        d1 = int(value)
    last_error: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        rng = rng_for(cfg.master_seed, grid_idx, rep, attempt)
        base = SweepRecord(
            experiment=cfg.experiment,
            swept=swept,
            value=float(value),
            n=cfg.n,
            method="",
            replicate=rep,
            seed=seed_fingerprint(cfg.master_seed, grid_idx, rep, attempt),
            attempts=attempt + 1,
        )
        try:
            a = random_a(d1, d2, cfg.scale, cfg.sparsity, rng)
            model = latent_precision(
                LatentModelSpec(d1, d2, cfg.sigma_x2, sigma_eps2, a)
            )
            data = sample_mvn(model.covariance, cfg.n, rng)
            s = sample_covariance(standardize(data))
            collect = cfg.experiment == "objective"
            extra = None
            if collect:
                extra = {
                    "bound_factor": (1.0 / sigma_eps2)
                    * (d2 + 2.0 * float(np.abs(a).sum()))
                }
            return _estimate_methods(
                s, model, cfg.methods, cfg.penalize_diagonal, base,
                collect_objective=collect, objective_extra=extra,
            )
        except _RETRYABLE as err:
            last_error = err
    base = SweepRecord(
        experiment=cfg.experiment,
        swept=swept,
        value=float(value),
        n=cfg.n,
        method="",
        replicate=rep,
        seed=seed_fingerprint(cfg.master_seed, grid_idx, rep, MAX_ATTEMPTS - 1),
    )
    return _failure_records(base, cfg.methods, last_error, MAX_ATTEMPTS)


def _all_tasks(cfg: SweepConfig):
    return [(gi, rep) for gi in range(len(cfg.grid)) for rep in range(cfg.replicates)]


def run_noise_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Sweep the noise standard deviation; grid values are sigma_eps."""
    fn = partial(_latent_task, cfg, "sigma_eps")
    return sorted(_run_pool(fn, _all_tasks(cfg), cfg.workers), key=_record_sort_key)


def run_dim_sweep(cfg: SweepConfig, axis: str = "outdim") -> list[SweepRecord]:
    """Sweep the output (d2) or input (d1) dimensionality."""
    if axis not in ("outdim", "indim"):
        raise ValueError("axis must be 'outdim' or 'indim'")
    swept = "d2" if axis == "outdim" else "d1"
    fn = partial(_latent_task, cfg, swept)
    return sorted(_run_pool(fn, _all_tasks(cfg), cfg.workers), key=_record_sort_key)


def run_objective_decomposition(cfg: SweepConfig) -> list[SweepRecord]:
    """Noise sweep that records the objective terms of the calibrated
    glasso solution and of the ground truth on the same input and lambda."""
    cfg = replace(cfg, experiment="objective", methods=("glasso",))
    fn = partial(_latent_task, cfg, "sigma_eps")
    return sorted(_run_pool(fn, _all_tasks(cfg), cfg.workers), key=_record_sort_key)


def latent_gamma_instance(a: np.ndarray, sigma_x2: float, sigma_eps2: float,
                          scale: float = 1.0):
    """Model with coupling a * scale plus the correlation-scale quantities
    the infinite-data experiment needs.

    Returns (gamma, correlation, model). The consistency norm is evaluated
    on the correlation-scale precision, which is the matrix the estimator
    effectively targets after data normalisation.
    """
    spec = LatentModelSpec(a.shape[1], a.shape[0], sigma_x2, sigma_eps2, scale * a)
    model = latent_precision(spec)
    corr = to_correlation(model.covariance)
    scale_vec = np.sqrt(model.covariance.values.diagonal())
    prec_corr = SymMatrix(np.outer(scale_vec, scale_vec) * model.precision.values)
    gamma = assumption1_gamma(prec_corr, model.support)
    return gamma, corr, model


def rescale_to_gamma(a: np.ndarray, sigma_x2: float, sigma_eps2: float,
                     gamma_lo: float, gamma_hi: float,
                     max_steps: int = 80) -> tuple[float, float]:
    """Find a coupling scale whose consistency norm lands inside
    (gamma_lo, gamma_hi); the norm grows continuously with the scale."""
    if not 0.0 < gamma_lo < gamma_hi:
        raise ValueError("need 0 < gamma_lo < gamma_hi")

    def gamma_at(scale: float) -> float:
        return latent_gamma_instance(a, sigma_x2, sigma_eps2, scale)[0]

    lo, hi = 1e-4, 1.0
    g_hi = gamma_at(hi)
    steps = 0
    while g_hi <= gamma_lo:
        hi *= 4.0
        g_hi = gamma_at(hi)
        steps += 1
        if steps > max_steps:
            raise ResampleExhausted("could not push the consistency norm high enough")
    if gamma_lo < g_hi < gamma_hi:
        return hi, g_hi
    g_lo = gamma_at(lo)
    while g_lo >= gamma_hi:
        lo /= 4.0
        g_lo = gamma_at(lo)
        steps += 1
        if steps > max_steps:
            raise ResampleExhausted("could not push the consistency norm low enough")
    if gamma_lo < g_lo < gamma_hi:
        return lo, g_lo
    while steps < max_steps:
        mid = math.sqrt(lo * hi)
        g_mid = gamma_at(mid)
        if gamma_lo < g_mid < gamma_hi:
            return mid, g_mid
        if g_mid <= gamma_lo:
            lo = mid
        else:
            hi = mid
        steps += 1
    raise ResampleExhausted("bisection on the coupling scale did not land in range")


def _gamma_task(cfg: SweepConfig, task) -> list[SweepRecord]:
    grid_idx, rep = task
    value = float(cfg.grid[grid_idx])
    last_error: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        rng = rng_for(cfg.master_seed, grid_idx, rep, attempt)
        base = SweepRecord(
            experiment=cfg.experiment,
            swept="a_scale",
            value=value,
            n=0,  # population input, no sampling
            method="glasso",
            replicate=rep,
            seed=seed_fingerprint(cfg.master_seed, grid_idx, rep, attempt),
            attempts=attempt + 1,
        )
        try:
            a = random_a(cfg.d1, cfg.d2, 1.0, cfg.sparsity, rng)
            gamma, corr, model = latent_gamma_instance(
                a, cfg.sigma_x2, cfg.sigma_eps2, value
            )
            target = len(model.support)
            config = EstimatorConfig(penalize_diagonal=cfg.penalize_diagonal)
            start = time.perf_counter()
            outcome = calibrate_lambda("glasso", corr, target, config=config)
            elapsed = time.perf_counter() - start
            sc = score(model.support, outcome.result.support)
            rh, rp = random_guess_expectation(corr.dim, target, target)
            return [
                replace(
                    base,
                    status=_ok_status(attempt, outcome.result.converged),
                    lambda_used=outcome.result.lambda_used,
                    true_edges=target,
                    estimated_edges=len(outcome.result.support),
                    hamming=float(sc.hamming),
                    precision=sc.precision,
                    gamma=gamma,
                    rand_hamming=rh,
                    rand_precision=rp,
                    wall_time=elapsed,
                )
            ]
        except (_RETRYABLE + (SingularGamma,)) as err:
            last_error = err
    base = SweepRecord(
        experiment=cfg.experiment,
        swept="a_scale",
        value=value,
        n=0,
        method="glasso",
        replicate=rep,
        seed=seed_fingerprint(cfg.master_seed, grid_idx, rep, MAX_ATTEMPTS - 1),
    )
    return _failure_records(base, ("glasso",), last_error, MAX_ATTEMPTS)


def run_gamma_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Infinite-data run: exact correlation input, consistency norm per
    coupling scale, calibrated glasso precision."""
    cfg = replace(cfg, experiment="gamma")
    fn = partial(_gamma_task, cfg)
    return sorted(_run_pool(fn, _all_tasks(cfg), cfg.workers), key=_record_sort_key)


def _gene_subset_model(expression: np.ndarray, d: int, delta: float,
                       rng: np.random.Generator,
                       max_resamples: int = 100) -> tuple[GroundTruthModel, int]:
    """Sample gene subsets until the thresholded model is positive definite."""
    n_genes = expression.shape[1]
    if d > n_genes:
        raise ValueError(f"subset size {d} exceeds available genes {n_genes}")
    for attempt in range(max_resamples):
        idx = rng.choice(n_genes, size=d, replace=False)
        sub = Dataset(expression[:, np.sort(idx)])
        c0 = sample_covariance(standardize(sub))
        try:
            return gene_model_from_correlation(c0, delta), attempt
        except (NotPositiveDefinite, ConstantColumn):
            continue
    raise ResampleExhausted(f"{max_resamples} subsets of size {d} all rejected")


def _gene_assumption_task(expression: np.ndarray, dims: tuple, delta: float,
                          master_seed: int, task) -> list[GeneAssumptionRecord]:
    d_idx, subset = task
    d = int(dims[d_idx])
    rng = rng_for(master_seed, d_idx, subset)
    rec = GeneAssumptionRecord(
        experiment="gene-assumption",
        d=d,
        subset=subset,
        seed=seed_fingerprint(master_seed, d_idx, subset),
    )
    try:
        model, resamples = _gene_subset_model(expression, d, delta, rng)
        rec.resamples = resamples
        rec.edges = len(model.support)
        rec.gamma = assumption1_gamma(model.precision, model.support)
    except (ResampleExhausted, SingularGamma) as err:
        rec.status = f"failed({type(err).__name__})"
    return [rec]


def run_gene_assumption(expression: np.ndarray, dims=DEFAULT_GENE_DIMS,
                        subsets_per_dim: int = 20, delta: float = 0.1,
                        master_seed: int = 0,
                        workers: int = 1) -> list[GeneAssumptionRecord]:
    """Per random gene subset: build the thresholded model and record the
    consistency norm; fractions under each cutoff come from the summary."""
    dims = tuple(int(d) for d in dims)
    tasks = [(di, s) for di in range(len(dims)) for s in range(subsets_per_dim)]
    fn = partial(_gene_assumption_task, expression, dims, delta, master_seed)
    records = _run_pool(fn, tasks, workers)
    return sorted(records, key=lambda r: (r.d, r.subset))


def gene_assumption_fractions(records: list[GeneAssumptionRecord],
                              cutoffs=DEFAULT_GENE_CUTOFFS) -> list[dict]:
    """Fraction of OK subsets per dimension with gamma below each cutoff."""
    by_d: dict[int, list[GeneAssumptionRecord]] = {}
    for r in records:
        by_d.setdefault(r.d, []).append(r)
    rows = []
    for d in sorted(by_d):
        ok = [r for r in by_d[d] if r.status == "ok" and not math.isnan(r.gamma)]
        row = {"d": d, "subsets_ok": len(ok), "subsets_failed": len(by_d[d]) - len(ok)}
        for c in cutoffs:
            frac = (
                sum(1 for r in ok if r.gamma < c) / len(ok) if ok else math.nan
            )
            row[f"frac_lt_{_fmt(float(c))}"] = frac
        rows.append(row)
    return rows


def write_gene_assumption(path, records: list[GeneAssumptionRecord],
                          cutoffs=DEFAULT_GENE_CUTOFFS) -> None:
    rows = sorted(records, key=lambda r: (r.d, r.subset))
    with open(path, "w", newline="") as fh:
        fh.write(f"# {SCHEMA_TAG} gene-assumption\n")
        fh.write(",".join(GENE_ASSUMPTION_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                ",".join(_fmt(getattr(r, col)) for col in GENE_ASSUMPTION_COLUMNS) + "\n"
            )
    frac_rows = gene_assumption_fractions(records, cutoffs)
    columns = ["d", "subsets_ok", "subsets_failed"] + [
        f"frac_lt_{_fmt(float(c))}" for c in cutoffs
    ]
    with open(summary_path(path), "w", newline="") as fh:
        fh.write(f"# {SCHEMA_TAG} gene-assumption summary\n")
        fh.write(",".join(columns) + "\n")
        for row in frac_rows:
            fh.write(",".join(_fmt(row[col]) for col in columns) + "\n")


def _gene_precision_task(expression: np.ndarray, dims: tuple, n_grid: tuple,
                         delta: float, master_seed: int,
                         penalize_diagonal: bool, task) -> list[SweepRecord]:
    d_idx, n_idx, rep = task
    d = int(dims[d_idx])
    n = int(n_grid[n_idx])
    last_error: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        rng = rng_for(master_seed, d_idx, n_idx, rep, attempt)
        base = SweepRecord(
            experiment="gene-precision",
            swept="d",
            value=float(d),
            n=n,
            method="glasso",
            replicate=rep,
            seed=seed_fingerprint(master_seed, d_idx, n_idx, rep, attempt),
            attempts=attempt + 1,
        )
        try:
            model, _ = _gene_subset_model(expression, d, delta, rng)
            data = sample_mvn(model.covariance, n, rng)
            s = sample_covariance(standardize(data))
            return _estimate_methods(
                s, model, ("glasso",), penalize_diagonal, base
            )
        except (_RETRYABLE + (ResampleExhausted,)) as err:
            last_error = err
    base = SweepRecord(
        experiment="gene-precision",
        swept="d",
        value=float(d),
        n=n,
        method="glasso",
        replicate=rep,
        seed=seed_fingerprint(master_seed, d_idx, n_idx, rep, MAX_ATTEMPTS - 1),
    )
    return _failure_records(base, ("glasso",), last_error, MAX_ATTEMPTS)


def run_gene_precision(expression: np.ndarray, dims=DEFAULT_GENE_DIMS,
                       n_grid=(500,), replicates: int = 10, delta: float = 0.1,
                       master_seed: int = 0, penalize_diagonal: bool = False,
                       workers: int = 1) -> list[SweepRecord]:
    """Sample data from gene-derived models and score calibrated glasso."""
    dims = tuple(int(d) for d in dims)
    n_grid = tuple(int(n) for n in n_grid)
    tasks = [
        (di, ni, rep)
        for di in range(len(dims))
        for ni in range(len(n_grid))
        for rep in range(replicates)
    ]
    fn = partial(
        _gene_precision_task, expression, dims, n_grid, delta, master_seed,
        penalize_diagonal,
    )
    return sorted(_run_pool(fn, tasks, workers), key=_record_sort_key)
