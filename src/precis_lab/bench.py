"""Experiment orchestration: sweeps over model parameters, CSV emission.

Each experiment expands into independent (grid point, replicate) tasks
that own their RNG stream, so results are identical whether tasks run
serially or in a process pool. Rows are sorted canonically before writing
and hold no timings, which keeps repeated runs byte-identical.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

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
from .estimators import METHODS, calibrate_lambda
from .matops import SymMatrix, to_correlation
from .metrics import random_guess_expectation, score
from .models import (
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
# Gene subsets drawn before a subset size is given up as always rejected.
MAX_RESAMPLES = 100
_RETRYABLE = (NotPositiveDefinite, Infeasible, LPNumericalFailure, ConstantColumn,
              SingularGamma, ResampleExhausted)

DEFAULT_METHODS = METHODS


class Experiment(NamedTuple):
    """A latent sweep: the quantity its grid sets (the CSV's ``swept``
    column), its command's default grid, and whether it fits glasso alone."""

    swept: str
    grid: tuple
    glasso_only: bool


# Span-matched default grids; endpoints follow the regimes the experiments
# are meant to cover, with point counts kept desk-scale.
EXPERIMENTS = {
    "noise": Experiment("sigma_eps", tuple(np.logspace(-2, 1, 13)), False),
    "outdim": Experiment("d2", tuple(range(4, 31, 2)), False),
    "indim": Experiment("d1", tuple(range(1, 11)), False),
    "gamma": Experiment("a_scale", tuple(np.logspace(-2, 1, 13)), True),
    "objective": Experiment("sigma_eps", tuple(np.logspace(-2, 0.5, 7)), True),
}
# What a grid value must be, by the quantity it sets.
_GRID_RULES = {
    "sigma_eps": ("finite and > 0", lambda v: math.isfinite(v) and v > 0),
    "d2": ("an integer >= 1", lambda v: v.is_integer() and v >= 1),
    "d1": ("an integer >= 1", lambda v: v.is_integer() and v >= 1),
    "a_scale": ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0),
}
DEFAULT_GENE_DIMS = (5, 10, 20, 40)
DEFAULT_GENE_CUTOFFS = (1.0, 2.0, 5.0, 10.0, 20.0)

@dataclass(frozen=True)
class SweepConfig:
    """Parameters shared by the latent-model sweeps.

    ``experiment`` names a row of ``EXPERIMENTS``, and ``grid`` holds the
    values of that row's swept quantity, read in place of one field: noise
    standard deviations in place of ``sigma_eps2`` (noise, objective), d2
    (outdim), d1 (indim), coupling scales in place of ``scale`` (gamma,
    which fits the population correlation and so reads no ``n`` either).
    An unread field may be set, to no effect: a default cannot be told
    apart from a given value. Defaults follow the usual test setting: two
    latent inputs, ten outputs, noise variance 0.01. Raises ValueError for
    an experiment outside the table, methods other than glasso alone for
    a glasso-only experiment, and a grid value its quantity cannot take.
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
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"expected one of {', '.join(EXPERIMENTS)}")
        swept, _, glasso_only = EXPERIMENTS[self.experiment]
        if glasso_only and self.methods != ("glasso",):
            raise ValueError(f"the {self.experiment} sweep fits glasso only, "
                             f"not {','.join(self.methods)}")
        rule, ok = _GRID_RULES[swept]
        bad = [v for v in map(float, self.grid) if not ok(v)]
        if bad:
            raise ValueError(f"the {self.experiment} grid sets {swept}, which must be "
                             f"{rule}, not {', '.join(map(repr, bad))}")


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


@dataclass
class SummaryRow:
    """Means over the replicates of one (grid point, method) of a sweep."""

    experiment: str
    swept: str
    value: float
    n: int
    method: str
    replicates_ok: int
    replicates_failed: int
    hamming_mean: float
    hamming_se: float
    precision_mean: float
    precision_se: float
    gamma_mean: float
    lambda_mean: float


# Each CSV's columns are its row type's fields, in declaration order.
RECORD_COLUMNS = tuple(f.name for f in fields(SweepRecord))
SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))
GENE_ASSUMPTION_COLUMNS = tuple(f.name for f in fields(GeneAssumptionRecord))


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return repr(v)


_record_sort_key = attrgetter("value", "n", "method", "replicate")
_gene_sort_key = attrgetter("d", "subset")


def _write_csv(path, title: str, columns, rows) -> None:
    """Schema comment, header, then one line per row of values."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {SCHEMA_TAG} {title}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_records(path, experiment: str, records: list[SweepRecord]) -> None:
    rows = sorted(records, key=_record_sort_key)
    _write_csv(path, experiment, RECORD_COLUMNS, map(attrgetter(*RECORD_COLUMNS), rows))


def _mean_se(values: list[float]) -> tuple[float, float]:
    vals = [v for v in values if not math.isnan(v)]
    if not vals:
        return (math.nan, math.nan)
    mean = sum(vals) / len(vals)
    if len(vals) < 2:
        return (mean, 0.0)
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return (mean, math.sqrt(var / len(vals)))


def summarize(records: list[SweepRecord]) -> list[SummaryRow]:
    groups: dict[tuple, list[SweepRecord]] = {}
    for r in records:
        groups.setdefault((r.experiment, r.swept, r.value, r.n, r.method), []).append(r)
    rows = []
    for key in sorted(groups, key=lambda k: (k[2], k[3], k[4])):
        ok = [r for r in groups[key] if r.status.startswith("ok")]
        h_mean, h_se = _mean_se([r.hamming for r in ok])
        p_mean, p_se = _mean_se([r.precision for r in ok])
        rows.append(SummaryRow(
            *key,
            replicates_ok=len(ok),
            replicates_failed=len(groups[key]) - len(ok),
            hamming_mean=h_mean,
            hamming_se=h_se,
            precision_mean=p_mean,
            precision_se=p_se,
            gamma_mean=_mean_se([r.gamma for r in ok])[0],
            lambda_mean=_mean_se([r.lambda_used for r in ok])[0],
        ))
    return rows


def summary_path(out_path) -> Path:
    p = Path(out_path)
    suffix = p.suffix if p.suffix else ".csv"
    return p.with_name(p.stem + ".summary" + suffix)


def write_summary(path, experiment: str, records: list[SweepRecord]) -> None:
    _write_csv(path, f"{experiment} summary", SUMMARY_COLUMNS,
               map(attrgetter(*SUMMARY_COLUMNS), summarize(records)))


def _run_pool(fn, shape: tuple, workers: int, key) -> list:
    """Records of ``fn(task)`` over the index tuples of a grid of ``shape``,
    run serially or on ``workers`` processes, sorted by ``key``."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    tasks = itertools.product(*map(range, shape))
    if workers == 1:
        nested = [fn(task) for task in tasks]
    else:
        # here, not at the top: it loads multiprocessing, 20 ms of every start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(fn, tasks))
    return sorted(itertools.chain.from_iterable(nested), key=key)


def _ok_status(attempt: int, converged: bool) -> str:
    """Status of a fit that ran: "ok", with the retry count and an
    unconverged solve noted in parentheses."""
    notes = ([f"retry={attempt}"] if attempt else []) + ([] if converged else ["unconverged"])
    return f"ok({','.join(notes)})" if notes else "ok"


def _estimate_methods(s: SymMatrix, model: GroundTruthModel, methods,
                      penalize_diagonal: bool, base: SweepRecord,
                      bound_factor: float | None = None) -> list[SweepRecord]:
    """Calibrate and score each method, glasso with ``penalize_diagonal``; with
    ``bound_factor``, also record the objective terms of the fit and of the
    truth at the same lambda, and ``bound_factor * lambda`` as its penalty bound."""
    records = []
    target = len(model.support)
    rh, rp = random_guess_expectation(s.dim, target, target)
    for method in methods:
        outcome = calibrate_lambda(method, s, target,
                                   penalize_diagonal=penalize_diagonal and method == "glasso")
        sc = score(model.support, outcome.result.support)
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
        )
        if bound_factor is not None:
            lam = outcome.result.lambda_used
            try:
                fit = glasso_objective(outcome.result.omega, s, lam, penalize_diagonal)
            except NotPositiveDefinite:
                # an estimate that does not factor has no objective, and
                # glasso has flagged it unconverged; the row keeps the
                # objective and truth cells empty
                pass
            else:
                truth = glasso_objective(model.precision, s, lam, penalize_diagonal)
                rec.obj_log_det = fit.log_det_term
                rec.obj_neg_trace = fit.neg_trace_term
                rec.obj_penalty = fit.penalty_term
                rec.obj_total = fit.total
                rec.truth_log_det = truth.log_det_term
                rec.truth_neg_trace = truth.neg_trace_term
                rec.truth_penalty = truth.penalty_term
                rec.truth_total = truth.total
                rec.truth_penalty_bound = lam * bound_factor
        records.append(rec)
    return records


def _with_retries(fit, methods, master_seed: int, key: tuple,
                  **fields) -> list[SweepRecord]:
    """Records of ``fit(rng, base)`` on the stream of the first of up to
    MAX_ATTEMPTS attempts that raises no retryable error. When every attempt
    fails, one failed record per method, with the last stream's seed."""
    for attempt in range(MAX_ATTEMPTS):
        base = SweepRecord(
            **fields,
            method="",
            seed=seed_fingerprint(master_seed, *key, attempt),
            attempts=attempt + 1,
        )
        try:
            return fit(rng_for(master_seed, *key, attempt), base)
        except _RETRYABLE as err:
            status = f"failed({type(err).__name__})"
    return [replace(base, method=method, status=status) for method in methods]


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

    def fit(rng, base):
        a = random_a(d1, d2, cfg.scale, cfg.sparsity, rng)
        model = latent_precision(LatentModelSpec(d1, d2, cfg.sigma_x2, sigma_eps2, a))
        data = sample_mvn(model.covariance, cfg.n, rng)
        s = sample_covariance(standardize(data))
        bound_factor = None
        if cfg.experiment == "objective":
            bound_factor = (1.0 / sigma_eps2) * (d2 + 2.0 * float(np.abs(a).sum()))
        return _estimate_methods(s, model, cfg.methods, cfg.penalize_diagonal, base,
                                 bound_factor)

    return _with_retries(fit, cfg.methods, cfg.master_seed, task,
                         experiment=cfg.experiment, swept=swept, value=float(value),
                         n=cfg.n, replicate=rep)


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


def _gamma_task(cfg: SweepConfig, swept: str, task) -> list[SweepRecord]:
    grid_idx, rep = task
    value = float(cfg.grid[grid_idx])

    def fit(rng, base):
        a = random_a(cfg.d1, cfg.d2, 1.0, cfg.sparsity, rng)
        gamma, corr, model = latent_gamma_instance(a, cfg.sigma_x2, cfg.sigma_eps2, value)
        return _estimate_methods(corr, model, cfg.methods, cfg.penalize_diagonal,
                                 replace(base, gamma=gamma))

    # n = 0: population input, no sampling
    return _with_retries(fit, cfg.methods, cfg.master_seed, task,
                         experiment=cfg.experiment, swept=swept, value=value,
                         n=0, replicate=rep)


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Run the latent sweep ``cfg.experiment`` names over its grid and
    replicates. The gamma sweep fits the exact correlation at each coupling
    scale and records its consistency norm; the objective sweep records the
    objective terms of the calibrated glasso fit and of the ground truth on
    the same input and lambda."""
    swept = EXPERIMENTS[cfg.experiment].swept
    # the tasks are looked up here, at call time, so a wrapper put in their
    # place (a tracer's, say) runs
    task = _gamma_task if cfg.experiment == "gamma" else _latent_task
    return _run_pool(partial(task, cfg, swept), (len(cfg.grid), cfg.replicates),
                     cfg.workers, _record_sort_key)


# perfbench/workloads.py calls the noise sweep by this name; ROADMAP item 1 removes it.
run_noise_sweep = run_sweep


def _gene_subset_model(expression: np.ndarray, d: int, delta: float,
                       rng: np.random.Generator) -> tuple[GroundTruthModel, int]:
    """Sample gene subsets until the thresholded model is positive definite."""
    n_genes = expression.shape[1]
    if d > n_genes:
        raise ValueError(f"subset size {d} exceeds available genes {n_genes}")
    for attempt in range(MAX_RESAMPLES):
        idx = rng.choice(n_genes, size=d, replace=False)
        c0 = sample_covariance(standardize(expression[:, np.sort(idx)]))
        try:
            return gene_model_from_correlation(c0, delta), attempt
        except (NotPositiveDefinite, ConstantColumn):
            continue
    raise ResampleExhausted(f"{MAX_RESAMPLES} subsets of size {d} all rejected")


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
    fn = partial(_gene_assumption_task, expression, dims, delta, master_seed)
    return _run_pool(fn, (len(dims), subsets_per_dim), workers, _gene_sort_key)


def fraction_columns(cutoffs) -> list[str]:
    """The gene-assumption summary's columns. Raises ValueError on a nan
    cutoff, whose column would have no name, and on a repeated one, whose
    two columns would merge."""
    cutoffs = [float(c) for c in cutoffs]
    if any(math.isnan(c) for c in cutoffs) or len(set(cutoffs)) != len(cutoffs):
        raise ValueError(f"cutoffs must be distinct numbers, got {cutoffs}")
    return ["d", "subsets_ok", "subsets_failed"] + [f"frac_lt_{_fmt(c)}" for c in cutoffs]


def gene_assumption_fractions(records: list[GeneAssumptionRecord],
                              cutoffs=DEFAULT_GENE_CUTOFFS) -> list[dict]:
    """Fraction of OK subsets per dimension with gamma below each cutoff."""
    by_d: dict[int, list[GeneAssumptionRecord]] = {}
    for r in records:
        by_d.setdefault(r.d, []).append(r)
    rows = []
    for d in sorted(by_d):
        ok = [r.gamma for r in by_d[d] if r.status == "ok" and not math.isnan(r.gamma)]
        fracs = [sum(g < c for g in ok) / len(ok) if ok else math.nan for c in cutoffs]
        values = [d, len(ok), len(by_d[d]) - len(ok), *fracs]
        rows.append(dict(zip(fraction_columns(cutoffs), values)))
    return rows


def write_gene_assumption(path, records: list[GeneAssumptionRecord],
                          cutoffs=DEFAULT_GENE_CUTOFFS) -> None:
    rows = sorted(records, key=_gene_sort_key)
    _write_csv(path, "gene-assumption", GENE_ASSUMPTION_COLUMNS,
               map(attrgetter(*GENE_ASSUMPTION_COLUMNS), rows))
    _write_csv(summary_path(path), "gene-assumption summary", fraction_columns(cutoffs),
               map(dict.values, gene_assumption_fractions(records, cutoffs)))


def _gene_precision_task(expression: np.ndarray, dims: tuple, n_grid: tuple,
                         delta: float, master_seed: int,
                         penalize_diagonal: bool, task) -> list[SweepRecord]:
    d_idx, n_idx, rep = task
    d = int(dims[d_idx])
    n = int(n_grid[n_idx])

    def fit(rng, base):
        model, _ = _gene_subset_model(expression, d, delta, rng)
        data = sample_mvn(model.covariance, n, rng)
        s = sample_covariance(standardize(data))
        return _estimate_methods(s, model, ("glasso",), penalize_diagonal, base)

    return _with_retries(fit, ("glasso",), master_seed, task,
                         experiment="gene-precision", swept="d", value=float(d),
                         n=n, replicate=rep)


def run_gene_precision(expression: np.ndarray, dims=DEFAULT_GENE_DIMS,
                       n_grid=(500,), replicates: int = 10, delta: float = 0.1,
                       master_seed: int = 0, penalize_diagonal: bool = False,
                       workers: int = 1) -> list[SweepRecord]:
    """Sample data from gene-derived models and score calibrated glasso."""
    dims = tuple(int(d) for d in dims)
    n_grid = tuple(int(n) for n in n_grid)
    fn = partial(_gene_precision_task, expression, dims, n_grid, delta, master_seed,
                 penalize_diagonal)
    return _run_pool(fn, (len(dims), len(n_grid), replicates), workers, _record_sort_key)
