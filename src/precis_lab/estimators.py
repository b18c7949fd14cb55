"""Sparse precision-matrix estimators and the edge-count calibration wrapper.

Four estimators share one result type: glasso (penalised Gaussian
likelihood, block coordinate descent), CLIME (per-column linear programs),
SCIO (per-column penalised quadratics by an exact active-set solve) and a
naive thresholded inverse. ``calibrate_lambda`` tunes any of them so the
estimated graph has a requested number of edges, which is how all the
benchmark comparisons are run.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import math

import numpy as np

from .diagnostics import glasso_objective
from .errors import LPNumericalFailure, NotPositiveDefinite, NumericalDivergence, Unbounded
from .matops import SymMatrix, SupportSet, invert
from .simplex import solve_lp

# Magnitude below which a numerically produced entry is treated as a
# structural zero when reading off the support. The active-set solve yields
# exact zeros; this guards rounding from the final symmetrisation.
SUPPORT_EPSILON = 1e-8

# KKT certificate of one l1 quadratic solve: every glasso lasso block, and
# SCIO's default.
KKT_TOL = 1e-9

METHODS = ("glasso", "clime", "scio", "naive")


@dataclass(frozen=True)
class EstimatorConfig:
    """Shared knobs for the three penalised estimators.

    ``tol`` has a per-method default when None: 1e-5 for glasso's outer
    sweep criterion, ``KKT_TOL`` for SCIO's subgradient residual.
    ``max_iter`` caps glasso's sweeps.
    """

    lam: float = 0.0
    penalize_diagonal: bool = False
    max_iter: int = 200
    tol: float | None = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol is not None and self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class EstimateResult:
    """Estimated precision plus recovered support and solver telemetry.

    ``objective_terms`` is the decomposition (log_det, -trace, -penalty)
    of the penalised likelihood for glasso results, None otherwise.
    """

    omega: SymMatrix
    support: SupportSet
    lambda_used: float
    iterations: int
    converged: bool
    objective_terms: tuple[float, float, float] | None = None


def min_magnitude_symmetrize(raw: np.ndarray) -> np.ndarray:
    """Symmetrise a column-wise estimate by keeping the smaller-magnitude entry.

    For each (i, j) the value with smaller |.| among raw[i, j] and
    raw[j, i] wins, sign included; exact ties keep the row-major upper
    entry raw[i, j] for i < j. The diagonal is passed through.
    """
    a = np.asarray(raw, dtype=float)
    pick = np.where(np.abs(a) <= np.abs(a.T), a, a.T)
    out = np.triu(pick, 1)
    out = out + out.T
    np.fill_diagonal(out, a.diagonal())
    return out


def _kkt_violation(resid: np.ndarray, beta: np.ndarray, lam: float) -> float:
    nz = beta != 0.0
    viol = 0.0
    if nz.any():
        viol = float(np.abs(resid[nz] + lam * np.sign(beta[nz])).max())
    if not nz.all():
        viol = max(viol, float(np.abs(resid[~nz]).max()) - lam)
    return viol


def _l1_quadratic(v: np.ndarray, u: np.ndarray, lam: float, beta: np.ndarray,
                  tol: float) -> tuple[np.ndarray, int, bool]:
    """Exact feature-sign solve of min 0.5 b'Vb - u'b + lam ||b||_1.

    V must be symmetric positive definite; ``beta`` is the warm start and
    is updated in place. Each step solves the sign-restricted quadratic
    V_AA x = u_A - lam * sign_A on the active set A, as a correction from
    the current point, then moves to the best of its end point and the
    points on the way where a coefficient crosses zero, that coefficient
    becoming an exact zero. Once the nonzeros are optimal, the step first
    activates the zero coordinate that violates optimality most (feature-
    sign search; Lee, Battle, Raina & Ng, NIPS 2007). Returns (beta,
    steps, converged), converged meaning the KKT certificate is within
    ``tol``; the cap of 20 steps per coordinate guards against rounding
    cycles on near-singular blocks.
    """
    k = beta.size
    steps = 0
    while True:
        resid = v @ beta - u
        if _kkt_violation(resid, beta, lam) <= tol:
            return beta, steps, True
        if steps >= 20 * k:
            return beta, steps, False
        steps += 1
        active = beta != 0.0
        sign = np.sign(beta)
        if not active.any() or np.abs(resid[active] + lam * sign[active]).max() <= tol:
            worst = int(np.argmax(np.where(active, -np.inf, np.abs(resid))))
            sign[worst] = -np.sign(resid[worst])
            active[worst] = True
        idx = np.flatnonzero(active)
        x = beta[idx]
        v_aa = v[np.ix_(idx, idx)]
        try:
            d = np.linalg.solve(v_aa, -(resid[idx] + lam * sign[idx]))
        except np.linalg.LinAlgError as exc:
            raise NumericalDivergence("singular active block") from exc
        if not np.isfinite(d).all():
            raise NumericalDivergence("active-set solve lost finiteness")
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -x / d
        crossing = np.flatnonzero((x != 0.0) & (t > 0.0) & (t < 1.0))
        crossing = crossing[np.argsort(t[crossing], kind="stable")]
        points = x[:, None] + d[:, None] * np.append(t[crossing], 1.0)
        points[crossing, np.arange(crossing.size)] = 0.0
        # objective change at every candidate, measured from the current
        # point so that it does not cancel against the objective's size
        moves = points - x[:, None]
        change = (
            resid[idx] @ moves
            + 0.5 * np.einsum("im,im->m", moves, v_aa @ moves)
            + lam * (np.abs(points).sum(axis=0) - np.abs(x).sum())
        )
        beta[idx] = points[:, int(np.argmin(change))]


def glasso(s: SymMatrix, config: EstimatorConfig) -> EstimateResult:
    """L1-penalised Gaussian maximum-likelihood precision estimate.

    Maximises log det(omega) - trace(omega s) - lam * ||omega||_1 over
    positive definite matrices by block coordinate descent on the working
    covariance, one column at a time, each block being a lasso solved
    exactly by the active-set solve. With ``penalize_diagonal=False`` the
    penalty skips the diagonal. At lam = 0 the plain inverse is returned,
    which requires s to be positive definite.

    At a solution, every entry of inv(omega) - s lies within lam of zero
    where omega is zero and equals lam * sign(omega) where it is not
    (off-diagonal only when the diagonal is unpenalised). The result is
    flagged unconverged when the sweeps stop moving short of the
    tolerance, a block solve misses its certificate in the last sweep, or
    a block's diagonal update had to be clamped to stay positive.
    """
    result, _ = _glasso_impl(s, config, None)
    return result


def _glasso_impl(s: SymMatrix, config: EstimatorConfig,
                 init_coefs: np.ndarray | None) -> tuple[EstimateResult, np.ndarray]:
    lam = config.lam
    p = s.dim
    if np.any(s.values.diagonal() <= 0):
        raise ValueError("covariance input must have a positive diagonal")
    coefs = init_coefs.copy() if init_coefs is not None else np.zeros((p, p))
    if lam == 0.0:
        omega, sweeps, converged = invert(s).values, 0, True
    else:
        omega, sweeps, converged = _glasso_sweeps(s, config, coefs)
    estimate = SymMatrix.from_array(omega, symmetrize=True)
    try:
        terms = glasso_objective(estimate, s, lam, config.penalize_diagonal)
        objective = (terms.log_det_term, terms.neg_trace_term, -terms.penalty_term)
    except NotPositiveDefinite:
        objective = None
        converged = False
    result = EstimateResult(
        omega=estimate,
        support=SupportSet.from_matrix(omega, SUPPORT_EPSILON),
        lambda_used=lam,
        iterations=sweeps,
        converged=converged,
        objective_terms=objective,
    )
    return result, coefs


def _glasso_sweeps(s: SymMatrix, config: EstimatorConfig,
                   coefs: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Block coordinate descent at config.lam > 0, warm from the lasso
    coefficients ``coefs`` (updated in place). Returns (omega, sweeps,
    converged)."""
    lam = config.lam
    p = s.dim
    sv = s.values
    tol = config.tol if config.tol is not None else 1e-5
    w = sv.copy()
    if config.penalize_diagonal:
        w[np.diag_indices(p)] += lam
    omega = np.zeros((p, p))
    if p > 1:
        off_mean = (np.abs(sv).sum() - np.abs(sv.diagonal()).sum()) / (p * (p - 1))
    else:
        off_mean = 0.0
    thresh = tol * max(off_mean, 1e-12)

    idx_cache = [np.concatenate([np.arange(j), np.arange(j + 1, p)]) for j in range(p)]
    converged = False
    clamped = False
    sweeps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for sweeps in range(1, config.max_iter + 1):
            delta = 0.0
            blocks_ok = True
            for j in range(p):
                idx = idx_cache[j]
                v = w[np.ix_(idx, idx)]
                u = sv[idx, j]
                beta, _, ok = _l1_quadratic(v, u, lam, coefs[idx, j], KKT_TOL)
                blocks_ok = blocks_ok and ok
                coefs[idx, j] = beta
                w12 = v @ beta
                w[idx, j] = w12
                w[j, idx] = w12
                denom = w[j, j] - float(w12 @ beta)
                if not math.isfinite(denom):
                    raise NumericalDivergence("working covariance lost finiteness")
                if denom <= 0.0:
                    # near-singular working covariance: clamp so the sweep
                    # survives, and report the result unconverged
                    denom = 1e-12 * w[j, j]
                    clamped = True
                ojj = 1.0 / denom
                col = np.empty(p)
                col[idx] = -ojj * beta
                col[j] = ojj
                delta = max(delta, float(np.abs(omega[:, j] - col).max()))
                omega[:, j] = col
                omega[j, :] = col
            if delta <= thresh:
                converged = blocks_ok
                break
            if delta <= 1e-9 * float(np.abs(omega).max()):
                # machine-level relative stagnation on an ill-conditioned input;
                # further sweeps cannot move, report unconverged honestly
                break
    return omega, sweeps, converged and not clamped


def clime_columns(s: SymMatrix, lam: float) -> tuple[np.ndarray, int]:
    """Raw CLIME column estimates before symmetrisation.

    Column i minimises ||beta||_1 subject to ||s @ beta - e_i||_max <= lam,
    solved as a linear program over the split beta = u - v. Returns the
    (p, p) matrix of stacked columns and the total simplex pivot count.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    p = s.dim
    sv = s.values
    a_ub = np.vstack([np.hstack([sv, -sv]), np.hstack([-sv, sv])])
    cost = np.ones(2 * p)
    raw = np.zeros((p, p))
    pivots = 0
    for i in range(p):
        e = np.zeros(p)
        e[i] = 1.0
        b_ub = np.concatenate([lam + e, lam - e])
        try:
            lp = solve_lp(cost, a_ub, b_ub)
        except Unbounded as exc:  # cannot happen for an l1 objective
            raise LPNumericalFailure(f"column {i}: {exc}") from exc
        raw[:, i] = lp.x[:p] - lp.x[p:]
        pivots += lp.iterations
    return raw, pivots


def clime(s: SymMatrix, config: EstimatorConfig) -> EstimateResult:
    """Constrained l1-minimisation estimate with min-magnitude symmetrisation.

    Each column solves an exact linear program, so there is no iterative
    convergence flag to report; infeasibility (possible when lam is small
    and s is singular) raises Infeasible.
    """
    raw, pivots = clime_columns(s, config.lam)
    omega = min_magnitude_symmetrize(raw)
    return EstimateResult(
        omega=SymMatrix.from_array(omega, symmetrize=True),
        support=SupportSet.from_matrix(omega, SUPPORT_EPSILON),
        lambda_used=config.lam,
        iterations=pivots,
        converged=True,
        objective_terms=None,
    )


def scio_columns(s: SymMatrix, lam: float, tol: float = KKT_TOL,
                 init: np.ndarray | None = None) -> tuple[np.ndarray, int, bool]:
    """Raw SCIO column estimates before symmetrisation.

    Column i minimises 0.5 b' s b - b_i + lam ||b||_1 by the exact
    active-set solve, warm-started from column i of ``init`` when given.
    Returns (columns, total active-set steps, every column's KKT
    certificate within ``tol``). At lam = 0 the columns solve s b = e_i
    exactly.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    p = s.dim
    if lam == 0.0:
        return invert(s).values.copy(), 0, True
    sv = s.values
    raw = init.copy() if init is not None else np.zeros((p, p))
    total = 0
    all_ok = True
    for i in range(p):
        e = np.zeros(p)
        e[i] = 1.0
        beta, steps, ok = _l1_quadratic(sv, e, lam, raw[:, i].copy(), tol)
        raw[:, i] = beta
        total += steps
        all_ok = all_ok and ok
    return raw, total, all_ok


def scio(s: SymMatrix, config: EstimatorConfig) -> EstimateResult:
    """Sparse column-wise inverse estimate with min-magnitude symmetrisation."""
    result, _ = _scio_impl(s, config, None)
    return result


def _scio_impl(s: SymMatrix, config: EstimatorConfig,
               init: np.ndarray | None) -> tuple[EstimateResult, np.ndarray]:
    tol = config.tol if config.tol is not None else KKT_TOL
    raw, steps, ok = scio_columns(s, config.lam, tol=tol, init=init)
    omega = min_magnitude_symmetrize(raw)
    result = EstimateResult(
        omega=SymMatrix.from_array(omega, symmetrize=True),
        support=SupportSet.from_matrix(omega, SUPPORT_EPSILON),
        lambda_used=config.lam,
        iterations=steps,
        converged=ok,
        objective_terms=None,
    )
    return result, raw


def naive(s: SymMatrix, target_edges: int) -> EstimateResult:
    """Thresholded inverse keeping exactly ``target_edges`` off-diagonal pairs.

    The kept pairs are those of inv(s) with the largest magnitudes;
    magnitude ties are broken toward lexicographically smaller pairs so
    the result is deterministic. ``lambda_used`` records the implied
    magnitude cutoff (nan when no edges are requested).
    """
    p = s.dim
    max_pairs = p * (p - 1) // 2
    if not 0 <= target_edges <= max_pairs:
        raise ValueError(f"target_edges must be in [0, {max_pairs}]")
    omega0 = invert(s).values
    ii, jj = np.triu_indices(p, k=1)
    mags = np.abs(omega0[ii, jj])
    chosen = np.lexsort((jj, ii, -mags))[:target_edges]
    ci, cj = ii[chosen], jj[chosen]
    out = np.zeros_like(omega0)
    np.fill_diagonal(out, omega0.diagonal())
    out[ci, cj] = out[cj, ci] = omega0[ci, cj]
    cutoff = float(mags[chosen[-1]]) if target_edges else math.nan
    return EstimateResult(
        omega=SymMatrix(out),
        support=SupportSet(p, frozenset(zip(ci.tolist(), cj.tolist()))),
        lambda_used=cutoff,
        iterations=0,
        converged=True,
        objective_terms=None,
    )


@dataclass(frozen=True)
class CalibrationSearch:
    """Bracket and budget for the edge-count bisection.

    ``lambda_hi`` defaults to 1.1 times the largest off-diagonal |s|,
    which empties the support of every method on correlation-scale input.
    Once an exact hit exists, bisection stops as soon as the bracket ratio
    drops under ``rel_gap_stop`` (the preference for the largest lambda
    achieving the target is then settled to within that factor).
    """

    lambda_lo: float = 1e-6
    lambda_hi: float | None = None
    max_steps: int = 60
    refine_points: int = 16
    rel_gap_stop: float = 1.05

    def __post_init__(self):
        if self.lambda_lo <= 0:
            raise ValueError("lambda_lo must be positive")
        if self.lambda_hi is not None and self.lambda_hi <= self.lambda_lo:
            raise ValueError("lambda_hi must exceed lambda_lo")
        if self.max_steps < 1 or self.rel_gap_stop < 1.0:
            raise ValueError("invalid search budget")


@dataclass(frozen=True)
class CalibrationOutcome:
    """Result of tuning lambda to a requested edge count."""

    result: EstimateResult
    target_edges: int
    achieved_edges: int
    exact: bool
    evaluations: int


def calibrate_lambda(method: str, s: SymMatrix, target_edges: int, *,
                     config: EstimatorConfig | None = None,
                     search: CalibrationSearch | None = None) -> CalibrationOutcome:
    """Tune lambda so the estimated support has ``target_edges`` pairs.

    Bisects on the (empirically monotone) edge count over a log-lambda
    bracket, preferring the largest lambda that achieves the target. When
    the count jumps over the target, a short refinement sweep runs inside
    the final bracket and the closest achievable count wins, preferring
    one extra edge over one missing edge. Targets beyond what the method
    can produce are clamped to the closest achievable count and flagged
    via ``exact=False``; the best result found is always returned.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    p = s.dim
    max_pairs = p * (p - 1) // 2
    requested = int(target_edges)
    target = min(max(requested, 0), max_pairs)

    if method == "naive":
        result = naive(s, target)
        return CalibrationOutcome(
            result=result,
            target_edges=requested,
            achieved_edges=len(result.support),
            exact=len(result.support) == requested,
            evaluations=1,
        )

    config = config if config is not None else EstimatorConfig()
    search = search if search is not None else CalibrationSearch()

    warm: dict[float, np.ndarray] = {}
    evals: dict[float, tuple[int, EstimateResult | None]] = {}

    def run(lam: float) -> int:
        if lam in evals:
            return evals[lam][0]
        init = None
        if warm:
            nearest = min(warm, key=lambda k: abs(math.log(k) - math.log(lam)))
            init = warm[nearest]
        cfg = replace(config, lam=lam)
        try:
            if method == "glasso":
                result, state = _glasso_impl(s, cfg, init)
            elif method == "scio":
                result, state = _scio_impl(s, cfg, init)
            else:
                result = clime(s, cfg)
                state = None
        except NumericalDivergence:
            # the solver blew up at a near-zero lambda on extreme input; in
            # that limit the solution is dense, so steer the bracket with a
            # dense count and keep no usable result for this lambda
            evals[lam] = (max_pairs, None)
            return max_pairs
        if state is not None:
            warm[lam] = state
        evals[lam] = (len(result.support), result)
        return evals[lam][0]

    off = np.abs(s.values).copy()
    np.fill_diagonal(off, 0.0)
    lo = search.lambda_lo
    hi = search.lambda_hi if search.lambda_hi is not None else 1.1 * float(off.max())
    if hi <= lo:
        hi = 10.0 * lo

    count_lo = run(lo)
    run(hi)

    def exact_lambdas():
        return [
            lam
            for lam, (count, result) in evals.items()
            if count == target and result is not None
        ]

    if count_lo >= target:
        steps = 0
        while steps < search.max_steps:
            hits = exact_lambdas()
            if hits and hi / lo <= search.rel_gap_stop:
                break
            if hi - lo <= 1e-15 * max(1.0, hi):
                break
            mid = math.sqrt(lo * hi)
            if mid <= lo or mid >= hi:
                break
            steps += 1
            if run(mid) >= target:
                lo = mid
            else:
                hi = mid
        if not exact_lambdas() and search.refine_points > 2:
            for lam in np.geomspace(lo, hi, search.refine_points)[1:-1]:
                run(float(lam))

    hits = exact_lambdas()
    if hits:
        # largest lambda among the converged hits, if any converged
        best = max(hits, key=lambda lam: (evals[lam][1].converged, lam))
        count, result = evals[best]
        return CalibrationOutcome(
            result=result,
            target_edges=requested,
            achieved_edges=count,
            exact=(count == requested),
            evaluations=len(evals),
        )
    # no exact hit: nearest count wins, overshoot preferred, then larger lambda
    usable = [lam for lam, (_, result) in evals.items() if result is not None]
    if not usable:
        raise NumericalDivergence("every calibration evaluation diverged")
    best = min(
        usable,
        key=lambda lam: (
            abs(evals[lam][0] - target),
            0 if evals[lam][0] > target else 1,
            -lam,
        ),
    )
    count, result = evals[best]
    return CalibrationOutcome(
        result=result,
        target_edges=requested,
        achieved_edges=count,
        exact=False,
        evaluations=len(evals),
    )
