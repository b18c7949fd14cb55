"""Sparse precision-matrix estimators and the edge-count calibration wrapper.

Four estimators share one result type: glasso (penalised Gaussian
likelihood, block coordinate descent), CLIME (per-column linear programs),
SCIO (per-column penalised quadratics by an exact active-set solve) and a
naive thresholded inverse. ``calibrate_lambda`` tunes any of them so the
estimated graph has a requested number of edges, which is how all the
benchmark comparisons are run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NotPositiveDefinite, NumericalDivergence
from .matops import SymMatrix, SupportSet, invert, log_det
from .simplex import LPResult, solve_lp

# Magnitude below which a numerically produced entry is treated as a
# structural zero when reading off the support. The active-set solve yields
# exact zeros; this guards rounding from the final symmetrisation.
SUPPORT_EPSILON = 1e-8

# KKT certificate of one l1 quadratic solve: every glasso lasso block and
# every SCIO column.
KKT_TOL = 1e-9

# Glasso stops at the first sweep in which no lasso block takes a step; a
# fit still stepping after GLASSO_MAX_SWEEPS sweeps is unconverged.
GLASSO_MAX_SWEEPS = 200

METHODS = ("glasso", "clime", "scio", "naive")


@dataclass(frozen=True)
class EstimatorConfig:
    """The penalty of the three penalised estimators: its weight ``lam``
    and, for glasso alone, whether it covers the diagonal. Every solver
    budget and tolerance is a module constant."""

    lam: float = 0.0
    penalize_diagonal: bool = False

    def __post_init__(self):
        _check_lam(self.lam)


def _check_lam(lam: float) -> None:
    """Reject a penalty weight that is negative, nan or infinite."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


@dataclass(frozen=True)
class EstimateResult:
    """Estimated precision plus recovered support and solver telemetry."""

    omega: SymMatrix
    support: SupportSet
    lambda_used: float
    iterations: int
    converged: bool


def _check_diagonal_penalty(method: str, penalize_diagonal: bool) -> None:
    """Reject ``penalize_diagonal`` for any method but glasso: CLIME and SCIO
    always penalise the whole column (Cai, Liu & Luo, JASA 2011; Liu & Luo,
    JMVA 2015), and naive has no penalty."""
    if penalize_diagonal and method != "glasso":
        raise ValueError(f"penalize_diagonal applies to glasso only, not {method}")


def _penalised_result(omega: SymMatrix, lam: float, iterations: int,
                      converged: bool) -> EstimateResult:
    """The result of a glasso, CLIME or SCIO fit with estimate ``omega``."""
    return EstimateResult(
        omega=omega,
        support=SupportSet.from_matrix(omega, SUPPORT_EPSILON),
        lambda_used=lam,
        iterations=iterations,
        converged=converged,
    )


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


def _l1_quadratic(v: np.ndarray, u: np.ndarray, lam: float,
                  beta: np.ndarray) -> tuple[np.ndarray, int, bool, np.ndarray]:
    """Exact feature-sign solve of min 0.5 b'Vb - u'b + lam ||b||_1.

    V must be symmetric positive definite; ``beta`` is the warm start and
    is updated in place. Each step solves the sign-restricted quadratic
    V_AA x = u_A - lam * sign_A on the active set A, as a correction from
    the current point, then moves to the best of its end point and the
    points on the way where a coefficient crosses zero, that coefficient
    becoming an exact zero. Once the nonzeros are optimal, the step first
    activates the zero coordinate that violates optimality most (feature-
    sign search; Lee, Battle, Raina & Ng, NIPS 2007). Returns (beta,
    steps, converged, V @ beta), converged meaning the KKT certificate is
    within ``KKT_TOL``; the cap of 20 steps per coordinate guards against
    rounding cycles on near-singular blocks.
    """
    k = beta.size
    steps = 0
    while True:
        vb = v @ beta
        resid = vb - u
        sign = np.sign(beta)
        active = sign != 0.0
        # one pass serves the KKT certificate and the activation test: g is
        # |resid + lam * sign| on the nonzeros, which must be within KKT_TOL,
        # and |resid| on the zeros, which must be within lam + KKT_TOL (the
        # initial values cover k = 0, glasso's block at p = 1)
        signed = resid + lam * sign
        g = np.abs(signed)
        nonzero_viol = np.where(active, g, 0.0).max(initial=0.0)
        free = np.where(active, -np.inf, g)
        if nonzero_viol <= KKT_TOL and free.max(initial=-np.inf) - lam <= KKT_TOL:
            return beta, steps, True, vb
        if steps >= 20 * k:
            return beta, steps, False, vb
        steps += 1
        if nonzero_viol <= KKT_TOL:
            worst = int(np.argmax(free))
            sign[worst] = -np.sign(resid[worst])
            active[worst] = True
            signed[worst] = resid[worst] + lam * sign[worst]
        idx = np.flatnonzero(active)
        x = beta[idx]
        v_aa = v.take(idx, 0).take(idx, 1)
        try:
            d = np.linalg.solve(v_aa, -signed[idx])
        except np.linalg.LinAlgError as exc:
            raise NumericalDivergence("singular active block") from exc
        if not np.isfinite(d).all():
            raise NumericalDivergence("active-set solve lost finiteness")
        t = np.divide(-x, d, out=np.zeros_like(x), where=(x != 0.0) & (d != 0.0))
        crossing = np.flatnonzero((t > 0.0) & (t < 1.0))
        if crossing.size == 0:
            beta[idx] = x + d
            continue
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
    (off-diagonal only when the diagonal is unpenalised). The sweeps stop
    at the first in which no block takes a step, each meeting its KKT
    certificate (``KKT_TOL``) at its warm start; the result is unconverged
    if that takes more than GLASSO_MAX_SWEEPS, a block's diagonal update
    was clamped to stay positive, or the estimate does not factor.
    """
    result, _ = _glasso_impl(s, config, None)
    return result


def _glasso_impl(s: SymMatrix, config: EstimatorConfig,
                 init: tuple[np.ndarray, np.ndarray] | None
                 ) -> tuple[EstimateResult, tuple[np.ndarray, np.ndarray]]:
    """Glasso warm-started from ``init``, the (lasso coefficients, working
    covariance) of an earlier fit, or cold from (0, s); returns the result
    and its own (coefficients, working covariance)."""
    lam = config.lam
    p = s.dim
    if np.any(s.values.diagonal() <= 0):
        raise ValueError("covariance input must have a positive diagonal")
    coefs, w = (np.zeros((p, p)), s.values) if init is None else init
    coefs, w = coefs.copy(), w.copy()
    if lam == 0.0:
        omega, sweeps, converged = invert(s).values, 0, True
    else:
        omega, sweeps, converged = _glasso_sweeps(s, config, coefs, w)
    estimate = SymMatrix(omega)
    try:
        log_det(estimate)  # factors the estimate, or raises
    except NotPositiveDefinite:
        converged = False
    return _penalised_result(estimate, lam, sweeps, converged), (coefs, w)


def _glasso_sweeps(s: SymMatrix, config: EstimatorConfig, coefs: np.ndarray,
                   w: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Block coordinate descent at config.lam > 0 from the lasso coefficients
    ``coefs`` and working covariance ``w``, both updated in place, w's
    diagonal reset to s_jj (+ lam if penalised). Returns (omega, sweeps,
    converged); omega is exactly symmetric, row and column j written together."""
    lam = config.lam
    p = s.dim
    sv = s.values
    np.fill_diagonal(w, sv.diagonal() + (lam if config.penalize_diagonal else 0.0))
    omega = np.zeros((p, p))
    idx_cache = [np.concatenate([np.arange(j), np.arange(j + 1, p)]) for j in range(p)]
    clamped = False
    with np.errstate(over="ignore", invalid="ignore"):
        for sweeps in range(1, GLASSO_MAX_SWEEPS + 1):
            moved = False
            for j in range(p):
                idx = idx_cache[j]
                v = w.take(idx, 0).take(idx, 1)
                u = sv[idx, j]
                beta, steps, _, w12 = _l1_quadratic(v, u, lam, coefs[idx, j])
                moved = moved or steps > 0
                coefs[idx, j] = beta
                w[idx, j] = w[j, idx] = w12
                denom = w[j, j] - float(w12 @ beta)
                if not math.isfinite(denom):
                    raise NumericalDivergence("working covariance lost finiteness")
                if denom <= 0.0:
                    # near-singular working covariance: clamp so the sweep
                    # survives, and report the result unconverged
                    denom = 1e-12 * w[j, j]
                    clamped = True
                ojj = 1.0 / denom
                omega[idx, j] = omega[j, idx] = -ojj * beta
                omega[j, j] = ojj
            if not moved:
                return omega, sweeps, not clamped
    return omega, GLASSO_MAX_SWEEPS, False


def clime_columns(s: SymMatrix, lam: float) -> tuple[np.ndarray, int]:
    """Raw CLIME column estimates before symmetrisation.

    Column i minimises ||beta||_1 subject to ||s @ beta - e_i||_max <= lam,
    a linear program over the split beta = u - v with all-one costs,
    solved by the dual simplex from the all-slack basis. Returns the
    (p, p) matrix of stacked columns and the total simplex pivot count.
    """
    raw, pivots, _ = _clime_lps(s, lam, None)
    return raw, pivots


def _clime_lps(s: SymMatrix, lam: float,
               init: LPResult | None) -> tuple[np.ndarray, int, LPResult]:
    """The column programs of ``clime_columns``, solved as one stack: only
    their right-hand sides differ. Column i starts from its optimal
    tableau in ``init``, the result of an earlier lambda, when given and
    from the all-slack tableau otherwise; both are dual feasible, because
    the costs are all ones and only the right-hand sides depend on lam.
    Returns (columns, pivots, the stack's LPResult)."""
    _check_lam(lam)
    p, sv, e = s.dim, s.values, np.eye(s.dim)
    a_ub = np.vstack([np.hstack([sv, -sv]), np.hstack([-sv, sv])])
    lp = solve_lp(np.ones(2 * p), a_ub, np.hstack([lam + e, lam - e]), start=init)
    return (lp.x[:, :p] - lp.x[:, p:]).T.copy(), lp.iterations, lp


def clime(s: SymMatrix, config: EstimatorConfig) -> EstimateResult:
    """Constrained l1-minimisation estimate with min-magnitude symmetrisation.

    Each column solves an exact linear program by the dual simplex from
    the all-slack basis, so there is no iterative convergence flag to
    report; infeasibility (possible when lam is small and s is singular)
    raises Infeasible. ``iterations`` is the total simplex pivot count. A
    fit made inside ``calibrate_lambda`` starts from the optimal tableaux
    of an earlier lambda, so its count depends on the search path; it is
    telemetry, not a CSV column.
    """
    _check_diagonal_penalty("clime", config.penalize_diagonal)
    result, _ = _clime_impl(s, config, None)
    return result


def _clime_impl(s: SymMatrix, config: EstimatorConfig,
                init: LPResult | None) -> tuple[EstimateResult, LPResult]:
    """CLIME warm-started from ``init``, the column programs' result at an
    earlier lambda, whose optimal tableaux need only a new right-hand
    side; returns the result and its own column programs' result. A warm
    fit's ``iterations`` counts the pivots from the carried tableaux, so
    it depends on the search path that chose them and is not written to
    any CSV."""
    raw, pivots, lp = _clime_lps(s, config.lam, init)
    omega = SymMatrix(min_magnitude_symmetrize(raw))
    return _penalised_result(omega, config.lam, pivots, True), lp


def scio_columns(s: SymMatrix, lam: float,
                 init: np.ndarray | None = None) -> tuple[np.ndarray, int, bool]:
    """Raw SCIO column estimates before symmetrisation.

    Column i minimises 0.5 b' s b - b_i + lam ||b||_1 by the exact
    active-set solve, warm-started from column i of ``init`` when given.
    Returns (columns, total active-set steps, every column's KKT
    certificate within ``KKT_TOL``). At lam = 0 the columns solve
    s b = e_i exactly.
    """
    _check_lam(lam)
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
        beta, steps, ok, _ = _l1_quadratic(sv, e, lam, raw[:, i].copy())
        raw[:, i] = beta
        total += steps
        all_ok = all_ok and ok
    return raw, total, all_ok


def scio(s: SymMatrix, config: EstimatorConfig) -> EstimateResult:
    """Sparse column-wise inverse estimate with min-magnitude symmetrisation."""
    _check_diagonal_penalty("scio", config.penalize_diagonal)
    result, _ = _scio_impl(s, config, None)
    return result


def _scio_impl(s: SymMatrix, config: EstimatorConfig,
               init: np.ndarray | None) -> tuple[EstimateResult, np.ndarray]:
    raw, steps, ok = scio_columns(s, config.lam, init=init)
    omega = SymMatrix(min_magnitude_symmetrize(raw))
    return _penalised_result(omega, config.lam, steps, ok), raw


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
    )


# Budget of the calibration search. A descent stops below LAMBDA_FLOOR
# times 1.1 max|s_ij|; once an exact hit exists, bisection stops when the
# bracket ratio drops under REL_GAP_STOP.
REL_GAP_STOP = 1.05
LAMBDA_FLOOR = 1e-6


@dataclass(frozen=True)
class CalibrationOutcome:
    """Result of tuning lambda to a requested edge count."""

    result: EstimateResult
    target_edges: int
    evaluations: int

    @property
    def achieved_edges(self) -> int:
        return len(self.result.support)

    @property
    def exact(self) -> bool:
        return self.achieved_edges == self.target_edges


def calibrate_lambda(method: str, s: SymMatrix, target_edges: int, *,
                     penalize_diagonal: bool = False) -> CalibrationOutcome:
    """Tune lambda so the estimated support has ``target_edges`` pairs.

    ``penalize_diagonal`` is passed to every glasso fit; any other method
    raises ValueError when it is set. The search steps from a start, up
    while the edge count is at or above the target and down while it is
    below, until the count crosses the target. Glasso starts at lambda_g,
    the target-th largest off-diagonal |s| (the largest for target 0, and
    at least the floor): at lambda >= max|s_ij| its estimate is diagonal
    (Banerjee, El Ghaoui & d'Aspremont 2008), and its graph splits along
    the components of {|s_ij| > lambda} (Witten, Friedman & Simon 2011),
    so on latent input the target's window lies just under lambda_g. Its
    step factor squares at each step and starts at 1.02; stepping down
    from c edges at lambda_g, it starts at sqrt(m_c / lambda_g) instead
    when that is larger, m_c being the c-th largest |s|: half, in log
    lambda, of the factor that would take the thresholded graph from c
    edges to the target. CLIME and SCIO start at 1.1 max|s_ij|, which
    empties their support on correlation-scale input, and halve. A step up
    ends at an empty graph or above 1.1 max|s_ij|, and a step down below
    LAMBDA_FLOOR times 1.1 max|s_ij|; a search that stops there without
    crossing keeps the closest fit.

    Once the count has crossed, both ends of the bracket are evaluated
    fits, the count at or above the target at the low end and below it at
    the high end. A log-lambda bisection inside it looks for the largest
    lambda that hits the target; when the count jumps over the target, it
    narrows the bracket until its ends are adjacent doubles. The count
    need not be monotone in lambda, so the largest hit *evaluated* wins,
    not necessarily the largest lambda that hits.

    Each fit is warm-started from the latest fit that gave a result:
    glasso from its lasso coefficients and working covariance, CLIME from
    its column programs' optimal tableaux and SCIO from its columns. Only
    that one warm state is held. While stepping, the latest fit is the
    nearest one; in the bisection the new lambda is the geometric midpoint
    of the bracket, and the latest fit is one of its two ends, as near as
    the other up to rounding.

    A lambda at which the fit diverges, or at which CLIME's programs are
    infeasible (on singular s, and then at every smaller lambda too),
    steers the search as a dense count and yields no result. Each other
    evaluation is ranked when it is made, and the first ranked is kept:
    the closest count, then one extra edge over one missing edge, then a
    converged fit, then the larger lambda. Targets beyond what the method
    can produce are clamped to the closest achievable count and flagged
    via ``exact=False``; the best result found is always returned. A
    negative target raises ValueError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_diagonal_penalty(method, penalize_diagonal)
    requested = int(target_edges)
    if requested < 0:
        raise ValueError(f"target_edges must be >= 0, got {requested}")
    p = s.dim
    max_pairs = p * (p - 1) // 2
    target = min(requested, max_pairs)

    if method == "naive":
        return CalibrationOutcome(result=naive(s, target), target_edges=requested,
                                  evaluations=1)

    fit = {"glasso": _glasso_impl, "clime": _clime_impl, "scio": _scio_impl}[method]
    # the best fit so far; a fit replaces it only if it ranks strictly
    # first. No lambda is evaluated twice (the steps are monotone, and each
    # midpoint lies strictly inside a bracket that holds no evaluated
    # lambda), so no two ranks tie
    best: EstimateResult | None = None
    rank: tuple = (math.inf,)  # every fit ranks before it
    evaluations = 0
    failure: Exception | None = None
    warm = None  # the state of the latest fit that gave a result

    def run(lam: float) -> int:
        nonlocal best, rank, evaluations, failure, warm
        evaluations += 1
        try:
            config = EstimatorConfig(lam=lam, penalize_diagonal=penalize_diagonal)
            result, warm = fit(s, config, warm)
        except (NumericalDivergence, Infeasible) as exc:
            # the solver blew up at a near-zero lambda on extreme input, or
            # lambda is below the least at which CLIME is feasible; both lie
            # toward the dense end, so steer the search with a dense count
            # and keep no usable result for this lambda
            failure = exc
            return max_pairs
        count = len(result.support)
        key = (abs(count - target), count < target, not result.converged, -lam)
        if key < rank:
            best, rank = result, key
        return count

    # the off-diagonal |s_ij| in ascending order, after a 0 that stands in
    # for them when p = 1
    mags = np.append(0.0, np.sort(np.abs(s.values[np.triu_indices(p, 1)])))
    top = 1.1 * float(mags[-1])
    floor = LAMBDA_FLOOR * top
    if method == "glasso":
        lam, step, power = max(float(mags[-max(target, 1)]), floor), 1.02, 2
    else:
        lam, step, power = top, 2.0, 1
    count = run(lam)
    up = count >= target
    if method == "glasso" and 0 < count < target:
        # far from the target 1.02 is too small; the whole factor that takes
        # the thresholded graph from glasso's count to the target overshoots
        # on latent input, so go half of it in log lambda
        step = max(step, math.sqrt(float(mags[-count]) / lam))
    # step until the count crosses the target; a step up ends at an empty
    # graph (target 0) or beyond top, where the graph of correlation-scale
    # input is empty unless fits fail, and a step down ends at the floor
    while (count >= target) == up and ((count > 0 and lam <= top) if up else lam > floor):
        prev = lam
        lam = lam * step if up else lam / step
        step **= power
        count = run(lam)
    if (count >= target) != up:
        lo, hi = (prev, lam) if up else (lam, prev)
        while True:
            mid = math.sqrt(lo * hi)
            # each step halves log(hi / lo), so within about 52 steps the
            # ends are adjacent doubles and mid rounds onto one of them
            if not lo < mid < hi or (rank[0] == 0 and hi <= REL_GAP_STOP * lo):
                break
            if run(mid) >= target:
                lo = mid
            else:
                hi = mid

    if best is None:
        # each method fails one way: keep its type, so that CLIME's
        # Infeasible stays retryable for the benchmark harness
        raise type(failure)(f"every calibration evaluation failed: {failure}") from failure
    return CalibrationOutcome(result=best, target_edges=requested, evaluations=evaluations)
