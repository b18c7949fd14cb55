"""Consistency-condition diagnostics and objective decompositions.

The two gamma quantities measure how strongly the off-support part of the
problem couples to the support; values below one are the classical
sufficient conditions for l1-based support recovery (the first for the
penalised-likelihood route, the second for the column-wise route). Both
are computed on the exact ground-truth matrices, never on estimates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import DimensionMismatch, NotPositiveDefinite, SingularBlock, SingularGamma
from .matops import (
    SymMatrix,
    SupportSet,
    cholesky,
    invert,
    log_det,
    norm_l1_all,
    norm_l1_offdiag,
)

REPORT_COLUMNS = ("p", "support_size", "gamma1", "gamma2", "satisfied1", "satisfied2")

# 1/sqrt(2), the weight of e_ij and e_ji in the basis vectors of an edge
_ROOT_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class ConsistencyReport:
    """Both consistency-condition norms for one ground-truth model."""

    dim: int
    support_size: int
    gamma1: float
    gamma2: float

    @property
    def satisfied1(self) -> bool:
        return self.gamma1 < 1.0

    @property
    def satisfied2(self) -> bool:
        return self.gamma2 < 1.0

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.dim),
                str(self.support_size),
                repr(float(self.gamma1)),
                repr(float(self.gamma2)),
                "true" if self.satisfied1 else "false",
                "true" if self.satisfied2 else "false",
            ]
        )


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Terms of the penalised likelihood at one matrix.

    ``total`` is log_det_term + neg_trace_term - penalty_term; the penalty
    term is stored positive.
    """

    log_det_term: float
    neg_trace_term: float
    penalty_term: float

    @property
    def total(self) -> float:
        return self.log_det_term + self.neg_trace_term - self.penalty_term


def support_indices(support: SupportSet) -> list[tuple[int, int]]:
    """Ordered V x V index pairs of the support: the diagonal plus both
    orderings of every edge, sorted row-major."""
    pairs = {(i, i) for i in range(support.dim)}
    for i, j in support.pairs:
        pairs.add((i, j))
        pairs.add((j, i))
    return sorted(pairs)


def _solve_spd(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """inv(lower @ lower.T) @ rhs, written over ``rhs`` when it is Fortran-ordered."""
    return cho_solve((lower, True), rhs, overwrite_b=True, check_finite=False)


def _swap_halves(k: np.ndarray, k_swap: np.ndarray,
                 diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns K(u, v) + K(u, swap v) over every support coordinate v, the
    diagonal ones (``diag``) weighted 1/sqrt(2), and K(u, v) - K(u, swap v)
    over the edge coordinates. Overwrites ``k`` with the first."""
    edge = np.flatnonzero(~diag)
    anti = k.take(edge, axis=1)
    anti -= k_swap.take(edge, axis=1)
    k += k_swap
    k[:, diag] *= _ROOT_HALF
    return k, anti


def assumption1_gamma(precision_true: SymMatrix, support: SupportSet, *,
                      use_row_sums: bool = False) -> float:
    """Coupling norm of the Kronecker Hessian between off-support and support.

    With sigma the inverse of the true precision and G = sigma (x) sigma
    indexed by ordered pairs, this is the norm of
    M = G[off-support, support] @ inv(G[support, support]), evaluated without
    materialising the p^2 x p^2 matrix. The default norm is the largest
    absolute column sum; ``use_row_sums`` switches to row sums for
    sensitivity checks.

    G commutes with the swap (i, j) <-> (j, i), and both index sets are
    swap-closed. In the orthonormal bases e_ii and (e_ij +- e_ji)/sqrt(2),
    with i < j, both blocks of G split into a symmetric half (diagonal and
    edge coordinates) and an antisymmetric half (edge coordinates), each
    factored and solved on its own. M itself is never formed: for an
    off-support pair v and an edge u, with s and a the entries of the two
    halves of M, M holds (s + a)/2 and (s - a)/2 twice each, whose absolute
    values sum to 2 max(|s|, |a|); for a diagonal u it holds s/sqrt(2) twice.
    """
    if precision_true.dim != support.dim:
        raise DimensionMismatch("precision and support dimensions disagree")
    p = precision_true.dim
    off = [(k, l) for k in range(p) for l in range(k + 1, p) if (k, l) not in support]
    if not off:
        return 0.0
    sigma = invert(precision_true)
    from .matops import kron_subblock

    # Row-major pair order, as G[support, support] has it. The order sets the
    # Cholesky pivots that the floor judges: with the diagonal coordinates
    # first, nearly singular inputs that the whole block factors would fail.
    on = sorted([(i, i) for i in range(p)] + support.sorted_pairs())
    swapped = [(j, i) for i, j in on]
    diag = np.array([i == j for i, j in on])
    a_sym, a_anti = _swap_halves(kron_subblock(sigma, on, on),
                                 kron_subblock(sigma, on, swapped), diag)
    a_sym[diag] *= _ROOT_HALF
    try:
        lower_sym = cholesky(SymMatrix(a_sym))
        lower_anti = cholesky(SymMatrix(a_anti[~diag])) if len(support) else None
    except NotPositiveDefinite as exc:
        raise SingularGamma(f"support block of the Kronecker Hessian: {exc}") from exc
    del a_sym, a_anti  # free the support blocks before the off-support ones are built
    b_sym, b_anti = _swap_halves(kron_subblock(sigma, off, on),
                                 kron_subblock(sigma, off, swapped), diag)
    # the transposes of the two halves of M, then their absolute values in place
    m_sym = _solve_spd(lower_sym, b_sym.T)
    m_anti = _solve_spd(lower_anti, b_anti.T) if len(support) else b_anti.T
    np.abs(m_sym, out=m_sym)
    np.abs(m_anti, out=m_anti)
    on_diag = m_sym[diag]
    on_edge = np.maximum(m_sym[~diag], m_anti, out=m_anti)
    if use_row_sums:
        sums = on_edge.sum(axis=0) + _ROOT_HALF * on_diag.sum(axis=0)
    else:
        sums = np.concatenate([2.0 * _ROOT_HALF * on_diag.sum(axis=1), on_edge.sum(axis=1)])
    return float(sums.max())


def assumption2_gamma(cov_true: SymMatrix, precision_true: SymMatrix, *,
                      use_row_sums: bool = False) -> float:
    """Column-wise coupling norm: the worst, over rows i, of the norm of
    sigma[s_i^c, s_i] @ inv(sigma[s_i, s_i]) where s_i collects the
    nonzero positions of row i of the true precision."""
    if cov_true.dim != precision_true.dim:
        raise DimensionMismatch("covariance and precision dimensions disagree")
    sv = cov_true.values
    pv = precision_true.values
    worst = 0.0
    for i in range(cov_true.dim):
        s_i = np.flatnonzero(pv[i] != 0.0)
        c_i = np.flatnonzero(pv[i] == 0.0)
        if c_i.size == 0:
            continue
        block = sv[np.ix_(s_i, s_i)]
        cross = sv[np.ix_(c_i, s_i)]
        try:
            lower = cholesky(SymMatrix(block))
        except NotPositiveDefinite as exc:
            raise SingularBlock(f"row {i}: {exc}") from exc
        m_t = _solve_spd(lower, cross.T)
        a = np.abs(m_t)
        if use_row_sums:
            worst = max(worst, float(a.sum(axis=0).max()))
        else:
            worst = max(worst, float(a.sum(axis=1).max()))
    return worst


def consistency_report(precision_true: SymMatrix,
                       support: SupportSet | None = None,
                       cov_true: SymMatrix | None = None, *,
                       use_row_sums: bool = False) -> ConsistencyReport:
    """Evaluate both conditions for one model; support defaults to the
    exact nonzero pattern of the precision and the covariance to its
    inverse."""
    if support is None:
        support = SupportSet.from_matrix(precision_true, eps=0.0)
    if cov_true is None:
        cov_true = invert(precision_true)
    g1 = assumption1_gamma(precision_true, support, use_row_sums=use_row_sums)
    g2 = assumption2_gamma(cov_true, precision_true, use_row_sums=use_row_sums)
    return ConsistencyReport(
        dim=precision_true.dim,
        support_size=len(support),
        gamma1=g1,
        gamma2=g2,
    )


def glasso_objective(omega: SymMatrix, s: SymMatrix, lam: float,
                     penalize_diagonal: bool = False) -> ObjectiveBreakdown:
    """Decompose log det(omega) - trace(omega s) - lam ||omega||_1 at one point.

    ``penalize_diagonal`` selects whether the l1 norm runs over all
    entries or skips the diagonal, matching the estimator flag.
    """
    if omega.dim != s.dim:
        raise DimensionMismatch("omega and s dimensions disagree")
    ld = log_det(omega)
    neg_trace = -float((omega.values * s.values).sum())
    norm = norm_l1_all(omega) if penalize_diagonal else norm_l1_offdiag(omega)
    return ObjectiveBreakdown(
        log_det_term=ld,
        neg_trace_term=neg_trace,
        penalty_term=lam * norm,
    )


def trace_bound_check(c: SymMatrix, omega: SymMatrix) -> bool:
    """True when trace(c omega) <= ||omega||_1, valid whenever max |c| <= 1.

    This is the boundedness argument for normalised input: an estimate can
    always keep its trace term under its own l1 norm, so the objective of
    some sparse matrix stays bounded even when the truth's penalty blows
    up. Expected to hold for every valid input; exposed as a sanity check.
    """
    if c.dim != omega.dim:
        raise DimensionMismatch("c and omega dimensions disagree")
    if float(np.abs(c.values).max()) > 1.0 + 1e-12:
        raise ValueError("entries of c must not exceed 1 in magnitude")
    tr = float((c.values * omega.values).sum())
    return tr <= norm_l1_all(omega) + 1e-10
