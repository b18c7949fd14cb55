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

# kron_subblock is read off the module at each call, so that a wrapper put
# on matops.kron_subblock (perfbench's trace of the Kronecker layer) sees it
from . import matops
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

# Rows of a Kronecker block built at a time, and columns of |M| folded at a
# time, in assumption1_gamma. The triangular solve is never split by
# columns: a BLAS solve does not promise the same bits for each column at
# every column count.
_BLOCK = 128


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


def _solve_spd(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """inv(lower @ lower.T) @ rhs, written over ``rhs`` when it is Fortran-ordered."""
    from scipy.linalg import cho_solve  # numpy has no triangular solve
    return cho_solve((lower, True), rhs, overwrite_b=True, check_finite=False)


def _kron_half(sigma: SymMatrix, rows: np.ndarray, cols: np.ndarray,
               symmetric: bool) -> np.ndarray:
    """Block of one swap half of G = sigma (x) sigma between the index pairs
    ``rows`` and ``cols``, built _BLOCK rows at a time into one C-ordered
    buffer: K(u, v) + K(u, swap v), with every diagonal coordinate weighted
    1/sqrt(2), for the symmetric half, and K(u, v) - K(u, swap v) for the
    antisymmetric one."""
    out = np.empty((len(rows), len(cols)))
    swapped = cols[:, ::-1]
    col_diag = cols[:, 0] == cols[:, 1]
    combine = np.add if symmetric else np.subtract
    for r0 in range(0, len(rows), _BLOCK):
        r = rows[r0:r0 + _BLOCK]
        block = out[r0:r0 + _BLOCK]
        combine(matops.kron_subblock(sigma, r, cols),
                matops.kron_subblock(sigma, r, swapped), out=block)
        if symmetric:
            block[:, col_diag] *= _ROOT_HALF
            block[r[:, 0] == r[:, 1]] *= _ROOT_HALF
    return out


def _abs_half(sigma: SymMatrix, on: np.ndarray, off: np.ndarray,
              symmetric: bool) -> np.ndarray:
    """|M|^T for one swap half, M = B inv(A) with A its support block on the
    coordinates ``on`` and B its off-support block: A is factored in place
    and B^T solved in place, as one call."""
    try:
        lower = cholesky(_kron_half(sigma, on, on, symmetric))
    except NotPositiveDefinite as exc:
        raise SingularGamma(f"support block of the Kronecker Hessian: {exc}") from exc
    m = _solve_spd(lower, _kron_half(sigma, off, on, symmetric).T)
    return np.abs(m, out=m)


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
    built, factored and solved on its own, one after the other. M itself is
    never formed: for an off-support pair v and an edge u, with s and a the
    entries of the two halves of M, M holds (s + a)/2 and (s - a)/2 twice
    each, whose absolute values sum to 2 max(|s|, |a|); for a diagonal u it
    holds s/sqrt(2) twice.
    """
    if precision_true.dim != support.dim:
        raise DimensionMismatch("precision and support dimensions disagree")
    p = precision_true.dim
    off = np.array([(k, l) for k in range(p) for l in range(k + 1, p)
                    if (k, l) not in support]).reshape(-1, 2)
    if not len(off):
        return 0.0
    sigma = invert(precision_true)

    # Row-major pair order, as G[support, support] has it. The order sets the
    # Cholesky pivots that the floor judges: with the diagonal coordinates
    # first, nearly singular inputs that the whole block factors would fail.
    on = np.array(sorted([(i, i) for i in range(p)] + support.sorted_pairs()))
    diag = on[:, 0] == on[:, 1]
    m_sym = _abs_half(sigma, on, off, symmetric=True)
    if len(support):
        m_anti = _abs_half(sigma, on[~diag], off, symmetric=False)
    else:  # no edges, no antisymmetric half
        m_anti = np.empty((0, len(off)))
    on_diag = m_sym[diag]
    # fold |M_sym|'s edge rows into |M_anti|, _BLOCK columns at a time
    for c0 in range(0, len(off), _BLOCK):
        cols = slice(c0, c0 + _BLOCK)
        np.maximum(m_sym[~diag, cols], m_anti[:, cols], out=m_anti[:, cols])
    on_edge = m_anti
    if use_row_sums:
        sums = on_edge.sum(axis=0) + _ROOT_HALF * on_diag.sum(axis=0)
    else:
        sums = np.concatenate([2.0 * _ROOT_HALF * on_diag.sum(axis=1), on_edge.sum(axis=1)])
    return float(sums.max())


def assumption2_gamma(cov_true: SymMatrix, support: SupportSet, *,
                      use_row_sums: bool = False) -> float:
    """Column-wise coupling norm: the worst, over rows i, of the norm of
    sigma[s_i^c, s_i] @ inv(sigma[s_i, s_i]) where s_i is i and its
    neighbours in ``support``."""
    if cov_true.dim != support.dim:
        raise DimensionMismatch("covariance and support dimensions disagree")
    sv = cov_true.values
    on = np.eye(cov_true.dim, dtype=bool)
    for i, j in support.pairs:
        on[i, j] = on[j, i] = True
    worst = 0.0
    for i in range(cov_true.dim):
        s_i = np.flatnonzero(on[i])
        c_i = np.flatnonzero(~on[i])
        if c_i.size == 0:
            continue
        block = sv[np.ix_(s_i, s_i)]
        cross = sv[np.ix_(c_i, s_i)]
        try:
            lower = cholesky(block)
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
    g2 = assumption2_gamma(cov_true, support, use_row_sums=use_row_sums)
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

