"""Reference computations that the tests check the library against."""
import numpy as np

from precis_lab.matops import invert
from precis_lab.simplex import LPResult, solve_lp


def support_indices(support):
    """Ordered V x V index pairs of the support: the diagonal plus both
    orderings of every edge, sorted row-major."""
    pairs = {(i, i) for i in range(support.dim)}
    for i, j in support.pairs:
        pairs.add((i, j))
        pairs.add((j, i))
    return sorted(pairs)


def brute_force_gamma(precision, support, use_row_sums=False):
    """Consistency norm from the materialised p^2 x p^2 Kronecker product:
    the largest absolute column (or row) sum of
    G[off-support, support] @ inv(G[support, support])."""
    p = precision.dim
    sigma = invert(precision).values
    big = np.kron(sigma, sigma)
    s_flat = [i * p + j for i, j in support_indices(support)]
    c_flat = [k for k in range(p * p) if k not in set(s_flat)]
    if not c_flat:
        return 0.0
    m = big[np.ix_(c_flat, s_flat)] @ np.linalg.inv(big[np.ix_(s_flat, s_flat)])
    axis = 1 if use_row_sums else 0
    return float(np.abs(m).sum(axis=axis).max())


def program_of(lp, i):
    """Program i of the stacked LPResult ``lp``, as the result of a solve
    of its own, to start from."""
    return LPResult(x=lp.x[i], iterations=0, basis=lp.basis[i], tableau=lp.tableau[i])


def clime_lps_by_column(s, lam, init):
    """The column programs of ``estimators._clime_lps`` solved one at a time:
    column i minimises ||beta||_1 subject to ||s @ beta - e_i||_max <= lam
    over beta = u - v, from its own program in the stacked LPResult
    ``init`` when given. Returns (columns, total pivots, an LPResult that
    stacks the columns' bases and tableaux)."""
    p = s.dim
    sv = s.values
    a_ub = np.vstack([np.hstack([sv, -sv]), np.hstack([-sv, sv])])
    cost = np.ones(2 * p)
    raw = np.zeros((p, p))
    pivots = 0
    lps = []
    for i in range(p):
        e = np.zeros(p)
        e[i] = 1.0
        b_ub = np.concatenate([lam + e, lam - e])
        lp = solve_lp(cost, a_ub, b_ub, start=None if init is None else program_of(init, i))
        raw[:, i] = lp.x[:p] - lp.x[p:]
        pivots += lp.iterations
        lps.append(lp)
    return raw, pivots, LPResult(x=np.array([lp.x for lp in lps]), iterations=pivots,
                                 basis=np.array([lp.basis for lp in lps]),
                                 tableau=np.array([lp.tableau for lp in lps]))
