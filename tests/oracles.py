"""Reference computations that the tests check the library against."""
import numpy as np

from precis_lab.matops import invert


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
