"""Dense symmetric matrix kernels shared by every estimator and diagnostic.

Everything is plain float64 numpy. Positive definiteness is handled
explicitly: a failed Cholesky is a typed error rather than a warning,
because several model generators deliberately produce covariances that sit
close to the singular boundary and the caller must tell the two apart.

A SymMatrix is factored and inverted with numpy's LAPACK, so importing
this module, or the package, loads no scipy module. Only the in-place
factor of an owned array, which the gamma diagnostics use on blocks of up
to a few thousand rows, imports scipy's LAPACK, when first called: numpy
has no Cholesky that writes over its input.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NonPositiveDiagonal, NotPositiveDefinite

# Cholesky pivot floor, relative to the largest diagonal entry. Chosen so
# that deliberately ill-conditioned but valid covariances (noise variances
# down to 1e-4) still factor while genuinely singular input fails.
PD_EPSILON = 1e-12

# Largest asymmetry, relative to the largest entry (or 1), that
# read_sym_matrix accepts from a file written at print precision.
SYMMETRY_TOL = 1e-8


def _as_array(m) -> np.ndarray:
    if isinstance(m, SymMatrix):
        return m.values
    return np.asarray(m, dtype=float)


def _check_symmetric(v: np.ndarray) -> np.ndarray:
    """``v`` itself, once it is known to be square, finite and exactly symmetric."""
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(v, v.T):
        raise ValueError("matrix is not exactly symmetric")
    return v


@dataclass(frozen=True)
class SymMatrix:
    """Immutable dense symmetric matrix.

    ``values`` must be exactly symmetric and finite, else ValueError;
    nothing is averaged here (only :func:`read_sym_matrix` averages).
    Instances are safe to share across parallel workers.
    """

    values: np.ndarray

    def __post_init__(self):
        v = _check_symmetric(np.asarray(self.values, dtype=float)).copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SupportSet:
    """Off-diagonal nonzero pattern of a symmetric matrix, as unordered pairs.

    The diagonal is implicitly always in the support and never stored.
    Doubles as the edge set of the corresponding undirected graph.
    """

    dim: int
    pairs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        norm = set()
        for pair in self.pairs:
            i, j = int(pair[0]), int(pair[1])
            if i == j:
                raise ValueError("self-pairs are not stored in a SupportSet")
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"pair {pair} out of range for dim {self.dim}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "pairs", frozenset(norm))

    @classmethod
    def from_matrix(cls, m, eps: float = 0.0) -> "SupportSet":
        """Pairs where the off-diagonal magnitude strictly exceeds ``eps``."""
        if not 0.0 <= eps < np.inf:
            raise ValueError(f"support eps must be finite and >= 0, got {eps}")
        v = _as_array(m)
        p = v.shape[0]
        ii, jj = np.triu_indices(p, k=1)
        keep = np.abs(v[ii, jj]) > eps
        return cls(p, zip(ii[keep].tolist(), jj[keep].tolist()))

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        i, j = pair
        return (min(i, j), max(i, j)) in self.pairs

    def sorted_pairs(self) -> list:
        return sorted(self.pairs)


def cholesky(m: SymMatrix | np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T equal to ``m`` (LAPACK).

    A SymMatrix is factored by numpy into a new array. ``m`` may also be a
    writeable, C-ordered float64 array that the caller gives up. It is
    checked as SymMatrix checks its values, then factored in place by
    scipy, without a copy: the factor returned shares its memory. The two
    LAPACKs agree to rounding, not to the bit.

    Raises NotPositiveDefinite when LAPACK meets a nonpositive pivot, or
    when a pivot L_jj**2 is at or below PD_EPSILON relative to the largest
    diagonal entry.
    """
    if isinstance(m, SymMatrix):
        a, owned = m.values, False
    else:
        if not (isinstance(m, np.ndarray) and m.dtype == np.float64
                and m.flags.c_contiguous and m.flags.writeable):
            raise ValueError("cholesky factors in place only a writeable, C-ordered float64 array")
        # the transpose holds the same values, in the Fortran order LAPACK writes over
        a, owned = _check_symmetric(m).T, True
    floor = PD_EPSILON * float(a.diagonal().max())
    try:
        if owned:
            import scipy.linalg  # numpy has no Cholesky that writes over its input
            lower = scipy.linalg.cholesky(a, lower=True, overwrite_a=True, check_finite=False)
        else:
            lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(f"LAPACK: {err}") from None
    pivots = lower.diagonal() ** 2
    low = np.flatnonzero(pivots <= floor)
    if low.size:
        j = low[0]
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.6e} at column {j} is at or below the floor {floor:.6e}"
        )
    return lower


def invert(m: SymMatrix) -> SymMatrix:
    """Inverse of a positive definite matrix via its Cholesky factor."""
    li = np.linalg.inv(cholesky(m))
    return SymMatrix(li.T @ li)  # one BLAS product with its own transpose: exactly symmetric


def log_det(m: SymMatrix) -> float:
    """log determinant of a positive definite matrix."""
    lower = cholesky(m)
    return float(2.0 * np.sum(np.log(lower.diagonal())))


def norm_l1_all(m) -> float:
    """Sum of the absolute values of every entry."""
    return float(np.abs(_as_array(m)).sum())


def norm_l1_offdiag(m) -> float:
    """Sum of absolute values of the off-diagonal entries."""
    a = np.abs(_as_array(m))
    return float(a.sum() - a.diagonal().sum())


def to_correlation(m: SymMatrix) -> SymMatrix:
    """Rescale a covariance to unit diagonal: r_ij = m_ij / sqrt(m_ii m_jj)."""
    a = m.values
    d = a.diagonal()
    if np.any(d <= 0):
        raise NonPositiveDiagonal("all diagonal entries must be positive")
    s = 1.0 / np.sqrt(d)
    r = a * np.outer(s, s)
    np.fill_diagonal(r, 1.0)
    return SymMatrix(r)


def _pair_array(pairs, name: str, p: int) -> np.ndarray:
    """``pairs`` as an (n, 2) integer array, checked against the range 0..p-1."""
    arr = np.asarray(pairs, dtype=np.intp)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must be index pairs, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= p):
        raise IndexError(f"{name} contain indices outside 0..{p - 1}")
    return arr


def kron_subblock(sigma: SymMatrix, rows: Sequence | np.ndarray,
                  cols: Sequence | np.ndarray) -> np.ndarray:
    """Sub-block of sigma (x) sigma for ordered index pairs, without the p^2 x p^2 matrix.

    ``rows`` and ``cols`` are sequences of pairs or (n, 2) integer arrays.
    Entry ((i, j), (k, l)) equals sigma[i, k] * sigma[j, l], matching the
    row-major vectorisation where the pair (i, j) maps to flat index i*p + j.
    """
    a = sigma.values
    p = a.shape[0]
    r = _pair_array(rows, "rows", p)
    c = _pair_array(cols, "cols", p)
    # rows, then columns, with take: 1.7 times as fast as one np.ix_ gather
    return (a.take(r[:, 0], axis=0).take(c[:, 0], axis=1)
            * a.take(r[:, 1], axis=0).take(c[:, 1], axis=1))


def write_matrix(path, m) -> None:
    """Write a matrix as whitespace-separated rows, one line per row."""
    np.savetxt(path, _as_array(m), fmt="%.17g")


def _read_fields(path, error=ValueError) -> list[list[str]]:
    """The stripped fields of each line of delimited text. '#' starts a
    comment and blank lines are dropped; the first line's delimiter (a tab,
    else a comma, else any whitespace) splits every line. An empty field
    raises ``error`` naming the file and line, bar the first field of the
    first line: a table's corner cell, which pandas leaves empty."""
    with open(path) as fh:
        lines = [(n, raw.split("#", 1)[0]) for n, raw in enumerate(fh, 1)]
    lines = [(n, text) for n, text in lines if text.strip()]
    first = lines[0][1] if lines else ""
    delimiter = "\t" if "\t" in first else "," if "," in first else None
    table = []
    for k, (n, text) in enumerate(lines):
        fields = [t.strip() for t in text.split(delimiter)]
        if "" in (fields[1:] if k == 0 else fields):
            raise error(f"{path}:{n}: empty field")
        table.append(fields)
    return table


def _to_floats(path, rows: list[list[str]], error=ValueError) -> np.ndarray:
    """``rows`` of number text as a 2-d float array, converted as ``float``
    converts each; ``error`` names the file when there are no rows, when
    they differ in length or when a field is not a number."""
    if not rows:
        raise error(f"{path}: no values")
    if any(len(row) != len(rows[0]) for row in rows):
        raise error(f"{path}: ragged rows")
    try:
        return np.array(rows, dtype=float)
    except ValueError as e:
        raise error(f"{path}: non-numeric value ({e})") from None


def read_matrix(path) -> np.ndarray:
    """Read a finite numeric matrix from delimited text (see _read_fields)."""
    a = _to_floats(path, _read_fields(path))
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return a


def read_sym_matrix(path) -> SymMatrix:
    """Read a matrix file that should be symmetric up to print precision."""
    a = read_matrix(path)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{path}: expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL * scale:
        raise ValueError(f"{path}: matrix is not symmetric within tolerance {SYMMETRY_TOL}")
    # the one place that averages: a file written at print precision
    return SymMatrix(0.5 * (a + a.T))
