"""Ground-truth model generators and Gaussian data sampling.

Two model families are provided: a linear latent structure where the
observed block depends linearly on a small hidden block (which produces
sparse precision matrices with entries that blow up as the noise variance
shrinks), and models derived from an expression matrix by thresholding the
inverse of an empirical correlation matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantColumn, ExpressionFormatError
from .matops import SymMatrix, SupportSet, _read_fields, _to_floats, cholesky, invert

# All randomness flows through explicit generators derived from a master
# seed and a task key, so replicates are reproducible and parallel-safe.


def rng_for(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one task; same inputs, same stream."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def seed_fingerprint(master_seed: int, *key: int) -> int:
    """Stable integer identifying the stream of :func:`rng_for` (for logs/CSV)."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class LatentModelSpec:
    """Linear latent structure: observed y = A x + noise, stacked as (x, y).

    ``a`` is the (d2, d1) coupling matrix; x has isotropic variance
    ``sigma_x2`` and the additive noise has variance ``sigma_x2 *
    sigma_eps2``: ``sigma_x2`` is an overall scale of the covariance (see
    latent_covariance), so it drops out of any correlation-scale input.
    """

    d1: int
    d2: int
    sigma_x2: float
    sigma_eps2: float
    a: np.ndarray

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("d1 and d2 must be >= 1")
        if not (self.sigma_x2 > 0 and self.sigma_eps2 > 0):
            raise ValueError("variances must be positive")
        a = np.asarray(self.a, dtype=float)
        if a.shape != (self.d2, self.d1):
            raise ValueError(f"coupling matrix must have shape ({self.d2}, {self.d1})")
        if not np.all(np.isfinite(a)):
            raise ValueError("coupling matrix entries must be finite")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    @property
    def p(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class GroundTruthModel:
    """A covariance, its precision and the exact support of the precision."""

    covariance: SymMatrix
    precision: SymMatrix
    support: SupportSet

    def __post_init__(self):
        if not (self.covariance.dim == self.precision.dim == self.support.dim):
            raise ValueError("covariance, precision and support dimensions disagree")


def latent_covariance(spec: LatentModelSpec) -> SymMatrix:
    """Block covariance of (x, y): sigma_x2 * [[I, A'], [A, AA' + sigma_eps2 I]]."""
    a = spec.a
    top = np.hstack([np.eye(spec.d1), a.T])
    bottom = np.hstack([a, a @ a.T + spec.sigma_eps2 * np.eye(spec.d2)])
    c = spec.sigma_x2 * np.vstack([top, bottom])
    return SymMatrix(c)


def latent_precision(spec: LatentModelSpec) -> GroundTruthModel:
    """Exact block inverse of the latent covariance, plus its structural support.

    The support is the symbolic nonzero pattern: entries of A'A couple the
    x block, entries of A couple x to y, and the y block is diagonal. No
    floating threshold is involved, so the ground truth never depends on a
    tolerance.
    """
    d1, d2 = spec.d1, spec.d2
    inv_e = 1.0 / spec.sigma_eps2
    ata = spec.a.T @ spec.a
    top = np.hstack([np.eye(d1) + inv_e * ata, -inv_e * spec.a.T])
    bottom = np.hstack([-inv_e * spec.a, inv_e * np.eye(d2)])
    prec = (1.0 / spec.sigma_x2) * np.vstack([top, bottom])

    pairs = set()
    for i in range(d1):
        for j in range(i + 1, d1):
            if ata[i, j] != 0.0:
                pairs.add((i, j))
        for r in range(d2):
            if spec.a[r, i] != 0.0:
                pairs.add((i, d1 + r))
    return GroundTruthModel(
        covariance=latent_covariance(spec),
        precision=SymMatrix(prec),
        support=SupportSet(spec.p, frozenset(pairs)),
    )


def random_a(d1: int, d2: int, scale: float, sparsity: float,
             rng: np.random.Generator) -> np.ndarray:
    """(d2, d1) coupling matrix with N(0, scale^2) entries, a fraction zeroed."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    a = scale * rng.standard_normal((d2, d1))
    if sparsity > 0.0:
        a[rng.random((d2, d1)) < sparsity] = 0.0
    return a


def sample_mvn(cov: SymMatrix, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, p) array of n draws from a zero-mean normal with covariance ``cov``."""
    lower = cholesky(cov)
    z = rng.standard_normal((int(n), cov.dim))
    return z @ lower.T


def _centered(rows) -> np.ndarray:
    """``rows``, 2-d with at least two rows, less its column means, taken in C
    order: those of an F-ordered column subset ``x[:, idx]`` round differently."""
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError(f"need a 2-d array of at least two rows, got shape {rows.shape}")
    return rows - rows.mean(axis=0)


def standardize(rows) -> np.ndarray:
    """Center each column and scale to unit population standard deviation."""
    centered = _centered(rows)
    sd = np.sqrt((centered**2).mean(axis=0))
    if np.any(sd == 0.0):
        bad = np.flatnonzero(sd == 0.0)
        raise ConstantColumn(f"columns {bad.tolist()} are constant")
    return centered / sd


def sample_covariance(rows) -> SymMatrix:
    """Maximum-likelihood covariance (1/n divisor) of the centered rows."""
    centered = _centered(rows)
    return SymMatrix(centered.T @ centered / len(centered))


def gene_model_from_correlation(c0: SymMatrix, delta: float = 0.1) -> GroundTruthModel:
    """Sparse ground truth from a correlation matrix by thresholding its inverse.

    Off-diagonal entries of inv(c0) with magnitude at or below ``delta``
    are zeroed (the diagonal is always kept); the testing covariance is the
    inverse of the thresholded matrix. Raises ValueError unless delta is
    finite and >= 0, and NotPositiveDefinite when the thresholded matrix is
    not positive definite, in which case the caller is expected to
    resample a different subset.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    d = c0.values.diagonal()
    if float(np.abs(d - 1.0).max()) > 1e-6:
        raise ValueError("expected a correlation matrix with unit diagonal")
    lam0 = invert(c0).values
    lam = np.where(np.abs(lam0) > delta, lam0, 0.0)
    np.fill_diagonal(lam, lam0.diagonal())
    precision = SymMatrix(lam)
    covariance = invert(precision)  # NotPositiveDefinite -> caller resamples
    return GroundTruthModel(
        covariance=covariance,
        precision=precision,
        support=SupportSet.from_matrix(precision, eps=0.0),
    )


def synthetic_expression(n_samples: int, n_genes: int, rank: int = 12,
                         noise_sd: float = 1.0, loading_sparsity: float = 0.75, *,
                         rng: np.random.Generator) -> np.ndarray:
    """Low-rank-plus-noise stand-in for a real expression matrix (samples x genes).

    Each gene loads on a random subset of the latent factors
    (``loading_sparsity`` is the fraction of zeroed loadings), which gives
    the derived precision matrices a realistic mix of strong and
    below-cutoff partial correlations.
    """
    if not 0.0 <= loading_sparsity < 1.0:
        raise ValueError("loading_sparsity must be in [0, 1)")
    z = rng.standard_normal((int(n_samples), int(rank)))
    w = rng.standard_normal((int(rank), int(n_genes)))
    if loading_sparsity > 0.0:
        w[rng.random((int(rank), int(n_genes))) < loading_sparsity] = 0.0
    return z @ w + noise_sd * rng.standard_normal((int(n_samples), int(n_genes)))


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_expression(path, genes_in: str = "columns") -> tuple[np.ndarray, list[str]]:
    """Read an expression matrix from delimited text (see matops._read_fields).

    The file is one table: a header line, then rows of numbers, each row led
    by a label when the first data row's first field is not a number.
    ``genes_in`` selects the orientation. With "columns" each row is a
    sample and the first line is the header, whose last fields name the
    genes. With "rows" each row is a gene, labelled by its name (else named
    g0, g1, ...), and the first line is a header of sample labels only when
    its second field is not a number. A nan or infinite value raises
    ExpressionFormatError naming its genes; genes with constant expression
    are dropped. Returns (samples x genes array, gene names).
    """
    if genes_in not in ("columns", "rows"):
        raise ValueError("genes_in must be 'columns' or 'rows'")
    rows = _read_fields(path, ExpressionFormatError)
    if len(rows) < 2:
        raise ExpressionFormatError(f"{path}: need at least two non-empty lines")
    header = []
    if genes_in == "columns" or (len(rows[0]) > 1 and not _is_number(rows[0][1])):
        header, rows = rows[0], rows[1:]
    labels = [row.pop(0) for row in rows] if not _is_number(rows[0][0]) else None
    data = _to_floats(path, rows, ExpressionFormatError)
    if genes_in == "columns":
        names = header[-data.shape[1]:]
        if len(names) != data.shape[1]:
            raise ExpressionFormatError(f"{path}: header shorter than data rows")
    else:
        data = data.T
        names = labels or [f"g{i}" for i in range(data.shape[1])]

    if data.shape[0] < 2:
        raise ExpressionFormatError(f"{path}: need at least two samples")
    finite = np.isfinite(data).all(axis=0)
    if not finite.all():
        bad = [nm for nm, ok in zip(names, finite) if not ok]
        raise ExpressionFormatError(f"{path}: non-finite values for gene(s) {bad}")

    sd = data.std(axis=0)
    keep = sd > 0.0
    data = data[:, keep]
    names = [nm for nm, k in zip(names, keep) if k]
    if data.shape[1] == 0:
        raise ExpressionFormatError(f"{path}: every gene is constant")
    return data, names


def write_expression(path, data: np.ndarray) -> None:
    """Write a samples x genes matrix as tab-separated text: a header
    ``sample``, ``g0000``, ``g0001``, ... and one row per sample labelled
    ``s00000``, ``s00001``, ..., each value written by ``repr``."""
    data = np.asarray(data, dtype=float)
    n, p = data.shape
    with open(path, "w", newline="") as fh:
        fh.write("sample\t" + "\t".join(f"g{j:04d}" for j in range(p)) + "\n")
        for i in range(n):
            fh.write(f"s{i:05d}\t" + "\t".join(repr(float(v)) for v in data[i]) + "\n")
