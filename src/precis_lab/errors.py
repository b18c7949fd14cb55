"""Shared exception types.

Every failure mode a caller may want to branch on gets its own class; the
benchmark harness treats a subset of these as retryable per replicate.
"""


class PrecisLabError(Exception):
    """Base class for all package-specific failures."""


class NotPositiveDefinite(PrecisLabError):
    """A Cholesky pivot fell at or below the positive-definiteness floor."""


class NonPositiveDiagonal(PrecisLabError):
    """Correlation rescaling needs strictly positive diagonal entries."""


class ConstantColumn(PrecisLabError):
    """A data column has zero variance and cannot be standardized."""


class DimensionMismatch(PrecisLabError):
    """Two objects that must share a dimension do not."""


class Infeasible(PrecisLabError):
    """A linear program has an empty feasible region."""


class LPNumericalFailure(PrecisLabError):
    """The simplex solver ran out of iterations or hit numerical trouble."""


class NumericalDivergence(PrecisLabError):
    """An iterative solve produced non-finite values on extreme input."""


class SingularGamma(PrecisLabError):
    """The support block of the Kronecker Hessian is not invertible."""


class SingularBlock(PrecisLabError):
    """A per-row covariance block is not invertible."""


class ResampleExhausted(PrecisLabError):
    """Repeated model resampling never produced an acceptable instance."""


class ExpressionFormatError(PrecisLabError):
    """An expression matrix file could not be parsed."""
