"""Sparse precision-matrix structure learning lab.

Estimators (glasso, CLIME, SCIO, thresholded inverse), ground-truth model
generators, consistency-condition diagnostics, recovery metrics and a
reproducible benchmark harness with a CSV-emitting CLI.
"""

from .errors import (
    ConstantColumn,
    DimensionMismatch,
    Infeasible,
    LPNumericalFailure,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    PrecisLabError,
    ResampleExhausted,
    SingularBlock,
    SingularGamma,
)
from .matops import (
    PD_EPSILON,
    SupportSet,
    SymMatrix,
    cholesky,
    invert,
    kron_subblock,
    log_det,
    norm_l1_all,
    norm_l1_offdiag,
    to_correlation,
)
from .models import (
    GroundTruthModel,
    LatentModelSpec,
    gene_model_from_correlation,
    latent_covariance,
    latent_precision,
    load_expression,
    random_a,
    rng_for,
    sample_covariance,
    sample_mvn,
    standardize,
    synthetic_expression,
)
from .estimators import (
    METHODS,
    SUPPORT_EPSILON,
    CalibrationOutcome,
    EstimateResult,
    EstimatorConfig,
    calibrate_lambda,
    clime,
    glasso,
    min_magnitude_symmetrize,
    naive,
    scio,
)
from .diagnostics import (
    ConsistencyReport,
    ObjectiveBreakdown,
    assumption1_gamma,
    assumption2_gamma,
    consistency_report,
    glasso_objective,
    trace_bound_check,
)
from .metrics import RecoveryScore, random_guess_expectation, score

__version__ = "0.1.0"
