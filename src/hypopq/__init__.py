"""High-precision recurrence coefficients for hypergeometric-weight
discrete orthogonal polynomials, with numerical verification of the
nonlinear difference system, the Toda-type deformation flow, the sigma-form
ODE, the Riccati seed relation, and the large-n limit conjectures.

Two independent pipelines produce the same sequences: a moment oracle
(Chebyshev algorithm on the power moments, certified by precision doubling)
and the difference recursion (fast, fragile).
Everything else in the package measures how well they agree with each
other and with the identities they are supposed to satisfy.
"""

__version__ = "0.1.0"

from .asymptotics import StudyReport, limit_report, perturbation_study, precision_study
from .dpainleve import dp1_step, dp2_step, dp_residuals, iterate
from .errors import (
    DomainExceeded,
    HypopqError,
    InvalidCoeffs,
    InvalidParam,
    NonConvergent,
    PoleHit,
    PrecisionExhausted,
    SingularStep,
    StepTooSmall,
)
from .numerics import (
    PrecisionCtx,
    bits_for_digits,
    central_derivative,
    default_step,
    digits_for_bits,
)
from .oracle import (
    CoeffSeq,
    LadderSeq,
    XYSeq,
    coeffs_from_xy,
    coeffs_oracle,
    eval_orthonormal,
    ladder_residuals,
    ladder_sequences,
    structure_residual,
    xy_from_coeffs,
)
from .reporting import ResidualEntry, ResidualReport, normalized_residual
from .toda_sigma import (
    SigmaParams,
    Source,
    clear_cache,
    riccati_constant,
    riccati_residual,
    sigma_parameters,
    sigma_pvi_residual,
    sigma_value,
    toda_residuals,
)
from .weights import (
    Lattice,
    Params,
    initial_xy,
    moment,
    shifted_params,
    weight_sequence,
)

__all__ = [
    "CoeffSeq",
    "DomainExceeded",
    "HypopqError",
    "InvalidCoeffs",
    "InvalidParam",
    "LadderSeq",
    "Lattice",
    "NonConvergent",
    "Params",
    "PoleHit",
    "PrecisionCtx",
    "PrecisionExhausted",
    "ResidualEntry",
    "ResidualReport",
    "SigmaParams",
    "SingularStep",
    "Source",
    "StepTooSmall",
    "StudyReport",
    "XYSeq",
    "bits_for_digits",
    "central_derivative",
    "clear_cache",
    "coeffs_from_xy",
    "coeffs_oracle",
    "default_step",
    "digits_for_bits",
    "dp1_step",
    "dp2_step",
    "dp_residuals",
    "eval_orthonormal",
    "initial_xy",
    "iterate",
    "ladder_residuals",
    "ladder_sequences",
    "limit_report",
    "moment",
    "normalized_residual",
    "perturbation_study",
    "precision_study",
    "riccati_constant",
    "riccati_residual",
    "shifted_params",
    "sigma_parameters",
    "sigma_pvi_residual",
    "sigma_value",
    "structure_residual",
    "toda_residuals",
    "weight_sequence",
    "xy_from_coeffs",
]
