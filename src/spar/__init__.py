"""Realignment-based entanglement detection and the structural physical
approximation of the realignment map."""

from .config import DEFAULT, Tolerances
from .criteria import (
    CriterionReport,
    ErrorReport,
    criterion_report,
    error_suite,
    q1_realignment_moments,
    q2_rmoment,
    spa_r_scores,
    spa_r_upper_bound,
    spa_r_verdict,
)
from .exceptions import DomainError, StateValidationError
from .moment_estimation import (
    CaseTag,
    EstimationInput,
    MomentInterval,
    m1_case_bounds,
    m1_interval_quadratic,
    simulate_s,
    swap_operator,
)
from .realign import (
    RealignedMatrix,
    Verdict,
    is_schmidt_symmetric,
    realign,
    realign_matrix,
    realignment_criterion,
    realignment_moment,
)
from .spa import (
    CharPolyCoeffs,
    CpCertificate,
    ReferenceThresholds,
    SpaAnalysis,
    apply_spa,
    certify_completely_positive,
    descartes_psd_test,
    eigenvalue_offset,
    lambda_min_lower_bound,
    newton_coefficients,
    rho_t_reference_thresholds,
    spa_threshold,
    threshold_value,
)
from .states import (
    RHO_T_MAX,
    DensityMatrix,
    alpha_state,
    bell_state,
    isotropic,
    random_density,
    random_schmidt_symmetric,
    random_separable,
    read_state_file,
    rho_a,
    rho_t,
    validate_density,
    write_state_file,
)

__all__ = [
    "DEFAULT", "Tolerances", "DomainError", "StateValidationError",
    # criteria
    "CriterionReport", "ErrorReport", "criterion_report", "error_suite",
    "q1_realignment_moments", "q2_rmoment", "spa_r_scores", "spa_r_upper_bound",
    "spa_r_verdict",
    # moment_estimation
    "CaseTag", "EstimationInput", "MomentInterval", "m1_case_bounds",
    "m1_interval_quadratic", "simulate_s", "swap_operator",
    # realign
    "RealignedMatrix", "Verdict", "is_schmidt_symmetric", "realign", "realign_matrix",
    "realignment_criterion", "realignment_moment",
    # spa
    "CharPolyCoeffs", "CpCertificate", "ReferenceThresholds", "SpaAnalysis", "apply_spa",
    "certify_completely_positive", "descartes_psd_test", "eigenvalue_offset",
    "lambda_min_lower_bound", "newton_coefficients", "rho_t_reference_thresholds",
    "spa_threshold", "threshold_value",
    # states
    "RHO_T_MAX", "DensityMatrix", "alpha_state", "bell_state", "isotropic", "random_density",
    "random_schmidt_symmetric", "random_separable", "read_state_file", "rho_a", "rho_t",
    "validate_density", "write_state_file",
]
__version__ = "0.1.0"
