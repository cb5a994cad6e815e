"""Asymptotics of Hankel determinants with one-cut regular potentials and
Fisher-Hartwig singularities, validated against exact small-n oracles."""

from .chebyshev import (
    ChebSeries,
    cheb_weighted_integrals,
    hilbert_T,
    log_kernel_integral,
    log_potential_exterior,
)
from .equilibrium import (
    EquilibriumMeasure,
    Potential,
    RegularityCertificate,
    RescaledProblem,
    check_one_cut_regular,
    compute_density,
    compute_ell,
    density_transform,
    equilibrium_measure,
    rescale,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EquilibriumConsistencyError,
    HankelFHError,
    HypothesisError,
    PoleError,
    PositivityError,
    RegularityError,
    SeparationError,
    SupportError,
)
from .montecarlo import McEstimate, mc_gap_probability
from .oracle import (
    HankelResult,
    WeightSpec,
    compute_moments,
    default_precision_bits,
    hankel_log_det,
    op_recurrence_log_det,
    oracle_log_det,
)
from .singularities import (
    Singularity,
    SingularityConfig,
    ThinningSpec,
)
from .special import log_barnes_g, log_gamma, zeta_prime_minus_one
from .asymptotics import (
    ExpansionCoefficients,
    PredictionResult,
    composed_constants,
    cumulative_measure,
    expansion_coefficients,
    gue_asymptotic_constants,
    gue_exact_log,
    krasovsky_log_ratio,
    predict_log_hankel,
    ratio_beta,
    ratio_field,
    ratio_potential,
)
from .thinning import (
    CorrelationPrediction,
    GapPrediction,
    ThinningMap,
    correlation_log,
    gap_probability_log,
    gap_probability_log_exact,
    thinning_to_betas,
)

__version__ = "0.1.0"
