"""Smoothed maximum-likelihood location estimation.

Estimate the translation lambda of a known density shape from samples,
using exact closed-form smoothed scores and Fisher information, with
finite-sample error radii and subgamma norm-concentration bounds.

Non-fatal events (a Weiszfeld run stopped at its iteration cap) go to
the "smoothloc" logger, which has only a NullHandler until the
application configures logging.
"""

import logging

from .errors import (
    ConfigurationError,
    EstimationError,
    ModelSpecError,
    PreconditionError,
    TailUnderflowError,
)
from .rng import RngSeed
from .models import (
    Density1d,
    Gaussian,
    GaussianMixture,
    GaussianSawtooth,
    Laplace,
    ProductDensity,
    format_model,
    parse_model,
)
from .smoothing import (
    FisherMatrix,
    SmoothedModel1d,
    SmoothedModelHd,
    check_score_inversion_bias,
    fisher_1d,
    fisher_hd,
    smoothed_pdf_1d,
    smoothed_score_1d,
    smoothed_score_hd,
)
from .estimator1d import (
    Config1d,
    EstimateReport,
    choose_alpha,
    global_mle_1d,
    local_mle_1d,
    quantile_initial_estimate,
)
from .estimatorhd import (
    ConfigHd,
    ReportHd,
    geometric_median_of_means,
    global_mle_hd,
    local_mle_hd,
    m_norm,
    theoretical_bound_hd,
)
from .concentration import (
    SubgammaSpec,
    VectorGenerator,
    empirical_norm_quantile,
    exponential_generator,
    gaussian_generator,
    gaussian_tail,
    mgf_check,
    norm_bound,
    rademacher_generator,
    score_vector_generator,
    tail_bound,
)
from .harness import (
    CsvTable,
    ExperimentConfig,
    format_config,
    parse_config,
    run_concentration,
    run_coverage,
    run_coverage_hd,
    run_experiment,
    run_fisher_sweep,
    run_sawtooth_phase,
)

__all__ = [
    "ConfigurationError",
    "EstimationError",
    "ModelSpecError",
    "PreconditionError",
    "TailUnderflowError",
    "RngSeed",
    "Density1d",
    "Gaussian",
    "GaussianMixture",
    "GaussianSawtooth",
    "Laplace",
    "ProductDensity",
    "format_model",
    "parse_model",
    "FisherMatrix",
    "SmoothedModel1d",
    "SmoothedModelHd",
    "check_score_inversion_bias",
    "fisher_1d",
    "fisher_hd",
    "smoothed_pdf_1d",
    "smoothed_score_1d",
    "smoothed_score_hd",
    "Config1d",
    "EstimateReport",
    "choose_alpha",
    "global_mle_1d",
    "local_mle_1d",
    "quantile_initial_estimate",
    "ConfigHd",
    "ReportHd",
    "geometric_median_of_means",
    "global_mle_hd",
    "local_mle_hd",
    "m_norm",
    "theoretical_bound_hd",
    "SubgammaSpec",
    "VectorGenerator",
    "empirical_norm_quantile",
    "exponential_generator",
    "gaussian_generator",
    "gaussian_tail",
    "mgf_check",
    "norm_bound",
    "rademacher_generator",
    "score_vector_generator",
    "tail_bound",
    "CsvTable",
    "ExperimentConfig",
    "format_config",
    "parse_config",
    "run_concentration",
    "run_coverage",
    "run_coverage_hd",
    "run_experiment",
    "run_fisher_sweep",
    "run_sawtooth_phase",
]

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
