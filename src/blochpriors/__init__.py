"""Priors on the Bloch ball from monotone metrics, Bayesian updating from
spin measurement records, and comparative-noninformativity statistics."""

from .errors import (BlochPriorsError, BudgetExceededError,
                     ImproperPriorError, NoSignChangeError,
                     NonConvergenceError, OutOfSupportError,
                     SupportMismatchError, ZeroEvidenceError)
from .functions import (MonotoneFunction, MonotoneFunctionReport,
                        check_monotone_function, custom_function,
                        kubo_mori_function, larson_dukes_generator,
                        morozova_chentsov_function, petz_function,
                        sld_function)
from .quadrature import QuadratureConfig, crossover_root
from .priors import (DEFAULT_TRUNCATION_RADIUS, PRIOR_LABELS, BlochPoint,
                     PriorDensity, RadialProfile, make_prior, volume_element)
from .measurement import (MeasurementRecord, PosteriorDensity, balanced_six,
                          evidence, likelihood, parse_record, posterior)
from .infotheory import (NATS_TO_BITS, ComparisonReport, PosteriorSide,
                         Variant, Verdict, bivariate_marginal, conditional_x,
                         crossover_radius, density_ratio_at,
                         information_gain, noninformativity_verdict,
                         relative_entropy, relative_entropy_vs_posterior,
                         variance_z)
from .experiments import (ReproductionRow, SweepResult, repeat_sweep,
                          reproduce, search_min_record)

__version__ = "1.0.0"

__all__ = [
    "BlochPriorsError", "BudgetExceededError", "ImproperPriorError",
    "NoSignChangeError", "NonConvergenceError", "OutOfSupportError",
    "SupportMismatchError", "ZeroEvidenceError",
    "MonotoneFunction", "MonotoneFunctionReport", "check_monotone_function",
    "custom_function", "kubo_mori_function", "larson_dukes_generator",
    "morozova_chentsov_function", "petz_function", "sld_function",
    "QuadratureConfig", "crossover_root",
    "DEFAULT_TRUNCATION_RADIUS", "PRIOR_LABELS", "BlochPoint",
    "PriorDensity", "RadialProfile", "make_prior", "volume_element",
    "MeasurementRecord", "PosteriorDensity", "balanced_six", "evidence",
    "likelihood", "parse_record", "posterior",
    "NATS_TO_BITS", "ComparisonReport", "PosteriorSide", "Variant",
    "Verdict", "bivariate_marginal", "conditional_x", "crossover_radius",
    "density_ratio_at", "information_gain", "noninformativity_verdict",
    "relative_entropy", "relative_entropy_vs_posterior", "variance_z",
    "ReproductionRow", "SweepResult", "repeat_sweep", "reproduce",
    "search_min_record",
]
