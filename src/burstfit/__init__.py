"""Bursty renewal-process model of touch-like event trains.

A latent priority x ~ Beta(a, b) competes with a uniform background
priority; events fire at rate rho r(tau) when x wins, where r is a
refractory modulation built from exponentially decaying basis terms.
The package covers the closed-form interval density, exact and
accelerated samplers, the penalized likelihood with analytic gradients,
constrained fitting, and BIC-based variant comparison.
"""

from .fit import FitConfig, FitResult, default_constraint_grid, feasible, fit
from .likelihood import (
    InfeasibleParamsError,
    ItiSet,
    ObjectiveValue,
    effective_reg_weight,
    gradient,
    log_likelihood,
    objective,
)
from .io import (
    LogBinnedHistogram,
    compute_itis,
    deserialize_fit,
    fit_log_slope,
    load_timestamps,
    log_binned_histogram,
    save_timestamps,
    serialize_comparison,
    serialize_fit,
)
from .model import (
    ModelParams,
    RefractoryKernel,
    VARIANTS,
    iti_density,
    iti_tail_asymptote,
    params_to_vector,
    refractory_eval,
    refractory_integral,
    vector_to_params,
)
from .selection import BIC_PREFERENCE_MARGIN, ComparisonMatrix, bic, compare
from .simulate import (
    EventTrain,
    SimConfig,
    discrete_intervals,
    invert_R,
    simulate_continuous,
    simulate_discrete,
)
from .special import (
    PrecisionLossError,
    digamma,
    kummer_1f1,
    log_beta,
    log_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "BIC_PREFERENCE_MARGIN",
    "ComparisonMatrix",
    "EventTrain",
    "FitConfig",
    "FitResult",
    "InfeasibleParamsError",
    "ItiSet",
    "LogBinnedHistogram",
    "ModelParams",
    "ObjectiveValue",
    "PrecisionLossError",
    "RefractoryKernel",
    "SimConfig",
    "VARIANTS",
    "bic",
    "compare",
    "compute_itis",
    "default_constraint_grid",
    "deserialize_fit",
    "digamma",
    "discrete_intervals",
    "effective_reg_weight",
    "feasible",
    "fit",
    "fit_log_slope",
    "gradient",
    "invert_R",
    "iti_density",
    "iti_tail_asymptote",
    "kummer_1f1",
    "load_timestamps",
    "log_beta",
    "log_binned_histogram",
    "log_gamma",
    "log_likelihood",
    "objective",
    "params_to_vector",
    "refractory_eval",
    "refractory_integral",
    "save_timestamps",
    "serialize_comparison",
    "serialize_fit",
    "simulate_continuous",
    "simulate_discrete",
    "vector_to_params",
]
