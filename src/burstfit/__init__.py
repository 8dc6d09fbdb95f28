"""Bursty renewal-process model of touch-like event trains.

A latent priority x ~ Beta(a, b) competes with a uniform background
priority; events fire at rate rho r(tau) when x wins, where r is a
refractory modulation built from exponentially decaying basis terms.
The package covers the closed-form interval density, exact and
accelerated samplers, the penalized likelihood with analytic gradients,
constrained fitting, and BIC-based variant comparison.

Importing the package loads none of its modules.  Each public name is
resolved from its home module on first use (PEP 562), so a command that
only reads or writes timestamps does not import the fitter.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "fit": ("FitConfig", "FitResult", "default_constraint_grid", "feasible", "fit"),
    "likelihood": (
        "InfeasibleParamsError",
        "ItiSet",
        "ObjectiveValue",
        "gradient",
        "log_likelihood",
        "objective",
    ),
    "io": (
        "LogBinnedHistogram",
        "compute_itis",
        "deserialize_fit",
        "fit_log_slope",
        "load_timestamps",
        "log_binned_histogram",
        "save_timestamps",
        "serialize_comparison",
        "serialize_fit",
    ),
    "model": (
        "ModelParams",
        "RefractoryKernel",
        "VARIANTS",
        "iti_density",
        "iti_tail_asymptote",
        "params_to_vector",
        "refractory_eval",
        "refractory_integral",
        "vector_to_params",
    ),
    "selection": ("BIC_PREFERENCE_MARGIN", "ComparisonMatrix", "bic", "compare"),
    "simulate": (
        "EventTrain",
        "SimConfig",
        "discrete_intervals",
        "invert_R",
        "simulate_continuous",
        "simulate_discrete",
    ),
    "special": ("PrecisionLossError", "digamma", "kummer_1f1", "log_beta", "log_gamma"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        # a submodule, which an eager package import used to bind
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Keeps ``burstfit.fit`` the function.

    Importing the submodule burstfit.fit binds it on the package under
    the same name; that binding is dropped, so the name resolves, as
    every public name does, to what its home module defines.
    """

    def __setattr__(self, name, value):
        if name == "fit" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
