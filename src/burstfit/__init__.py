"""Bursty renewal-process model of touch-like event trains.

A latent priority x ~ Beta(a, b) competes with a uniform background
priority; events fire at rate rho r(tau) when x wins, where r is a
refractory modulation built from exponentially decaying basis terms.
The package covers the closed-form interval density, exact and
accelerated samplers, the penalized likelihood with analytic gradients,
constrained fitting, and BIC-based variant comparison.

Each public name is defined in, and imported from, the one module whose
``__all__`` lists it: ``from burstfit.fit import fit``, ``from
burstfit.io import load_timestamps``.  Importing the package loads none
of its modules, so a command that only reads or writes timestamps does
not import the fitter.
"""

__version__ = "0.1.0"
