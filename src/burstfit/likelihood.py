"""Penalized log-likelihood of an interval set and its exact gradient.

For intervals tau_i the likelihood of one interval is the marginal density
rho r(tau) <x E(x)> with E(x) = exp(-rho x R(tau)), so

    L = N c + sum_i log r(tau_i) + sum_i log <x E_i(x)>,

where <.> averages over the Beta(a, b) priority.  The Beta-exponential
moment is <x E> = [a/(a+b)] F with F = <exp(-w X)>, X ~ Beta(a+1, b),
w = rho R(tau): F = 1F1(a+1, a+b+1; -w), computed from the shapes a + 1
and b, never from their rounded sum.  The gradient needs the derivatives
of log F in a, b and w; the last is minus the ratio <x^2 E>/<x E>, which
also drives the rate and kernel gradients.  All three come out of the
same series pass that computes log F (see special._log_beta_laplace),
each as a positive-weighted sum, and go into each unique interval's
score, which the gradient sums by multiplicity.  r and R come from
model's one formula each, so r, R and w are iti_density's bit for bit.
Every caller, value-only ones included, runs that one pass under its one
accuracy check, so log_likelihood and objective raise exactly where
gradient does and agree bit for bit with the value the fitter's gate,
fit._search_objective, gets from _evaluate.

Everything hypergeometric is carried in log space, so month-long gaps
(w ~ 1e7 and beyond) lose no precision to underflow.  Interval values are
aggregated by multiplicity first, a large constant-factor win on ms-quantized
recordings, and summed by numpy's pairwise np.sum, never a BLAS dot: each
sum has one order, whatever the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import ObjectiveValue
from .model import (ModelParams, VARIANTS, _decay_matrix, _hyp_argument, _integral_from_decay,
                    _rate_from_decay, _variant_spec)
from .special import _log_beta_laplace

__all__ = [
    "ItiSet",
    "InfeasibleParamsError",
    "log_likelihood",
    "objective",
    "gradient",
]

class InfeasibleParamsError(ValueError):
    """The kernel drives the event rate nonpositive at an observed interval."""


@dataclass(frozen=True, eq=False)
class ItiSet:
    """A set of positive inter-event intervals in seconds.

    Carries lazily built caches (unique values with multiplicities, and
    per-kernel-grid basis matrices) shared by repeated likelihood calls on
    the same data.
    """

    intervals: np.ndarray

    def __post_init__(self) -> None:
        iv = np.asarray(self.intervals, dtype=float).ravel().copy()
        if iv.size < 1:
            raise ValueError("need at least one interval")
        if not np.all(np.isfinite(iv)) or iv.min() <= 0.0:
            raise ValueError("intervals must be positive and finite")
        iv.setflags(write=False)
        object.__setattr__(self, "intervals", iv)
        object.__setattr__(self, "_cache", {})

    @property
    def n(self) -> int:
        return int(self.intervals.size)

    @property
    def digest(self) -> str:
        """Short content hash, used to tie fit artifacts to their data."""
        got = self._cache.get("digest")
        if got is None:
            import hashlib

            got = hashlib.sha256(
                np.ascontiguousarray(self.intervals).tobytes()
            ).hexdigest()[:16]
            self._cache["digest"] = got
        return got

    def _unique(self) -> tuple[np.ndarray, np.ndarray]:
        cache = self._cache
        got = cache.get("unique")
        if got is None:
            tau, cnt = np.unique(self.intervals, return_counts=True)
            got = (tau, cnt.astype(float))
            cache["unique"] = got
        return got

    def _basis(self, alpha: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        """exp(-alpha_k tau) and, for the gamma scores, (1 - exp(-alpha_k tau))/alpha_k."""
        cache = self._cache
        got = cache.get(alpha)
        if got is None:
            tau, _ = self._unique()
            decay = _decay_matrix(alpha, tau)
            got = (decay, (1.0 - decay) / np.asarray(alpha))
            cache[alpha] = got
        return got


def _evaluate(
    a: float,
    b: float,
    c: float,
    gamma: np.ndarray,
    alpha: tuple[float, ...],
    variant: str,
    data: ItiSet,
) -> tuple[ObjectiveValue, np.ndarray, np.ndarray]:
    """Objective, its gradient and the per-interval scores.

    scores has one row per unique interval and the columns d/da, d/db,
    d/dc, d/dgamma_1..n of that interval's log-likelihood term; the
    gradient, ordered the same way, is their count-weighted sum less the
    penalty's.  The penalty weight is the variant table's; a kernel bank
    outside the table ("custom") carries none.  The b entry is always
    there; VariantSpec.pack drops it for variants that fix b.
    """
    tau, cnt = data._unique()
    n_data = float(data.n)
    # with no kernel terms the basis has no columns, so r is 1 and R is tau
    decay, decay_int = data._basis(alpha)
    r = _rate_from_decay(gamma, decay)
    if r.min() <= 0.0:
        raise InfeasibleParamsError("rate modulation r(tau) <= 0 at an observed interval")
    big_r = _integral_from_decay(gamma, np.asarray(alpha), tau, decay)
    log_r_sum = float(np.sum(cnt * np.log(r)))

    w = _hyp_argument(c, big_r)
    if w.min() <= 0.0:
        raise InfeasibleParamsError("integrated rate R(tau) <= 0 at an interval")
    rho = math.exp(c)

    log_f1, d_a, d_b, ratio = _log_beta_laplace(a + 1.0, b, w)
    loglik = (
        n_data * c
        + log_r_sum
        + n_data * (math.log(a) - math.log(a + b))
        + float(np.sum(cnt * log_f1))
    )
    spec = VARIANTS.get(variant)
    reg_weight = spec.reg_weight if spec is not None else 0.0
    penalty = reg_weight * float(gamma @ gamma)
    value = ObjectiveValue(loglik, penalty, loglik - penalty)

    scores = np.empty((tau.size, 3 + gamma.size), order="F")
    scores[:, 0] = d_a + b / (a + b) / a
    scores[:, 1] = d_b - 1.0 / (a + b)
    scores[:, 2] = 1.0 - rho * ratio * big_r
    scores[:, 3:] = decay / r[:, None] - (rho * ratio)[:, None] * decay_int
    # one np.sum per column, so M1's entries equal M3's at gamma = 0 bit for bit
    with np.errstate(over="ignore"):
        grad = np.array([np.sum(cnt * column) for column in scores.T])
    if not np.all(np.isfinite(grad)):
        raise OverflowError(f"the gradient is past the float range at a={a!r}, b={b!r}")
    grad[3:] -= 2.0 * reg_weight * gamma
    return value, grad, scores


def _params_evaluate(params: ModelParams, data: ItiSet) -> tuple:
    gamma = np.asarray(params.kernel.gamma, dtype=float)
    return _evaluate(params.a, params.b, params.c, gamma, params.kernel.alpha, params.variant, data)


def log_likelihood(params: ModelParams, data: ItiSet) -> float:
    """Exact log-likelihood of the interval set under params."""
    return _params_evaluate(params, data)[0].log_likelihood


def objective(params: ModelParams, data: ItiSet) -> ObjectiveValue:
    """Penalized objective: log-likelihood minus the variant's penalty
    weight (0.01 with a kernel, 0 without) times sum gamma^2."""
    return _params_evaluate(params, data)[0]


def gradient(params: ModelParams, data: ItiSet) -> np.ndarray:
    """Analytic gradient of the penalized objective over the variant's free
    coordinates, ordered a, [b], c, gamma_1..gamma_n."""
    grad = _params_evaluate(params, data)[1]
    return _variant_spec(params.variant).pack(*grad[:3], grad[3:])

