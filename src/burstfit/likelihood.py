"""Penalized log-likelihood of an interval set and its exact gradient.

For intervals tau_i the likelihood of one interval is the marginal density
rho r(tau) <x E(x)> with E(x) = exp(-rho x R(tau)), so

    L = N c + sum_i log r(tau_i) + sum_i log <x E_i(x)>,

where <.> averages over the Beta(a, b) priority.  The Beta-exponential
moment reduces to a Kummer function: <x E> = [a/(a+b)] F with
F = 1F1(a+1, a+b+1; -w) and w = rho R(tau).  The gradient needs the
derivatives of log F in a, b and w; the last is minus the ratio
<x^2 E>/<x E>, which also drives the rate and kernel gradients.  All three
come out of the same series pass that computes log F (see
special._log_hyp1f1_neg), each as a positive-weighted sum.  Every caller,
value-only ones included, runs that one pass under its one accuracy check,
so log_likelihood and objective raise exactly where gradient does and
agree bit for bit with the value the fitter sees.

Everything hypergeometric is carried in log space, so month-long gaps
(w ~ 1e7 and beyond) lose no precision to underflow.  Interval values are
aggregated by multiplicity first; millisecond-quantized recordings make
this a large constant-factor win and it keeps the summation order fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import ObjectiveValue
from .model import ModelParams, VARIANTS, _decay_matrix, _variant_spec
from .special import PrecisionLossError, _log_hyp1f1_neg

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
        """exp(-alpha_k tau_i) and (1 - exp(-alpha_k tau_i))/alpha_k."""
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
) -> tuple[ObjectiveValue, tuple]:
    """Objective, and its gradient as (d/da, d/db, d/dc, d/dgamma).

    The penalty weight is the variant table's; a kernel bank outside the
    table ("custom") carries none.  The gradient always carries the b
    entry; VariantSpec.pack drops it for variants that fix b.
    """
    tau, cnt = data._unique()
    n_data = float(data.n)
    # with no kernel terms the basis has no columns, so r is 1 and R is tau
    decay, decay_int = data._basis(alpha)
    r = 1.0 + decay @ gamma
    if r.min() <= 0.0:
        raise InfeasibleParamsError(
            "rate modulation r(tau) <= 0 at an observed interval"
        )
    big_r = tau + decay_int @ gamma
    log_r_sum = float(cnt @ np.log(r))

    rho = math.exp(c)
    w = rho * big_r
    if w.min() <= 0.0:
        raise InfeasibleParamsError("integrated rate R(tau) <= 0 at an interval")

    log_f1, d_a, d_b, ratio = _log_hyp1f1_neg(a + 1.0, a + b + 1.0, w)
    loglik = (
        n_data * c
        + log_r_sum
        + n_data * (math.log(a) - math.log(a + b))
        + float(cnt @ log_f1)
    )
    spec = VARIANTS.get(variant)
    reg_weight = spec.reg_weight if spec is not None else 0.0
    penalty = reg_weight * float(gamma @ gamma)
    value = ObjectiveValue(loglik, penalty, loglik - penalty)

    g_a = float(cnt @ d_a) + n_data * (1.0 / a - 1.0 / (a + b))
    g_b = float(cnt @ d_b) - n_data / (a + b)
    g_c = n_data - rho * float(cnt @ (big_r * ratio))
    d_gamma = (cnt / r) @ decay - rho * ((cnt * ratio) @ decay_int)
    d_gamma -= 2.0 * reg_weight * gamma
    return value, (g_a, g_b, g_c, d_gamma)


def _params_evaluate(params: ModelParams, data: ItiSet) -> tuple[ObjectiveValue, tuple]:
    gamma = np.asarray(params.kernel.gamma, dtype=float)
    return _evaluate(
        params.a, params.b, params.c, gamma, params.kernel.alpha, params.variant, data
    )


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
    spec = _variant_spec(params.variant)
    return spec.pack(*_params_evaluate(params, data)[1])


def _vector_objective(
    vec: np.ndarray, variant: str, data: ItiSet
) -> tuple[ObjectiveValue | None, np.ndarray | None]:
    """Objective and gradient on a packed vector; (None, None) out of domain.

    This is the fitter's one domain gate: it must be able to probe points
    where ModelParams construction would fail (a <= 0, negative kernel),
    where exp(c) overflows, where no 1F1 regime reaches its accuracy
    (precision loss), or where the objective or gradient is not finite,
    and see them rejected rather than raised.
    """
    spec = _variant_spec(variant)
    a, b, c, gamma = spec.unpack(vec)
    if not (a > 0.0 and b > 0.0 and math.isfinite(a + b + c)):
        return None, None
    try:
        value, grad = _evaluate(a, b, c, gamma, spec.alpha, variant, data)
    except (InfeasibleParamsError, PrecisionLossError, OverflowError):
        return None, None
    grad = spec.pack(*grad)
    if not (math.isfinite(value.objective) and np.all(np.isfinite(grad))):
        return None, None
    return value, grad
