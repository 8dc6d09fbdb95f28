"""Parameter types and closed-form quantities of the bursty renewal model.

An event train is modeled as a renewal process whose hazard a waiting time
tau after the last event is rho * x * r(tau): rho = e^c is the base rate in
Hz, x in (0, 1] is a latent priority drawn once per interval from a
Beta(a, b) distribution, and r is a refractory kernel modulating short
waits.  Marginalizing over x turns the exponential mixture into a density
with a power-law tail of exponent -(a + 1).

All times are seconds and all rates Hz.  The log rate c = log(rho) is the
coordinate used by the fitter, so ModelParams stores c rather than rho.

The parameter records (RefractoryKernel, ModelParams, VariantSpec and
VARIANTS) are plain Python.  numpy is imported inside the functions that
evaluate or pack them, and ``special`` (1F1) inside ``iti_density``
alone, so rebuilding a fit's parameters from its artifact loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RefractoryKernel",
    "ModelParams",
    "VariantSpec",
    "VARIANTS",
    "refractory_eval",
    "refractory_integral",
    "iti_density",
]

# Fastest decay timescale (seconds), and slowest by number of kernel terms.
_FASTEST_TIMESCALE = 0.050
_SLOWEST_TIMESCALE = {8: 1.0, 12: 1.5}

# Negative kernel values closer to zero than this are treated as exact zeros.
_KERNEL_DUST = 1e-12


@dataclass(frozen=True)
class RefractoryKernel:
    """Short-range rate modulation r(tau) = 1 + sum_k gamma_k exp(-alpha_k tau).

    ``alpha`` is strictly decreasing, so ``gamma[0]`` belongs to the fastest
    decaying component.  An empty kernel (n = 0) leaves the rate flat.
    """

    gamma: tuple[float, ...] = ()
    alpha: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        gamma = tuple(float(g) for g in self.gamma)
        alpha = tuple(float(al) for al in self.alpha)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", alpha)
        if len(gamma) != len(alpha):
            raise ValueError("gamma and alpha must have equal length")
        if not all(math.isfinite(g) for g in gamma):
            raise ValueError("kernel amplitudes must be finite")
        if not all(al > 0.0 and math.isfinite(al) for al in alpha):
            raise ValueError("kernel decay rates must be positive and finite")
        if any(hi <= lo for hi, lo in zip(alpha, alpha[1:])):
            raise ValueError("kernel decay rates must be strictly decreasing")

    @property
    def n(self) -> int:
        return len(self.gamma)

    @classmethod
    def none(cls) -> "RefractoryKernel":
        """The empty kernel, r(tau) identically 1."""
        return cls((), ())

    @classmethod
    def log_spaced(cls, gamma) -> "RefractoryKernel":
        """Kernel with decay timescales geometrically spaced between two limits.

        With 8 amplitudes the timescales run from 50 ms to 1 s, with 12 from
        50 ms to 1.5 s; a single amplitude sits at 50 ms.  A bank of any
        other size is built as RefractoryKernel(gamma, alpha).
        """
        gamma = tuple(float(g) for g in gamma)
        n = len(gamma)
        if n < 2:
            return cls(gamma, (1.0 / _FASTEST_TIMESCALE,) * n)
        slowest = _SLOWEST_TIMESCALE.get(n)
        if slowest is None:
            raise ValueError(
                f"no log-spaced timescales for {n} kernel terms; "
                "build RefractoryKernel(gamma, alpha) directly"
            )
        a_first = 1.0 / _FASTEST_TIMESCALE
        a_last = 1.0 / slowest
        step = (a_first / a_last) ** (1.0 / (n - 1))
        alpha = tuple(a_first * step ** (-k) for k in range(n))
        return cls(gamma, alpha)


@dataclass(frozen=True)
class VariantSpec:
    """Shape of one model variant and the layout of its packed vector.

    The fitted coordinates are packed as a, [b], c, gamma_1..gamma_n, with
    b left out where the variant fixes it at 1.  ``alpha`` is the variant's
    fixed bank of kernel decay rates.
    """

    name: str
    n_kernel_terms: int
    free_b: bool
    reg_weight: float
    alpha: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        bank = RefractoryKernel.log_spaced((0.0,) * self.n_kernel_terms)
        object.__setattr__(self, "alpha", bank.alpha)

    @property
    def gamma_offset(self) -> int:
        """Index of gamma_1 in the packed vector."""
        return 3 if self.free_b else 2

    @property
    def n_params(self) -> int:
        return self.gamma_offset + self.n_kernel_terms

    def pack(self, a: float, b: float, c: float, gamma) -> np.ndarray:
        """Packed vector of the coordinates; b is dropped where fixed."""
        import numpy as np

        head = (a, b, c) if self.free_b else (a, c)
        return np.array([*head, *gamma], dtype=float)


VARIANTS = {
    "M1": VariantSpec("M1", 0, False, 0.0),
    "M2": VariantSpec("M2", 0, True, 0.0),
    "M3": VariantSpec("M3", 8, False, 0.01),
    "M4": VariantSpec("M4", 8, True, 0.01),
    "M5": VariantSpec("M5", 12, True, 0.01),
}


def _infer_variant(alpha: tuple[float, ...], b: float) -> str:
    for name, spec in VARIANTS.items():
        if spec.alpha == alpha and (spec.free_b or b == 1.0):
            return name
    # Kernel banks outside the variant table are allowed for simulation and
    # density evaluation but cannot be packed or fitted.
    return "custom"


@dataclass(frozen=True)
class ModelParams:
    """One point in parameter space: priority shapes, log rate, kernel.

    ``variant`` may be left None, in which case the smallest variant
    consistent with the kernel's decay rates and b is picked.
    """

    a: float
    b: float
    c: float
    kernel: RefractoryKernel = RefractoryKernel.none()
    variant: str | None = None

    def __post_init__(self) -> None:
        a = float(self.a)
        b = float(self.b)
        c = float(self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"a must be positive and finite, got {a}")
        if not (math.isfinite(b) and b > 0.0):
            raise ValueError(f"b must be positive and finite, got {b}")
        if not math.isfinite(c):
            raise ValueError(f"c must be finite, got {c}")
        variant = self.variant or _infer_variant(self.kernel.alpha, b)
        spec = VARIANTS.get(variant)
        if spec is None:
            if variant != "custom":
                raise ValueError(f"unknown variant {variant!r}")
        else:
            if spec.alpha != self.kernel.alpha:
                raise ValueError(
                    f"variant {variant} needs the kernel rates {spec.alpha}, "
                    f"kernel has {self.kernel.alpha}"
                )
            if not spec.free_b and b != 1.0:
                raise ValueError(f"variant {variant} fixes b = 1, got b={b}")
        object.__setattr__(self, "variant", variant)

    @property
    def rho(self) -> float:
        """Base event rate in Hz."""
        return math.exp(self.c)


def _as_times(tau):
    """Flatten tau to a vector of finite times >= 0, remembering its shape."""
    import numpy as np

    shape = np.shape(tau)
    t = np.asarray(tau, dtype=float).ravel()
    if not np.all(np.isfinite(t)):
        raise ValueError("tau must be finite")
    if t.size and t.min() < 0.0:
        raise ValueError("tau must be >= 0")
    return t, shape


def _restore(values: np.ndarray, shape) -> float | np.ndarray:
    if shape == ():
        return float(values[0])
    return values.reshape(shape)


def _decay_matrix(alpha: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """exp(-alpha_k tau): one row per time in t, one column per decay rate.

    r and R come from it by one formula each, _rate_from_decay and
    _integral_from_decay; a caller that needs both builds it once.
    """
    import numpy as np

    decay = -t[:, None] * np.asarray(alpha)
    return np.exp(decay, out=decay)


def _rate_from_decay(gamma: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """r = 1 + decay @ gamma from the times' decay matrix, dust clamped to 0."""
    out = 1.0 + decay @ gamma
    out[(out < 0.0) & (out >= -_KERNEL_DUST)] = 0.0
    return out


def _integral_from_decay(
    gamma: np.ndarray, alpha: np.ndarray, t: np.ndarray, decay: np.ndarray
) -> np.ndarray:
    """R = t + (1 - decay) @ (gamma/alpha) at the times t from their decay matrix."""
    return t + (1.0 - decay) @ (gamma / alpha)


def refractory_eval(kernel: RefractoryKernel, tau):
    """r(tau) = 1 + sum_k gamma_k exp(-alpha_k tau), elementwise.

    Values within -1e-12 of zero are clamped to exactly 0; anything more
    negative is returned untouched so constraint handling can see the
    violation instead of a silently repaired kernel.
    """
    import numpy as np

    t, shape = _as_times(tau)
    return _restore(_rate_from_decay(np.asarray(kernel.gamma), _decay_matrix(kernel.alpha, t)), shape)


def refractory_integral(kernel: RefractoryKernel, tau):
    """R(tau) = tau + sum_k (gamma_k/alpha_k)(1 - exp(-alpha_k tau))."""
    import numpy as np

    t, shape = _as_times(tau)
    gamma, alpha = np.asarray(kernel.gamma), np.asarray(kernel.alpha)
    return _restore(_integral_from_decay(gamma, alpha, t, _decay_matrix(alpha, t)), shape)


def _hyp_argument(c: float, big_r: np.ndarray) -> np.ndarray:
    """w = exp(c) R(tau), the argument of the density's 1F1.

    A rate or a product past the float range is refused naming c, not
    carried into the 1F1 pass as inf.
    """
    import numpy as np

    try:
        rho = math.exp(c)
    except OverflowError:
        rho = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        w = rho * big_r
    if rho == math.inf or not np.all(np.isfinite(w)):
        raise OverflowError(f"exp(c) R(tau) is past the float range at c={c!r}")
    return w


def iti_density(params: ModelParams, tau):
    """Marginal interval density p(tau) in 1/s, elementwise.

    Closed form: p(tau) = rho r(tau) [a/(a+b)] 1F1(a+1, a+b+1; -rho R(tau)).
    At tau = 0 the hypergeometric factor is 1 and the formula equals the
    right limit rho r(0) a/(a+b), so zero needs no special casing.  r < 0
    or R < 0 at a requested tau raises ValueError.
    """
    import numpy as np

    from .special import _log_beta_laplace

    t, shape = _as_times(tau)
    gamma, alpha = np.asarray(params.kernel.gamma), np.asarray(params.kernel.alpha)
    decay = _decay_matrix(alpha, t)
    r = _rate_from_decay(gamma, decay)
    big_r = _integral_from_decay(gamma, alpha, t, decay)
    if t.size and min(r.min(), big_r.min()) < 0.0:
        raise ValueError("kernel or its integral R(tau) is negative in range; params infeasible")
    a, b = params.a, params.b
    w = _hyp_argument(params.c, big_r)
    log_f1 = _log_beta_laplace(a + 1.0, b, w)[0]
    # in logs, so a subnormal 1F1 factor costs no digits; r = 0 gives log 0
    with np.errstate(divide="ignore"):
        dens = np.exp(params.c + np.log(r) + (math.log(a) - math.log(a + b)) + log_f1)
    return _restore(dens, shape)


def _variant_spec(variant: str) -> VariantSpec:
    spec = VARIANTS.get(variant)
    if spec is None:
        raise ValueError(
            f"variant {variant!r} has no parameter packing; use one of "
            f"{sorted(VARIANTS)}"
        )
    return spec

