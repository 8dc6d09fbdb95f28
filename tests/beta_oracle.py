"""Expectations under a Beta weight by fixed-order Gauss-Legendre quadrature.

An independent oracle for the tests: it shares no code with the 1F1 series
and asymptotic regimes, so Euler's integral 1F1(a, b; -w) = E[exp(-w x)]
under Beta(a, b - a) (DLMF 13.4.1) checks kummer_1f1 from outside.

The domain is split at 1/2, and each half gets the power substitution
x = u**(l/shape) that absorbs its endpoint weight x^{shape-1} (or
(1-x)^{shape-1}), so the rule sums to one to quadrature accuracy and the
integrand is only evaluated at interior points.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@lru_cache(maxsize=8)
def _gl_nodes01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _flatten_exponent(shape: float) -> int:
    """Integer l such that x = u**(l/shape) turns x^{shape-1} dx into u^{l-1} du.

    Below shape 1 this is the exact endpoint substitution (l = 1).  Above
    it l is chosen so the residual branch exponent l/shape stays >= 1.5; a
    bare non-integer power x^{shape-1} otherwise caps fixed-order
    Gauss-Legendre near 1e-7.
    """
    if shape < 1.0:
        return 1
    return max(1, math.ceil(1.5 * shape - 1e-9))


def _half(
    shape: float, other: float, ln_b: float, u: np.ndarray, gw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distances t from the endpoint whose weight is t^{shape-1}, and weights.

    The far endpoint contributes (1-t)^{other-1}.
    """
    l = _flatten_exponent(shape)
    q = l / shape
    scale = 0.5 ** (1.0 / q)
    t = (u * scale) ** q
    logw = (
        np.log(gw)
        + math.log(q)
        + l * math.log(scale)
        + (l - 1.0) * np.log(u)
        + (other - 1.0) * np.log(1.0 - t)
        - ln_b
    )
    return t, np.exp(logw)


def beta_expectation(f, a: float, b: float, node_count: int = 200) -> float:
    """E[f(x)] for x ~ Beta(a, b), node_count nodes on each half of (0, 1).

    f is called once with the array of nodes and returns an array of the
    same shape.  Non-finite integrand values raise FloatingPointError.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta_expectation requires a, b > 0, got a={a}, b={b}")
    u, gw = _gl_nodes01(node_count)
    ln_b = log_beta(a, b)
    left, w_left = _half(a, b, ln_b, u, gw)
    right, w_right = _half(b, a, ln_b, u, gw)
    vals = np.asarray(f(np.concatenate([left, 1.0 - right])), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("integrand returned non-finite values at nodes")
    return float(np.dot(np.concatenate([w_left, w_right]), vals))
