"""Digamma, and 1F1 with the derivatives of its log.

The interval density and its likelihood reduce to <exp(-w X)> for
X ~ Beta(p, q), the confluent hypergeometric 1F1(p, p+q; -w).  This module
owns those numerics: digamma and a 1F1 evaluator with regime switching;
log-gamma is the standard library's math.lgamma.  Every log 1F1 value comes from one series pass over the shapes
(p, q) as given, a sweep over sorted w that retires rows as they converge,
which also returns the derivatives of log 1F1 in p, q and w that the
likelihood gradient needs; a value is returned only if they settled too.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PrecisionLossError",
    "digamma",
    "kummer_1f1",
]


class PrecisionLossError(ArithmeticError):
    """No evaluation regime reached the requested accuracy."""


def _require_finite(name: str, value: float) -> float:
    """value as a float once model._is_real (imported here, so that importing
    this module loads no other) accepts it and it is finite."""
    from .model import _is_real

    if not (_is_real(value) and math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def digamma(z: float) -> float:
    """Logarithmic derivative of Gamma for z > 0.

    Uses the downward recurrence psi(z) = psi(z + 1) - 1/z to push the
    argument above 10, then the asymptotic series in Bernoulli numbers.
    Absolute error is comfortably below 1e-12 on (0, 1e6].
    """
    z = _require_finite("z", z)
    if z <= 0.0:
        raise ValueError(f"digamma requires z > 0, got {z}")
    acc = 0.0
    while z < 10.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    # B_{2n}/(2n) coefficients: 1/12, -1/120, 1/252, -1/240, 1/132, -691/32760
    tail = inv2 * (
        1.0 / 12.0
        - inv2
        * (
            1.0 / 120.0
            - inv2
            * (
                1.0 / 252.0
                - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0)))
            )
        )
    )
    return acc + math.log(z) - 0.5 / z - tail


# 1F1 evaluation.  Only z <= 0 appears in the density and likelihood; the
# direct alternating series loses roughly e^{|z|} * eps of precision, which
# is fatal already near |z| = 12, so for negative arguments we always work
# through the Kummer transform 1F1(p, p+q; -w) = e^-w 1F1(q, p+q; w) whose
# series has positive terms, and switch to the asymptotic expansion for
# large w.
_ASYM_SWITCH = 300.0
_MAX_SERIES_TERMS = 1800
_SERIES_STOP = 1e-17


# Terms of the transformed series are buffered this many at a time and
# folded into the derivative sums by one small matrix product per block;
# rows whose series has converged are retired at the same folds.  The
# buffer holds _TERM_BLOCK x live series rows x 8 bytes.  Against 64, 32
# cut a likelihood pass's traced peak from 2.62 to 1.65 MiB on 4,322
# unique heavy-tail intervals and from 12.74 to 8.08 MiB on 27,474
# criterion-3 ones, and neither pass got slower; 16 and 8 saved under
# 0.7 MiB more on the first and made its pass slower.
_TERM_BLOCK = 32


def _transformed_series(p: float, q: float, w: np.ndarray) -> np.ndarray:
    """log 1F1(p, p+q; -w) = log T - w, T = 1F1(q, p+q; w), for 0 <= w < ~300.

    The series needs roughly w + O(sqrt(w)) terms and t_k / T_k grows
    with w, so for ascending w the rows converge from the front.  One
    sweep over k retires the converged leading rows at each block fold;
    the fewer than _TERM_BLOCK terms a row takes past its convergence are
    each below half an ulp of its total, so no value depends on w's order.

    The terms t_k = (q)_k / (p+q)_k * w^k / k! are also folded into three
    sums whose weights depend only on k and share one sign: -H_k with
    H_k = sum_{j<k} 1/(p+q+j) gives the p derivative, sum_{j<k}
    p/((q+j)(p+q+j)) the q derivative, and p/(p+q+k) the ratio.  Each
    t_k past k = 0 carries a factor q, so rows stop against T - 1, not T,
    which is all the q derivative sees at small q.  See _log_beta_laplace.
    """
    # Row 0 is the value, rows 1-3 the derivative sums; `live` is the unretired tail.
    res = live = np.zeros((4, w.size))
    term = np.ones_like(w)
    total = np.ones_like(w)
    tail = np.zeros_like(w)  # T - 1, the sum convergence is judged against
    j = np.arange(_MAX_SERIES_TERMS + 1.0)
    inv_s = 1.0 / (p + q + j)
    weights = np.zeros((3, j.size))
    weights[0, 1:] = -np.cumsum(inv_s[:-1])
    weights[1, 1:] = np.cumsum((p * inv_s / (q + j))[:-1])
    weights[2] = p * inv_s
    buf = np.empty((_TERM_BLOCK, w.size))
    buf[0] = term
    for k in range(_MAX_SERIES_TERMS):
        term = term * w * ((q + k) / ((p + q + k) * (k + 1.0)))
        total += term
        tail += term
        row = (k + 1) % _TERM_BLOCK
        buf[row] = term
        done = term[-1] <= _SERIES_STOP * tail[-1] and np.all(
            term <= _SERIES_STOP * tail
        )
        if not (done or row == _TERM_BLOCK - 1):
            continue
        live[1:] += weights[:, k + 1 - row : k + 2] @ buf[: row + 1]
        n = w.size if done else int(np.argmin(term <= _SERIES_STOP * tail))
        live[0, :n] = np.log(total[:n]) - w[:n]
        live[1:, :n] /= total[:n]
        if done:
            break
        w, term, total, tail = w[n:], term[n:], total[n:], tail[n:]
        live, buf = live[:, n:], buf[:, n:]
    else:
        raise PrecisionLossError("transformed 1F1 series did not converge")
    return res


# From this q on, the Gamma ratio Gamma(p+q)/Gamma(q) and the digamma gap
# psi(p+q) - psi(q) of the asymptotic regime come from Stirling's series
# (_gamma_ratio).  It sits above every q (at most 199.4) at which cold
# M1-M5 fits of simulated M3 kernel data, heavy-tail M2 data and the
# acceptance tests' criterion-3 data had an asymptotic pass answered, so
# none of those fits changes.
_STIRLING_Q = 256.0


def _gamma_ratio(p: float, q: float) -> tuple[float, float, float]:
    """(lead, tail, gap) with log Gamma(p+q)/Gamma(q) = lead - tail and
    psi(p+q) - psi(q) = gap.

    Below _STIRLING_Q, lead and tail are math.lgamma(p + q) and
    math.lgamma(q), and gap the difference of their digammas.  Each pair is two nearly
    equal numbers of size q log q, so their difference loses the digits
    they share, and at q >> p the sum p + q rounds p away: at q = 1e12
    log F was off by up to 2e-3.  lead and tail are handed back apart, not
    subtracted, so that below _STIRLING_Q log F rounds as it always has.
    From _STIRLING_Q on, both come from p and q apart (DLMF 5.11.1,
    5.11.2), with tail = 0:

        lead = (q - 1/2) log1p(p/q) + p log(q+p) - p + S(q+p) - S(q),
        gap = log1p(p/q) + p / (2 q (q+p)) - T(q+p) + T(q),

    with S(z) = 1/(12z) - 1/(360z^3) + 1/(1260z^5) and T(z) = 1/(12z^2) -
    1/(120z^4) + 1/(252z^6) the Stirling tails of log Gamma and psi; at
    z >= 256 the terms they leave out are below 1e-20 of the ratio and of
    the gap.
    """
    if q < _STIRLING_Q:
        return math.lgamma(p + q), math.lgamma(q), digamma(p + q) - digamma(q)

    def tails(x: float) -> tuple[float, float]:
        inv2 = 1.0 / (x * x)
        return (
            (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0)) / x,
            inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0)),
        )

    z = q + p
    (s_z, t_z), (s_q, t_q) = tails(z), tails(q)
    shift = math.log1p(p / q)
    lead = (q - 0.5) * shift + p * math.log(z) - p + (s_z - s_q)
    return lead, 0.0, shift + p / (2.0 * q * z) - (t_z - t_q)


def _asym_1f1_neg(p: float, q: float, w: np.ndarray) -> np.ndarray:
    """Asymptotic form of 1F1(p, p+q; -w) and its log derivatives for large w.

    1F1(p,p+q;-w) = Gamma(p+q)/Gamma(q) * w^-p * S + e^-w with S = sum_s
    u_s, u_s = (p)_s (1-q)_s / (s! w^s), truncated per row at the smallest
    term (optimal truncation) or once the terms stop mattering.  The power
    law carries 1/Gamma(q) ~ q; e^-w, the q -> 0 limit of the recessive
    term (the point mass at x = 1), outweighs it only at such small q.

    The derivatives of log S are taken term by term: the p derivative
    weights u_s by A_s = sum_{j<s} 1/(p+j), the w derivative by -s/w, and
    the q derivative sums v_s = d u_s / dq, carried by its own recurrence
    because at integer q the u_s terminate while the v_s do not.  The value
    and all three sums share one truncation per row, on max(|u_s|, |v_s|):
    a row stops once that magnitude stops falling or drops below
    _SERIES_STOP of S, and PrecisionLossError is raised if the last kept
    magnitude is still above 1e-9 of S.  Where 1 - q is a non-positive
    integer the u_s are exact zeros past s = q - 1, so the value alone
    would look settled; the v_s keep the row live and show the expansion
    unsettled.  The term loop is left as soon as row 0, the smallest w and
    so the last row to settle, has stopped unsettled: its kept terms are
    final, so the pass is refused without summing the other rows on.
    """
    c = 1.0 - q
    term = np.ones_like(w)
    total = np.ones_like(w)
    dterm = np.zeros_like(w)
    mag_last = term
    active = np.ones(w.shape, dtype=bool)
    sums = np.zeros((3,) + w.shape)
    shift_weight = 0.0
    # Stopped rows keep multiplying their terms and may overflow; the
    # resid test below refuses any row left inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(80):
            nxt = term * ((p + s) * (c + s) / ((s + 1.0) * w))
            dterm = (dterm * (c + s) - term) * ((p + s) / ((s + 1.0) * w))
            shift_weight += 1.0 / (p + s)
            mag = np.maximum(np.abs(nxt), np.abs(dterm))
            active &= mag < mag_last
            total = np.where(active, total + nxt, total)
            sums += np.where(
                active, np.array([shift_weight * nxt, dterm, (s + 1.0) * nxt]), 0.0
            )
            mag_last = np.where(active, mag, mag_last)
            active &= mag_last > _SERIES_STOP * np.abs(total)
            term = nxt
            if not active.any():
                break
            # row 0 settles last; stopped unsettled, it fails the check below
            if not (active[0] or mag_last[0] / abs(total[0]) <= 1e-9):
                break
    resid = mag_last / np.abs(total)
    if not np.all(resid <= 1e-9) or np.any(total <= 0.0):
        raise PrecisionLossError(
            f"asymptotic 1F1 failed for p={p}, q={q}, min w={w.min():g}"
        )
    log_w = np.log(w)
    psi_s = digamma(p + q)
    lead, tail, gap = _gamma_ratio(p, q)
    log_power = np.log(total) + lead - tail - p * log_w
    log_f = np.logaddexp(log_power, -w)
    share = np.exp(log_power - log_f)
    return np.array(
        [
            log_f,
            share * (psi_s - log_w + sums[0] / total),
            share * (gap + sums[1] / total),
            share * (p + sums[2] / total) / w + np.exp(-w - log_f),
        ]
    )


def _log_beta_laplace(p: float, q: float, w: np.ndarray) -> np.ndarray:
    """log <exp(-w X)> for X ~ Beta(p, q), elementwise, as (4, n) rows.

    That average is 1F1(p, p+q; -w) (DLMF 13.4.1).  w is 1-D with w >= 0,
    and p, q > 0 are taken as given: no shape is rebuilt from another, so
    a q far below an ulp of p loses nothing.  A q below 2**-1024 raises
    PrecisionLossError, as 1/q, which d_q carries, overflows.  w is sorted
    once and cut at _ASYM_SWITCH, so each regime gets one ascending slice;
    a row's value never depends on its neighbours.  The asymptotic slice
    runs first: it is the one that refuses probes, and a refused pass then
    never pays for the series slice.

    The rows are (log F, d_p, d_q, ratio), all from one series pass:
    d_p and d_q are the derivatives of log F in p and in q, each at the
    other fixed, and ratio = -d/dw log F = <X E>/<E> with E = exp(-w X).
    In the series regime each is a positive-weighted sum of the value's
    terms, and in the asymptotic regime a digamma/log w part plus a
    term-wise derivative of the asymptotic sum, so none is formed as a
    cancelling difference of generic partials (DLMF 13.2, 13.7).  Each
    regime stops a row's value and derivative sums at one truncation and
    checks them once: a row whose sums did not settle raises, value
    included.
    """
    if 1.0 / q == math.inf:
        raise PrecisionLossError(f"the q derivative is past the float range at q={q!r}")
    w = np.asarray(w, dtype=float)
    order = np.argsort(w, kind="stable")
    ws = w[order]
    cut = int(np.searchsorted(ws, _ASYM_SWITCH))
    parts = np.empty((4, w.size))
    for regime, lo, hi in (_asym_1f1_neg, cut, w.size), (_transformed_series, 0, cut):
        if hi > lo:
            parts[:, order[lo:hi]] = regime(p, q, ws[lo:hi])
    return parts


def kummer_1f1(a: float, b: float, z: float | np.ndarray) -> float | np.ndarray:
    """Confluent hypergeometric 1F1(a, b; z) for b > a > 0 and z <= 0.

    Elementwise in z: a scalar z gives a float, an array an array of the
    same shape.  Only the negative axis, where the interval density lives,
    is implemented; any z > 0 raises ValueError.

    Against 40-digit mpmath, the 28 frozen values of the tests are within
    5.3e-15 relative, and the four values of each of the 84 frozen
    derivative-table rows within 4.3e-15.  Large a fares worse in the
    asymptotic regime: on a 1152-point grid (a in geomspace(1.5, 1000,
    16), b - a in {0.1, 0.37, 0.5, 1, 2, 5, 20, 100}, -z from 300.5 to
    1e4) 831 values are returned, 27 of them with log 1F1 off by more than
    5e-13, the worst by 1.1e-9 (a = 272.4, b - a = 0.37, z = -400).  Large
    b - a keeps its digits: from b - a = 256 on, the Gamma ratio comes
    from Stirling's series, and on 31 frozen rows with b - a from 1e3 to
    8.4e15 and -z from 10(b - a) up, log 1F1 is within 3e-15 of
    max(1, |log 1F1|) (it was off by 2e-3 at b - a = 1e12 when the ratio
    was a difference of log-gammas).  Where neither regime settles,
    PrecisionLossError is raised.
    """
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if not (b > a > 0.0):
        raise ValueError(f"kummer_1f1 requires b > a > 0, got a={a}, b={b}")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("kummer_1f1 requires finite z")
    if np.any(z > 0.0):
        raise ValueError(f"kummer_1f1 requires z <= 0, got z up to {z.max()}")
    out = np.exp(_log_beta_laplace(a, b - a, -z.ravel())[0]).reshape(z.shape)
    return float(out) if out.ndim == 0 else out
