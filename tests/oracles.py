"""Routes the tests hold the package to, kept out of the package.

No command, fit, sampler or benchmark calls these, so they live beside
the tests rather than in ``burstfit``: the rate-nonnegativity check on a
grid of times, a line-by-line parse of the timestamp grammar, the
continuous sampler's former 601-point feasibility rule, the
packed-vector codec criterion 2 takes its central differences in, the
chain's intervals at full grid resolution (criterion 5), the log-binned
slope estimator of criterion 1, and the power-law tail that bounds
criterion 6's remaining mass.  Where one is built on the package's own
private pieces, it computes what the package would.
"""

from __future__ import annotations

import re
from io import BytesIO

import numpy as np

from beta_oracle import log_beta
from burstfit.io import EventTrain, LogBinnedHistogram
from burstfit.model import (
    ModelParams,
    RefractoryKernel,
    _as_times,
    _decay_matrix,
    _restore,
    _variant_spec,
    refractory_eval,
)
from burstfit.simulate import _run_chain
from burstfit.special import log_gamma


def feasible(kernel: RefractoryKernel, grid) -> tuple[bool, int | None]:
    """Is the rate nonnegative at every grid time?

    Returns (True, None) or (False, index of the most violated point);
    no grid time, no violation.  The rate is formed here, unclamped, not
    taken from the fitter's repair that the tests check against it.
    """
    basis = _decay_matrix(kernel.alpha, np.asarray(grid, dtype=float))
    rate = 1.0 + basis @ np.asarray(kernel.gamma)
    if rate.min(initial=0.0) >= 0.0:
        return True, None
    return False, int(np.argmin(rate))


def continuous_grid_feasible(kernel: RefractoryKernel) -> bool:
    """The feasibility rule simulate_continuous applied before invert_R
    judged r >= 0 on its own table: r at 0 and at 600 log points from
    1e-5 s to 20 / min alpha, dust clamped."""
    grid = np.geomspace(1e-5, 20.0 / min(kernel.alpha), 600)
    return not (refractory_eval(kernel, grid).min() < 0.0 or refractory_eval(kernel, 0.0) < 0.0)


def load_timestamps_by_line(blob: bytes) -> EventTrain:
    """Reference parse of the timestamp grammar, one line at a time: a
    ``unit=ms`` header on line 1, then lines of 1 to 19 ASCII digits below
    2**63, each perhaps ending in "\\r\\n", and empty lines, then
    np.unique.  The bulk parse must agree with it on every input."""
    values = []
    for lineno, raw in enumerate(BytesIO(blob), start=1):
        # a "\r" belongs to the line end only directly before its "\n"
        line = raw[:-2] if raw.endswith(b"\r\n") else raw.removesuffix(b"\n")
        header = raw.decode("utf-8", errors="replace").strip().replace(" ", "") == "unit=ms"
        if not line or (lineno == 1 and header):
            continue
        if not (re.fullmatch(rb"[0-9]{1,19}", line) and int(line) < 2**63):
            text = line.decode("utf-8", errors="replace")
            raise ValueError(
                f"line {lineno}: expected an integer millisecond timestamp, got {text!r}"
            )
        values.append(int(line))
    if not values:
        raise ValueError("timestamp stream contains no events")
    return EventTrain(np.unique(np.asarray(values, dtype=np.int64)))


def params_to_vector(params: ModelParams) -> np.ndarray:
    """Pack the free coordinates of params into a flat vector."""
    spec = _variant_spec(params.variant)
    return spec.pack(params.a, params.b, params.c, params.kernel.gamma)


def vector_to_params(vec, variant: str) -> ModelParams:
    """Inverse of params_to_vector; validates length and domain."""
    spec = _variant_spec(variant)
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (spec.n_params,):
        raise ValueError(
            f"variant {spec.name} packs {spec.n_params} parameters, got shape {vec.shape}"
        )
    off = spec.gamma_offset
    b = float(vec[1]) if spec.free_b else 1.0
    kernel = RefractoryKernel(vec[off:], spec.alpha)
    return ModelParams(float(vec[0]), b, float(vec[off - 1]), kernel, variant)


def discrete_intervals(
    params: ModelParams, *, seed, n_events=None, duration=None, dt=1e-3
) -> np.ndarray:
    """Inter-event intervals of the discrete chain, exact multiples of dt."""
    return np.diff(_run_chain(params, seed=seed, n_events=n_events, duration=duration, dt=dt)) * dt


def fit_log_slope(hist: LogBinnedHistogram, tau_min: float, tau_max: float) -> float:
    """Least-squares slope of log density vs log time over occupied bins."""
    centers = hist.centers
    keep = (hist.counts > 0) & (centers >= tau_min) & (centers <= tau_max)
    if keep.sum() < 2:
        raise ValueError("need at least 2 occupied bins in range to fit a slope")
    x = np.log10(centers[keep])
    y = np.log10(hist.densities[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def iti_tail_asymptote(params: ModelParams, tau):
    """Power-law approximation of the interval density at large tau.

    Returns [Gamma(a+1) / (B(a, b) rho^a)] tau^-(a+1); the log-log slope is
    exactly -(a + 1).
    """
    t, shape = _as_times(tau)
    if t.size and t.min() <= 0.0:
        raise ValueError("tail asymptote needs tau > 0")
    a, b = params.a, params.b
    log_amp = log_gamma(a + 1.0) - log_beta(a, b) - a * params.c
    return _restore(np.exp(log_amp - (a + 1.0) * np.log(t)), shape)
