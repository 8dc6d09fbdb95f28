"""Generative samplers for the model.

Two routes produce event data:

* ``simulate_discrete`` runs the latent chain on a time grid of width dt.
  Per bin, an event fires with probability rho r(tau) dt whenever the
  pending priority x exceeds the competing priority y; firing redraws x,
  any other bin redraws y uniformly.  The implementation skips empty bins
  by geometric jumps with thinning, which leaves the sampled law exactly
  that of the bin-by-bin chain while running in time linear in the event
  count.  Its three random streams are endless iterators of Python
  floats, refilled a numpy block at a time, so a draw is one ``next``.

* ``simulate_continuous`` draws intervals directly by time rescaling: with
  x ~ Beta(a, b) and eps a unit exponential, the interval solves
  rho x R(tau) = eps.

``invert_R`` is the bracketed root finder backing the second route; each
Newton round builds one kernel decay matrix and takes R and r from it.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelParams,
    RefractoryKernel,
    _decay_matrix,
    _integral_from_decay,
    _rate_from_decay,
    refractory_eval,
    refractory_integral,
)

__all__ = [
    "EventTrain",
    "SimConfig",
    "simulate_discrete",
    "discrete_intervals",
    "simulate_continuous",
    "invert_R",
]

# Largest dt * rho * max(r) the Bernoulli-per-bin approximation tolerates.
_BIN_PROB_LIMIT = 0.1

# Beyond this envelope the kernel is indistinguishable from 1 in float64.
_KERNEL_TAIL_EPS = 1e-15


@dataclass(frozen=True, eq=False)
class EventTrain:
    """Strictly increasing event timestamps in integer milliseconds."""

    timestamps_ms: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps_ms)
        if ts.ndim != 1:
            raise ValueError("timestamps must be a 1-d array")
        ts = ts.astype(np.int64, copy=True)
        if ts.size:
            if ts[0] < 0:
                raise ValueError("timestamps must be nonnegative")
            if np.any(np.diff(ts) <= 0):
                raise ValueError("timestamps must be strictly increasing")
        ts.setflags(write=False)
        object.__setattr__(self, "timestamps_ms", ts)

    @property
    def n_events(self) -> int:
        return int(self.timestamps_ms.size)

    @property
    def duration_seconds(self) -> float:
        if self.n_events < 2:
            return 0.0
        return float(self.timestamps_ms[-1] - self.timestamps_ms[0]) / 1000.0

    def intervals_seconds(self) -> np.ndarray:
        """Consecutive inter-event intervals in seconds."""
        return np.diff(self.timestamps_ms) / 1000.0


@dataclass(frozen=True)
class SimConfig:
    """Simulation horizon and grid for the discrete sampler.

    Exactly one of ``n_events`` (stop after that many recorded events) and
    ``duration`` (stop at that many seconds past warm-up) must be given.
    The bin-probability validity bound involves the model's rate, so it is
    checked when a simulation starts, not here.
    """

    seed: int
    dt: float = 1e-3
    n_events: int | None = None
    duration: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if (self.n_events is None) == (self.duration is None):
            raise ValueError("give exactly one of n_events and duration")
        if self.n_events is not None and self.n_events < 1:
            raise ValueError("n_events must be >= 1")
        if self.duration is not None and not self.duration > 0.0:
            raise ValueError("duration must be positive")


def _stream(fill, block: int):
    """Endless iterator of draws as Python floats, fill(block) at a time."""
    return itertools.chain.from_iterable(iter(lambda: fill(block).tolist(), None))


def _kernel_support_bins(kernel: RefractoryKernel, dt: float) -> int:
    """Bins after which |r - 1| is below float64 resolution."""
    total = sum(abs(g) for g in kernel.gamma)
    if total <= _KERNEL_TAIL_EPS:
        return 0
    tau = math.log(total / _KERNEL_TAIL_EPS) / min(kernel.alpha)
    return max(1, math.ceil(tau / dt))


def _check_feasible(kernel: RefractoryKernel) -> None:
    """Reject kernels that go negative on a dense grid (R would not be
    invertible)."""
    if kernel.n == 0:
        return
    grid = np.geomspace(1e-5, 20.0 / min(kernel.alpha), 600)
    if refractory_eval(kernel, grid).min() < 0.0 or refractory_eval(kernel, 0.0) < 0.0:
        raise ValueError("kernel is negative somewhere; params infeasible")


def _run_chain(params: ModelParams, cfg: SimConfig) -> np.ndarray:
    """Bin indices (int64, relative to the end of warm-up) of chain events.

    The loop reproduces the bin chain exactly.  The bin right after an
    event keeps the competing priority that was in play at the event, so
    it fires with probability rho r(dt) dt only if x still beats it.  From
    the second bin on, the competing priority is freshly uniform every
    bin, so conditioned on x the bins are independent Bernoullis with
    probability rho r(k dt) x dt; those are sampled by geometric jumps
    under the envelope rho r_max x dt and thinned by r(k dt)/r_max.  A
    fixed number of random draws is consumed per event (extra draws are
    discarded), which keeps runs with different dt but equal seed coupled.
    """
    rho = params.rho
    kernel = params.kernel
    dt = cfg.dt

    r_ceiling = 1.0 + sum(max(g, 0.0) for g in kernel.gamma)
    if dt * rho * r_ceiling > _BIN_PROB_LIMIT * (1.0 + 1e-12):
        raise ValueError(
            f"dt too coarse: dt * rho * max r = {dt * rho * r_ceiling:.4g} "
            f"exceeds {_BIN_PROB_LIMIT}"
        )

    support = _kernel_support_bins(kernel, dt)
    if support:
        r_grid = refractory_eval(kernel, dt * np.arange(1, support + 1))
        if r_grid.min() < 0.0:
            raise ValueError("kernel is negative on the bin grid; infeasible")
        r_max = max(float(r_grid.max()), 1.0)
        r_list = r_grid.tolist()
    else:
        r_max = 1.0
        r_list = []

    stream_x, stream_y, stream_t = np.random.SeedSequence(cfg.seed).spawn(3)
    beta = np.random.default_rng(stream_x).beta
    next_x = _stream(functools.partial(beta, params.a, params.b), 1 << 13).__next__
    next_y = _stream(np.random.default_rng(stream_y).random, 1 << 14).__next__
    next_t = _stream(np.random.default_rng(stream_t).random, 1 << 14).__next__

    warm_bins = math.ceil(10.0 / rho / dt)
    if cfg.duration is not None:
        horizon_bin = math.floor(cfg.duration / dt + 1e-9)
        want = None
    else:
        horizon_bin = None
        want = cfg.n_events

    p_first = rho * (r_list[0] if support else 1.0) * dt
    events: list[int] = []
    prev = -warm_bins
    x = next_x()
    y = next_y()
    while True:
        u_first = next_t()
        u_jump = next_t()
        u_y = next_y()
        if x > y and u_first < p_first:
            k = 1
        else:
            pbar = rho * r_max * x * dt
            k = 1
            while True:
                k += int(math.log(1.0 - u_jump) / math.log1p(-pbar)) + 1
                if horizon_bin is not None and prev + k > horizon_bin:
                    k = None
                    break
                if not support:
                    break
                rk = r_list[k - 1] if k <= support else 1.0
                if next_t() * r_max <= rk:
                    break
                u_jump = next_t()
            if k is None:
                break
            y = x * u_y
        prev += k
        if horizon_bin is not None and prev > horizon_bin:
            break
        if prev >= 0:
            events.append(prev)
            if want is not None and len(events) == want:
                break
        x = next_x()
    return np.asarray(events, dtype=np.int64)


def simulate_discrete(params: ModelParams, cfg: SimConfig) -> EventTrain:
    """Run the discrete chain and return events as a millisecond train.

    Bins are rounded to whole milliseconds; should two events land in the
    same millisecond (possible only for dt below 1 ms), the duplicate is
    dropped with a warning.  Use discrete_intervals when the analysis
    needs the intervals at full grid resolution.
    """
    bins = _run_chain(params, cfg)
    ms = np.rint(bins * (cfg.dt * 1000.0)).astype(np.int64)
    if ms.size:
        keep = np.ones(ms.size, dtype=bool)
        keep[1:] = np.diff(ms) > 0
        if not keep.all():
            warnings.warn(
                f"{int((~keep).sum())} events collided on the millisecond "
                "grid and were dropped",
                stacklevel=2,
            )
            ms = ms[keep]
    return EventTrain(ms)


def discrete_intervals(params: ModelParams, cfg: SimConfig) -> np.ndarray:
    """Inter-event intervals of the discrete chain, exact multiples of dt."""
    bins = _run_chain(params, cfg)
    return np.diff(bins) * cfg.dt


def simulate_continuous(params: ModelParams, n_events: int, seed) -> np.ndarray:
    """Draw n_events i.i.d. intervals (seconds) by time rescaling.

    Equal seeds give bit-identical output.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    _check_feasible(params.kernel)
    rng = np.random.default_rng(seed)
    x = rng.beta(params.a, params.b, size=n_events)
    # a Beta draw can underflow to exactly 0 for small shapes
    x = np.maximum(x, 1e-290)
    target = rng.standard_exponential(n_events) / (params.rho * x)
    if params.kernel.n == 0:
        return target
    return invert_R(params.kernel, target)


def invert_R(kernel: RefractoryKernel, target):
    """Solve R(tau) = target for tau, elementwise.

    Safeguarded Newton (derivative r) inside a bracket derived from the
    bound |R(tau) - tau| <= sum_k |gamma_k| / alpha_k, bisecting whenever
    a Newton step leaves the bracket.  Accepts tau once |R(tau) - target|
    <= 1e-10 max(1, target).  If the solution sits on a plateau where r
    is zero, the left edge of the plateau is returned and a warning is
    issued.
    """
    shape = np.shape(target)
    t = np.asarray(target, dtype=float).ravel()
    if not np.all(np.isfinite(t)) or (t.size and t.min() <= 0.0):
        raise ValueError("target must be positive and finite")
    if kernel.n == 0:
        out = t.copy()
        return float(out[0]) if shape == () else out.reshape(shape)

    g = np.asarray(kernel.gamma)
    al = np.asarray(kernel.alpha)
    slack_up = float(np.sum(np.clip(g, 0.0, None) / al))
    slack_down = float(-np.sum(np.clip(g, None, 0.0) / al))

    lo = np.clip(t - slack_up, 0.0, None)
    hi = t + slack_down
    tau = np.clip(t, lo, hi)
    tol = 1e-10 * np.maximum(1.0, t)

    # r == 0 at the accepted tau: the root sits on a plateau of R
    flat = np.zeros(t.size, dtype=bool)
    active = np.arange(t.size)
    for _ in range(200):
        # one decay matrix per round gives R here and r below; it is
        # dropped before the next round builds its own
        at = tau[active]
        decay = _decay_matrix(kernel.alpha, at)
        resid = _integral_from_decay(kernel, at, decay) - t[active]
        keep = np.abs(resid) > tol[active]
        done = ~keep
        flat[active[done]] = _rate_from_decay(kernel, decay[done]) == 0.0
        if not keep.any():
            break
        active = active[keep]
        at = at[keep]
        resid = resid[keep]
        # r from the kept rows' own matrix: a BLAS product may round a
        # row differently by its position, so slicing r of all rows would
        # not give r at these times bit for bit
        deriv = _rate_from_decay(kernel, decay[keep])
        del decay
        above = resid >= 0.0
        hi[active[above]] = at[above]
        lo[active[~above]] = at[~above]
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = at - resid / deriv
        bad = ~np.isfinite(cand) | (cand <= lo[active]) | (cand >= hi[active])
        cand[bad] = 0.5 * (lo[active][bad] + hi[active][bad])
        tau[active] = cand
    else:
        raise ArithmeticError("invert_R failed to converge in 200 iterations")

    if flat.any():
        warnings.warn(
            "R(tau) plateaus at the requested level; returning the left "
            "edge of the plateau",
            stacklevel=2,
        )
        for i in np.nonzero(flat)[0]:
            left, right = lo[i], tau[i]
            for _ in range(80):
                mid = 0.5 * (left + right)
                if refractory_integral(kernel, mid) >= t[i]:
                    right = mid
                else:
                    left = mid
            tau[i] = right
    return float(tau[0]) if shape == () else tau.reshape(shape)
