"""Generative samplers for the model.

Two routes produce event data:

* ``simulate_discrete(params, seed=s, n_events=n)``, or ``duration=``
  seconds in place of ``n_events``, runs the latent chain on a time grid
  of width ``dt`` (1 ms unless given).  Per bin, an event fires with
  probability rho r(tau) dt whenever the pending priority x exceeds the
  competing priority y; firing redraws x, any other bin redraws y
  uniformly.  The implementation skips empty bins by geometric jumps
  with thinning, which leaves the sampled law exactly that of the
  bin-by-bin chain while running in time linear in the event count.  It
  draws a block of events at a time from three independent numpy
  streams (priorities x, competing priorities y, and the uniforms of the
  first bin, the jumps and the thinning), so no Python code runs per
  event except for the rare first-bin fires.

* ``simulate_continuous(params, n_events, seed)`` draws intervals
  directly by time rescaling: with x ~ Beta(a, b) and eps a unit
  exponential, the interval solves rho x R(tau) = eps.

``invert_R`` is the bracketed root finder backing the second route.  It
starts Newton from a tabulated inverse of R, which is exact once the
kernel has decayed, and each round builds one kernel decay matrix and
takes R and r from it.  Newton runs one block of _BLOCK targets at a
time, so its working memory is O(_BLOCK x K) for K kernel terms plus
O(n) vectors for n targets, and a block's roots do not depend on the
other blocks.  Each sampler judges r >= 0 on the table it samples from:
the chain on its bin table, ``invert_R`` on its table of R.

Timestamps are int64 milliseconds; a simulation whose events would lie
beyond 2**62 ms is refused rather than wrapped.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .io import EventTrain
from .model import (
    ModelParams,
    RefractoryKernel,
    _decay_matrix,
    _integral_from_decay,
    _is_int,
    _is_real,
    _rate_from_decay,
    _restore,
    refractory_eval,
)

__all__ = [
    "simulate_discrete",
    "simulate_continuous",
    "invert_R",
]

# Largest dt * rho * max(r) the Bernoulli-per-bin approximation tolerates.
_BIN_PROB_LIMIT = 0.1

# Beyond this envelope the kernel is indistinguishable from 1 in float64.
_KERNEL_TAIL_EPS = 1e-15

# Events the chain sampler draws, and targets invert_R's Newton solves,
# per block: with 8 kernel terms a block's decay matrix is 1 MiB.
_BLOCK = 1 << 14

# Timestamps are int64 milliseconds: a simulated train may span at most
# this many, and the chain at most _MAX_BINS bins including warm-up, so
# every position, sum and conversion stays inside int64.
_SPAN_LIMIT_MS = 2.0**62
_MAX_BINS = 2**62
_SPAN_ERROR = (
    "the simulated train would span more than 2**62 ms (about 1.5e8 years), "
    "the int64 millisecond span limit; the priority shape a or the rate rho "
    "is too small"
)

# invert_R's starting table: points of R on a log grid out to
# _INVERSE_SPAN / min alpha, where exp(-alpha tau) < 5e-18.
_INVERSE_GRID = 1024
_INVERSE_SPAN = 40.0


def _check_settings(seed, n_events=None, duration=None, dt=1e-3) -> None:
    """The one rule both samplers check their draw settings by, before any
    draw: an integer seed >= 0, exactly one horizon, an integer n_events >= 1,
    and dt and duration real numbers (not bools or strings), positive and
    finite.  The bin-probability bound involves the model's rate, so the
    chain checks it when it starts."""
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not _is_real(dt) or not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if (n_events is None) == (duration is None):
        raise ValueError("give exactly one of n_events and duration")
    if n_events is not None and (not _is_int(n_events) or n_events < 1):
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    if duration is not None and (not _is_real(duration) or not 0.0 < duration < math.inf):
        raise ValueError(f"duration must be positive and finite, got {duration}")


def _kernel_support_bins(kernel: RefractoryKernel, dt: float) -> int:
    """Bins after which |r - 1| is below float64 resolution."""
    total = sum(abs(g) for g in kernel.gamma)
    if total <= _KERNEL_TAIL_EPS:
        return 0
    tau = math.log(total / _KERNEL_TAIL_EPS) / min(kernel.alpha)
    return max(1, math.ceil(tau / dt))


def _thinned_jumps(x, envelope, r_table, r_max, beyond, rng):
    """Bins from an event to the next for events that skip the first bin.

    Each round draws a geometric jump under the envelope rho r_max x dt
    for every event still rejected, then a uniform to thin it by
    r(k dt)/r_max (``r_table``: r at bins 1..support, then 1).  Jumps are
    clamped at ``beyond``, past any bin the caller keeps, so none can
    wrap when cast to int64.
    """
    log_q = np.log1p(-envelope * x)
    k = np.ones(x.size)
    todo = np.arange(x.size)
    while todo.size:
        u = rng.random(todo.size)
        # x == 0 gives an infinite (or 0/0) jump: never fires
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.floor(np.log1p(-u) / log_q[todo])
        k[todo] = kt = np.fmin(k[todo] + step + 1.0, beyond)
        if r_table is None:
            break
        live = kt < beyond
        todo, kt = todo[live], kt[live]
        r_k = r_table[np.minimum(kt.astype(np.int64), r_table.size) - 1]
        todo = todo[rng.random(todo.size) * r_max > r_k]
    return k


def _run_chain(params: ModelParams, *, seed, n_events=None, duration=None, dt=1e-3) -> np.ndarray:
    """Bin indices (int64, relative to the end of warm-up) of chain events.

    The chain is exact.  The bin right after an event keeps the competing
    priority y in play at the event, so it fires with probability
    rho r(dt) dt only if the new priority x beats that y.  From the second
    bin on y is fresh every bin, so given x the bins are independent
    Bernoullis with probability rho r(k dt) x dt (``_thinned_jumps``), and
    an event there leaves y uniform below x.

    Events are drawn _BLOCK at a time.  Per block the x stream gives
    each event's priority, the y stream one uniform per event (for the y
    a later-bin event leaves), and the t stream one first-bin uniform per
    event, then each thinning round's draws in event order.  The y
    stream's first draw is the starting y.  Only events whose first-bin
    uniform is below rho r(dt) dt can fire in that bin; those few are
    settled in event order, as each needs the y its predecessor left.
    With a fixed block size a run is a prefix of any longer run with the
    same seed and dt; runs with another dt share each event's x but not
    its jumps.
    """
    _check_settings(seed, n_events, duration, dt)
    rho = params.rho
    kernel = params.kernel

    r_ceiling = 1.0 + sum(max(g, 0.0) for g in kernel.gamma)
    if dt * rho * r_ceiling > _BIN_PROB_LIMIT * (1.0 + 1e-12):
        raise ValueError(
            f"dt too coarse: dt * rho * max r = {dt * rho * r_ceiling:.4g} "
            f"exceeds {_BIN_PROB_LIMIT}"
        )

    support = _kernel_support_bins(kernel, dt)
    # a flat rate skips the thinning draws, which would shift the t stream
    if support:
        r_grid = refractory_eval(kernel, dt * np.arange(1, support + 1))
        if r_grid.min() < 0.0:
            raise ValueError("kernel is negative on the bin grid; infeasible")
        r_max = max(float(r_grid.max()), 1.0)
        r_table = np.append(r_grid, 1.0)
        p_first = rho * float(r_grid[0]) * dt
    else:
        r_max = 1.0
        r_table = None
        p_first = rho * dt

    # bins count from the start of warm-up; events past `end` are never
    # kept, and a jump is clamped at `beyond` > end before any int64 cast.
    # A duration past the span limit is refused before any draw.
    warm_bins = math.ceil(10.0 / rho / dt)
    limit = min(_MAX_BINS, warm_bins + math.floor(_SPAN_LIMIT_MS / (dt * 1000.0)))
    end = limit
    if duration is not None:
        end = warm_bins + math.floor(duration / dt + 1e-9)
    if warm_bins >= limit or end > limit:
        raise ValueError(_SPAN_ERROR)
    beyond = 2.0 * _MAX_BINS

    rng_x, rng_y, rng_t = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    envelope = rho * r_max * dt
    y = rng_y.random()
    pos = 0
    found: list[np.ndarray] = []
    n_found = 0
    while True:
        x = rng_x.beta(params.a, params.b, _BLOCK)
        u_first = rng_t.random(_BLOCK)
        y_after = x * rng_y.random(_BLOCK)
        first = np.zeros(_BLOCK, dtype=bool)
        for i in np.flatnonzero(u_first < p_first).tolist():
            y_before = y_after[i - 1] if i else y
            if x[i] > y_before:
                first[i] = True
                y_after[i] = y_before
        y = y_after[-1]
        k = np.ones(_BLOCK)
        later = ~first
        k[later] = _thinned_jumps(x[later], envelope, r_table, r_max, beyond, rng_t)

        # float positions find the cut; only jumps before it are cast, and
        # their exact sums stay well inside int64
        n = int(np.searchsorted(pos + np.cumsum(k), end * (1.0 + 1e-9), side="right"))
        ends = pos + np.cumsum(k[:n].astype(np.int64))
        n = int(np.searchsorted(ends, end, side="right"))
        ends = ends[:n]
        kept = ends[ends >= warm_bins] - warm_bins
        if n_events is not None and n_found + kept.size >= n_events:
            found.append(kept[: n_events - n_found])
            break
        found.append(kept)
        n_found += kept.size
        if n < _BLOCK:
            if duration is None:
                raise ValueError(_SPAN_ERROR)
            break
        pos = int(ends[-1])
    return np.concatenate(found)


def simulate_discrete(
    params: ModelParams, *, seed, n_events=None, duration=None, dt=1e-3
) -> EventTrain:
    """Run the discrete chain and return events as a millisecond train.

    The chain stops after ``n_events`` recorded events or at ``duration``
    seconds past warm-up, whichever is given.  Bins are rounded to whole
    milliseconds; should two events land in the same millisecond
    (possible only for dt below 1 ms), the duplicate is dropped with a
    warning.  The chain's own bin indices, from _run_chain, keep the
    intervals at full grid resolution.
    """
    bins = _run_chain(params, seed=seed, n_events=n_events, duration=duration, dt=dt)
    ms = np.rint(bins * (dt * 1000.0)).astype(np.int64)
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


def _train_from_intervals(intervals: np.ndarray) -> EventTrain:
    """Millisecond train whose first event ends the first interval.

    Rounding can collide sub-millisecond neighbours; each collision is
    nudged up by 1 ms, so the train keeps one event per interval.
    """
    with np.errstate(over="ignore"):
        ends = np.cumsum(intervals) * 1000.0
    if not ends[-1] < _SPAN_LIMIT_MS:
        raise ValueError(_SPAN_ERROR)
    stamps = np.rint(ends).astype(np.int64)
    steps = np.arange(stamps.size, dtype=np.int64)
    return EventTrain(np.maximum.accumulate(stamps - steps) + steps)


def simulate_continuous(params: ModelParams, n_events: int, seed) -> np.ndarray:
    """Draw n_events i.i.d. intervals (seconds) by time rescaling.

    Equal seeds give bit-identical output.  An interval past the float
    range (a tiny shape a with a tiny rate) raises the span-limit error.
    """
    _check_settings(seed, n_events)
    rng = np.random.default_rng(seed)
    x = rng.beta(params.a, params.b, size=n_events)
    # a Beta draw can underflow to exactly 0 for small shapes
    x = np.maximum(x, 1e-290)
    with np.errstate(over="ignore", divide="ignore"):
        target = rng.standard_exponential(n_events) / (params.rho * x)
    if not np.all(np.isfinite(target)):
        raise ValueError(_SPAN_ERROR)
    return invert_R(params.kernel, target)


def invert_R(kernel: RefractoryKernel, target):
    """Solve R(tau) = target for tau, elementwise.

    Newton starts from R inverted by linear interpolation on a fixed table
    (tau = 0, then _INVERSE_GRID log-spaced points from 1e-6 to
    _INVERSE_SPAN / min alpha).  Beyond the table the kernel has decayed,
    so R(tau) = tau + sum_k gamma_k / alpha_k and the start is the root.
    The safeguarded Newton (derivative r) stays inside a bracket derived
    from the bound |R(tau) - tau| <= sum_k |gamma_k| / alpha_k, bisecting
    whenever a step leaves the bracket, and each round builds one kernel
    decay matrix for both R and r.  Accepts tau once |R(tau) - target|
    <= 1e-10 max(1, target).  A feasible kernel has r >= 0, and r is a
    nonzero analytic function of tau, so R is strictly increasing: it has
    no plateau and the root is unique.  The table's decay matrix also
    gives r on the table's grid, and a kernel with r < 0 anywhere there
    is refused with ValueError, as R would not be invertible.

    The table and the bracket's slack are built once per call; Newton then
    runs on one block of _BLOCK targets at a time, so a round's decay
    matrix is at most _BLOCK x K and the working memory is O(_BLOCK x K)
    plus O(n) vectors.  Each block gets its own 200 rounds, so a target
    still raises ArithmeticError only if it needs more than 200.
    """
    shape = np.shape(target)
    t = np.asarray(target, dtype=float).ravel()
    if not np.all(np.isfinite(t)) or (t.size and t.min() <= 0.0):
        raise ValueError("target must be positive and finite")
    if kernel.n == 0:  # the table's span needs a slowest decay rate
        return _restore(t.copy(), shape)

    g = np.asarray(kernel.gamma)
    al = np.asarray(kernel.alpha)
    slack_up = float(np.sum(np.clip(g, 0.0, None) / al))
    slack_down = float(-np.sum(np.clip(g, None, 0.0) / al))
    grid = np.concatenate(
        ([0.0], np.geomspace(1e-6, _INVERSE_SPAN / min(kernel.alpha), _INVERSE_GRID))
    )
    decay = _decay_matrix(al, grid)
    if _rate_from_decay(g, decay).min() < 0.0:
        raise ValueError("kernel is negative somewhere; params infeasible")
    table = _integral_from_decay(g, al, grid, decay)
    tau = np.empty_like(t)
    for i in range(0, t.size, _BLOCK):
        tb = t[i : i + _BLOCK]
        start = np.where(
            tb <= table[-1], np.interp(tb, table, grid), tb - (slack_up - slack_down)
        )
        tau[i : i + _BLOCK] = _newton(g, al, tb, start, slack_up, slack_down)
    return _restore(tau, shape)


def _newton(gamma, alpha, t, start, slack_up, slack_down):
    """invert_R's safeguarded Newton on one block of targets."""
    lo = np.clip(t - slack_up, 0.0, None)
    hi = t + slack_down
    tau = np.clip(start, lo, hi)
    tol = 1e-10 * np.maximum(1.0, t)

    active = np.arange(t.size)
    for _ in range(200):
        # one decay matrix per round gives R here and r below; it is
        # dropped before the next round builds its own
        at = tau[active]
        decay = _decay_matrix(alpha, at)
        resid = _integral_from_decay(gamma, alpha, at, decay) - t[active]
        keep = np.abs(resid) > tol[active]
        if not keep.any():
            return tau
        active = active[keep]
        at = at[keep]
        resid = resid[keep]
        # r from the kept rows' own matrix: a BLAS product may round a
        # row differently by its position, so slicing r of all rows would
        # not give r at these times bit for bit
        deriv = _rate_from_decay(gamma, decay[keep])
        del decay
        above = resid >= 0.0
        hi[active[above]] = at[above]
        lo[active[~above]] = at[~above]
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = at - resid / deriv
        bad = ~np.isfinite(cand) | (cand <= lo[active]) | (cand >= hi[active])
        cand[bad] = 0.5 * (lo[active][bad] + hi[active][bad])
        tau[active] = cand
    raise ArithmeticError("invert_R failed to converge in 200 iterations")
