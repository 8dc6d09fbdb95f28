"""Tests for the two samplers and the rate-integral inverter.

The discrete sampler skips empty bins by geometric jumps; its law is
checked here against a literal bin-by-bin reference loop (same chain,
written naively) with a two-sample KS statistic at the 1% level, and
against the analytic interval distribution.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from burstfit import simulate
from burstfit.model import (
    ModelParams,
    RefractoryKernel,
    refractory_eval,
    refractory_integral,
)
from burstfit.simulate import (
    EventTrain,
    invert_R,
    simulate_continuous,
    simulate_discrete,
)
from burstfit.special import kummer_1f1
from oracles import continuous_grid_feasible, discrete_intervals

EULER_GAMMA = 0.5772156649015329

# mildly suppressive mid-range kernel used across the sampler tests
_TEST_GAMMA = (0.0, 0.0, -0.30, -0.40, -0.26, 0.0, 0.0, 0.0)


def _ks_two_sample(u: np.ndarray, v: np.ndarray) -> float:
    """Two-sample KS statistic, ties handled by right-continuous steps."""
    su, sv = np.sort(u), np.sort(v)
    grid = np.concatenate([su, sv])
    cu = np.searchsorted(su, grid, side="right") / su.size
    cv = np.searchsorted(sv, grid, side="right") / sv.size
    return float(np.max(np.abs(cu - cv)))


def _ks_crit_two_sample(n: int, m: int) -> float:
    """1% significance threshold for the two-sample statistic."""
    return 1.6276 * math.sqrt((n + m) / (n * m))


def _ks_to_cdf(sample: np.ndarray, cdf) -> float:
    """One-sample KS distance between an empirical sample and a CDF."""
    s = np.sort(sample)
    grid = np.unique(s)
    theo = cdf(grid)
    hi = np.searchsorted(s, grid, side="right") / s.size
    lo = np.searchsorted(s, grid, side="left") / s.size
    return float(max(np.max(np.abs(hi - theo)), np.max(np.abs(theo - lo))))


def _naive_chain_intervals(params: ModelParams, dt: float, n_events: int, seed) -> np.ndarray:
    """Reference sampler: the latent chain run bin by literal bin.

    Every bin tests fire = (x > y) and coin(rho r dt); firing redraws the
    pending priority x and keeps y, any other bin redraws y uniformly.
    Slow (one Python iteration per bin) but free of the geometric-jump
    machinery under test.  Events begin counting after the same 10/rho
    warm-up the production sampler uses.
    """
    rng = np.random.default_rng(seed)
    rho = params.rho
    kern = params.kernel
    if kern.n:
        total = sum(abs(g) for g in kern.gamma)
        support = max(1, math.ceil(math.log(total / 1e-15) / min(kern.alpha) / dt))
        r_lut = refractory_eval(kern, dt * np.arange(1, support + 1)).tolist()
    else:
        support, r_lut = 0, []
    warm = math.ceil(10.0 / rho / dt)
    x = rng.beta(params.a, params.b)
    y = rng.uniform()
    intervals: list[float] = []
    k = 0
    bins_done = 0
    collecting = False
    while len(intervals) < n_events:
        k += 1
        bins_done += 1
        r_k = r_lut[k - 1] if k <= support else 1.0
        if x > y and rng.uniform() < rho * r_k * dt:
            if collecting:
                intervals.append(k * dt)
            elif bins_done >= warm:
                collecting = True
            x = rng.beta(params.a, params.b)
            k = 0
        else:
            y = rng.uniform()
    return np.asarray(intervals)


# ----------------------------------------------------------------------
# EventTrain and the samplers' draw settings
# ----------------------------------------------------------------------


class TestEventTrain:
    def test_basic_properties(self):
        t = EventTrain(np.array([0, 250, 1250, 4250], dtype=np.int64))
        assert t.n_events == 4
        assert t.duration_seconds == pytest.approx(4.25)
        np.testing.assert_allclose(t.intervals_seconds(), [0.25, 1.0, 3.0])

    def test_short_trains(self):
        assert EventTrain(np.array([], dtype=np.int64)).n_events == 0
        single = EventTrain(np.array([123], dtype=np.int64))
        assert single.duration_seconds == 0.0
        assert single.intervals_seconds().size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EventTrain(np.array([[1, 2]]))
        with pytest.raises(ValueError):
            EventTrain(np.array([-5, 10]))
        with pytest.raises(ValueError):
            EventTrain(np.array([10, 10, 20]))
        with pytest.raises(ValueError):
            EventTrain(np.array([30, 20]))

    def test_bad_input_is_refused_not_corrupted(self):
        """Fractional milliseconds used to truncate ([0.4, 2.6] -> [0, 2]),
        NaN became -2**63, and np.diff wrapped around int64 so that
        [5, -2**63] passed as increasing."""
        for bad in ([0.4, 2.6], [0.0, float("nan")], [1.0, float("inf")], [0.0, 2.0**63]):
            with pytest.raises(ValueError, match="whole milliseconds"):
                EventTrain(np.array(bad))
        with pytest.raises(ValueError, match="strictly increasing"):
            EventTrain(np.array([5, -(2**63)], dtype=np.int64))
        # integral input of either kind parses as before
        exact = EventTrain(np.array([0, 3, 2**62], dtype=np.int64)).timestamps_ms
        np.testing.assert_array_equal(EventTrain([0.0, 3.0, 2.0**62]).timestamps_ms, exact)

    def test_timestamps_coerced_to_int64(self):
        t = EventTrain([1.0, 2.0, 7.0])
        assert t.timestamps_ms.dtype == np.int64


class TestSimConfig:
    """The seed, horizon and grid both samplers take as arguments, checked
    by one rule before anything is drawn (a frozen ``SimConfig`` record
    held them once)."""

    P = ModelParams(a=1.0, b=1.0, c=0.0)

    def test_exactly_one_horizon(self):
        with pytest.raises(ValueError, match="exactly one of n_events and duration"):
            simulate_discrete(self.P, seed=0)
        with pytest.raises(ValueError, match="exactly one of n_events and duration"):
            simulate_discrete(self.P, seed=0, n_events=10, duration=5.0)
        assert simulate_discrete(self.P, seed=0, n_events=10).n_events == 10
        timed = simulate_discrete(self.P, seed=0, duration=60.0).timestamps_ms
        assert timed.size and timed[-1] <= 60_000

    def test_value_validation(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_discrete(self.P, seed=0, dt=0.0, n_events=1)
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_discrete(self.P, seed=0, dt=-1e-3, n_events=1)
        for sample in (simulate_discrete, simulate_continuous):
            with pytest.raises(ValueError, match="n_events must be >= 1"):
                sample(self.P, n_events=0, seed=0)
        with pytest.raises(ValueError, match="duration must be positive"):
            simulate_discrete(self.P, seed=0, duration=-2.0)

    def test_seed_must_be_nonnegative(self):
        """A negative seed is refused by name here, not by the random
        generator once the chain starts; a numpy integer seed draws what
        the same Python int does."""
        with pytest.raises(ValueError, match="seed must be >= 0"):
            simulate_discrete(self.P, seed=-1, n_events=10)
        np.testing.assert_array_equal(
            simulate_discrete(self.P, seed=np.int64(4), n_events=10).timestamps_ms,
            simulate_discrete(self.P, seed=4, n_events=10).timestamps_ms,
        )

    @pytest.mark.parametrize("field", ["dt", "duration"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_horizon_and_grid_must_be_finite(self, field, value):
        """An infinite duration cannot end a run: it is refused here, as
        an infinite dt is, not by the chain's integer conversion."""
        kwargs = {"dt": 1e-3, "duration": 5.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            simulate_discrete(self.P, seed=0, **kwargs)


def _refuse_draws(monkeypatch):
    def drew(*args, **kwargs):
        raise AssertionError("the sampler drew")

    monkeypatch.setattr(np.random, "default_rng", drew)


@pytest.mark.parametrize("sample", [simulate_discrete, simulate_continuous])
@pytest.mark.parametrize("seed", [None, 2.5, -1, True])
def test_both_samplers_refuse_a_seed_by_one_rule(sample, seed, monkeypatch):
    """No seed, a float seed, a negative seed and a bool seed raise the
    same error from either sampler before it draws: the continuous sampler
    used to draw unseeded for None and fail inside numpy for 2.5, and
    both drew True as seed 1."""
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
        sample(TestSimConfig.P, n_events=10, seed=seed)


@pytest.mark.parametrize("sample", [simulate_discrete, simulate_continuous])
@pytest.mark.parametrize("n_events", [2.5, True])
def test_both_samplers_refuse_a_non_integer_count_by_one_rule(sample, n_events, monkeypatch):
    """A float or bool count is refused before any draw: it used to fail
    inside numpy (the chain after drawing a block) or run as 1 event."""
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=f"n_events must be >= 1, got {n_events}"):
        sample(TestSimConfig.P, n_events=n_events, seed=0)


# ----------------------------------------------------------------------
# discrete sampler
# ----------------------------------------------------------------------


def test_bin_probability_bound_enforced():
    p = ModelParams(a=1.0, b=1.0, c=math.log(200.0))
    with pytest.raises(ValueError, match="dt too coarse"):
        simulate_discrete(p, seed=0, dt=1e-3, n_events=10)
    # r_max > 1 counts against the bound too
    p_excite = ModelParams(
        a=1.0, b=1.0, c=math.log(90.0), kernel=RefractoryKernel.log_spaced([1.5])
    )
    with pytest.raises(ValueError, match="dt too coarse"):
        simulate_discrete(p_excite, seed=0, dt=1e-3, n_events=10)


def test_discrete_rejects_infeasible_kernel():
    p = ModelParams(a=1.0, b=1.0, c=0.0, kernel=RefractoryKernel.log_spaced([-2.0]))
    with pytest.raises(ValueError, match="negative"):
        discrete_intervals(p, seed=0, dt=1e-3, n_events=10)


def test_discrete_determinism():
    p = ModelParams(a=0.7, b=1.0, c=math.log(5.0))
    first = simulate_discrete(p, seed=321, dt=1e-3, n_events=500)
    second = simulate_discrete(p, seed=321, dt=1e-3, n_events=500)
    np.testing.assert_array_equal(first.timestamps_ms, second.timestamps_ms)
    other = simulate_discrete(p, seed=322, dt=1e-3, n_events=500)
    assert not np.array_equal(first.timestamps_ms, other.timestamps_ms)


def test_discrete_draw_order_is_frozen():
    """The chain's draw layout, pinned as literals: the first timestamps of
    one M3 seed, and the last of a run that spans more than one block of
    events."""
    p = ModelParams(a=0.7, b=1.0, c=math.log(8.0), kernel=RefractoryKernel.log_spaced(_TEST_GAMMA))
    train = simulate_discrete(p, seed=121, n_events=20_000)
    np.testing.assert_array_equal(
        train.timestamps_ms[:8], [840, 956, 985, 1499, 1578, 2188, 2370, 2964]
    )
    assert train.timestamps_ms[-1] == 1662842810


def test_discrete_intervals_are_grid_multiples():
    p = ModelParams(a=0.7, b=1.0, c=math.log(5.0))
    iv = discrete_intervals(p, seed=8, dt=2e-3, n_events=800)
    assert iv.size == 799
    assert np.all(iv > 0.0)
    multiples = iv / 2e-3
    np.testing.assert_allclose(multiples, np.rint(multiples), atol=1e-9)


def test_event_count_and_duration_horizons():
    p = ModelParams(a=1.0, b=1.0, c=0.0)
    train = simulate_discrete(p, seed=3, dt=1e-3, n_events=50)
    assert train.n_events == 50
    by_time = simulate_discrete(p, seed=3, dt=1e-3, duration=300.0)
    assert 0 < by_time.n_events
    assert by_time.timestamps_ms[-1] <= 300_000


def test_duration_past_the_span_limit_is_refused_before_drawing(monkeypatch):
    """A finite duration beyond the int64 millisecond span raises the span
    error up front; drawing toward it would run until killed."""

    def drew(*args):
        raise AssertionError("the chain drew events")

    monkeypatch.setattr(simulate, "_thinned_jumps", drew)
    p = ModelParams(a=0.7, b=1.0, c=math.log(5.0))
    with pytest.raises(ValueError, match="int64 millisecond span limit"):
        simulate_discrete(p, seed=0, duration=1e300)


def test_tiny_duration_gives_empty_train():
    p = ModelParams(a=1.0, b=1.0, c=0.0)
    train = simulate_discrete(p, seed=12, dt=1e-3, duration=1e-3)
    assert train.n_events == 0
    assert train.intervals_seconds().size == 0


def test_millisecond_collisions_drop_with_warning():
    # sub-millisecond bins and a brisk rate force some same-ms pairs
    p = ModelParams(a=5.0, b=1.0, c=math.log(50.0))
    with pytest.warns(UserWarning, match="collided"):
        train = simulate_discrete(p, seed=7, dt=2.5e-4, n_events=2000)
    assert np.all(np.diff(train.timestamps_ms) > 0)
    assert train.n_events < 2000


def test_discrete_law_matches_naive_reference_with_kernel():
    """Geometric-jump sampler vs the literal per-bin loop, two-sample KS."""
    p = ModelParams(a=2.5, b=1.0, c=math.log(5.0), kernel=RefractoryKernel.log_spaced(_TEST_GAMMA))
    naive = _naive_chain_intervals(p, 2e-3, 3000, seed=10)
    fast = discrete_intervals(p, seed=11, dt=2e-3, n_events=3000)
    ks = _ks_two_sample(naive, fast)
    assert ks < _ks_crit_two_sample(3000, 3000), ks


def test_discrete_law_matches_naive_reference_no_kernel():
    p = ModelParams(a=2.5, b=1.0, c=math.log(5.0))
    naive = _naive_chain_intervals(p, 2e-3, 3000, seed=5)
    fast = discrete_intervals(p, seed=6, dt=2e-3, n_events=3000)
    ks = _ks_two_sample(naive, fast)
    assert ks < _ks_crit_two_sample(3000, 3000), ks


def test_discrete_law_matches_naive_reference_at_bin_limit():
    """At rho dt = 0.1, the bin-probability limit, about 9% of intervals
    are a single bin: with x ~ Beta(10, 20) held near 1/3, the next x
    nearly always beats the competing priority an event leaves behind
    (uniform below its own x), while a fresh uniform y would be beaten
    only a third of the time.  The intervals, and the intervals that
    follow a one-bin interval (the first-bin rule keeps y), both match
    the per-bin loop."""
    dt = 2e-3
    p = ModelParams(a=10.0, b=20.0, c=math.log(50.0))
    naive = _naive_chain_intervals(p, dt, 30_000, seed=20)
    fast = discrete_intervals(p, seed=21, dt=dt, n_events=30_000)
    one_naive, one_fast = np.isclose(naive, dt), np.isclose(fast, dt)
    assert 0.08 < one_naive.mean() < 0.1 and 0.08 < one_fast.mean() < 0.1
    ks = _ks_two_sample(naive, fast)
    assert ks < _ks_crit_two_sample(naive.size, fast.size), ks
    after_naive, after_fast = naive[1:][one_naive[:-1]], fast[1:][one_fast[:-1]]
    ks = _ks_two_sample(after_naive, after_fast)
    assert ks < _ks_crit_two_sample(after_naive.size, after_fast.size), ks


def test_discrete_long_run_matches_analytic_distribution():
    """A million-second run lands within KS 0.01 of the marginal density."""
    p = ModelParams(a=1.0, b=1.0, c=0.0)
    train = simulate_discrete(p, seed=42, dt=1e-3, duration=1e6)
    assert train.n_events > 50_000
    taus = train.intervals_seconds()
    ks = _ks_to_cdf(taus, lambda g: 1.0 - kummer_1f1(1.0, 2.0, -g))
    assert ks < 0.01, ks


# ----------------------------------------------------------------------
# continuous sampler
# ----------------------------------------------------------------------


def test_continuous_determinism_and_shape():
    p = ModelParams(a=0.61, b=1.0, c=math.log(9.3))
    first = simulate_continuous(p, 1000, seed=55)
    second = simulate_continuous(p, 1000, seed=55)
    np.testing.assert_array_equal(first, second)
    assert first.shape == (1000,)
    assert np.all(first > 0.0)
    with pytest.raises(ValueError):
        simulate_continuous(p, 0, seed=1)


def test_continuous_draws_are_frozen():
    """The continuous sampler and invert_R's Newton path, pinned bit for
    bit: the first intervals of one M3 seed and the last of 20k draws."""
    p = ModelParams(a=0.7, b=1.0, c=math.log(8.0), kernel=RefractoryKernel.log_spaced(_TEST_GAMMA))
    iv = simulate_continuous(p, 20_000, seed=121)
    assert iv[:8].tolist() == [
        0.07528686531864996, 0.018847035216647306, 0.3533043772817052, 0.2899807968970102,
        0.07783251465946206, 0.3057727875370297, 1.135192887140965, 0.6706462446358745,
    ]
    assert iv[-1] == 0.43275175866036236


def test_continuous_rejects_infeasible_kernel():
    p = ModelParams(a=1.0, b=1.0, c=0.0, kernel=RefractoryKernel.log_spaced([-2.0]))
    with pytest.raises(ValueError, match="infeasible"):
        simulate_continuous(p, 10, seed=0)


def test_continuous_matches_analytic_cdf():
    p = ModelParams(a=0.61, b=1.0, c=math.log(9.3))
    iv = simulate_continuous(p, 20_000, seed=909)
    ks = _ks_to_cdf(iv, lambda g: 1.0 - kummer_1f1(0.61, 1.61, -9.3 * g))
    assert ks < 1.6276 / math.sqrt(20_000), ks


def test_continuous_truncated_mean():
    """E[min(tau, 100)] for the uniform-priority unit-rate case equals
    EulerGamma + ln 100 (integral of the survival function); the sample
    must land within 3 standard errors."""
    iv = simulate_continuous(ModelParams(a=1.0, b=1.0, c=0.0), 10**6, seed=2024)
    clipped = np.minimum(iv, 100.0)
    want = EULER_GAMMA + math.log(100.0)
    se = clipped.std() / math.sqrt(clipped.size)
    assert abs(clipped.mean() - want) < 3.0 * se


def test_continuous_refractory_short_interval_deficit():
    """A -1 amplitude at 50 ms suppresses sub-10 ms intervals an order of
    magnitude below the kernel-free baseline, matching the analytic CDF."""
    kernel = RefractoryKernel.log_spaced([-1.0])
    p = ModelParams(a=1.0, b=1.0, c=0.0, kernel=kernel)
    iv = simulate_continuous(p, 50_000, seed=303)
    frac = float(np.mean(iv < 0.010))
    analytic = 1.0 - kummer_1f1(1.0, 2.0, -refractory_integral(kernel, 0.010))
    baseline = 1.0 - kummer_1f1(1.0, 2.0, -0.010)
    se = math.sqrt(analytic * (1.0 - analytic) / 50_000)
    assert frac < 0.2 * baseline
    assert abs(frac - analytic) < 3.0 * se


def test_discrete_and_continuous_samplers_agree():
    p = ModelParams(a=2.5, b=1.0, c=math.log(5.0), kernel=RefractoryKernel.log_spaced(_TEST_GAMMA))
    d = discrete_intervals(p, seed=100, dt=1e-3, n_events=10_000)
    c = simulate_continuous(p, 10_000, seed=101)
    ks = _ks_two_sample(d, c)
    assert ks < _ks_crit_two_sample(10_000, 10_000), ks


# ----------------------------------------------------------------------
# invert_R
# ----------------------------------------------------------------------


def test_invert_R_identity_without_kernel():
    assert invert_R(RefractoryKernel.none(), 3.7) == pytest.approx(3.7, rel=1e-12)


def test_invert_R_refuses_a_kernel_negative_on_its_table():
    """gamma = -2 at 50 ms gives r(0) = -1, so R falls before it rises and
    has no inverse."""
    with pytest.raises(ValueError, match="infeasible"):
        invert_R(RefractoryKernel.log_spaced([-2.0]), 0.01)


def test_invert_R_refuses_every_bank_the_dense_grid_refuses():
    """invert_R judges r >= 0 on its own table, not on the 601 points the
    continuous sampler once checked; it must refuse every bank that rule
    refused.  Per bank, z_k ~ N(0, 1) and u ~ U(-0.25, 0.75), and
    gamma = z - mean(z) + (u - 1)/n, so r(0) = u: about a quarter of the
    banks are negative at 0, and some others dip below 0 further on."""
    rng = np.random.default_rng(41)
    for n in (8, 12):
        refused = inside = 0
        for _ in range(300):
            z = rng.normal(0.0, 1.0, n)
            u = rng.uniform(-0.25, 0.75)
            kernel = RefractoryKernel.log_spaced(z - z.mean() + (u - 1.0) / n)
            if continuous_grid_feasible(kernel):
                continue
            refused += 1
            inside += refractory_eval(kernel, 0.0) >= 0.0
            with pytest.raises(ValueError, match="infeasible"):
                invert_R(kernel, 1.0)
        assert 0 < refused < 300 and inside > 0, (n, refused, inside)


def test_invert_R_frozen_single_term_value():
    kernel = RefractoryKernel.log_spaced([-0.5])
    assert invert_R(kernel, 0.034196986029286058) == pytest.approx(0.05, rel=1e-9)


def test_invert_R_round_trip_and_monotonicity():
    kernel = RefractoryKernel.log_spaced(_TEST_GAMMA)
    targets = np.geomspace(1e-4, 1e5, 40)
    taus = invert_R(kernel, targets)
    np.testing.assert_allclose(
        refractory_integral(kernel, taus), targets, rtol=1e-9, atol=1e-10
    )
    assert np.all(np.diff(taus) > 0.0)


def test_invert_R_rejects_bad_targets():
    kernel = RefractoryKernel.none()
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            invert_R(kernel, bad)


def test_invert_R_work_and_accuracy(monkeypatch):
    """Each Newton round builds one decay matrix.  Targets past the
    table, where the kernel has decayed, start at their root and are
    accepted in the first round; targets across the table take two."""
    kernel = RefractoryKernel.log_spaced(_TEST_GAMMA)
    decay_matrix = simulate._decay_matrix
    rounds = []

    def counted(alpha, t):
        rounds.append(t.size)
        return decay_matrix(alpha, t)

    monkeypatch.setattr(simulate, "_decay_matrix", counted)
    for targets, most in ((np.geomspace(50.0, 1e9, 2000), 2), (np.geomspace(1e-8, 40.0, 2000), 3)):
        rounds.clear()
        taus = invert_R(kernel, targets)
        assert 1 <= len(rounds) <= most, rounds
        resid = np.abs(refractory_integral(kernel, taus) - targets)
        assert np.all(resid <= 1e-10 * np.maximum(1.0, targets))


def test_invert_R_blocks_are_independent_and_memory_is_bounded():
    """Newton runs a block of targets at a time: over two blocks and a
    part block, each block's roots are bit for bit those of its slice
    alone, and over 16 blocks the traced peak stays below half of one
    decay matrix over all targets, which the whole-array solve builds
    several of at once."""
    kernel = RefractoryKernel.log_spaced(_TEST_GAMMA)
    block = simulate._BLOCK
    rng = np.random.default_rng(18)

    def targets(n):
        x = np.maximum(rng.beta(0.7, 1.0, n), 1e-290)
        return rng.standard_exponential(n) / (8.0 * x)

    t = targets(2 * block + 7)
    taus = invert_R(kernel, t)
    for i in range(0, t.size, block):
        np.testing.assert_array_equal(taus[i : i + block], invert_R(kernel, t[i : i + block]))

    t = targets(16 * block)
    tracemalloc.start()
    try:
        invert_R(kernel, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * t.size * kernel.n * 8, peak


def test_invert_R_accepts_a_root_where_r_is_zero():
    """With gamma_1 = -1 the rate r(0) is exactly zero, and a 1e-25 target
    is met within tolerance at a tau where r rounds to zero.  R is still
    strictly increasing, so that tau is the root: no plateau warning."""
    kernel = RefractoryKernel.log_spaced([-1.0] + [0.0] * 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = invert_R(kernel, 1e-25)
    assert abs(refractory_integral(kernel, tau) - 1e-25) <= 1e-10


def test_discrete_run_is_a_prefix_of_longer_runs():
    """Blocks have a fixed size, so a shorter run with the same seed, by
    count or by duration, is the start of a longer one."""
    p = ModelParams(a=0.7, b=1.0, c=math.log(8.0), kernel=RefractoryKernel.log_spaced(_TEST_GAMMA))
    long_run = simulate_discrete(p, seed=5, n_events=40_000).timestamps_ms
    short = simulate_discrete(p, seed=5, n_events=100).timestamps_ms
    np.testing.assert_array_equal(short, long_run[:100])
    timed = simulate_discrete(p, seed=5, duration=long_run[30_000] / 1000.0)
    np.testing.assert_array_equal(timed.timestamps_ms, long_run[:30_001])
