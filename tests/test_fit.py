"""Tests for the constrained ascent loop: configuration parsing, the
feasibility machinery, convergence behaviour and the fit contract."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burstfit
from burstfit.cli import main
from burstfit.fit import (
    _CURV_FLOOR,
    FitConfig,
    FitResult,
    _ascent_map,
    _face_step,
    _grid_basis,
    _initial_vector,
    _repair,
    _search_objective,
    _secant_update,
    default_constraint_grid,
    fit,
)
from burstfit.io import compute_itis, load_timestamps
from burstfit.likelihood import ItiSet, _evaluate, gradient, objective
from burstfit.model import (
    VARIANTS,
    ModelParams,
    RefractoryKernel,
    _variant_spec,
    refractory_integral,
)
from burstfit.simulate import simulate_continuous
from oracles import feasible, vector_to_params


def _m1_data(n: int, seed: int, rho: float = 3.0, a: float = 0.7) -> ItiSet:
    params = ModelParams(a=a, b=1.0, c=math.log(rho))
    return ItiSet(simulate_continuous(params, n, seed=seed))


def _heavy_m2_data() -> ItiSet:
    """Kernel-free heavy-tail data: a = 0.6, b = 2, rho = 2, 6000 events."""
    truth = ModelParams(a=0.6, b=2.0, c=math.log(2.0))
    return ItiSet(simulate_continuous(truth, 6000, seed=46001))


def _count_passes(monkeypatch) -> list:
    """Record every likelihood pass the fitter makes, as the objective
    value it returned (None for a refused probe)."""
    fit_module = sys.modules[fit.__module__]
    calls = []
    inner = fit_module._search_objective

    def counting(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append(out[0])
        return out

    monkeypatch.setattr(fit_module, "_search_objective", counting)
    return calls


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def test_default_constraint_grid():
    grid = default_constraint_grid()
    assert grid.shape == (100,)
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(5.0)
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)
    # the grid is part of the fitter, not a setting
    with pytest.raises(TypeError):
        default_constraint_grid(n_points=5)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(max_iters=0)
    with pytest.raises(ValueError):
        FitConfig(grad_tolerance=-1e-6)
    # a NaN tolerance would switch the gradient stop off
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            FitConfig(grad_tolerance=bad)
    # the variant table fixes the objective: no penalty weight, no grid
    for removed in ({"reg_weight": 1.0}, {"constraint_grid": default_constraint_grid()}):
        with pytest.raises(TypeError):
            FitConfig(**removed)
    cfg = FitConfig()
    assert cfg.max_iters == 5000
    assert cfg.grad_tolerance == 1e-6


def test_fit_config_refuses_a_negative_seed(tmp_path):
    """A negative seed is refused where it is set, by name, not later by
    the random generator."""
    with pytest.raises(ValueError, match="seed must be >= 0"):
        FitConfig(seed=-1)
    path = tmp_path / "fit.cfg"
    path.write_text("seed = -3\n")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        FitConfig.from_file(path)
    assert FitConfig(seed=0).seed == 0


@pytest.mark.parametrize("field", ["max_iters", "seed"])
@pytest.mark.parametrize("bad", [2.5, True])
def test_fit_config_takes_integer_counts_only(field, bad):
    """A float max_iters or seed is refused where it is set, by name, not
    inside fit(); a bool would run as 1."""
    with pytest.raises(ValueError, match=f"{field} must be >= [01], got {bad}"):
        FitConfig(**{field: bad})
    # numpy integers are integers
    cfg = FitConfig(**{field: np.int64(3)})
    assert getattr(cfg, field) == 3


@pytest.mark.parametrize("bad", [True, np.True_, "1e-6"])
def test_fit_config_takes_a_real_tolerance_only(bad):
    """A bool grad_tolerance used to run as a tolerance of 1, and a string
    failed with TypeError; both are refused by name where they are set."""
    with pytest.raises(ValueError, match="grad_tolerance must be positive and finite"):
        FitConfig(grad_tolerance=bad)
    # numpy floats are real numbers
    assert FitConfig(grad_tolerance=np.float32(1e-3)).grad_tolerance == np.float32(1e-3)


def test_fit_config_from_file(tmp_path):
    path = tmp_path / "fit.cfg"
    path.write_text(
        "# ascent settings\n"
        "max_iters = 250\n"
        "grad_tol = 1e-5\n"
        "seed = 9\n"
    )
    cfg = FitConfig.from_file(path)
    assert cfg.max_iters == 250
    assert cfg.grad_tolerance == 1e-5
    assert cfg.seed == 9


def test_fit_config_from_file_partial_keeps_defaults(tmp_path):
    path = tmp_path / "fit.cfg"
    path.write_text("max_iters=77\n")
    cfg = FitConfig.from_file(path)
    assert cfg.max_iters == 77
    assert cfg.grad_tolerance == 1e-6
    assert cfg.seed is None


def test_fit_config_from_file_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    # step_size was a key until every line search started at the full step,
    # the grid keys and reg_weight until the variant table fixed the objective
    for text in (
        "step=0.1\n",
        "step_size = 0.01\n",
        "grid_min_ms = 2\n",
        "grid_max_ms = 4000\n",
        "grid_points = 60\n",
        "reg_weight = 1.0\n",
    ):
        bad_key.write_text(text)
        with pytest.raises(ValueError, match="unknown key"):
            FitConfig.from_file(bad_key)
    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("max_iters=soon\n")
    with pytest.raises(ValueError, match="bad numeric value"):
        FitConfig.from_file(bad_value)
    bad_line = tmp_path / "c.cfg"
    bad_line.write_text("step_size 0.1\n")
    with pytest.raises(ValueError, match="key=value"):
        FitConfig.from_file(bad_line)


# ----------------------------------------------------------------------
# feasibility and projection
# ----------------------------------------------------------------------


def test_feasible_on_default_grid():
    grid = default_constraint_grid()
    ok, idx = feasible(RefractoryKernel.none(), grid)
    assert ok and idx is None
    ok, idx = feasible(RefractoryKernel.log_spaced(np.zeros(8)), grid)
    assert ok
    # -1 on the fastest component: the rate dips to ~0.02 at the 1 ms
    # checkpoint but never below zero
    gamma = np.zeros(8)
    gamma[0] = -1.0
    ok, idx = feasible(RefractoryKernel.log_spaced(gamma), grid)
    assert ok
    # -2 drives the rate negative at the smallest checkpoint
    gamma[0] = -2.0
    ok, idx = feasible(RefractoryKernel.log_spaced(gamma), grid)
    assert not ok
    assert idx == 0


def test_feasible_on_an_empty_grid():
    """No grid time, no violated constraint: every kernel is feasible."""
    for gamma in ((), np.zeros(8), [-2.0] + [0.0] * 7):
        kernel = RefractoryKernel.log_spaced(gamma)
        assert feasible(kernel, np.array([])) == (True, None)


def _repaired(vec, variant):
    """The fitter's repair of a packed vector on the default grid's basis,
    as (vector, projections used); the slack it returns is the repaired
    vector's rate on the grid."""
    spec = VARIANTS[variant]
    basis = _grid_basis(spec)
    theta, slack, used = _repair(vec, basis, spec.gamma_offset)
    np.testing.assert_array_equal(slack, 1.0 + basis @ theta[spec.gamma_offset:])
    return theta, used


def test_project_restores_single_constraint():
    grid = default_constraint_grid()
    vec = np.zeros(10)  # M3 packing: a, c, gamma1..gamma8
    vec[0], vec[1] = 0.8, 1.1
    vec[2] = -2.0
    projected, used = _repaired(vec, "M3")
    assert used == 1
    # the touched hyperplane, the lag-zero row, is satisfied with equality
    kernel = vector_to_params(projected, "M3").kernel
    rate_at_zero = 1.0 + sum(kernel.gamma)
    assert rate_at_zero == pytest.approx(0.0, abs=1e-12)
    # non-kernel coordinates unchanged, movement along the normal only
    assert projected[0] == vec[0] and projected[1] == vec[1]
    np.testing.assert_allclose(np.diff(projected[3:]), 0.0, atol=0)
    ok, _ = feasible(kernel, grid)
    assert ok


def test_project_leaves_satisfied_vectors_alone():
    vec = np.zeros(10)
    vec[0], vec[1], vec[2] = 0.8, 1.1, -0.5
    repaired, used = _repaired(vec, "M3")
    assert used == 0
    np.testing.assert_array_equal(repaired, vec)
    # kernel-free variants have nothing to project
    m1 = np.array([0.8, 1.1])
    repaired, used = _repaired(m1, "M1")
    assert used == 0
    np.testing.assert_array_equal(repaired, m1)


def test_face_step_holds_pushed_walls_and_releases_pulled_ones():
    """Two kernel slots after two free ones; the first basis row is active
    at gamma = (-1, 0), the second is not."""
    rng = np.random.default_rng(3)
    q = rng.normal(size=(4, 4))
    ascent = q @ q.T + 0.5 * np.eye(4)
    basis = np.array([[1.0, 1.0], [0.5, 0.2]])
    off = 2
    a = np.zeros(4)
    a[off:] = basis[0]
    g = rng.normal(size=4)

    def slack(theta):
        return 1.0 + basis @ theta[off:]

    free, direction = _face_step(ascent, g, slack(np.array([0.3, -0.2, 0.0, 0.0])), basis, off)
    np.testing.assert_array_equal(free, g)
    np.testing.assert_allclose(direction, ascent @ g)

    theta = np.array([0.3, -0.2, -1.0, 0.0])
    push = g if a @ ascent @ g < 0.0 else -g
    free, direction = _face_step(ascent, push, slack(theta), basis, off)
    assert a @ direction >= -1e-12
    assert push @ direction > 0.0
    np.testing.assert_allclose(direction, ascent @ free)

    free, direction = _face_step(ascent, -push, slack(theta), basis, off)
    np.testing.assert_allclose(free, -push)
    np.testing.assert_allclose(direction, ascent @ -push)


def test_projection_is_idempotent():
    vec = np.zeros(10)
    vec[0], vec[1], vec[2] = 0.8, 1.1, -3.0
    once, _ = _repaired(vec, "M3")
    twice, _ = _repaired(once, "M3")
    np.testing.assert_allclose(once, twice, rtol=0, atol=1e-15)


# ----------------------------------------------------------------------
# search codec and domain gate
# ----------------------------------------------------------------------


def test_search_gate_flags_out_of_domain():
    """A log shape whose exp underflows to 0 or overflows is out of the
    model domain; an ordinary point is not."""
    data = ItiSet(np.array([0.1, 0.4]))
    for log_a in (-800.0, 800.0):
        value, grad, _ = _search_objective(np.array([log_a, 0.0]), "M1", data)
        assert value is None and grad is None
    value, grad, _ = _search_objective(np.array([math.log(0.7), 0.0]), "M1", data)
    assert value is not None and grad.shape == (2,)


def test_search_gate_rejects_precision_loss():
    """At b = 200 the asymptotic 1F1 regime (w >= 300) cannot reach its
    accuracy; the probe must come back as out-of-domain, not raise."""
    u = np.array([math.log(0.7), math.log(200.0), 0.0])
    value, grad, _ = _search_objective(u, "M2", ItiSet(np.array([0.5, 301.0])))
    assert value is None and grad is None


def test_fit_refuses_a_start_outside_the_model_domain():
    """The same point given as init_params: the search gate refuses it, so
    fit() stops at the start with ValueError, not a PrecisionLossError."""
    start = ModelParams(a=0.7, b=200.0, c=0.0, variant="M2")
    with pytest.raises(ValueError, match="^initial parameters are outside the model domain$"):
        fit("M2", ItiSet(np.array([0.5, 301.0])), FitConfig(init_params=start))


def test_search_gate_rejects_rate_overflow():
    """exp(c) overflows a float at c >= 709.79; the probe is out of domain."""
    u = np.array([math.log(0.7), 710.0])
    value, grad, _ = _search_objective(u, "M1", ItiSet(np.array([0.1, 0.4, 2.0])))
    assert value is None and grad is None


def test_search_gate_rejects_non_finite_objective():
    """At c = 700 a 1e10 s interval gives w ~ 1e314: the log-likelihood is
    -inf, so the probe is out of domain rather than a value to compare."""
    u = np.array([math.log(0.7), 700.0])
    with np.errstate(over="ignore"):
        value, grad, _ = _search_objective(u, "M1", ItiSet(np.array([0.1, 1e10])))
    assert value is None and grad is None


@pytest.mark.parametrize("broken", ["objective", "gradient"])
def test_search_gate_rejects_a_non_finite_pass(monkeypatch, broken):
    """A pass that returns a NaN objective, or an inf gradient entry, is
    out of domain: the gate gives three Nones, and at the start fit()
    stops with ValueError."""

    def non_finite(*args):
        value, grad, scores = _evaluate(*args)
        if broken == "objective":
            return dataclasses.replace(value, objective=math.nan), grad, scores
        grad[2] = math.inf  # the c entry, which M1 keeps
        return value, grad, scores

    monkeypatch.setattr(sys.modules[fit.__module__], "_evaluate", non_finite)
    data = ItiSet(np.array([0.1, 0.4, 2.0]))
    assert _search_objective(np.array([math.log(0.7), 0.0]), "M1", data) == (None, None, None)
    with pytest.raises(ValueError, match="^initial parameters are outside the model domain$"):
        fit("M1", data)


def test_ascent_map_is_the_identity_without_curvature():
    """Zero scores on M1, which has no penalty, carry no curvature: the
    map falls back to the identity instead of inverting zero."""
    ascent = _ascent_map(np.zeros((3, 3)), _variant_spec("M1"), ItiSet(np.array([0.1, 0.4, 2.0])))
    assert np.array_equal(ascent, np.eye(2))


def test_fit_refuses_a_start_it_cannot_repair(monkeypatch):
    """With no projection allowed, an M3 start whose fastest amplitude
    drives the rate negative stays infeasible: fit() raises before any
    likelihood pass."""
    monkeypatch.setattr(sys.modules[fit.__module__], "_MAX_PROJ", 0)
    kernel = RefractoryKernel.log_spaced([-3.0] + [0.0] * 7)
    start = ModelParams(a=0.7, b=1.0, c=0.0, kernel=kernel, variant="M3")
    with pytest.raises(ArithmeticError, match="^constraint repair did not terminate$"):
        fit("M3", ItiSet(np.array([0.1, 0.4, 2.0])), FitConfig(init_params=start))


# ----------------------------------------------------------------------
# fit behaviour
# ----------------------------------------------------------------------


def test_fit_m1_smoke():
    data = _m1_data(2000, seed=70)
    res = fit("M1", data)
    assert isinstance(res, FitResult)
    assert res.converged
    assert res.reason == "gradient tolerance"
    assert res.variant == "M1"
    assert res.params_star.b == 1.0
    assert res.params_star.kernel.n == 0
    assert res.n_projections == 0
    assert res.n_data == 2000
    assert res.data_digest == data.digest
    # loose recovery at this size; the tight version runs on larger data
    assert res.params_star.a == pytest.approx(0.7, abs=0.1)
    assert res.params_star.rho == pytest.approx(3.0, rel=0.15)


def test_fit_trace_is_monotone_and_bic_consistent():
    data = _m1_data(2000, seed=71)
    res = fit("M1", data)
    values = [v.objective for v in res.objective_trace]
    assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))
    assert res.objective == values[-1]
    assert res.bic == pytest.approx(math.log(data.n) * 2 - 2.0 * res.objective, rel=1e-12)
    # the reported point actually evaluates to the reported objective
    assert objective(res.params_star, data).objective == pytest.approx(
        res.objective, rel=1e-12
    )


def test_fit_is_deterministic():
    data = _m1_data(1500, seed=72)
    cfg = FitConfig(seed=4)
    first = fit("M1", data, cfg)
    second = fit("M1", data, cfg)
    assert first.params_star == second.params_star
    assert first.objective_trace == second.objective_trace
    third = fit("M1", data, FitConfig(seed=5))
    assert third.objective_trace != first.objective_trace


def test_fit_variant_masks_hold():
    data = _m1_data(1200, seed=73)
    res2 = fit("M2", data, FitConfig(max_iters=400))
    assert res2.params_star.kernel.n == 0
    res3 = fit("M3", data, FitConfig(max_iters=60))
    assert res3.params_star.b == 1.0
    assert res3.params_star.kernel.n == 8


def test_fit_max_iters_reason():
    data = _m1_data(1000, seed=74)
    res = fit("M1", data, FitConfig(max_iters=3))
    assert not res.converged
    assert res.reason == "max iterations"
    assert len(res.objective_trace) <= 4


def test_fit_failed_line_search_is_not_convergence(tmp_path):
    """Cold M4 on this M3 kernel data walks up the b ridge (b about 186,
    where the model tends to a Lomax mixture of exponentials) until the
    1F1 pass refuses the probes around it and no step along the search
    direction improves: a failed search, which must not be reported as
    convergence.  (The Poisson M2 case that used to end this way now
    reaches M1, see test_fit_poisson_m2_reaches_m1_cold.)"""
    path = tmp_path / "events.txt"
    assert main(["simulate", "--variant", "M3", "--a", "0.7", "--rho", "8",
                 "--gamma", "0,0,-0.3,-0.4,-0.26,0,0,0", "--events", "2000",
                 "--seed", "110", "--out", str(path)]) == 0
    res = fit("M4", compute_itis(load_timestamps(path)))
    assert res.reason == "line search failed"
    assert not res.converged


def test_fit_gives_up_after_one_failed_line_search(tmp_path, monkeypatch):
    """Cold M4 on seed-100 M3 kernel data ends on the b ridge, "line
    search failed".  An iteration makes one line search: the halving
    ladder from the full step down to _ETA_MIN is 28 probes, and the fit
    makes no pass after it.  A retry with a freshly built curvature map
    repeated the ladder, 56 passes after the last accepted step, and ended
    at the same point."""
    path = tmp_path / "events.txt"
    assert main(["simulate", "--variant", "M3", "--a", "0.7", "--rho", "8",
                 "--gamma", "0,0,-0.3,-0.4,-0.26,0,0,0", "--events", "2000",
                 "--seed", "100", "--out", str(path)]) == 0
    data = compute_itis(load_timestamps(path))
    calls = _count_passes(monkeypatch)
    res = fit("M4", data)
    assert res.reason == "line search failed"
    last = max(i for i, value in enumerate(calls) if value is res.objective_trace[-1])
    assert len(calls) - 1 - last <= 28


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: cold M4 on seed 100 stalls on the b ridge")
def test_fit_kernel_child_leaves_the_b_ridge_cold(tmp_path):
    """Cold M4 on the seed-100 data of the test above should end on the
    gradient test, not stalled on the b ridge at b = 182.4 after 292
    passes."""
    path = tmp_path / "events.txt"
    assert main(["simulate", "--variant", "M3", "--a", "0.7", "--rho", "8",
                 "--gamma", "0,0,-0.3,-0.4,-0.26,0,0,0", "--events", "2000",
                 "--seed", "100", "--out", str(path)]) == 0
    res = fit("M4", compute_itis(load_timestamps(path)))
    assert res.reason != "line search failed"


# Cold M1-M3 objectives on the seed 100-102 data of
# test_fit_m1_m3_optima_hold: each fit ends on the gradient test.
_SEED_OPTIMA = {
    100: {"M1": -2091.296020328962, "M2": -2068.8816971253937, "M3": -1988.748118446188},
    101: {"M1": -2028.2549861676343, "M2": -2015.9011729973531, "M3": -1935.3646457365958},
    102: {"M1": -2285.148140018521, "M2": -2264.2359073657517, "M3": -2165.474796119818},
}


@pytest.mark.parametrize("seed", sorted(_SEED_OPTIMA))
def test_fit_m1_m3_optima_hold(tmp_path, seed):
    """The M1-M3 optima are single, smooth maxima: a change to the step
    rules or to the last bits of the likelihood may change the path and
    the pass count, but not where these fits end (within 1e-6 nats)."""
    path = tmp_path / "events.txt"
    assert main(["simulate", "--variant", "M3", "--a", "0.7", "--rho", "8",
                 "--gamma", "0,0,-0.3,-0.4,-0.26,0,0,0", "--events", "2000",
                 "--seed", str(seed), "--out", str(path)]) == 0
    data = compute_itis(load_timestamps(path))
    for variant, want in _SEED_OPTIMA[seed].items():
        res = fit(variant, data)
        assert res.reason == "gradient tolerance", variant
        assert res.objective == pytest.approx(want, rel=0.0, abs=1e-6), variant


def test_fit_poisson_m2_reaches_m1_cold():
    """Poisson intervals fitted cold with M2 used to drive b towards zero
    and end "line search failed", 858 nats below M1, which M2 contains.
    Searched in log a and log b from the median-rate start, M2 climbs the
    b ridge instead (Poisson is its a, b -> infinity limit) to M1's
    value."""
    rng = np.random.default_rng(0)
    iv = np.maximum(np.round(rng.exponential(0.2, 20_000) * 1000.0), 1.0) / 1000.0
    data = ItiSet(iv)
    m1 = fit("M1", data)
    m2 = fit("M2", data)
    assert m2.objective >= m1.objective - 1e-6


def test_fit_takes_the_full_curvature_mapped_step():
    """The ascent direction is mapped through the inverse curvature, so a
    step of 1 is the quasi-Newton step.  Capping the step at 0.1 made this
    Poisson M1 fit take 276 iterations to the same optimum; with the cap at
    1 it took 101, and starting every search at the full step takes 42."""
    rng = np.random.default_rng(0)
    iv = np.maximum(np.round(rng.exponential(0.2, 20_000) * 1000.0), 1.0) / 1000.0
    res = fit("M1", ItiSet(iv))
    assert res.reason == "gradient tolerance"
    assert len(res.objective_trace) - 1 <= 120
    assert res.objective == pytest.approx(12330.846896414521, rel=1e-9)


def test_fit_kernel_child_reaches_its_parent_cold(tmp_path):
    """Cold M4 on M3 kernel data must not end below cold M3, which it
    contains.  With the step capped at 0.1, M4 ended 43.2 nats below M3
    here.  This is one seed: on other seeds cold M4 still ends up to about
    0.9 nats below M3, so fitting the child from its parent's optimum
    (warm starts) is still needed for nesting in general."""
    path = tmp_path / "events.txt"
    assert main(["simulate", "--variant", "M3", "--a", "0.7", "--rho", "8",
                 "--gamma", "0,0,-0.3,-0.4,-0.26,0,0,0", "--events", "2000",
                 "--seed", "121", "--out", str(path)]) == 0
    data = compute_itis(load_timestamps(path))
    m3 = fit("M3", data)
    m4 = fit("M4", data)
    assert m4.objective >= m3.objective - 0.5


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: cold M4 ends below cold M3 on seed 103")
def test_fit_kernel_child_reaches_its_parent_cold_on_seed_103(tmp_path):
    """Nesting from cold starts: M4 contains M3, so cold M4 should end no
    lower than cold M3.  On seed 103 it ends at -1971.0352 against M3's
    -1970.5826."""
    path = tmp_path / "events.txt"
    assert main(["simulate", "--variant", "M3", "--a", "0.7", "--rho", "8",
                 "--gamma", "0,0,-0.3,-0.4,-0.26,0,0,0", "--events", "2000",
                 "--seed", "103", "--out", str(path)]) == 0
    data = compute_itis(load_timestamps(path))
    assert fit("M4", data).objective >= fit("M3", data).objective - 1e-6


def test_fit_kernel_curvature_makes_no_passes_of_its_own(tmp_path, monkeypatch):
    """Cold M3 on the seed-121 data above: the curvature map is built from
    the scores of a pass already made, so no likelihood pass runs while
    _ascent_map does, and every pass after the start is a line search
    candidate.  The fit takes 31 passes; forward-difference probes, one
    pass per coordinate at every curvature refresh, made it 48.  The count
    is not bounded here: it took 30 to 37 under last-bit variants of the
    likelihood, and the property it stood for is asserted directly."""
    path = tmp_path / "events.txt"
    assert main(["simulate", "--variant", "M3", "--a", "0.7", "--rho", "8",
                 "--gamma", "0,0,-0.3,-0.4,-0.26,0,0,0", "--events", "2000",
                 "--seed", "121", "--out", str(path)]) == 0
    data = compute_itis(load_timestamps(path))
    calls = _count_passes(monkeypatch)
    fit_module = sys.modules[fit.__module__]
    inner = fit_module._ascent_map
    during = []

    def watched(*args):
        before = len(calls)
        out = inner(*args)
        during.append(len(calls) - before)
        return out

    monkeypatch.setattr(fit_module, "_ascent_map", watched)
    assert fit("M3", data).converged
    assert during and not any(during), during


@pytest.mark.parametrize("seed", [108, 111])
def test_fit_kernel_child_reaches_its_parent_cold_off_the_wall(tmp_path, seed):
    """On these seeds cold M4 crosses the lag-zero wall.  With the outward
    gradient merely removed, the curvature-mapped step off the wall could
    point downhill: M4 ended "line search failed" at b < 0.05, 94.6 (seed
    108) and 38.9 (seed 111) nats below M3."""
    path = tmp_path / "events.txt"
    assert main(["simulate", "--variant", "M3", "--a", "0.7", "--rho", "8",
                 "--gamma", "0,0,-0.3,-0.4,-0.26,0,0,0", "--events", "2000",
                 "--seed", str(seed), "--out", str(path)]) == 0
    data = compute_itis(load_timestamps(path))
    m3 = fit("M3", data)
    m4 = fit("M4", data)
    assert m4.objective >= m3.objective - 0.5


def test_fit_heavy_tail_m2_reaches_m1_cold(tmp_path):
    """Kernel-free heavy-tail data (bench dataset 46001) on which cold M2
    once ran away to a = 27, b = 14 and ended 16862 nats below M1."""
    path = tmp_path / "events.txt"
    assert main(["simulate", "--variant", "M2", "--a", "0.6", "--b", "2.0", "--rho", "2.0",
                 "--mode", "continuous", "--events", "6000", "--seed", "46001",
                 "--out", str(path)]) == 0
    data = compute_itis(load_timestamps(path))
    m1 = fit("M1", data)
    m2 = fit("M2", data)
    assert m2.objective >= m1.objective
    assert 0.5 <= m2.params_star.a <= 0.7
    assert 1.0 <= m2.params_star.b <= 5.0


def test_fit_wall_optimum_is_reached_from_cold_and_from_truth():
    """A strong refractory dip puts the M3 optimum on the lag-zero wall.
    Cold and truth-started fits both stop on the gradient test there, at
    the same objective; the two used to end "line search failed", 0.004
    nats apart."""
    truth = ModelParams(
        a=0.8, b=1.0, c=math.log(4.0), kernel=RefractoryKernel.log_spaced([-1.0] + [0.0] * 7)
    )
    data = ItiSet(simulate_continuous(truth, 1500, seed=76))
    cold = fit("M3", data)
    warm = fit("M3", data, FitConfig(init_params=truth))
    assert cold.reason == warm.reason == "gradient tolerance"
    assert cold.objective == pytest.approx(warm.objective, abs=0.01)


@pytest.mark.parametrize("seed", [4, 6])
def test_fit_stops_on_the_predicted_gain_too(seed):
    """M3 on 50k millisecond-rounded intervals of a kernel truth.  Here the
    gradient test alone stopped the fit where the 1/N-scaled gradient was
    below grad_tol but the curvature still predicted about 7e-7 nats along
    a flat kernel direction; with the predicted gain bounded too, the fit
    ends within 1e-7 nats of a refit at grad_tol 1e-9 from its optimum."""
    truth = ModelParams(a=0.7, b=1.0, c=math.log(8.0),
                        kernel=RefractoryKernel.log_spaced([0, 0, -0.3, -0.4, -0.26, 0, 0, 0]))
    taus = np.round(simulate_continuous(truth, 50_000, seed=seed) * 1000.0) / 1000.0
    data = ItiSet(taus[taus > 0])
    cold = fit("M3", data)
    tight = fit("M3", data, FitConfig(grad_tolerance=1e-9, init_params=cold.params_star))
    assert cold.converged
    assert tight.objective - cold.objective < 1e-7


def test_fit_single_interval_terminates():
    res = fit("M1", ItiSet(np.array([0.8])))
    assert res.converged
    assert res.reason == "gradient tolerance"


def test_start_rate_holds_still_under_a_month_long_gap():
    """The start rate is that of the median interval, so one appended
    30-day gap moves it by one order statistic; the mean rate n / span it
    replaces moved by 0.26 here."""
    data = _m1_data(6000, seed=79, rho=2.0, a=0.6)
    gapped = ItiSet(np.append(data.intervals, 30 * 86400.0))
    c0 = _initial_vector("M1", data, FitConfig())[1]
    c1 = _initial_vector("M1", gapped, FitConfig())[1]
    assert c0 == pytest.approx(-math.log(np.median(data.intervals)), rel=1e-12)
    assert c1 == pytest.approx(-math.log(np.median(gapped.intervals)), rel=1e-12)
    assert abs(c1 - c0) < 1e-3


@pytest.mark.parametrize("variant", ["M1", "M2"])
def test_fit_started_at_its_optimum_stays_there(variant):
    """Mapping the start into log-shape coordinates and back loses nothing
    the gradient test can see: a fit started at its own optimum stops at
    once with the same objective."""
    data = _heavy_m2_data()
    cold = fit(variant, data)
    warm = fit(variant, data, FitConfig(init_params=cold.params_star))
    assert warm.converged
    assert len(warm.objective_trace) - 1 <= 2
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_seed_jitter_is_deterministic_in_search_coordinates():
    """seed jitters log a, log b and c by at most 0.1 each, the same way on
    every call, and never the kernel; init_params is taken as given."""
    data = _m1_data(1500, seed=72)
    base = _initial_vector("M4", data, FitConfig())
    first = _initial_vector("M4", data, FitConfig(seed=4))
    np.testing.assert_array_equal(first, _initial_vector("M4", data, FitConfig(seed=4)))
    assert not np.array_equal(first, _initial_vector("M4", data, FitConfig(seed=5)))
    assert np.all(np.abs(first[:3] - base[:3]) <= 0.1)
    assert np.all(first[:3] != base[:3])
    np.testing.assert_array_equal(first[3:], 0.0)
    np.testing.assert_allclose(base[:2], np.log([0.8, 1.2]), rtol=1e-15)
    start = ModelParams(a=0.9, b=1.3, c=0.2)
    given = _initial_vector("M2", data, FitConfig(seed=4, init_params=start))
    np.testing.assert_allclose(given, [math.log(0.9), math.log(1.3), 0.2], rtol=1e-15)


def _spd_map(rng, n):
    q = rng.normal(size=(n, n))
    h = q @ q.T + 0.5 * np.eye(n)
    return 0.5 * (h + h.T)


def test_secant_update_meets_the_secant_condition():
    """Where 0 < s.y < inf the updated map is symmetric, positive definite
    and maps y to s (Nocedal & Wright, 2nd ed., section 6.1)."""
    rng = np.random.default_rng(40)
    for _ in range(20):
        ascent = _spd_map(rng, 6)
        s, y = rng.normal(size=6), rng.normal(size=6)
        if s @ y < 0.0:
            y = -y
        out = _secant_update(ascent, s, y)
        np.testing.assert_array_equal(out, out.T)
        assert np.linalg.eigvalsh(out).min() > 0.0
        assert np.linalg.norm(out @ y - s) <= 1e-12 * np.linalg.norm(s)


def test_secant_update_skips_a_step_without_positive_curvature():
    """s.y <= 0, NaN or +-inf: the map is handed back untouched."""
    rng = np.random.default_rng(41)
    ascent = _spd_map(rng, 4)
    y = np.array([1.0, -2.0, 0.5, 3.0])
    cases = [
        np.array([2.0, 1.0, 0.0, 0.0]),  # s.y = 0
        -y,  # s.y < 0
        np.array([np.nan, 0.0, 0.0, 0.0]),
        np.array([np.inf, 0.0, 1.0, 1.0]),  # s.y = +inf
        np.array([-np.inf, 0.0, 1.0, 1.0]),  # s.y = -inf
    ]
    for s in cases:
        assert _secant_update(ascent, s, y) is ascent, s


def test_curvature_comes_from_the_scores_of_the_pass_in_hand(monkeypatch):
    """A pass's per-interval scores are the gradient's own terms: for every
    variant, at a point whose w = rho R(tau) lies on both sides of the 300
    regime switch, their count-weighted sum less the penalty's gradient is
    gradient().  The search gate returns them, and the ascent map is the
    inverse of their outer product, so a refresh makes no likelihood pass;
    at M2's optimum on heavy-tail data, where the map's eigenvalue floor
    is inactive, the curvature it inverts agrees with central differences
    of the gradient within 2% of its largest entry (0.9%; M1, misspecified
    on these data, reads 5%)."""
    data = ItiSet(np.concatenate([np.geomspace(1e-3, 10.0, 40), [0.5, 0.5, 150.0, 2e4, 3e6]]))
    tau, cnt = data._unique()
    for variant, spec in VARIANTS.items():
        kernel = RefractoryKernel(0.05 * (-1.0) ** np.arange(spec.n_kernel_terms), spec.alpha)
        params = ModelParams(0.8, 1.6 if spec.free_b else 1.0, math.log(2.0), kernel, variant)
        w = params.rho * refractory_integral(kernel, tau)
        assert w.min() < 300.0 < w.max()
        gamma = np.asarray(kernel.gamma)
        _, _, scores = _evaluate(params.a, params.b, params.c, gamma, spec.alpha, variant, data)
        assert scores.shape == (tau.size, 3 + spec.n_kernel_terms)
        summed = cnt @ scores
        summed[3:] -= 2.0 * spec.reg_weight * gamma
        expected = gradient(params, data)
        np.testing.assert_allclose(spec.pack(*summed[:3], summed[3:]), expected,
                                   rtol=0, atol=1e-12 * np.abs(expected).max())

    data = _heavy_m2_data()
    u = _initial_vector("M2", data, FitConfig(init_params=fit("M2", data).params_star))
    _, _, scores = _search_objective(u, "M2", data)
    calls = _count_passes(monkeypatch)
    curv = -np.linalg.inv(_ascent_map(scores, _variant_spec("M2"), data))
    assert calls == []
    lam = np.linalg.eigvalsh(-curv)
    assert lam.min() > 10.0 * _CURV_FLOOR * lam.max()
    central = np.empty((u.size, u.size))
    for i in range(u.size):
        h = 1e-4 * max(1.0, abs(u[i]))
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        gp = _search_objective(up, "M2", data)[1]
        gm = _search_objective(dn, "M2", data)[1]
        central[:, i] = (gp - gm) / (2.0 * h)
    central = (central + central.T) / (2.0 * data.n)
    np.testing.assert_allclose(curv, central, rtol=0, atol=0.02 * np.abs(central).max())


def test_fit_work_stays_bounded_on_heavy_tail_data(monkeypatch):
    """Likelihood passes of a cold M1 plus M2 fit on kernel-free heavy-tail
    data (a = 0.6, b = 2, rho = 2, 6000 events, seed 46001).  Searching a and
    b on a linear scale from the mean-rate start, with central-difference
    curvature probes, took 14 + 78 = 92 passes; the log-shape search from
    the median-rate start took 7 + 13 with forward-difference probes, and
    takes 7 + 12 with the curvature from the per-interval scores."""
    data = _heavy_m2_data()
    calls = _count_passes(monkeypatch)
    m1 = fit("M1", data)
    m2 = fit("M2", data)
    assert m1.converged and m2.converged
    assert m2.objective >= m1.objective
    assert len(calls) <= 40


def test_fit_init_params_override_and_mismatch():
    data = _m1_data(800, seed=75)
    good = ModelParams(a=0.9, b=1.0, c=math.log(2.5))
    res = fit("M1", data, FitConfig(init_params=good))
    assert res.converged
    wrong = ModelParams(a=0.9, b=1.3, c=0.0)
    with pytest.raises(ValueError, match="init_params"):
        fit("M1", data, FitConfig(init_params=wrong))


def test_fit_repairs_infeasible_initialization():
    params = ModelParams(
        a=0.8, b=1.0, c=math.log(4.0), kernel=RefractoryKernel.log_spaced([-0.6] + [0.0] * 7)
    )
    data = ItiSet(simulate_continuous(params, 1500, seed=76))
    gamma = np.zeros(8)
    gamma[0] = -2.5
    bad_start = ModelParams(
        a=0.8, b=1.0, c=math.log(4.0), kernel=RefractoryKernel.log_spaced(gamma)
    )
    res = fit("M3", data, FitConfig(init_params=bad_start, max_iters=80))
    ok, _ = feasible(res.params_star.kernel, default_constraint_grid())
    assert ok
    assert res.n_projections >= 1


def test_fit_line_search_projects_onto_the_wall():
    """A start just inside the lag-zero wall (rate 1e-6 at t = 0), on data
    whose strong refractory dip pulls gamma_1 further down: the start needs
    no projection, so every projection counted comes from the line search,
    and the iterate it hands back is feasible."""
    truth = ModelParams(
        a=0.8, b=1.0, c=math.log(4.0), kernel=RefractoryKernel.log_spaced([-1.0] + [0.0] * 7)
    )
    data = ItiSet(simulate_continuous(truth, 1500, seed=76))
    start_gamma = [-(1.0 - 1e-6)] + [0.0] * 7
    start = ModelParams(
        a=0.8, b=1.0, c=math.log(4.0), kernel=RefractoryKernel.log_spaced(start_gamma)
    )
    grid = default_constraint_grid()
    assert feasible(start.kernel, grid) == (True, None) and 1.0 + sum(start_gamma) > 0.0
    res = fit("M3", data, FitConfig(init_params=start, max_iters=10))
    assert res.n_projections >= 1
    kernel = res.params_star.kernel
    assert feasible(kernel, grid) == (True, None)
    assert 1.0 + sum(kernel.gamma) >= 0.0
    trace = [v.objective for v in res.objective_trace]
    assert trace[-1] > trace[0]


def test_fit_scale_covariance_without_kernel():
    """Rescaling every interval by k shifts the fitted log-rate by -log k
    and leaves the shape estimate unchanged (kernel-free model only)."""
    base = _m1_data(20_000, seed=77)
    scaled = ItiSet(base.intervals * 2.0)
    res_base = fit("M1", base)
    res_scaled = fit("M1", scaled)
    assert res_scaled.params_star.a == pytest.approx(res_base.params_star.a, abs=1e-3)
    c_shift = res_scaled.params_star.c - res_base.params_star.c
    assert c_shift == pytest.approx(-math.log(2.0), abs=1e-3)


_THREAD_CHILD = """
import math
import numpy as np
from burstfit.fit import fit
from burstfit.io import serialize_fit
from burstfit.likelihood import ItiSet
from burstfit.model import ModelParams, RefractoryKernel
from burstfit.simulate import simulate_continuous
gamma = (0.0, 0.0, -0.30, -0.40, -0.26, 0.0, 0.0, 0.0)
truth = ModelParams(a=0.7, b=1.0, c=math.log(8.0), kernel=RefractoryKernel.log_spaced(gamma))
taus = np.round(simulate_continuous(truth, n_events=150_000, seed=31) * 1000.0) / 1000.0
data = ItiSet(taus[taus > 0])
for variant in ("M3", "M4"):
    print(serialize_fit(fit(variant, data)), end="")
"""


def test_fit_artifacts_do_not_depend_on_the_blas_thread_count():
    """The criterion-3 truth, 150k ms-rounded events (13,633 unique
    intervals), fitted with M3 and M4 in children at one and at two BLAS
    threads: the artifacts are equal in bytes.  With the likelihood's
    data-length sums as BLAS dots, OpenBLAS split them across threads and
    the M3 artifacts differed."""
    src = str(Path(burstfit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", _THREAD_CHILD], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert outs[0].count('"format"') == 2
    assert outs[0] == outs[1]
