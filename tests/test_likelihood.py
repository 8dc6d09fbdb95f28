"""Tests for the penalized log-likelihood and its analytic gradient.

The binding check is gradient-vs-finite-differences of the scalar
objective; the likelihood value itself is tied to the marginal density
evaluated interval by interval.
"""

import importlib
import math

import numpy as np
import pytest

from burstfit.likelihood import (
    InfeasibleParamsError,
    ItiSet,
    ObjectiveValue,
    effective_reg_weight,
    gradient,
    log_likelihood,
    objective,
)
from burstfit.model import (
    ModelParams,
    RefractoryKernel,
    iti_density,
    params_to_vector,
    vector_to_params,
)
from burstfit.simulate import simulate_continuous
from burstfit.special import PrecisionLossError

_likelihood_internals = importlib.import_module("burstfit.likelihood")

_KERNEL_GAMMA = (-0.45, -0.2, 0.0, 0.12, 0.0, 0.0, 0.0, 0.05)


def _sample_params(variant: str) -> ModelParams:
    if variant == "M1":
        return ModelParams(a=0.7, b=1.0, c=math.log(3.0))
    if variant == "M2":
        return ModelParams(a=0.8, b=1.6, c=math.log(2.0))
    kernel = RefractoryKernel.log_spaced(
        _KERNEL_GAMMA if variant in ("M3", "M4") else _KERNEL_GAMMA + (0.0, 0.0, -0.1, 0.08)
    )
    b = 1.0 if variant == "M3" else 1.3
    return ModelParams(a=0.9, b=b, c=math.log(4.0), kernel=kernel)


def _sample_data(params: ModelParams, n: int, seed: int, quantize: bool = False) -> ItiSet:
    iv = simulate_continuous(params, n, seed=seed)
    if quantize:
        iv = np.maximum(np.rint(iv * 1000.0), 1.0) / 1000.0
    return ItiSet(iv)


# ----------------------------------------------------------------------
# ItiSet
# ----------------------------------------------------------------------


class TestItiSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ItiSet(np.array([]))
        with pytest.raises(ValueError):
            ItiSet(np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            ItiSet(np.array([0.5, -1.0]))
        with pytest.raises(ValueError):
            ItiSet(np.array([0.5, float("nan")]))

    def test_count_and_immutability(self):
        data = ItiSet([0.2, 0.5, 0.2])
        assert data.n == 3
        with pytest.raises(ValueError):
            data.intervals[0] = 9.0

    def test_digest_is_stable_and_content_bound(self):
        a = ItiSet([0.2, 0.5, 0.2])
        b = ItiSet([0.2, 0.5, 0.2])
        c = ItiSet([0.2, 0.5, 0.3])
        assert a.digest == b.digest
        assert len(a.digest) == 16
        assert a.digest != c.digest


def test_likelihood_invariant_under_permutation():
    params = _sample_params("M3")
    iv = simulate_continuous(params, 400, seed=1)
    shuffled = iv[np.random.default_rng(2).permutation(iv.size)]
    assert log_likelihood(params, ItiSet(iv)) == pytest.approx(
        log_likelihood(params, ItiSet(shuffled)), rel=1e-13
    )


# ----------------------------------------------------------------------
# likelihood value
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["M1", "M2", "M3", "M4", "M5"])
def test_log_likelihood_is_sum_of_log_densities(variant):
    params = _sample_params(variant)
    data = _sample_data(params, 300, seed=40, quantize=True)
    direct = float(np.sum(np.log(iti_density(params, data.intervals))))
    assert log_likelihood(params, data) == pytest.approx(direct, rel=1e-11)


def test_log_likelihood_with_extreme_intervals_stays_finite():
    """Week-long gaps push the hypergeometric argument past -1e7."""
    params = _sample_params("M3")
    data = ItiSet(np.array([0.001, 0.05, 2.0, 1e5, 2e6]))
    value = log_likelihood(params, data)
    assert math.isfinite(value)
    grad = gradient(params, data)
    assert np.all(np.isfinite(grad))


def test_objective_value_decomposition():
    params = _sample_params("M4")
    data = _sample_data(params, 200, seed=41)
    val = objective(params, data)
    assert isinstance(val, ObjectiveValue)
    gamma = np.asarray(params.kernel.gamma)
    assert val.penalty == pytest.approx(0.01 * float(gamma @ gamma), rel=1e-12)
    assert val.objective == pytest.approx(val.log_likelihood - val.penalty, rel=1e-12)
    assert val.log_likelihood == pytest.approx(log_likelihood(params, data), rel=1e-13)


def test_penalty_weight_rules():
    assert effective_reg_weight("M1") == 0.0
    assert effective_reg_weight("M2") == 0.0
    assert effective_reg_weight("M3") == 0.01
    assert effective_reg_weight("M4") == 0.01
    assert effective_reg_weight("M5") == 0.01
    # kernel-free variants ignore an explicit weight, kernel variants honor it
    assert effective_reg_weight("M2", 0.5) == 0.0
    assert effective_reg_weight("M3", 0.5) == 0.5
    assert effective_reg_weight("M3", 0.0) == 0.0
    with pytest.raises(ValueError):
        effective_reg_weight("M3", -0.1)


def test_objective_reg_weight_override():
    params = _sample_params("M3")
    data = _sample_data(params, 150, seed=42)
    heavy = objective(params, data, reg_weight=1.0)
    default = objective(params, data)
    assert heavy.log_likelihood == pytest.approx(default.log_likelihood, rel=1e-13)
    assert heavy.penalty == pytest.approx(100.0 * default.penalty, rel=1e-12)


def test_infeasible_kernel_raises():
    kernel = RefractoryKernel.log_spaced([-1.2])
    params = ModelParams(a=1.0, b=1.0, c=0.0, kernel=kernel)
    data = ItiSet(np.array([0.001, 0.5]))
    with pytest.raises(InfeasibleParamsError):
        log_likelihood(params, data)


# ----------------------------------------------------------------------
# gradient vs finite differences
# ----------------------------------------------------------------------


def _fd_gradient(vec: np.ndarray, variant: str, data: ItiSet) -> np.ndarray:
    out = np.empty_like(vec)
    for i in range(vec.size):
        h = 1e-5 * max(1.0, abs(vec[i]))
        up, dn = vec.copy(), vec.copy()
        up[i] += h
        dn[i] -= h
        f_up = objective(vector_to_params(up, variant), data).objective
        f_dn = objective(vector_to_params(dn, variant), data).objective
        out[i] = (f_up - f_dn) / (2.0 * h)
    return out


@pytest.mark.parametrize("variant", ["M1", "M2", "M3", "M4", "M5"])
def test_gradient_matches_finite_differences(variant):
    params = _sample_params(variant)
    data = _sample_data(params, 500, seed=50, quantize=True)
    vec = params_to_vector(params)
    analytic = gradient(params, data)
    numeric = _fd_gradient(vec, variant, data)
    floor = 1e-12 * float(np.max(np.abs(numeric)))
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), floor)
    assert float(rel.max()) < 1e-5, (variant, rel)


def test_gradient_ordering_matches_packing():
    """Perturbing one packed coordinate moves only the matching slot."""
    params = _sample_params("M2")
    data = _sample_data(params, 200, seed=51)
    grad = gradient(params, data)
    assert grad.shape == (3,)
    vec = params_to_vector(params)
    h = 1e-6
    for i in range(3):
        up = vec.copy()
        up[i] += h
        diff = (
            objective(vector_to_params(up, "M2"), data).objective
            - objective(params, data).objective
        ) / h
        assert diff == pytest.approx(grad[i], rel=5e-4, abs=1e-7)


def test_vector_objective_flags_out_of_domain():
    data = ItiSet(np.array([0.1, 0.4]))
    value, grad = _likelihood_internals._vector_objective(
        np.array([-0.2, 0.0]), "M1", data, 0.0
    )
    assert value is None and grad is None
    value, grad = _likelihood_internals._vector_objective(
        np.array([0.7, 0.0]), "M1", data, 0.0
    )
    assert value is not None and grad.shape == (2,)


def test_vector_objective_rejects_precision_loss():
    """At b = 200 the asymptotic 1F1 regime (w >= 300) cannot reach its
    accuracy; the probe must come back as out-of-domain, not raise."""
    value, grad = _likelihood_internals._vector_objective(
        np.array([0.7, 200.0, 0.0]), "M2", ItiSet(np.array([0.5, 301.0])), 0.0
    )
    assert value is None and grad is None


def test_vector_objective_rejects_rate_overflow():
    """exp(c) overflows a float at c >= 709.79; the probe is out of domain."""
    value, grad = _likelihood_internals._vector_objective(
        np.array([0.7, 710.0]), "M1", ItiSet(np.array([0.1, 0.4, 2.0])), 0.0
    )
    assert value is None and grad is None


def test_vector_objective_rejects_non_finite_objective():
    """At c = 700 a 1e10 s interval gives w ~ 1e314: the log-likelihood is
    -inf, so the probe is out of domain rather than a value to compare."""
    with np.errstate(over="ignore"):
        value, grad = _likelihood_internals._vector_objective(
            np.array([0.7, 700.0]), "M1", ItiSet(np.array([0.1, 1e10])), 0.0
        )
    assert value is None and grad is None


@pytest.mark.parametrize("variant", ["M1", "M2", "M3", "M4", "M5"])
def test_objective_value_does_not_depend_on_want_grad(variant):
    """The public value routes, which discard the gradient, return the
    fitter's value bit for bit: objective() and log_likelihood() equal what
    _vector_objective computes alongside its gradient."""
    params = _sample_params(variant)
    iv = simulate_continuous(params, 400, seed=60)
    iv = np.concatenate([np.maximum(np.rint(iv * 1000.0), 1.0) / 1000.0, [150.0, 2e4, 3e6]])
    data = ItiSet(iv)
    weight = effective_reg_weight(variant, 0.01)
    value, grad = _likelihood_internals._vector_objective(
        params_to_vector(params), variant, data, weight
    )
    assert grad is not None
    assert objective(params, data, 0.01) == value
    assert log_likelihood(params, data) == value.log_likelihood


def test_value_routes_refuse_where_the_gradient_does():
    """At a = 999, b = 1 a 300.5 s interval needs 1F1(1000, 1001; -300.5),
    whose asymptotic expansion has not settled.  Every public route raises,
    and the fitter's gate rejects the probe; the value route alone used to
    return a log-likelihood of +206.2."""
    params = ModelParams(a=999.0, b=1.0, c=0.0)
    data = ItiSet(np.array([0.5, 300.5]))
    for route in (objective, log_likelihood, gradient):
        with pytest.raises(PrecisionLossError):
            route(params, data)
    value, grad = _likelihood_internals._vector_objective(
        params_to_vector(params), "M1", data, 0.0
    )
    assert value is None and grad is None


@pytest.mark.parametrize("fixed,free", [("M1", "M2"), ("M3", "M4")])
def test_fixed_b_gradient_is_free_b_gradient_without_b(fixed, free):
    """At b = 1 a fixed-b variant and its free-b sibling describe the same
    point: equal objectives, and the same gradient once the b entry of the
    sibling's is deleted, bit for bit."""
    params = _sample_params(fixed)
    sibling = ModelParams(a=params.a, b=1.0, c=params.c, kernel=params.kernel, variant=free)
    iv = simulate_continuous(params, 400, seed=61)
    data = ItiSet(np.concatenate([iv, [150.0, 2e4]]))
    assert objective(params, data) == objective(sibling, data)
    np.testing.assert_array_equal(
        gradient(params, data), np.delete(gradient(sibling, data), 1)
    )
