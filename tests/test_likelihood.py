"""Tests for the penalized log-likelihood and its analytic gradient.

The binding check is gradient-vs-finite-differences of the scalar
objective; the likelihood value itself is tied to the marginal density
evaluated interval by interval.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from burstfit.fit import _decode, _encode, _search_objective
from burstfit.likelihood import (
    InfeasibleParamsError,
    ItiSet,
    ObjectiveValue,
    gradient,
    log_likelihood,
    objective,
)
from burstfit.model import (
    VARIANTS,
    ModelParams,
    RefractoryKernel,
    iti_density,
    refractory_eval,
    refractory_integral,
)
from burstfit.simulate import simulate_continuous
from burstfit.special import PrecisionLossError
from oracles import params_to_vector, vector_to_params

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


def test_empty_kernel_is_the_zero_kernel():
    """M1 and M3 with every amplitude 0 at the same (a, c) take one route:
    values, the shared gradient entries, densities and r and R all agree
    bit for bit, so no empty-kernel shortcut can drift from the kernel
    basis."""
    a, c = 0.63, math.log(3.7)
    empty = ModelParams(a=a, b=1.0, c=c, variant="M1")
    zero = ModelParams(a=a, b=1.0, c=c, kernel=RefractoryKernel.log_spaced(np.zeros(8)))
    assert zero.variant == "M3"
    data = ItiSet(np.concatenate([np.geomspace(1e-3, 1e6, 700), np.full(50, 0.25)]))
    assert log_likelihood(empty, data) == log_likelihood(zero, data)
    assert objective(empty, data) == objective(zero, data)
    assert np.array_equal(gradient(empty, data), gradient(zero, data)[:2])
    grid = np.concatenate([[0.0], np.geomspace(1e-4, 1e7, 300)])
    assert np.array_equal(iti_density(empty, grid), iti_density(zero, grid))
    assert np.array_equal(refractory_eval(empty.kernel, grid), refractory_eval(zero.kernel, grid))
    assert np.array_equal(
        refractory_integral(empty.kernel, grid), refractory_integral(zero.kernel, grid)
    )


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


def _gate(params: ModelParams, data: ItiSet):
    """The fitter's search gate at params' search point, and the point it
    decodes to (exp(log a) need not give back a to the last bit)."""
    spec = VARIANTS[params.variant]
    u = _encode(spec, params.a, params.b, params.c, params.kernel.gamma)
    a, b, c, gamma = _decode(u, spec)
    at = ModelParams(a, b, c, RefractoryKernel(gamma, spec.alpha), params.variant)
    value, grad, _ = _search_objective(u, params.variant, data)
    return value, grad, at


@pytest.mark.parametrize("variant", ["M1", "M2", "M3", "M4", "M5"])
def test_objective_value_does_not_depend_on_want_grad(variant):
    """The public value routes, which discard the gradient, return the
    fitter's value bit for bit: objective() and log_likelihood() equal what
    the fitter's search gate computes alongside its gradient."""
    params = _sample_params(variant)
    iv = simulate_continuous(params, 400, seed=60)
    iv = np.concatenate([np.maximum(np.rint(iv * 1000.0), 1.0) / 1000.0, [150.0, 2e4, 3e6]])
    data = ItiSet(iv)
    value, grad, at = _gate(params, data)
    assert grad is not None
    assert objective(at, data) == value
    assert log_likelihood(at, data) == value.log_likelihood


@pytest.mark.parametrize("variant", ["M1", "M2", "M3", "M4", "M5"])
def test_search_gradient_is_the_chain_rule_of_gradient(variant):
    """The search gate's gradient is gradient() at the decoded point with
    the a (and b) entry multiplied by a (and b), bit for bit: the search
    runs in log a and log b, and d/dlog a = a d/da.  The rate and kernel
    entries are gradient()'s own."""
    params = _sample_params(variant)
    data = _sample_data(params, 400, seed=62, quantize=True)
    _, grad, at = _gate(params, data)
    expected = gradient(at, data)
    expected[0] *= at.a
    if VARIANTS[variant].free_b:
        expected[1] *= at.b
    np.testing.assert_array_equal(grad, expected)


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
    value, grad, _ = _gate(params, data)
    assert value is None and grad is None


def test_b_lost_beside_a_plus_one_is_refused():
    """At a = 0.7, b = 1e-17 the 1F1 shapes a + 1 and a + b + 1 round to
    the same number.  Every route refuses naming both shapes, where the
    gradient used to come back NaN in b; the fitter's gate rejects the
    probe, which at c = 30 used to escape it as log_gamma's ValueError."""
    data = ItiSet(np.array([0.5, 3.0, 40.0]))
    for c in (0.0, 30.0):
        params = ModelParams(a=0.7, b=1e-17, c=c, variant="M2")
        for route in (objective, log_likelihood, gradient):
            with pytest.raises(PrecisionLossError, match="a=1.7, b=1.7"):
                route(params, data)
        with pytest.raises(PrecisionLossError, match="a=1.7, b=1.7"):
            iti_density(params, data.intervals)
        value, grad, _ = _gate(params, data)
        assert value is None and grad is None


def test_rate_times_integrated_rate_past_the_float_range_is_refused():
    """exp(700) times a month-long R(tau) overflows: every route raises
    OverflowError naming c, where log_likelihood used to return -inf and
    gradient NaN after overflow warnings."""
    params = ModelParams(a=0.7, b=1.0, c=700.0)
    data = ItiSet(np.array([0.5, 3e6]))
    for route in (objective, log_likelihood, gradient):
        with pytest.raises(OverflowError, match="c=700.0"):
            route(params, data)
    with pytest.raises(OverflowError, match="c=700.0"):
        iti_density(params, data.intervals)
    # a rate whose exp alone overflows is refused by the same name
    with pytest.raises(OverflowError, match="c=710.0"):
        log_likelihood(ModelParams(a=0.7, b=1.0, c=710.0), data)
    value, grad, _ = _gate(params, data)
    assert value is None and grad is None


_EDGE_SHAPES = (1e-300, 1e-17, 1e-8, 0.7, 1e3, 1e8, 1e17, 1e300)
_EDGE_RATES = (-700.0, -30.0, 0.0, 30.0, 700.0)
_EDGE_TAUS = np.array([1e-6, 1e-3, 0.01, 0.5, 3.0, 40.0, 3e6, 1e9])


def test_every_route_returns_finite_numbers_or_refuses_by_name():
    """Over 320 M2 points, a and b from 1e-300 to 1e300 and c from -700 to
    700, on intervals from 1 us to 30 years, log_likelihood, gradient and
    iti_density each return finite numbers or raise PrecisionLossError,
    InfeasibleParamsError, or an OverflowError or ValueError that names a
    parameter; no warning is raised.  112 points a route return numbers."""
    data = ItiSet(_EDGE_TAUS)
    routes = (
        lambda p: log_likelihood(p, data),
        lambda p: gradient(p, data),
        lambda p: iti_density(p, _EDGE_TAUS),
    )
    names_a_parameter = re.compile(r"\b[abc]=")
    finite = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b, c in itertools.product(_EDGE_SHAPES, _EDGE_SHAPES, _EDGE_RATES):
            params = ModelParams(a, b, c, variant="M2")
            for route in routes:
                try:
                    values = route(params)
                except (PrecisionLossError, InfeasibleParamsError):
                    continue
                except (OverflowError, ValueError) as exc:
                    assert names_a_parameter.search(str(exc)), (a, b, c, exc)
                    continue
                assert np.all(np.isfinite(values)), (a, b, c)
                finite += 1
    assert finite >= 3 * 112


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
