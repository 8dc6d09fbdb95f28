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


_TINY_B_TAUS = np.array([1e-3, 0.5, 3.0, 40.0, 1e6])
_LOG_10 = math.log(10.0)

# (b, c, log-likelihood, gradient in (a, b, c), density at _TINY_B_TAUS)
# of M2 at a = 0.7 on the intervals _TINY_B_TAUS.  Frozen from mpmath at
# 25 + log10((a+b)/b) + 15 digits (derivatives by mpmath.diff, the one in
# b taken in log b so its step never crosses 0).  At c = log 10 the 40 s
# interval has w = 400, past the asymptotic switch, where at b = 1e-300
# the exponential law still outweighs the power law.
_TINY_B_ROWS = [
    (1e-08, 0.0, -70.246779521941863, (-17.060391062705556, 199999974.74644258, -1.9480487412697684), (0.99900048556781705, 0.60653065301315763, 0.049787069495856079, 1.7959088195838393e-11, 5.7331325292115855e-19)),
    (1e-08, _LOG_10, -92.346775967849147, (-24.835832073456389, 299686549.60951669, -5.2679958052639388), (9.9004981966394568, 0.067379477923177773, 2.9852805278989715e-10, 3.4414670838422334e-12, 1.1439085780408021e-19)),
    (1e-17, 0.0, -106.22290213299323, (-13.62149892866479, 1.0042095089231642e+17, -40.039975515419129), (0.99900049983337498, 0.60653065971263342, 0.049787068367863944, 4.2663133393626507e-18, 5.7331325660647112e-28)),
    (1e-17, _LOG_10, -139.55856511301112, (-21.689948291651313, 2.0000003180211459e+17, -33.414281018529461), (9.9004983374916825, 0.06737946999085462, 9.3576259447630416e-13, 3.441467106111386e-21, 1.1439085853939386e-28)),
    (1e-300, 0.0, -757.85870184415689, (-13.60696168308808, 9.9999999999999997e+299, -40.20100170000629), (0.99900049983337499, 0.60653065971263342, 0.049787068367863943, 4.248354255291589e-18, 5.733132566064711e-311)),
    (1e-300, _LOG_10, -1141.7691725672797, (-15.909547676084799, 9.9999999999999997e+299, -431.71000017000016), (9.9004983374916827, 0.067379469990854612, 9.3576229688401157e-13, 1.9151695967138398e-173, 1.1439085853939386e-311)),
]


@pytest.mark.parametrize("b,c,loglik,grad,dens", _TINY_B_ROWS)
def test_every_route_answers_with_b_below_an_ulp_of_a_plus_one(b, c, loglik, grad, dens):
    """Where a + b + 1 rounds to a + 1 every route used to refuse, and at
    b = 1e-8 lost up to 7.7e-10 of the log-likelihood to a shape gap
    rebuilt from that sum.  objective, log_likelihood, gradient,
    iti_density and the fitter's gate (whose shape entries are a d/da and
    b d/db) now all match mpmath."""
    params = ModelParams(a=0.7, b=b, c=c, variant="M2")
    data = ItiSet(_TINY_B_TAUS)
    close = dict(rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(log_likelihood(params, data), loglik, **close)
    np.testing.assert_allclose(objective(params, data).objective, loglik, **close)
    np.testing.assert_allclose(gradient(params, data), grad, **close)
    np.testing.assert_allclose(iti_density(params, _TINY_B_TAUS), dens, **close)
    value, search_grad, at = _gate(params, data)
    np.testing.assert_allclose(value.objective, loglik, **close)
    np.testing.assert_allclose(
        search_grad, [at.a * grad[0], at.b * grad[1], grad[2]], **close
    )


# (a, b, c, log-likelihood, gradient in (a, b, c)) of M2 on the intervals
# _TINY_B_TAUS, where b is far below an ulp of a.  Frozen from mpmath as
# _TINY_B_ROWS are.
_TINY_B_A_SCORE_ROWS = [
    (0.7, 1e-300, -700.0, -3500.0, (1.0204081632653063e-299, -7.1428571428571433, 5.0)),
    (1e3, 1e-17, -30.0, -150.0000000935803, (4.9999999066065802e-23, -0.0049999999065131865, 4.9999999064196997)),
]


@pytest.mark.parametrize("a,b,c,loglik,grad", _TINY_B_A_SCORE_ROWS)
def test_a_score_keeps_its_digits_with_b_far_below_an_ulp_of_a(a, b, c, loglik, grad):
    """The a score's b/(a(a+b)) is summed as b/(a+b)/a.  Formed as
    1/a - 1/(a+b) it lost every digit: the a entry read 0 at the first
    row and -9.3e-31, the wrong sign, at the second."""
    params = ModelParams(a=a, b=b, c=c, variant="M2")
    data = ItiSet(_TINY_B_TAUS)
    close = dict(rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(log_likelihood(params, data), loglik, **close)
    np.testing.assert_allclose(gradient(params, data), grad, **close)


def test_b_at_the_bottom_of_the_float_range_is_refused():
    """Below 2**-1024, 1/b overflows, and with it the b derivative the
    1F1 pass returns: every route refuses naming b's value, where the
    pass would warn of overflow and hand back inf and NaN.  At b = 1e-308
    1/b is finite, but three power-law intervals sum d/db past the float
    range, and every route raises OverflowError naming b, where the sum
    warned of overflow in matmul.  The fitter's gate rejects both."""
    data = ItiSet(_TINY_B_TAUS)
    params = ModelParams(a=0.7, b=5e-324, c=0.0, variant="M2")
    for route in (objective, log_likelihood, gradient):
        with pytest.raises(PrecisionLossError, match="q=5e-324"):
            route(params, data)
    with pytest.raises(PrecisionLossError, match="q=5e-324"):
        iti_density(params, _TINY_B_TAUS)
    value, grad, _ = _gate(params, data)
    assert value is None and grad is None
    params = ModelParams(a=0.7, b=1e-308, c=0.0, variant="M2")
    data = ItiSet(np.array([1e6, 2e6, 3e6]))
    for route in (objective, log_likelihood, gradient):
        with pytest.raises(OverflowError, match="b=1e-308"):
            route(params, data)
    value, grad, _ = _gate(params, data)
    assert value is None and grad is None


def test_b_gradient_matches_central_differences_in_log_b():
    """M2 at a = 0.7, b = 1e-8 on intervals from 1 ms to 1e6 s, across
    the crossover from the exponential to the power law: the search
    gate's b entry, b d/db, against a central difference of the objective
    in log b.  With b rebuilt from a + b + 1 the objective moved in steps
    of that sum's ulp, and the two disagreed by 2e-5."""
    spec = VARIANTS["M2"]
    data = ItiSet(np.array([1e-3, 0.5, 3.0, 40.0, 400.0, 1e6]))
    u = _encode(spec, 0.7, 1e-8, 0.0, ())
    grad = _search_objective(u, "M2", data)[1]
    h = 1e-4
    ends = []
    for step in (h, -h):
        v = u.copy()
        v[1] += step
        ends.append(_search_objective(v, "M2", data)[0].objective)
    assert grad[1] == pytest.approx((ends[0] - ends[1]) / (2.0 * h), rel=1e-8)


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
    # an empty grid is refused by the same name, not by exp(c) in rho
    with pytest.raises(OverflowError, match="c=720.0"):
        iti_density(ModelParams(a=0.7, b=1.0, c=720.0), np.array([]))
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
    parameter; no warning is raised.  178 points a route return numbers,
    66 more than when b was rebuilt from a + b + 1 and lost below an ulp."""
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
    assert finite >= 3 * 178


def test_stopped_asymptotic_rows_are_refused_not_overflowed():
    """At b = 7.7e7 the truncation of the asymptotic 1F1 sums stops these
    rows early, and the pass used to go on multiplying their terms until
    they overflowed: every route raised an overflow RuntimeWarning, which
    the fitter's gate does not catch, instead of refusing.  A cold M5 fit
    reaches such a point when its direction cap is off."""
    params = ModelParams(a=0.7353624116705884, b=77214160.44987537, c=0.0)
    data = ItiSet([6283.742737235881, 133946238.19687559, 134337045.2479499])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (log_likelihood, gradient):
            with pytest.raises(PrecisionLossError):
                route(params, data)
        with pytest.raises(PrecisionLossError):
            iti_density(params, data.intervals)


def test_integrated_rate_at_or_below_zero_is_infeasible():
    """A strong fast dip keeps r(tau) positive at 60 ms but drives R(tau)
    below zero there: every likelihood route refuses the point by name."""
    kernel = RefractoryKernel.log_spaced([-3.0] + [0.0] * 7)
    params = ModelParams(a=0.7, b=1.0, c=0.0, kernel=kernel, variant="M3")
    assert refractory_eval(kernel, 0.06) > 0.0
    assert refractory_integral(kernel, 0.06) < 0.0
    data = ItiSet([0.06])
    for route in (log_likelihood, objective, gradient):
        with pytest.raises(InfeasibleParamsError, match=r"R\(tau\) <= 0"):
            route(params, data)


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
