"""Tests for parameter types, the recovery kernel, analytic densities and
the power-law tail.

Density reference values were computed offline at 40 significant digits
from the closed form rho r(tau) [a/(a+b)] M(a+1, a+b+1; -rho R(tau)) with
r and R evaluated symbolically, and are frozen as literals.
"""

import math

import numpy as np
import pytest

from beta_oracle import beta_expectation
from burstfit.model import (
    VARIANTS,
    ModelParams,
    RefractoryKernel,
    iti_density,
    iti_tail_asymptote,
    params_to_vector,
    refractory_eval,
    refractory_integral,
    vector_to_params,
)
from burstfit.special import PrecisionLossError

# geometric step between decay rates: 20^(1/7) for 8 terms spanning
# 50 ms..1 s, 30^(1/11) for 12 terms spanning 50 ms..1.5 s
SPACING_8 = 1.534127404634391
SPACING_12 = 1.3623344859430984


# ----------------------------------------------------------------------
# RefractoryKernel
# ----------------------------------------------------------------------


def test_empty_kernel():
    k = RefractoryKernel.none()
    assert k.n == 0
    assert refractory_eval(k, 0.3) == 1.0
    assert refractory_integral(k, 2.5) == 2.5


def test_log_spaced_eight_terms():
    k = RefractoryKernel.log_spaced(np.zeros(8))
    assert k.n == 8
    assert k.alpha[0] == pytest.approx(20.0, rel=1e-14)
    assert k.alpha[-1] == pytest.approx(1.0, rel=1e-13)
    ratios = np.asarray(k.alpha[:-1]) / np.asarray(k.alpha[1:])
    np.testing.assert_allclose(ratios, SPACING_8, rtol=1e-12)
    assert all(a1 > a2 for a1, a2 in zip(k.alpha, k.alpha[1:]))


def test_log_spaced_twelve_terms():
    k = RefractoryKernel.log_spaced(np.zeros(12))
    assert k.n == 12
    assert k.alpha[0] == pytest.approx(20.0, rel=1e-14)
    assert k.alpha[-1] == pytest.approx(1.0 / 1.5, rel=1e-13)
    ratios = np.asarray(k.alpha[:-1]) / np.asarray(k.alpha[1:])
    np.testing.assert_allclose(ratios, SPACING_12, rtol=1e-12)


def test_log_spaced_other_sizes_need_explicit_span():
    with pytest.raises(ValueError, match="slowest_timescale"):
        RefractoryKernel.log_spaced(np.zeros(5))
    k = RefractoryKernel.log_spaced(np.zeros(5), slowest_timescale=0.8)
    assert k.alpha[0] == pytest.approx(20.0)
    assert k.alpha[-1] == pytest.approx(1.25)


def test_log_spaced_single_term_sits_at_fastest_timescale():
    k = RefractoryKernel.log_spaced([-0.5], fastest_timescale=0.05)
    assert k.alpha == (20.0,)


def test_kernel_validation():
    with pytest.raises(ValueError):
        RefractoryKernel((0.1, 0.2), (20.0,))
    with pytest.raises(ValueError):
        RefractoryKernel((float("nan"),), (20.0,))
    with pytest.raises(ValueError):
        RefractoryKernel((0.1, 0.2), (1.0, 20.0))  # must decrease
    with pytest.raises(ValueError):
        RefractoryKernel((0.1,), (-3.0,))
    with pytest.raises(ValueError):
        RefractoryKernel.log_spaced(np.zeros(3), fastest_timescale=0.5, slowest_timescale=0.1)


def test_refractory_eval_single_term():
    k = RefractoryKernel.log_spaced([-0.5], fastest_timescale=0.05)
    assert refractory_eval(k, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert refractory_eval(k, 50.0) == pytest.approx(1.0, rel=1e-12)
    got = refractory_eval(k, np.array([0.0, 0.05, 0.1]))
    want = 1.0 - 0.5 * np.exp(-20.0 * np.array([0.0, 0.05, 0.1]))
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_refractory_eval_negative_values_survive():
    """An infeasible kernel must report its negativity, not hide it."""
    k = RefractoryKernel.log_spaced([-2.0], fastest_timescale=0.05)
    assert refractory_eval(k, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_refractory_eval_clamps_rounding_dust():
    k = RefractoryKernel.log_spaced([-1.0 - 5e-13], fastest_timescale=0.05)
    assert refractory_eval(k, 0.0) == 0.0


def test_refractory_integral_single_term():
    k = RefractoryKernel.log_spaced([-0.5], fastest_timescale=0.05)
    # frozen value of 0.05 - 0.025 (1 - e^-1), cross-checked by direct
    # numerical integration of r below
    assert refractory_integral(k, 0.05) == pytest.approx(0.034196986029286058, rel=1e-14)
    assert refractory_integral(k, 60.0) == pytest.approx(60.0 - 0.025, rel=1e-13)


def test_refractory_integral_matches_numeric_integration():
    """R(tau) is the running integral of r, checked by dense trapezoids."""
    k = RefractoryKernel.log_spaced([-0.5, -0.2, 0.0, 0.1, 0.0, 0.0, 0.0, 0.05])
    grid = np.linspace(0.0, 3.0, 300_001)
    r = refractory_eval(k, grid)
    numeric = np.concatenate(([0.0], np.cumsum((r[1:] + r[:-1]) * 0.5 * np.diff(grid))))
    for idx in (0, 1000, 10_000, 100_000, 300_000):
        # tolerance set by the trapezoid rule's own curvature bias
        assert refractory_integral(k, float(grid[idx])) == pytest.approx(
            numeric[idx], rel=1e-7, abs=1e-10
        )


def test_refractory_integral_monotone_for_feasible_kernel():
    k = RefractoryKernel.log_spaced([-0.9, 0.4, -0.1, 0.2, 0.0, 0.0, 0.1, -0.3])
    tau = np.geomspace(1e-4, 50.0, 400)
    assert refractory_eval(k, tau).min() >= 0.0
    big_r = refractory_integral(k, tau)
    assert np.all(np.diff(big_r) > 0.0)


# ----------------------------------------------------------------------
# ModelParams and variants
# ----------------------------------------------------------------------


def test_variant_table():
    assert set(VARIANTS) == {"M1", "M2", "M3", "M4", "M5"}
    expect = {
        "M1": (2, False, 0),
        "M2": (3, True, 0),
        "M3": (10, False, 8),
        "M4": (11, True, 8),
        "M5": (15, True, 12),
    }
    for name, (n_params, free_b, n_kernel) in expect.items():
        spec = VARIANTS[name]
        assert spec.n_params == n_params
        assert spec.free_b is free_b
        assert spec.n_kernel_terms == n_kernel
    # the penalty only exists for variants that have kernel amplitudes
    assert VARIANTS["M1"].reg_weight == 0.0
    assert VARIANTS["M2"].reg_weight == 0.0
    assert VARIANTS["M3"].reg_weight == VARIANTS["M4"].reg_weight == VARIANTS["M5"].reg_weight == 0.01


def test_params_variant_inference():
    assert ModelParams(a=0.7, b=1.0, c=0.0).variant == "M1"
    assert ModelParams(a=0.7, b=1.4, c=0.0).variant == "M2"
    k8 = RefractoryKernel.log_spaced(np.zeros(8))
    assert ModelParams(a=0.7, b=1.0, c=0.0, kernel=k8).variant == "M3"
    assert ModelParams(a=0.7, b=1.4, c=0.0, kernel=k8).variant == "M4"
    k12 = RefractoryKernel.log_spaced(np.zeros(12))
    assert ModelParams(a=0.7, b=1.4, c=0.0, kernel=k12).variant == "M5"
    k1 = RefractoryKernel.log_spaced([-0.5])
    assert ModelParams(a=0.7, b=1.0, c=0.0, kernel=k1).variant == "custom"


def test_params_kernel_rates_must_match_variant():
    """A kernel of a variant's size on another rate bank is not that variant."""
    kernel = RefractoryKernel.log_spaced([-0.1] * 8, slowest_timescale=3.0)
    assert ModelParams(a=0.7, b=1.0, c=0.0, kernel=kernel).variant == "custom"
    with pytest.raises(ValueError, match="rates"):
        ModelParams(a=0.7, b=1.0, c=0.0, kernel=kernel, variant="M3")


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(a=0.0, b=1.0, c=0.0)
    with pytest.raises(ValueError):
        ModelParams(a=1.0, b=-0.2, c=0.0)
    with pytest.raises(ValueError):
        ModelParams(a=1.0, b=1.0, c=float("inf"))
    with pytest.raises(ValueError):
        ModelParams(a=1.0, b=2.0, c=0.0, variant="M1")  # M1 fixes b = 1
    with pytest.raises(ValueError):
        ModelParams(a=1.0, b=1.0, c=0.0, variant="M3")  # M3 needs 8 terms
    with pytest.raises(ValueError):
        ModelParams(a=1.0, b=1.0, c=0.0, variant="M9")


def test_rho_is_exp_c():
    assert ModelParams(a=1.0, b=1.0, c=0.0).rho == 1.0
    assert ModelParams(a=1.0, b=1.0, c=math.log(9.3)).rho == pytest.approx(9.3, rel=1e-15)


def test_vector_round_trip_all_variants():
    rng = np.random.default_rng(3)
    for name, spec in VARIANTS.items():
        vec = np.empty(spec.n_params)
        vec[0] = rng.uniform(0.3, 3.0)
        i = 1
        if spec.free_b:
            vec[i] = rng.uniform(0.3, 3.0)
            i += 1
        vec[i] = rng.uniform(-2.0, 3.0)
        vec[i + 1 :] = rng.uniform(-0.1, 0.1, size=spec.n_kernel_terms)
        params = vector_to_params(vec, name)
        assert params.variant == name
        np.testing.assert_allclose(params_to_vector(params), vec, rtol=0, atol=0)


def test_variant_codec_agrees_with_table():
    """The packed vector's length and kernel bank come from the variant table."""
    for name, spec in VARIANTS.items():
        vec = np.full(spec.n_params, 0.5)
        assert vector_to_params(vec, name).kernel.alpha == spec.alpha
        assert spec.alpha == RefractoryKernel.log_spaced(np.zeros(spec.n_kernel_terms)).alpha


def test_vector_packing_errors():
    with pytest.raises(ValueError):
        vector_to_params(np.zeros(3), "M1")
    k1 = RefractoryKernel.log_spaced([-0.5])
    custom = ModelParams(a=0.7, b=1.0, c=0.0, kernel=k1)
    with pytest.raises(ValueError):
        params_to_vector(custom)


# ----------------------------------------------------------------------
# densities
# ----------------------------------------------------------------------


def _unit_exp_params():
    return ModelParams(a=1.0, b=1.0, c=0.0)


def _conditional_density(params, x, tau):
    """Interval density at fixed priority x: rho x r(tau) exp(-rho x R(tau)).

    A test oracle built from the public kernel functions; the closed-form
    marginal must equal its average over the Beta priority.
    """
    rate = params.rho * np.asarray(x, dtype=float)
    r = refractory_eval(params.kernel, tau)
    big_r = refractory_integral(params.kernel, tau)
    return rate * r * np.exp(-rate * big_r)


def test_conditional_density_closed_form():
    p = _unit_exp_params()
    assert _conditional_density(p, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert _conditional_density(p, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    # only the product rho x matters without a kernel
    p2 = ModelParams(a=1.0, b=1.0, c=math.log(2.0))
    assert _conditional_density(p2, 0.5, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_marginal_density_at_origin():
    assert iti_density(_unit_exp_params(), 0.0) == pytest.approx(0.5, rel=1e-14)
    p = ModelParams(a=0.61, b=1.0, c=math.log(9.3))
    assert iti_density(p, 0.0) == pytest.approx(9.3 * 0.61 / 1.61, rel=1e-13)


def test_marginal_density_frozen_values_no_kernel():
    cases = [
        # (a, b, rho, tau, p)   p = 1 - 2/e at the first row
        (1.0, 1.0, 1.0, 1.0, 0.26424111765711536),
        (0.61, 1.0, 9.3, 1000.0, 2.0712058347033633e-6),
        (2.4, 0.8, 12.0, 0.07, 4.6102700472574881),
    ]
    for a, b, rho, tau, want in cases:
        p = ModelParams(a=a, b=b, c=math.log(rho))
        assert iti_density(p, tau) == pytest.approx(want, rel=1e-12)


_SUPPRESSIVE_GAMMA = (-0.5, -0.2, 0.0, 0.1, 0.0, 0.0, 0.0, 0.05)


def test_marginal_density_frozen_values_with_kernel():
    p = ModelParams(
        a=0.7,
        b=1.3,
        c=math.log(4.0),
        kernel=RefractoryKernel.log_spaced(_SUPPRESSIVE_GAMMA),
    )
    cases = [
        (0.02, 0.88640129644588034),
        (0.3, 0.79872679715919846),
        (5.0, 0.01848193592317588),
    ]
    for tau, want in cases:
        assert iti_density(p, tau) == pytest.approx(want, rel=1e-12)
    got = iti_density(p, np.array([t for t, _ in cases]))
    np.testing.assert_allclose(got, [w for _, w in cases], rtol=1e-12)


def test_marginal_density_rejects_infeasible_kernel():
    p = ModelParams(a=1.0, b=1.0, c=0.0, kernel=RefractoryKernel.log_spaced([-2.0]))
    with pytest.raises(ValueError, match="infeasible"):
        iti_density(p, np.geomspace(1e-3, 1.0, 50))


def test_marginal_density_refuses_unsettled_large_shape():
    """At a = 999, b = 1 and tau = 300.5 the density needs 1F1(1000, 1001;
    -300.5), where the asymptotic expansion has not settled; it raises
    rather than return a value 1e+220 too large."""
    with pytest.raises(PrecisionLossError):
        iti_density(ModelParams(a=999.0, b=1.0, c=0.0), 300.5)


def test_marginal_equals_priority_average_of_conditional():
    """The closed form agrees with explicitly averaging the conditional
    density over the priority distribution, across nine decades of tau."""
    kernels = [RefractoryKernel.none(), RefractoryKernel.log_spaced(_SUPPRESSIVE_GAMMA)]
    for kernel in kernels:
        for a, b, rho in [(0.61, 1.0, 9.3), (1.7, 2.4, 0.8), (0.35, 0.7, 3.0)]:
            p = ModelParams(a=a, b=b, c=math.log(rho), kernel=kernel, variant="custom")
            for tau in np.geomspace(1e-3, 1e5, 17):
                direct = iti_density(p, float(tau))
                averaged = beta_expectation(
                    lambda x_arr: _conditional_density(p, x_arr, float(tau)), a, b
                )
                assert direct == pytest.approx(averaged, rel=1e-6), (kernel.n, a, b, rho, tau)


# ----------------------------------------------------------------------
# tail behaviour
# ----------------------------------------------------------------------


def test_tail_asymptote_unit_case():
    assert iti_tail_asymptote(_unit_exp_params(), 10.0) == pytest.approx(0.01, rel=1e-14)


def test_tail_asymptote_log_slope_is_minus_a_plus_one():
    p = ModelParams(a=0.61, b=1.0, c=math.log(9.3))
    t1, t2 = 50.0, 500.0
    slope = math.log(iti_tail_asymptote(p, t2) / iti_tail_asymptote(p, t1)) / math.log(t2 / t1)
    assert slope == pytest.approx(-1.61, rel=1e-13)


def test_tail_asymptote_matches_density_far_out():
    p = ModelParams(a=0.61, b=1.0, c=math.log(9.3))
    # with b = 1 the density approaches the power law exponentially fast
    assert iti_density(p, 1000.0) == pytest.approx(
        iti_tail_asymptote(p, 1000.0), rel=1e-10
    )
    # the 5%-level agreement already holds at tau = 100
    assert iti_density(p, 100.0) == pytest.approx(iti_tail_asymptote(p, 100.0), rel=0.05)


def test_tail_convergence_onset_and_monotone_approach():
    """|density/asymptote - 1| < 1% once rho tau > 1000 (a+1), then shrinks."""
    for a, b, rho in [(0.8, 1.4, 2.0), (0.61, 2.0, 9.3), (1.5, 0.7, 1.0)]:
        p = ModelParams(a=a, b=b, c=math.log(rho))
        tau_min = 1000.0 * (a + 1.0) / rho
        taus = tau_min * np.array([1.0, 3.0, 10.0, 100.0])
        gaps = np.array(
            [abs(iti_density(p, float(t)) / iti_tail_asymptote(p, float(t)) - 1.0) for t in taus]
        )
        assert gaps[0] < 0.01
        assert np.all(np.diff(gaps) < 0.0)


def test_tail_asymptote_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        iti_tail_asymptote(_unit_exp_params(), 0.0)
