"""Release gate: the nine end-to-end checks the package must pass.

One test per criterion; each prints a single line with the measured
numbers next to the stated tolerance, so a ``pytest -v`` run reads as a
scorecard.  Simulation sizes, seeds, and every frozen constant below
were calibrated against independent oracles before being locked in.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from beta_oracle import beta_expectation
from burstfit import io as bio
from burstfit.cli import main as cli_main
from burstfit.fit import FitConfig, default_constraint_grid, fit
from burstfit.likelihood import ItiSet, gradient, objective
from burstfit.model import ModelParams, RefractoryKernel, iti_density, refractory_eval
from burstfit.selection import compare
from burstfit.simulate import simulate_continuous
from oracles import (
    discrete_intervals,
    feasible,
    fit_log_slope,
    iti_tail_asymptote,
    params_to_vector,
    vector_to_params,
)
from burstfit.special import digamma, kummer_1f1

# critical value scale for the Kolmogorov distribution at the 1% level
_KS_1PCT = 1.6276


def _ms_rounded(params: ModelParams, n: int, seed: int) -> ItiSet:
    """Continuous-sampler intervals pushed through the recording grid."""
    iv = simulate_continuous(params, n_events=n, seed=seed)
    taus = np.round(iv * 1000.0) / 1000.0
    return ItiSet(taus[taus > 0])


def test_criterion_1_tail_exponent():
    """Log-binned density of 1e6 sampled intervals shows the heavy-tail
    slope -(a+1) over three tail decades."""
    params = ModelParams(a=0.61, b=1.0, c=math.log(9.3))
    intervals = simulate_continuous(params, n_events=1_000_000, seed=101)
    hist = bio.log_binned_histogram(ItiSet(intervals))
    slope = fit_log_slope(hist, 10.0, 1e4)
    assert slope == pytest.approx(-1.61, abs=0.05)
    print(f"criterion 1 PASS: tail slope {slope:.4f} (want -1.61 +/- 0.05)")


def test_criterion_2_gradient_correctness():
    """Analytic objective gradients match central finite differences to
    1e-5 on ten random feasible instances spanning all five variants."""
    rng = np.random.default_rng(404)
    grid = default_constraint_grid()
    variants = ["M1", "M2", "M3", "M4", "M5"] * 2
    worst = 0.0
    for seed, variant in enumerate(variants):
        a = float(rng.uniform(0.4, 2.0))
        b = float(rng.uniform(0.6, 1.8)) if variant in ("M2", "M4", "M5") else 1.0
        rho = float(np.exp(rng.uniform(0.0, 3.0)))
        n_terms = {"M1": 0, "M2": 0, "M3": 8, "M4": 8, "M5": 12}[variant]
        if n_terms:
            while True:
                gamma = rng.uniform(-0.3, 0.4, size=n_terms)
                ok, _ = feasible(RefractoryKernel.log_spaced(gamma), grid)
                if ok:
                    break
            kernel = RefractoryKernel.log_spaced(gamma)
        else:
            kernel = RefractoryKernel.none()
        params = ModelParams(a=a, b=b, c=math.log(rho), kernel=kernel, variant=variant)
        data = ItiSet(simulate_continuous(params, n_events=500, seed=1000 + seed))

        theta = params_to_vector(params)
        analytic = gradient(params, data)
        fd = np.empty_like(theta)
        for i in range(theta.size):
            h = 1e-5 * max(1.0, abs(theta[i]))
            hi, lo = theta.copy(), theta.copy()
            hi[i] += h
            lo[i] -= h
            fd[i] = (
                objective(vector_to_params(hi, variant), data).objective
                - objective(vector_to_params(lo, variant), data).objective
            ) / (2.0 * h)
        floor = 1e-12 * float(np.max(np.abs(fd)))
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), floor)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-5
    print(f"criterion 2 PASS: worst gradient rel err {worst:.2e} (want < 1e-5)")


def test_criterion_3_parameter_recovery():
    """Fits on large synthetic sets recover the generating shape, rate,
    and rate-modulation curve; tolerances are 3x the observed spread."""
    truth = ModelParams(a=0.7, b=1.0, c=math.log(3.0))
    worst_a = worst_rho = 0.0
    for seed in range(10):
        data = _ms_rounded(truth, 200_000, seed)
        res = fit("M1", data)
        assert res.converged
        worst_a = max(worst_a, abs(res.params_star.a - 0.7))
        worst_rho = max(worst_rho, abs(res.params_star.rho - 3.0) / 3.0)
    assert worst_a <= 0.02
    assert worst_rho <= 0.05

    gamma = (0.0, 0.0, -0.30, -0.40, -0.26, 0.0, 0.0, 0.0)
    truth3 = ModelParams(
        a=0.7, b=1.0, c=math.log(8.0), kernel=RefractoryKernel.log_spaced(gamma)
    )
    data3 = _ms_rounded(truth3, 500_000, seed=31)
    res3 = fit("M3", data3)
    assert res3.converged
    taus = np.geomspace(0.010, 2.0, 200)
    sup = float(
        np.max(
            np.abs(
                refractory_eval(res3.params_star.kernel, taus)
                - refractory_eval(truth3.kernel, taus)
            )
        )
    )
    assert sup <= 0.1
    print(
        f"criterion 3 PASS: a err {worst_a:.4f} (<=0.02), rho err {worst_rho:.2%} "
        f"(<=5%), kernel sup err {sup:.4f} (<=0.1)"
    )


def test_criterion_4_model_selection():
    """With a strongly suppressive modulation in the data, the kernel
    variant beats both kernel-free variants by a decisive BIC margin."""
    gamma = (0.0, 0.0, -0.30, -0.40, -0.26, 0.0, 0.0, 0.0)
    truth = ModelParams(
        a=0.7, b=1.0, c=math.log(8.0), kernel=RefractoryKernel.log_spaced(gamma)
    )
    assert refractory_eval(truth.kernel, 0.010) == pytest.approx(0.1, abs=0.01)
    data = _ms_rounded(truth, 100_000, seed=21)
    results = {v: fit(v, data) for v in ("M1", "M2", "M3")}
    matrix = compare(results)
    d31 = matrix.delta("M3", "M1")
    d32 = matrix.delta("M3", "M2")
    assert d31 < -10.0 and matrix.favored("M3", "M1") == "i_favored"
    assert d32 < -10.0 and matrix.favored("M3", "M2") == "i_favored"
    print(
        f"criterion 4 PASS: dBIC(M3-M1) {d31:.1f}, dBIC(M3-M2) {d32:.1f} (want < -10)"
    )


def _model_cdf(params: ModelParams, taus: np.ndarray) -> np.ndarray:
    return 1.0 - kummer_1f1(params.a, params.a + params.b, -params.rho * taus)


def test_criterion_5_discrete_continuous_equivalence():
    """The binned chain and the exact sampler draw from the same law, and
    the chain's discretization error scales linearly in the bin width."""
    params = ModelParams(a=0.61, b=1.0, c=math.log(9.3))
    cont = simulate_continuous(params, n_events=200_000, seed=51)
    disc = discrete_intervals(params, seed=52, dt=0.5e-3, n_events=200_001)
    n, m = cont.size, disc.size
    both = np.sort(np.concatenate([cont, disc]))
    cdf_c = np.searchsorted(np.sort(cont), both, side="right") / n
    cdf_d = np.searchsorted(np.sort(disc), both, side="right") / m
    ks2 = float(np.max(np.abs(cdf_c - cdf_d)))
    crit = _KS_1PCT * math.sqrt((n + m) / (n * m))
    assert ks2 < crit

    ks_by_dt = {}
    for dt in (4e-3, 2e-3, 1e-3):
        draws = np.sort(discrete_intervals(params, seed=53, dt=dt, n_events=200_001))
        grid = np.unique(draws)
        hi = np.searchsorted(draws, grid, side="right") / draws.size
        lo = np.searchsorted(draws, grid, side="left") / draws.size
        model = _model_cdf(params, grid)
        ks_by_dt[dt] = float(np.max(np.maximum(np.abs(hi - model), np.abs(lo - model))))
    # measured ratios 1.99 and 2.00 at these seeds; the band allows the
    # residual sampling noise around exact halving
    r1 = ks_by_dt[4e-3] / ks_by_dt[2e-3]
    r2 = ks_by_dt[2e-3] / ks_by_dt[1e-3]
    assert 1.6 < r1 < 2.4
    assert 1.6 < r2 < 2.4
    print(
        f"criterion 5 PASS: two-sample KS {ks2:.5f} < {crit:.5f}; "
        f"halving ratios {r1:.2f}, {r2:.2f} (want ~2)"
    )


def test_criterion_6_density_normalization():
    """The interval density integrates to one for random feasible
    parameter sets, with and without rate modulation."""
    nodes, weights = np.polynomial.legendre.leggauss(30)
    dec = math.log(10.0)

    def integral(params: ModelParams) -> float:
        total = 0.0
        for d in range(40):
            u0 = math.log(1e-9) + d * dec
            u = u0 + (nodes + 1.0) * 0.5 * dec
            tau = np.exp(u)
            total += float(np.sum(weights * iti_density(params, tau) * tau)) * 0.5 * dec
            hi = math.exp(u0 + dec)
            # remaining mass, bounded by the analytic power-law tail
            rem = float(iti_tail_asymptote(params, hi)) * hi / params.a
            if hi > 10.0 / params.rho and rem < 1e-6:
                return total + rem
        raise AssertionError("tail failed to converge")

    rng = np.random.default_rng(2026)
    grid = default_constraint_grid()
    worst = 0.0
    for i in range(20):
        a = float(rng.uniform(0.3, 3.0))
        b = float(rng.uniform(0.5, 2.0))
        rho = float(np.exp(rng.uniform(math.log(0.5), math.log(50.0))))
        if i % 2 == 0:
            kernel = RefractoryKernel.none()
        else:
            while True:
                gamma = rng.uniform(-0.35, 0.5, size=8)
                ok, _ = feasible(RefractoryKernel.log_spaced(gamma), grid)
                if ok:
                    break
            kernel = RefractoryKernel.log_spaced(gamma)
        params = ModelParams(a=a, b=b, c=math.log(rho), kernel=kernel)
        worst = max(worst, abs(integral(params) - 1.0))
    assert worst < 1e-4
    print(f"criterion 6 PASS: worst |integral - 1| = {worst:.2e} (want < 1e-4)")


def test_criterion_7_priority_scale_invariance():
    """The two-Beta generalization of the density, evaluated by direct
    double quadrature, is unchanged when both priority shapes are scaled
    by the same factor."""
    mp.mp.dps = 20

    def two_beta_density(tau, a, a_prime, rho):
        a, ap = mp.mpf(a), mp.mpf(a_prime)
        w = mp.mpf(rho) * mp.mpf(tau)

        def outer(x):
            win_prob = mp.quad(lambda y: ap * y ** (ap - 1), [0, x])
            return a * x ** (a - 1) * win_prob * mp.e ** (-w * win_prob)

        return mp.mpf(rho) * mp.quad(outer, [0, 1])

    rho = 9.3
    taus = [0.01, 0.5, 10.0, 200.0]
    base = [two_beta_density(t, 0.61, 1.0, rho) for t in taus]

    # at a'=1 the competitor is uniform and the oracle must agree with
    # the production density
    params = ModelParams(a=0.61, b=1.0, c=math.log(rho))
    production = iti_density(params, np.array(taus))
    for oracle_val, prod_val in zip(base, production):
        assert abs(float(oracle_val) - prod_val) / prod_val < 1e-9

    worst = 0.0
    for k in (0.5, 2.0, 3.0):
        scaled = [two_beta_density(t, 0.61 * k, 1.0 * k, rho) for t in taus]
        worst = max(
            worst, max(abs(float((s - b) / b)) for s, b in zip(scaled, base))
        )
    assert worst < 1e-6
    print(f"criterion 7 PASS: worst scale-invariance deviation {worst:.2e} (want < 1e-6)")


def test_criterion_8_special_function_accuracy():
    """The 1F1 evaluator against its Beta-average integral representation
    over twelve decades of argument, plus digamma and regime continuity."""
    worst = 0.0
    for a, b in ((0.61, 1.61), (1.7, 2.7), (2.3, 5.9), (0.35, 1.9)):
        for w in np.geomspace(1e-2, 1e6, 13):
            oracle = beta_expectation(lambda x: np.exp(-w * x), a, b - a, 2000)
            value = kummer_1f1(a, b, -w)
            worst = max(worst, abs(value - oracle) / abs(oracle))
    assert worst < 1e-6

    rng = np.random.default_rng(77)
    x = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), size=500))
    worst_psi = max(
        abs(digamma(xi + 1.0) - (digamma(xi) + 1.0 / xi))
        / max(abs(digamma(xi + 1.0)), 1.0)
        for xi in x
    )
    assert worst_psi < 1e-10

    worst_cross = 0.0
    for a, b in ((0.61, 1.61), (1.7, 2.7), (2.3, 5.9)):
        for w in (300.0,):
            below = kummer_1f1(a, b, -w * (1.0 - 1e-9))
            above = kummer_1f1(a, b, -w * (1.0 + 1e-9))
            worst_cross = max(worst_cross, abs(above - below) / abs(below))
    assert worst_cross < 1e-6
    print(
        f"criterion 8 PASS: 1F1 vs integral rep {worst:.2e} (<1e-6), "
        f"digamma recurrence {worst_psi:.2e} (<1e-10), crossover {worst_cross:.2e} (<1e-6)"
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Two identical seeded pipeline runs produce byte-identical
    artifacts, and fit serialization is a lossless round trip."""

    def run(workdir):
        workdir.mkdir()
        sim = workdir / "sim.txt"
        cli_main([
            "simulate", "--a", "0.8", "--rho", "3", "--events", "1500",
            "--seed", "9", "--out", str(sim),
        ])
        cfg = workdir / "fit.cfg"
        cfg.write_text("seed=5\n")
        arts = []
        for variant in ("M1", "M2"):
            art = workdir / f"{variant}.json"
            cli_main([
                "fit", "--variant", variant, "--in", str(sim),
                "--config", str(cfg), "--out", str(art),
            ])
            arts.append(art)
        cmp_path = workdir / "cmp.json"
        cli_main(["compare", "--fits", *map(str, arts), "--out", str(cmp_path)])
        return [sim, *arts, cmp_path]

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    for f1, f2 in zip(first, second):
        assert f1.read_bytes() == f2.read_bytes(), f1.name

    text = first[1].read_text()
    result = bio.deserialize_fit(text)
    assert bio.serialize_fit(result) == text
    assert bio.deserialize_fit(bio.serialize_fit(result)) == result
    doc = json.loads(first[3].read_text())
    assert doc["format"] == "burstfit-comparison"
    print("criterion 9 PASS: pipeline byte-identical across runs; serialization lossless")
