"""End-to-end tests of the command-line entry points, run in process
(the import-cost check alone starts a fresh interpreter)."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burstfit
from burstfit.cli import main
from burstfit.fit import FitConfig, FitResult
from burstfit.io import (
    compute_itis,
    deserialize_fit,
    load_timestamps,
    log_binned_histogram,
    serialize_fit,
)
from burstfit.likelihood import ItiSet, ObjectiveValue
from burstfit.model import ModelParams, refractory_eval


def _truth_artifact(path, params: ModelParams, data) -> None:
    """Package known-true parameters as a fit artifact for the eval commands."""
    value = ObjectiveValue(0.0, 0.0, 0.0)
    result = FitResult(
        params_star=params,
        objective_trace=(value,),
        converged=True,
        reason="gradient tolerance",
        n_projections=0,
        bic=0.0,
        n_data=data.n,
        data_digest=data.digest,
    )
    path.write_text(serialize_fit(result))


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def test_simulate_writes_requested_events(tmp_path, capsys):
    out = tmp_path / "sim.txt"
    rc = main(["simulate", "--events", "500", "--seed", "3", "--out", str(out)])
    assert rc == 0
    train = load_timestamps(out)
    assert train.n_events == 500
    summary = capsys.readouterr().out
    assert "events=500" in summary and "rate=" in summary


def test_simulate_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    flags = ["simulate", "--a", "0.9", "--rho", "4", "--events", "400"]
    assert main(flags + ["--seed", "12", "--out", str(a)]) == 0
    assert main(flags + ["--seed", "12", "--out", str(b)]) == 0
    assert main(flags + ["--seed", "13", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_discrete_duration(tmp_path):
    out = tmp_path / "disc.txt"
    rc = main([
        "simulate", "--mode", "discrete", "--a", "5", "--rho", "5",
        "--duration", "120", "--dt", "0.002", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    train = load_timestamps(out)
    assert train.duration_seconds <= 120.0
    # renewal rate for a light-tailed shape: rho * (a-1)/(a+b-1)
    rate = (train.n_events - 1) / train.duration_seconds
    assert rate == pytest.approx(4.0, rel=0.2)


def test_simulate_usage_errors(tmp_path):
    out = str(tmp_path / "x.txt")
    for events in ("0", "1"):  # one event forms no interval
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--events", events, "--out", out])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--events", "10", "--duration", "5", "--out", out])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", out])  # neither horizon given
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--duration", "5", "--out", out])  # continuous needs events
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--events", "10", "--gamma", "-0.5", "--out", out])
    assert exc.value.code == 2  # M1 takes no kernel coefficients


@pytest.mark.parametrize(
    "mode, flag, value",
    [(mode, "--dt", dt) for mode in ("continuous", "discrete") for dt in ("0", "-1", "nan", "inf")]
    + [("discrete", "--duration", "nan"), ("discrete", "--duration", "inf")],
)
def test_simulate_bad_grid_or_horizon_is_a_usage_error(tmp_path, mode, flag, value):
    """A --dt or --duration that is not positive and finite exits 2, like
    every other bad flag value; a bad --dt does so in either mode."""
    horizon = [] if flag == "--duration" else ["--events", "10"]
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--mode", mode, *horizon, flag, value,
              "--out", str(tmp_path / "x.txt")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_simulate_negative_seed_is_a_usage_error(tmp_path, mode):
    """A negative --seed exits 2 like every other bad flag value, not 1
    from the random generator."""
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--mode", mode, "--events", "10", "--seed", "-1",
              "--out", str(tmp_path / "x.txt")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.txt").exists()


def test_simulate_duration_past_the_span_limit_fails_before_drawing(
    tmp_path, capsys, monkeypatch
):
    """A finite but huge --duration is a runtime failure named by the span
    limit, raised before the chain draws anything."""
    from burstfit import simulate

    def drew(*args):
        raise AssertionError("the chain drew events")

    monkeypatch.setattr(simulate, "_thinned_jumps", drew)
    out = tmp_path / "huge.txt"
    rc = main(["simulate", "--mode", "discrete", "--duration", "1e300", "--out", str(out)])
    assert rc == 1
    assert "int64 millisecond span limit" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_without_events_fails_cleanly(tmp_path, capsys):
    """A horizon too short for two events is a runtime error: no file is
    written that load_timestamps or compute_itis would reject."""
    out = tmp_path / "short.txt"
    for flags, made in ((["--duration", "0.001"], 0),
                        (["--rho", "5", "--duration", "2", "--seed", "1"], 1)):
        rc = main(["simulate", "--mode", "discrete", *flags, "--out", str(out)])
        assert rc == 1
        assert f"simulated {made} events, fewer than 2" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("a, rho", [("0.05", "2"), ("0.005", "2"), ("0.005", "1e-30")])
def test_simulate_tiny_shape_fails_cleanly(tmp_path, capsys, mode, a, rho):
    """Priorities this small (Beta draws near or at 0) draw intervals
    longer than int64 milliseconds can hold, and with a tiny rate too
    longer than a float: both samplers refuse with the span limit, with no
    numpy warning and no file (RuntimeWarnings are errors under the
    suite's settings)."""
    out = tmp_path / "tiny.txt"
    rc = main([
        "simulate", "--variant", "M2", "--a", a, "--b", "1", "--rho", rho,
        "--mode", mode, "--events", "2000", "--seed", "3", "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "int64 millisecond span limit" in err and "Warning" not in err
    assert not out.exists()


# ----------------------------------------------------------------------
# fit / compare
# ----------------------------------------------------------------------


def test_fit_recovers_generating_shape(tmp_path, capsys):
    """The flagship pipeline: simulate 1e5 events at the published shape,
    fit the kernel-free variant, land within the stated band."""
    sim = tmp_path / "sim.txt"
    rc = main([
        "simulate", "--variant", "M1", "--a", "0.61", "--rho", "9.3",
        "--events", "100000", "--seed", "1", "--out", str(sim),
    ])
    assert rc == 0
    assert load_timestamps(sim).n_events == 100_000
    art = tmp_path / "m1.json"
    rc = main(["fit", "--variant", "M1", "--in", str(sim), "--out", str(art)])
    assert rc == 0
    result = deserialize_fit(art.read_text())
    assert result.converged
    assert 0.59 <= result.params_star.a <= 0.63
    assert result.params_star.rho == pytest.approx(9.3, rel=0.05)
    assert "a=" in capsys.readouterr().out


def test_fit_respects_config_file(tmp_path):
    sim = tmp_path / "sim.txt"
    main(["simulate", "--events", "300", "--seed", "5", "--out", str(sim)])
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("max_iters=2\n")
    art = tmp_path / "m1.json"
    rc = main(["fit", "--variant", "M1", "--in", str(sim),
               "--config", str(cfg), "--out", str(art)])
    assert rc == 0
    result = deserialize_fit(art.read_text())
    assert not result.converged
    assert result.reason == "max iterations"


def test_fit_runtime_failure_leaves_no_output(tmp_path, capsys):
    art = tmp_path / "never.json"
    rc = main(["fit", "--variant", "M1", "--in", str(tmp_path / "missing.txt"),
               "--out", str(art)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not art.exists()


def test_compare_from_artifacts_and_refit(tmp_path, capsys):
    sim = tmp_path / "sim.txt"
    main(["simulate", "--a", "0.8", "--rho", "3", "--events", "1500",
          "--seed", "21", "--out", str(sim)])
    art1 = tmp_path / "m1.json"
    art2 = tmp_path / "m2.json"
    main(["fit", "--variant", "M1", "--in", str(sim), "--out", str(art1)])
    main(["fit", "--variant", "M2", "--in", str(sim), "--out", str(art2)])

    cmp_path = tmp_path / "cmp.json"
    rc = main(["compare", "--fits", str(art1), str(art2), "--out", str(cmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "BIC[M1]" in out and "BIC[M2]" in out and "favored:" in out
    doc = json.loads(cmp_path.read_text())
    assert doc["format"] == "burstfit-comparison"
    assert set(doc["bic"]) == {"M1", "M2"}
    verdicts = {(row["i"], row["j"]): row["verdict"] for row in doc["preference"]}
    flip = {"i_favored": "j_favored", "j_favored": "i_favored",
            "no_preference": "no_preference"}
    assert verdicts[("M1", "M2")] == flip[verdicts[("M2", "M1")]]

    # refitting the same variants from the raw file reproduces the matrix
    cmp2 = tmp_path / "cmp2.json"
    rc = main(["compare", "--variants", "M1", "M2", "--in", str(sim),
               "--out", str(cmp2)])
    assert rc == 0
    assert json.loads(cmp2.read_text())["bic"] == doc["bic"]


def test_compare_parses_inputs_once(tmp_path, monkeypatch):
    """compare reads the timestamp file and the config once for all the
    variants it fits, and the process pool gives the same comparison."""
    sim = tmp_path / "sim.txt"
    main(["simulate", "--a", "0.8", "--rho", "3", "--events", "400",
          "--seed", "22", "--out", str(sim)])
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("max_iters=5\n")
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(burstfit.io, "load_timestamps", counted(burstfit.io.load_timestamps))
    monkeypatch.setattr(FitConfig, "from_file", counted(FitConfig.from_file))
    args = ["compare", "--variants", "M1", "M2", "M3", "--in", str(sim), "--config", str(cfg)]
    assert main(args + ["--out", str(tmp_path / "seq.json")]) == 0
    assert sorted(calls) == ["from_file", "load_timestamps"]
    monkeypatch.undo()
    assert main(args + ["--jobs", "2", "--out", str(tmp_path / "pool.json")]) == 0
    assert (tmp_path / "pool.json").read_bytes() == (tmp_path / "seq.json").read_bytes()


def test_compare_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--out", str(tmp_path / "c.json")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--variants", "M1", "--out", str(tmp_path / "c.json")])
    assert exc.value.code == 2
    sim = tmp_path / "sim.txt"
    main(["simulate", "--events", "50", "--seed", "23", "--out", str(sim)])
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--variants", "M1", "--in", str(sim), "--jobs", jobs,
                  "--out", str(tmp_path / "c.json")])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["hist", "--in", str(sim), "--bins-per-decade", "0",
              "--out", str(tmp_path / "h.txt")])
    assert exc.value.code == 2
    assert not (tmp_path / "c.json").exists() and not (tmp_path / "h.txt").exists()


def test_compare_pool_never_outnumbers_its_fits(tmp_path, monkeypatch):
    """--jobs larger than the number of fits starts one worker per fit."""
    import concurrent.futures

    sim = tmp_path / "sim.txt"
    main(["simulate", "--a", "0.8", "--rho", "3", "--events", "400",
          "--seed", "24", "--out", str(sim)])
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("max_iters=5\n")
    workers = []

    class RecordingExecutor:
        """Runs the tasks in process and records the requested pool size."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    rc = main(["compare", "--variants", "M1", "M2", "--in", str(sim), "--config", str(cfg),
               "--jobs", "64", "--out", str(tmp_path / "c.json")])
    assert rc == 0
    assert workers == [2]


def test_compare_fits_a_repeated_variant_once(tmp_path, monkeypatch):
    """--variants M1 M1 used to fit M1 twice, with --jobs in two pool
    workers; it is fitted once, in process."""
    fit_module = importlib.import_module("burstfit.fit")

    sim = tmp_path / "sim.txt"
    main(["simulate", "--a", "0.8", "--rho", "3", "--events", "400",
          "--seed", "24", "--out", str(sim)])
    fitted = []
    inner = fit_module.fit

    def counting(variant, **kwargs):
        fitted.append(variant)
        return inner(variant, **kwargs)

    monkeypatch.setattr(fit_module, "fit", counting)
    rc = main(["compare", "--variants", "M1", "M1", "--in", str(sim),
               "--jobs", "2", "--out", str(tmp_path / "c.json")])
    assert rc == 0
    assert fitted == ["M1"]


# ----------------------------------------------------------------------
# hist / eval tables
# ----------------------------------------------------------------------


def test_hist_eval_density_overlay(tmp_path):
    """Empirical density vs the generating model on matched grids: every
    well-populated bin agrees within the calibrated factor."""
    sim = tmp_path / "sim.txt"
    main(["simulate", "--variant", "M1", "--a", "0.61", "--rho", "0.5",
          "--events", "100000", "--seed", "10", "--out", str(sim)])
    histf = tmp_path / "hist.txt"
    rc = main(["hist", "--in", str(sim), "--out", str(histf)])
    assert rc == 0

    data = compute_itis(load_timestamps(sim))
    hist = log_binned_histogram(data)
    truth = tmp_path / "truth.json"
    _truth_artifact(truth, ModelParams(a=0.61, b=1.0, c=math.log(0.5)), data)
    c = hist.centers
    densf = tmp_path / "dens.txt"
    rc = main(["eval-density", "--fit", str(truth),
               "--tau-grid", f"{c[0]:.17g}:{c[-1]:.17g}:{c.size}",
               "--out", str(densf)])
    assert rc == 0

    htab = np.loadtxt(histf)
    dtab = np.loadtxt(densf)
    np.testing.assert_allclose(htab[:, 0], dtab[:, 0], rtol=1e-9)
    mask = hist.counts >= 100
    assert mask.sum() > 30
    ratio = htab[mask, 1] / dtab[mask, 1]
    assert float(ratio.max()) < 1.3
    assert float(ratio.min()) > 1.0 / 1.3


def test_hist_matches_library(tmp_path):
    sim = tmp_path / "sim.txt"
    main(["simulate", "--events", "2000", "--seed", "8", "--out", str(sim)])
    histf = tmp_path / "hist.txt"
    main(["hist", "--in", str(sim), "--bins-per-decade", "6", "--out", str(histf)])
    table = np.loadtxt(histf)
    hist = log_binned_histogram(compute_itis(load_timestamps(sim)), bins_per_decade=6)
    np.testing.assert_allclose(table[:, 0], hist.centers, rtol=1e-9)
    np.testing.assert_allclose(table[:, 1], hist.densities, rtol=1e-9)


def test_eval_kernel_default_grid(tmp_path):
    sim = tmp_path / "sim.txt"
    main(["simulate", "--events", "200", "--seed", "4", "--out", str(sim)])
    data = compute_itis(load_timestamps(sim))
    gamma = (-0.5, -0.2, 0.0, 0.1, 0.0, 0.0, 0.0, 0.05)
    from burstfit.model import RefractoryKernel

    params = ModelParams(
        a=0.9, b=1.0, c=0.0, kernel=RefractoryKernel.log_spaced(gamma)
    )
    truth = tmp_path / "truth.json"
    _truth_artifact(truth, params, data)
    out = tmp_path / "kernel.txt"
    rc = main(["eval-kernel", "--fit", str(truth), "--out", str(out)])
    assert rc == 0
    table = np.loadtxt(out)
    assert table.shape == (200, 2)
    grid = np.geomspace(0.001, 5.0, 200)
    np.testing.assert_allclose(table[:, 0], grid, rtol=1e-9)
    np.testing.assert_allclose(
        table[:, 1], refractory_eval(params.kernel, grid), rtol=1e-9
    )


def test_eval_density_bad_grid_spec(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eval-density", "--fit", "x.json", "--tau-grid", "5:1:10",
              "--out", str(tmp_path / "d.txt")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval-density", "--fit", "x.json", "--tau-grid", "1:10",
              "--out", str(tmp_path / "d.txt")])
    assert exc.value.code == 2


@pytest.mark.parametrize("spec", ["0.001:inf:5", "0.001:1e400:5", "0.001:nan:5", "inf:1e400:5"])
def test_eval_density_grid_bounds_must_be_finite(tmp_path, spec):
    with pytest.raises(SystemExit) as exc:
        main(["eval-density", "--fit", "x.json", "--tau-grid", spec,
              "--out", str(tmp_path / "d.txt")])
    assert exc.value.code == 2
    assert not (tmp_path / "d.txt").exists()


def test_eval_density_refuses_unsettled_shape(tmp_path, capsys):
    """At a = 999, b = 1 the density at 300.5 s needs a 1F1 value no regime
    settles: the command fails and writes no table, where it used to
    write a density of 5.75e+89."""
    truth = tmp_path / "truth.json"
    _truth_artifact(truth, ModelParams(a=999.0, b=1.0, c=0.0), ItiSet(np.array([0.5, 300.5])))
    out = tmp_path / "d.txt"
    rc = main(["eval-density", "--fit", str(truth), "--tau-grid", "0.5:300.5:2", "--out", str(out)])
    assert rc == 1
    assert "1F1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_process_pool_unloaded():
    """Only compare --jobs > 1 uses the process pool, so importing the CLI,
    which every command does, must not import it."""
    src = str(Path(burstfit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, burstfit.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# What each command loads in a fresh interpreter: its burstfit modules
# (short names), and whether json or logging is among them.
_COMMAND_MODULES = {
    "simulate": {"cli", "io", "model", "special", "simulate"},
    "hist": {"cli", "io", "model", "special", "likelihood"},
    "fit": {"cli", "io", "model", "special", "likelihood", "fit", "selection", "json"},
    "compare": {"cli", "io", "model", "special", "selection", "json"},
    "eval-density": {"cli", "io", "model", "special", "json"},
    "eval-kernel": {"cli", "io", "model", "special", "json"},
}


def test_each_command_loads_only_its_modules(tmp_path):
    """A command imports the modules it runs and no others: only fit
    loads the fitter, reading a fit artifact loads neither the fitter nor
    the likelihood, fit and hist skip the samplers, and only commands
    that read or write a fit artifact load json.  No command here
    collapses duplicates or starts a pool, so none loads logging."""
    events = tmp_path / "events.txt"
    fitted = tmp_path / "m1.json"
    assert main(["simulate", "--events", "300", "--seed", "5", "--out", str(events)]) == 0
    assert main(["fit", "--variant", "M1", "--in", str(events), "--out", str(fitted)]) == 0
    commands = {
        "simulate": ["--events", "300", "--seed", "5", "--mode", "discrete"],
        "hist": ["--in", str(events)],
        "fit": ["--variant", "M1", "--in", str(events)],
        "compare": ["--fits", str(fitted)],
        "eval-density": ["--fit", str(fitted), "--tau-grid", "0.01:10:5"],
        "eval-kernel": ["--fit", str(fitted)],
    }
    assert set(commands) == set(_COMMAND_MODULES)
    src = str(Path(burstfit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; from burstfit.cli import main; "
        "rc = main(sys.argv[1:]); "
        "print(rc, *sorted(m.removeprefix('burstfit.') for m in sys.modules "
        "if m.startswith('burstfit.') or m in ('json', 'logging')))"
    )
    for name, flags in commands.items():
        argv = [name, *flags, "--out", str(tmp_path / f"{name}.out")]
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             capture_output=True, text=True, check=True)
        rc, *loaded = out.stdout.splitlines()[-1].split()
        assert (name, rc, set(loaded)) == (name, "0", _COMMAND_MODULES[name])


def test_fit_command_leaves_numpy_ma_unloaded(tmp_path):
    """numpy.ma, which np.median imports, adds 0.7 MiB to the peak memory
    of a process that has imported the CLI, and its import time; the
    fitter takes its median from the sorted unique intervals instead."""
    events = tmp_path / "events.txt"
    assert main(["simulate", "--variant", "M2", "--a", "0.6", "--b", "2", "--rho", "2",
                 "--events", "2000", "--seed", "3", "--out", str(events)]) == 0
    src = str(Path(burstfit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; from burstfit.cli import main; "
        f"rc = main(['fit', '--variant', 'M2', '--in', {str(events)!r}, "
        f"'--out', {str(tmp_path / 'm2.json')!r}]); "
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 False"
