"""The traced run: one workload pipeline in process, then per-layer probes.

The pipeline runs twice through `burstfit.cli.main`: untraced first
(which also warms imports and caches), then with spans around the public
layer functions.  The difference of the two wall times is the tracing
overhead; it comes from one pair of single passes, so it carries the
machine's run-to-run noise, and trace.spans says how much was recorded.
Both passes must write byte-identical outputs and equal work counters.
`compare` runs with one job in process, so every fit is traced; on
select-kernel a child `compare --jobs 2` on the same file gives the pool
efficiency and must write the same comparison.

Layers a workload does not exercise (fits on sim-ingest, M3-M5 on
heavy-tail, the other sampler, the pool) report 0 and are listed under
"not run" in the printed summary.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from burstfit import io as bio
from burstfit.likelihood import ItiSet, gradient, objective
from burstfit.model import VARIANTS, ModelParams, RefractoryKernel, iti_density, refractory_integral

from tracing import Tracer, instrument, restore
from workloads import (
    JOBS,
    Checks,
    ChildRunner,
    InProcessRunner,
    Pipeline,
    PipelineFailed,
    check_outputs,
    run_pipeline,
    write_truth_artifact,
)

W_BANDS = ((1.0, "lt1"), (4.0, "1_4"), (16.0, "4_16"), (64.0, "16_64"), (300.0, "64_300"),
           (math.inf, "ge300"))

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER = (
    [("model.iti_density_s", "s")]
    + [(f"special.w_share.{band}", "count") for _, band in W_BANDS]
    + [("likelihood.unique_intervals", "count"), ("likelihood.dedup_ratio", "ratio"),
       ("likelihood.objective_s", "s"), ("likelihood.cold_objective_s", "s")]
    + [(f"likelihood.gradient_s.{v}", "s") for v in VARIANTS]
    + [("likelihood.grad_value_ratio", "ratio")]
    + [(f"fit.{v}.{m}", u) for v in VARIANTS
       for m, u in (("s", "s"), ("iters", "count"), ("s_per_iter", "s"),
                    ("projections", "count"), ("converged", "count"))]
    + [("fit.nesting_shortfall", "nats"),
       ("simulate.continuous_s", "s"), ("simulate.invert_R_s", "s"),
       ("simulate.discrete_s", "s"), ("simulate.events_per_s", "1/s"),
       ("io.save_timestamps_s", "s"), ("io.load_timestamps_s", "s"),
       ("io.load_timestamps_calls", "count"), ("io.compute_itis_s", "s"),
       ("io.log_binned_histogram_s", "s"), ("io.serialize_fit_s", "s"),
       ("io.deserialize_fit_s", "s"), ("io.file_bytes", "bytes"),
       ("cli.startup_s", "s"), ("cli.pool_efficiency", "ratio"),
       ("trace.untraced_s", "s"), ("trace.traced_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count")]
)


def timed_median(fn, reps: int, budget: float) -> float:
    """Median wall time of fn() over at least `reps` calls, more if time allows."""
    times = []
    stop = time.perf_counter() + budget
    while len(times) < reps or (time.perf_counter() < stop and len(times) < 50):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def embed(truth: ModelParams, variant: str) -> ModelParams:
    """The workload's truth as a point of `variant` (b=1 or zero kernel where needed)."""
    spec = VARIANTS[variant]
    b = truth.b if spec.free_b else 1.0
    if truth.kernel.n == spec.n_kernel_terms:
        kernel = truth.kernel
    elif spec.n_kernel_terms:
        kernel = RefractoryKernel.log_spaced([0.0] * spec.n_kernel_terms)
    else:
        kernel = RefractoryKernel.none()
    return ModelParams(a=truth.a, b=b, c=truth.c, kernel=kernel, variant=variant)


def _fit_metrics(tracer: Tracer, checks: Checks) -> dict:
    """Per variant: seconds per fit() call, and the work it did."""
    out = {}
    for v in VARIANTS:
        spans = [s for s in tracer.named("fit.fit") if s["attrs"]["variant"] == v]
        if not spans:
            out.update({f"fit.{v}.{m}": 0 for m in ("s", "iters", "s_per_iter", "projections", "converged")})
            continue
        work = {(s["attrs"]["iters"], s["attrs"]["projections"], s["attrs"]["converged"]) for s in spans}
        checks.check(f"fit {v} repeats", len(work) == 1, f"refits of {v} did different work: {work}")
        iters, projections, converged = work.pop()
        seconds = statistics.median(s["end"] - s["start"] for s in spans)
        out.update({f"fit.{v}.s": seconds, f"fit.{v}.iters": iters,
                    f"fit.{v}.s_per_iter": seconds / max(iters, 1),
                    f"fit.{v}.projections": projections, f"fit.{v}.converged": converged})
    return out


def _probe_layers(workload, sim: Path, fitted: ModelParams, tracer: Tracer, budget: float) -> dict:
    """Likelihood, model and special-function probes on the pipeline's data."""
    data = bio.compute_itis(bio.load_timestamps(sim))
    tau = np.unique(data.intervals)
    truth = workload.truth
    out = {"likelihood.unique_intervals": int(tau.size), "likelihood.dedup_ratio": data.n / tau.size}
    # regime mix of the 1F1 argument w = rho R(tau) at the fitted point
    w = fitted.rho * refractory_integral(fitted.kernel, tau)
    lo = 0.0
    for hi, band in W_BANDS:
        out[f"special.w_share.{band}"] = int(np.count_nonzero((w >= lo) & (w < hi)))
        lo = hi
    each = budget / 10.0
    with tracer.span("probe.model.iti_density"):
        out["model.iti_density_s"] = timed_median(lambda: iti_density(fitted, tau), 5, each)
    with tracer.span("probe.likelihood.cold_objective"):
        out["likelihood.cold_objective_s"] = timed_median(
            lambda: objective(truth, ItiSet(data.intervals)), 3, each)
    with tracer.span("probe.likelihood.objective"):
        objective(truth, data)
        out["likelihood.objective_s"] = timed_median(lambda: objective(truth, data), 5, each)
    for v in VARIANTS:
        point = embed(truth, v)
        with tracer.span("probe.likelihood.gradient", variant=v):
            gradient(point, data)
            out[f"likelihood.gradient_s.{v}"] = timed_median(lambda: gradient(point, data), 3, each)
    out["likelihood.grad_value_ratio"] = (
        out[f"likelihood.gradient_s.{truth.variant}"] / out["likelihood.objective_s"])
    return out


def _two_passes(workload, events: int, data_seed: int, workdir: Path, truth_path: Path,
                checks: Checks):
    """The pipeline untraced, then traced, on one dataset.

    Returns (wall per pass, counters of the traced pass, commands, tracer);
    the wall dict is empty when a command failed.
    """
    passes, counters, commands = {}, {}, 0
    for mode in ("untraced", "traced"):
        pipe = Pipeline(InProcessRunner(), workdir / mode)
        pipe.workdir.mkdir(parents=True)
        tracer = Tracer(f"{workload.name}-{data_seed}-{mode}")
        undo = instrument(tracer) if mode == "traced" else []
        if undo and workload.name == "sim-ingest":
            # rewrite the truth artifact so io.serialize_fit is timed here too
            write_truth_artifact(workload, truth_path)
        try:
            with tracer.span("pipeline"):
                passes[mode] = run_pipeline(pipe, workload, events, data_seed, 1, truth_path)
        except PipelineFailed as exc:
            checks.messages.append(f"dataset {data_seed}: {exc}")
            return {}, {}, commands + pipe.commands, tracer
        finally:
            restore(undo)
        commands += pipe.commands
        counters[mode] = check_outputs(workload, events, pipe.workdir, truth_path, checks)
    checks.check("counters repeat", counters["untraced"] == counters["traced"],
                 f"untraced {counters['untraced']} != traced {counters['traced']}")
    return passes, counters["traced"], commands, tracer


def traced_run(workload, events: int, data_seeds, rundir: Path, truth_path: Path,
               runner: ChildRunner, checks: Checks, budget: float):
    """Returns (per-layer metrics, counters, data seed, commands, failed commands, tracer).

    A dataset whose pipeline fails is counted as a failed command and the
    next one is tried; metrics and counters are empty when all failed.
    """
    commands = failed_cmds = 0
    for data_seed in data_seeds:
        workdir = rundir / str(data_seed)
        passes, counters, used, tracer = _two_passes(
            workload, events, data_seed, workdir, truth_path, checks)
        commands += used
        if passes:
            break
        failed_cmds += 1
    else:
        return {}, {}, None, commands, failed_cmds, tracer

    m = {"trace.untraced_s": passes["untraced"], "trace.traced_s": passes["traced"],
         "trace.overhead_s": passes["traced"] - passes["untraced"],
         "trace.spans": len(tracer.spans)}
    m.update(_fit_metrics(tracer, checks))
    m["fit.nesting_shortfall"] = counters.get("nesting_shortfall", 0.0)

    cont = tracer.total("simulate.simulate_continuous")
    disc = tracer.total("simulate.simulate_discrete")
    trains = len(tracer.named("simulate.simulate_continuous") + tracer.named("simulate.simulate_discrete"))
    m.update({"simulate.continuous_s": cont, "simulate.invert_R_s": tracer.total("simulate.invert_R"),
              "simulate.discrete_s": disc, "simulate.events_per_s": trains * events / (cont + disc)})
    for name in ("save_timestamps", "load_timestamps", "compute_itis", "log_binned_histogram",
                 "serialize_fit", "deserialize_fit"):
        m[f"io.{name}_s"] = tracer.total(f"io.{name}")
    m["io.load_timestamps_calls"] = len(tracer.named("io.load_timestamps"))
    m["io.file_bytes"] = counters["file_bytes"]

    workdir = workdir / "traced"
    m["cli.pool_efficiency"] = 0.0
    if workload.name == "select-kernel":
        pooldir = rundir / "pool"
        pooldir.mkdir()
        pipe = Pipeline(runner, pooldir)
        commands += 1
        try:
            pipe.cli("fit", "compare", "--in", str(workdir / "events.txt"), "--variants",
                     *VARIANTS, "--jobs", JOBS, "--out", "cmp.json")
        except PipelineFailed as exc:
            checks.messages.append(str(exc))
            failed_cmds += 1
        else:
            checks.check("pool compare matches", (pooldir / "cmp.json").read_bytes()
                         == (workdir / "cmp.json").read_bytes(), "--jobs 2 changed the comparison")
            fit_sum = sum(m[f"fit.{v}.s"] for v in VARIANTS)
            m["cli.pool_efficiency"] = fit_sum / (JOBS * pipe.stages["fit"])

    best = counters.get("best")
    fitted = (bio.deserialize_fit((workdir / f"{best}.json").read_text()).params_star
              if best else workload.truth)
    budget = max(1.0, min(budget, runner.deadline - time.monotonic() - 10.0))
    m.update(_probe_layers(workload, workdir / "events.txt", fitted, tracer, budget))
    return m, counters, data_seed, commands, failed_cmds, tracer
