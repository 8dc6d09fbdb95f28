"""The three burstfit CLI pipelines, their inputs, output checks and counters.

Each pipeline is a list of `burstfit` commands run against one dataset.
The same pipeline code drives the CLI either in child processes (the
end-to-end run) or in process through `burstfit.cli.main` (the traced
run), so both modes do the same work on the same inputs.

Why these three (each bypasses what another one stresses):

* select-kernel: simulate M3 data, compare M1-M5 with a two-worker pool,
  refit the winner, then report.  Fits with 10-15 free parameters, the
  kernel basis, invert_R and the process pool.  It is not among the
  workloads BENCHMARK.json gates: on 5-20% of its datasets the M4/M5 fits
  of the current code raise PrecisionLossError or end thousands of BIC
  units below M1, so its cost neither repeats from seed to seed nor comes
  without failures.  Run it by name to watch those fits.
* heavy-tail: simulate kernel-free M2 data with month-long gaps, fit M1
  and M2 separately, compare the artifacts, report.  The same likelihood
  with 2-3 parameters, little interval deduplication, the b-gradient and
  no basis matrices or pool.
* sim-ingest: the discrete chain sampler writing a large timestamp file,
  the same truth emitted in continuous time (invert_R), then hist,
  eval-density and eval-kernel of a benchmark-written truth artifact.
  Timestamp emission and ingest; it never fits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from burstfit import cli as bcli
from burstfit import io as bio
from burstfit.fit import FitResult
from burstfit.likelihood import ObjectiveValue
from burstfit.model import VARIANTS, ModelParams, RefractoryKernel, iti_density, refractory_eval
from burstfit.simulate import EventTrain

# `compare --jobs`: two workers, the core count of the machine the sizes
# were chosen on; with one BLAS thread each, two threads compute at once.
JOBS = 2
GAMMA_M3 = (0.0, 0.0, -0.30, -0.40, -0.26, 0.0, 0.0, 0.0)
TAU_GRID = "0.001:10000:400"
KERNEL_VARIANTS = ("M3", "M4", "M5")
# Nested pairs (parent, child): a child can reach its parent's optimum.
NESTINGS = (("M1", "M2"), ("M1", "M3"), ("M3", "M4"), ("M2", "M4"), ("M2", "M5"))
# heavy-tail check: the M2 fit must land near its truth (a=0.6, b=2).
HEAVY_A_RANGE = (0.5, 0.7)
HEAVY_B_RANGE = (1.0, 5.0)
BIC_MARGIN = 10.0
# sim-ingest's continuous-time train, beside the discrete one in events.txt
CONTINUOUS = "continuous.txt"


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    a: float
    b: float
    rho: float
    gamma: tuple[float, ...]
    mode: str
    events: int
    smoke_events: int
    # usual seconds of one pipeline on a 2-vCPU x86 VM; sets how many
    # datasets a run of --seconds measures
    pipeline_s: float

    @property
    def truth(self) -> ModelParams:
        kernel = RefractoryKernel.log_spaced(self.gamma) if self.gamma else RefractoryKernel.none()
        return ModelParams(a=self.a, b=self.b, c=math.log(self.rho), kernel=kernel,
                           variant=self.variant)

    def simulate_flags(self, mode: str | None = None) -> tuple[str, ...]:
        mode = mode or self.mode
        flags = ("--variant", self.variant, "--a", repr(self.a), "--b", repr(self.b),
                 "--rho", repr(self.rho), "--mode", mode)
        if self.gamma:
            flags += ("--gamma", ",".join(repr(g) for g in self.gamma))
        if mode == "discrete":
            flags += ("--dt", "0.001")
        return flags


WORKLOADS = {
    w.name: w
    for w in (
        Workload("select-kernel", "M3", 0.7, 1.0, 8.0, GAMMA_M3, "continuous", 5_000, 1_500, 11.5),
        Workload("heavy-tail", "M2", 0.6, 2.0, 2.0, (), "continuous", 6_000, 2_000, 7.5),
        Workload("sim-ingest", "M3", 0.7, 1.0, 8.0, GAMMA_M3, "discrete", 400_000, 20_000, 4.5),
    )
}


class PipelineFailed(RuntimeError):
    pass


@dataclass
class Pipeline:
    """Times one pass of a workload's commands and collects its outputs."""

    runner: "ChildRunner | InProcessRunner"
    workdir: Path
    stages: dict = field(default_factory=lambda: {"simulate": 0.0, "fit": 0.0, "report": 0.0})
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    commands: int = 0

    def cli(self, stage: str, *args) -> None:
        self.commands += 1
        ok, seconds, cpu, rss_mb, text = self.runner.run([str(a) for a in args], self.workdir)
        self.stages[stage] += seconds
        self.cpu_s += cpu
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        if not ok:
            raise PipelineFailed(f"`burstfit {' '.join(map(str, args))}` failed:\n{text}")


class ChildRunner:
    """Runs `python <args>` in a child process; wall time, CPU time and max RSS."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def run(self, args, cwd):
        return self.python(["-m", "burstfit.cli", *args], cwd)

    def python(self, args, cwd):
        log = cwd / f".{args[-1].replace('/', '_')}.log"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "w+b") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=cwd, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            fh.seek(0)
            text = fh.read().decode("utf-8", "replace")
        # rusage covers the child and its reaped pool workers; ru_maxrss is in KiB
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode == 0, seconds, cpu, usage.ru_maxrss / 1024.0, text


class InProcessRunner:
    """Runs `burstfit.cli.main` in this process, capturing what it prints."""

    def run(self, args, cwd):
        buf = _stdio.StringIO()
        here = os.getcwd()
        start, cpu = time.perf_counter(), time.process_time()
        try:
            os.chdir(cwd)
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = bcli.main(list(args))
        finally:
            os.chdir(here)
        return (code == 0, time.perf_counter() - start, time.process_time() - cpu, 0.0,
                buf.getvalue())


def dataset_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def write_truth_artifact(workload: Workload, path: Path) -> None:
    """The fit artifact sim-ingest evaluates: the generating parameters."""
    result = FitResult(
        params_star=workload.truth,
        objective_trace=(ObjectiveValue(0.0, 0.0, 0.0),),
        converged=True,
        reason="gradient tolerance",
        n_projections=0,
        bic=0.0,
        n_data=0,
        data_digest="truth",
    )
    path.write_text(bio.serialize_fit(result))


def _bic_best(cmp_path: Path) -> str:
    bic = json.loads(cmp_path.read_text())["bic"]
    return min(bic, key=bic.get)


def run_pipeline(pipe: Pipeline, workload: Workload, events: int, data_seed: int,
                 jobs: int, truth_path: Path) -> float:
    """Runs the workload's commands in pipe.workdir; returns wall seconds."""
    sim = "events.txt"
    start = time.perf_counter()
    pipe.cli("simulate", "simulate", *workload.simulate_flags(), "--events", events,
             "--seed", data_seed, "--out", sim)
    if workload.name == "select-kernel":
        pipe.cli("fit", "compare", "--in", sim, "--variants", "M1", "M2", "M3", "M4", "M5",
                 "--jobs", jobs, "--out", "cmp.json")
        best = _bic_best(pipe.workdir / "cmp.json")
        pipe.cli("fit", "fit", "--variant", best, "--in", sim, "--out", f"{best}.json")
        pipe.cli("report", "hist", "--in", sim, "--out", "hist.txt")
        pipe.cli("report", "eval-density", "--fit", f"{best}.json", "--tau-grid", TAU_GRID,
                 "--out", "density.txt")
        pipe.cli("report", "eval-kernel", "--fit", f"{best}.json", "--out", "kernel.txt")
    elif workload.name == "heavy-tail":
        for variant in ("M1", "M2"):
            pipe.cli("fit", "fit", "--variant", variant, "--in", sim, "--out", f"{variant}.json")
        pipe.cli("fit", "compare", "--fits", "M1.json", "M2.json", "--out", "cmp.json")
        best = _bic_best(pipe.workdir / "cmp.json")
        pipe.cli("report", "hist", "--in", sim, "--out", "hist.txt")
        pipe.cli("report", "eval-density", "--fit", f"{best}.json", "--tau-grid", TAU_GRID,
                 "--out", "density.txt")
    else:
        # the same truth emitted in continuous time too: the kernel inversion
        pipe.cli("simulate", "simulate", *workload.simulate_flags("continuous"), "--events",
                 events, "--seed", data_seed, "--out", CONTINUOUS)
        pipe.cli("report", "hist", "--in", sim, "--out", "hist.txt")
        pipe.cli("report", "eval-density", "--fit", str(truth_path), "--tau-grid", TAU_GRID,
                 "--out", "density.txt")
        pipe.cli("report", "eval-kernel", "--fit", str(truth_path), "--out", "kernel.txt")
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# output checks and deterministic counters
# ----------------------------------------------------------------------


class Checks:
    """Counts output checks; a failed one is reported and counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{name}: {detail}")
        return ok


def _read_stamps(path: Path) -> np.ndarray:
    tokens = path.read_bytes().split()
    if tokens and tokens[0] == b"unit=ms":
        tokens = tokens[1:]
    return np.array(tokens, dtype=np.int64)


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, ndmin=2)


def _close(got: np.ndarray, want: np.ndarray, rel: float = 1e-9) -> bool:
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rel * np.abs(want)))


def _objectives_from_bic(bic: dict, n: int) -> dict:
    # bic = k ln(n) - 2 objective  =>  objective = (k ln(n) - bic) / 2
    return {v: (VARIANTS[v].n_params * math.log(n) - b) / 2.0 for v, b in bic.items()}


def nesting_shortfall(objectives: dict) -> float:
    """Largest objective deficit (nats) of a fitted child below its parent."""
    gaps = [objectives[p] - objectives[c] for p, c in NESTINGS
            if p in objectives and c in objectives]
    return max([0.0] + gaps)


def check_outputs(workload: Workload, events: int, workdir: Path, truth_path: Path,
                  checks: Checks) -> dict:
    """Checks one pipeline's outputs; returns its deterministic counters."""
    sim = workdir / "events.txt"
    stamps = _read_stamps(sim)
    checks.check("events", stamps.size == events and bool(np.all(np.diff(stamps) > 0)),
                 f"{stamps.size} events in file, asked for {events}")
    counters = {"events": int(stamps.size), "file_bytes": sim.stat().st_size}
    if workload.name == "sim-ingest":
        cont = _read_stamps(workdir / CONTINUOUS)
        checks.check("continuous events", cont.size == events and bool(np.all(np.diff(cont) > 0)),
                     f"{cont.size} events in {CONTINUOUS}, asked for {events}")
        counters["continuous_bytes"] = (workdir / CONTINUOUS).stat().st_size

    fits = {}
    for art in sorted(workdir.glob("M*.json")):
        text = art.read_text()
        res = bio.deserialize_fit(text)
        checks.check(f"roundtrip {art.name}", bio.serialize_fit(res) == text,
                     "serialize(deserialize(artifact)) differs from the artifact")
        fits[res.variant] = res
        counters[f"{res.variant}.iters"] = len(res.objective_trace) - 1
        counters[f"{res.variant}.projections"] = res.n_projections

    data = bio.compute_itis(EventTrain(stamps))
    ref = bio.log_binned_histogram(data)
    hist = _table(workdir / "hist.txt")
    checks.check("hist counts sum", int(ref.counts.sum()) == stamps.size - 1,
                 f"{int(ref.counts.sum())} != {stamps.size - 1} intervals")
    checks.check("hist table", _close(hist[:, 0], ref.centers) and _close(hist[:, 1], ref.densities),
                 "CLI histogram differs from the library histogram")
    counters["hist_bins"] = int(hist.shape[0])
    counters["unique_intervals"] = int(np.unique(data.intervals).size)

    density_fit = truth_path if workload.name == "sim-ingest" else None
    if workload.name == "select-kernel":
        bic = json.loads((workdir / "cmp.json").read_text())["bic"]
        counters["bic"] = bic
        best = min(bic, key=bic.get)
        density_fit = workdir / f"{best}.json"
        counters["best"] = best
        worst_plain = min(bic["M1"], bic["M2"])
        for v in KERNEL_VARIANTS:
            checks.check(f"{v} beats M1/M2", worst_plain - bic[v] > BIC_MARGIN,
                         f"BIC margin {worst_plain - bic[v]:.2f} <= {BIC_MARGIN}")
        checks.check("refit matches compare", fits[best].bic == bic[best],
                     f"refit BIC {fits[best].bic!r} != compare BIC {bic[best]!r}")
        counters["nesting_shortfall"] = nesting_shortfall(_objectives_from_bic(bic, fits[best].n_data))
    elif workload.name == "heavy-tail":
        bic = json.loads((workdir / "cmp.json").read_text())["bic"]
        counters["bic"] = bic
        checks.check("compare --fits BIC", bic == {v: r.bic for v, r in fits.items()},
                     "comparison BIC differs from the artifacts")
        counters["best"] = min(bic, key=bic.get)
        density_fit = workdir / f"{counters['best']}.json"
        m2 = fits["M2"].params_star
        counters["M2.a"], counters["M2.b"] = m2.a, m2.b
        checks.check("M2 a in range", HEAVY_A_RANGE[0] <= m2.a <= HEAVY_A_RANGE[1],
                     f"a={m2.a:.4f} outside {HEAVY_A_RANGE}")
        checks.check("M2 b in range", HEAVY_B_RANGE[0] <= m2.b <= HEAVY_B_RANGE[1],
                     f"b={m2.b:.4f} outside {HEAVY_B_RANGE}")
        counters["nesting_shortfall"] = nesting_shortfall({v: r.objective for v, r in fits.items()})

    dens = _table(workdir / "density.txt")
    params = bio.deserialize_fit(density_fit.read_text()).params_star
    checks.check("eval-density", bool(np.all(dens[:, 1] > 0.0))
                 and _close(dens[:, 1], iti_density(params, dens[:, 0])),
                 "density table is not the model density of its artifact")
    if (workdir / "kernel.txt").exists():
        kernel = _table(workdir / "kernel.txt")
        checks.check("eval-kernel", _close(kernel[:, 1], refractory_eval(params.kernel, kernel[:, 0])),
                     "kernel table differs from refractory_eval")
    counters["outputs"] = digest_outputs(workdir)
    return counters


def digest_outputs(workdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        if path.is_file() and not path.name.startswith("."):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]
