#!/usr/bin/env python3
"""burstfit benchmark: three CLI pipelines end to end, and a traced run per layer.

    python3 perfbench/run.py --workload heavy-tail --seed 1 --seconds 36 --trace 0

--trace 0 runs the workload's `burstfit` commands in child processes,
one pipeline after another from this single process, each on its own
dataset (simulation seed derived from --seed).  The number of datasets
is the fewest whose pipelines fill --seconds at the workload's usual
pipeline cost, never how many fit in this run, so a seed always measures
the same work.  Work counters and output digests of each dataset are
kept under .perfbench/counters and must repeat exactly whenever that
dataset runs again, in either mode.

The gated pipeline cost is cpu_rel: the median over the run's pipelines
of their CPU seconds (user + system, pool workers included), divided by
the mean CPU seconds of reference_s(), a fixed loop this process runs
before the first pipeline and after each one.  On a shared VM the same
work runs tens of percent slower or faster for minutes at a time, with
next to no steal time, so neither wall nor CPU seconds repeat from run
to run; the reference loop slows with the program, and the ratio
cancels much of that drift at the price of the loop's own noise.  cpu_rel depends only on the program (and the CPU model): a
change that makes the pipelines cheaper lowers it in proportion.  wall_s,
cpu_s and the stage times are printed as medians over the pipelines and
kept, with every reference sample, in the results file.

--trace 1 runs one pipeline in process, untraced and then traced, and
reports per-layer times and work counts (see layers.py).

--smoke shrinks every dataset so the whole run takes seconds; it checks
the plumbing, not the performance.

The last line of stdout is one JSON object: correct (every output check
passed), attempted and failed (CLI commands plus output checks) and
metrics.  Results, spans and the machine description are also written
under .perfbench/ in the checkout.
Exit code 2 means the burstfit sources are missing.
"""

from __future__ import annotations

import os

# One BLAS thread per process: with `compare --jobs 2` at most two
# threads compute at once.  Set before numpy is imported, here and in
# every child.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0
SETUP_REPS = 7
# datasets the traced run may try before giving up; each failure is counted
TRACED_DATASETS = 3
# datasets an end-to-end run may add in place of ones whose pipeline failed
SPARE_DATASETS = 2
# an end-to-end run starts no pipeline it expects to end past OVERRUN * --seconds
OVERRUN = 2.5
# Gated end-to-end metrics: each applies to every workload and is never 0.
# wall_s, cpu_s, the stage times (simulate_s, fit_s, report_s) and
# nesting_shortfall are printed and kept in the results file: fit_s is 0
# on sim-ingest, and raw times follow the host's speed.
END_TO_END = (("setup_s", "s"), ("cpu_rel", "ratio"), ("peak_rss_mb", "MiB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, plumbing check only")
    return p.parse_args(argv)


def machine_info(jobs: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pin": THREAD_PIN,
        "jobs": jobs,
        "platform": platform.platform(),
    }


def code_digest() -> str:
    """Digest of the burstfit sources and of this benchmark's own code."""
    h = hashlib.sha256()
    files = sorted((SRC / "burstfit").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def setup(workload, runner, rundir: Path, truth_path: Path, write_truth) -> tuple[float, float, bool]:
    """Interpreter start + `import burstfit.cli`, and the benchmark's own inputs."""
    rundir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    ok, startup, _, _, _ = runner.python(["-c", "import burstfit.cli"], rundir)
    if workload.name == "sim-ingest":
        write_truth(workload, truth_path)
    return time.perf_counter() - start, startup, ok


def check_counters(key: str, counters: dict, checks) -> None:
    """Work counters of one dataset must match every earlier run on it.

    The key names the workload, the dataset seed and the code digest; it
    is shared by both modes: a traced run must do the same work as the
    child-process run on the same inputs.
    """
    path = OUT / "counters" / f"{key}.json"
    current = json.loads(json.dumps(counters, sort_keys=True))
    if path.exists():
        before = json.loads(path.read_text())
        checks.check("counters repeat across runs", before == current,
                     f"{path.name}: {before} != {current}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(current, sort_keys=True) + "\n")
    os.replace(tmp, path)


def reference_s() -> float:
    """CPU seconds of a fixed loop that does not touch burstfit: how fast
    this VM's CPU runs right now.  Interpreted Python and numpy operations
    on small arrays, like the program's own hot loops."""
    start = time.process_time()
    acc = 0.0
    for i in range(1_500_000):
        acc += (i % 7) * 0.5
    x = np.linspace(0.01, 50.0, 2048)
    for k in range(4000):
        acc += float((np.exp(-x * (1.0 + k * 1e-3)) * np.log1p(x)).sum())
    return time.process_time() - start


def n_datasets(workload, seconds: float) -> int:
    return max(1, math.ceil(seconds / workload.pipeline_s))


def end_to_end(args, workload, events, runner, rundir, truth_path, checks, key):
    """Pipelines on n_datasets() datasets, with reference loops around them.

    A dataset whose pipeline fails is counted in `failed` and the next one
    takes its place, at most SPARE_DATASETS times, so every run takes its
    median over the same number of pipelines.  Only when the machine runs
    so slowly that the next pipeline would end past OVERRUN times
    --seconds does the run stop early.  Between pipelines the reference
    loop runs for about a twentieth of a pipeline's time, so that a long
    pipeline is compared with a long sample of the machine's speed.
    """
    from workloads import JOBS, Pipeline, PipelineFailed, check_outputs, dataset_seed, run_pipeline

    def reference_samples():
        return [reference_s() for _ in range(max(1, round(workload.pipeline_s / 4)))]

    records = []
    commands = failed_cmds = 0
    wanted = n_datasets(workload, args.seconds)
    start = time.perf_counter()
    refs = reference_samples()
    for index in range(wanted + SPARE_DATASETS):
        elapsed = time.perf_counter() - start
        if len(records) == wanted or (index and elapsed * (index + 1) / index
                                      > OVERRUN * args.seconds):
            break
        seed = dataset_seed(args.seed, index)
        workdir = rundir / f"d{index}"
        workdir.mkdir()
        pipe = Pipeline(runner, workdir)
        try:
            wall = run_pipeline(pipe, workload, events, seed, JOBS, truth_path)
        except PipelineFailed as exc:
            checks.messages.append(f"dataset {seed}: {exc}")
            failed_cmds += 1
        else:
            counters = check_outputs(workload, events, workdir, truth_path, checks)
            check_counters(key(seed), counters, checks)
            records.append({"dataset_seed": seed, "wall_s": wall, "cpu_s": pipe.cpu_s,
                            **{f"{k}_s": v for k, v in pipe.stages.items()},
                            "peak_rss_mb": pipe.peak_rss_mb, "counters": counters})
        commands += pipe.commands
        shutil.rmtree(workdir)
        refs += reference_samples()
    return records, refs, commands, failed_cmds


def summarize(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "burstfit" / "cli.py").is_file():
        print(f"error: burstfit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import JOBS, WORKLOADS, Checks, ChildRunner, dataset_seed, write_truth_artifact

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    events = workload.smoke_events if args.smoke else workload.events
    deadline = time.monotonic() + HARD_LIMIT_S
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    smoke = "-smoke" if args.smoke else ""
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{smoke}"

    digest = code_digest()

    def key(data_seed: int) -> str:
        return f"{workload.name}-{data_seed}{smoke}-{digest}"

    rundir = OUT / "work" / tag
    shutil.rmtree(rundir, ignore_errors=True)
    truth_path = rundir / "truth.json"
    checks = Checks()

    runner = ChildRunner(env, deadline)
    setups = [setup(workload, runner, rundir, truth_path, write_truth_artifact)
              for _ in range(SETUP_REPS)]
    for _, _, ok in setups:
        checks.check("import burstfit.cli", ok, "the CLI module does not import")
    setup_s = statistics.median(s for s, _, _ in setups)
    startup_s = statistics.median(s for _, s, _ in setups)

    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "events": events,
            "machine": machine_info(JOBS)}
    print(f"# machine: {json.dumps(info['machine'])}")
    if args.trace == 0:
        records, refs, commands, failed_cmds = end_to_end(
            args, workload, events, runner, rundir, truth_path, checks, key)
        if not records:
            print("error: no pipeline completed:\n" + "\n".join(checks.messages), file=sys.stderr)
            return 1
        stats = {k: summarize([r[k] for r in records])
                 for k in ("cpu_s", "wall_s", "simulate_s", "fit_s", "report_s", "peak_rss_mb")}
        stats["reference_s"] = summarize(refs)
        stats["setup_s"] = summarize([s for s, _, _ in setups])
        values = {"setup_s": stats["setup_s"]["median"],
                  "cpu_rel": stats["cpu_s"]["median"] / statistics.fmean(refs),
                  "peak_rss_mb": stats["peak_rss_mb"]["median"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        shortfalls = [r["counters"].get("nesting_shortfall") for r in records]
        info["pipelines"] = records
        info["reference_s"] = refs
        print(f"# {len(records)} pipelines; cpu_rel {values['cpu_rel']:.4f}; medians with [min, max]:")
        for name, s in stats.items():
            print(f"#   {name:12s} {s['median']:10.4f}  [{s['min']:.4f}, {s['max']:.4f}]  n={s['n']}")
        if shortfalls[0] is not None:
            print(f"#   nesting_shortfall (nats, per pipeline): "
                  + ", ".join(f"{x:.4f}" for x in shortfalls))
    else:
        from layers import PER_LAYER, traced_run

        m, counters, data_seed, commands, failed_cmds, tracer = traced_run(
            workload, events, [dataset_seed(args.seed, i) for i in range(TRACED_DATASETS)],
            rundir / "traced-run", truth_path, runner, checks, budget=args.seconds / 4)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "results" / f"{tag}-spans.json")
        if not m:
            print("error: traced pipeline failed:\n" + "\n".join(checks.messages), file=sys.stderr)
            return 1
        m["cli.startup_s"] = startup_s
        check_counters(key(data_seed), counters, checks)
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}
        info["counters"] = counters
        not_run = [n for n, u in PER_LAYER if u == "s" and m[n] == 0]
        print("# per-layer self time (s), top 10:")
        for name, sec in sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:10]:
            print(f"#   {name:34s} {sec:9.4f}")
        if not_run:
            print(f"# not run on this workload (reported as 0): {', '.join(not_run)}")

    for msg in checks.messages:
        print(f"# FAILED {msg}", file=sys.stderr)
    attempted = commands + checks.attempted
    failed = failed_cmds + checks.failed
    info.update(metrics=metrics, attempted=attempted, failed=failed,
                failed_ops=failed / attempted, failures=checks.messages)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(info, indent=1) + "\n")
    shutil.rmtree(rundir, ignore_errors=True)
    print(f"# failed_ops = {failed}/{attempted}")
    # correct: every output that was produced passed its checks.  A command
    # that exits non-zero produced no output; it counts in `failed` only.
    print(json.dumps({"correct": checks.failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
