"""Command-line front end: simulate, fit, compare, hist, eval tables.

Every command is deterministic given its flags, inputs, and seed, and
all file outputs go through write-then-rename, so an interrupted run
never leaves a partial artifact behind.

Exit codes: 0 success, 1 runtime failure, 2 usage error.

Each command imports the modules it runs inside its handler, so a
command pays the import time of its own modules only: `hist`,
`simulate`, the `eval-*` tables and `compare` of loaded fits never load
the fitter.  Only the handlers that compute import numpy, after their
usage checks: importing this module, `--help`, every usage error and
`compare` of loaded fits run without it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import io as bio
from .model import (
    ModelParams,
    RefractoryKernel,
    VARIANTS,
    iti_density,
    refractory_eval,
)

if TYPE_CHECKING:
    import numpy as np

    from .fit import FitConfig
    from .likelihood import ItiSet


def _parse_gamma(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad kernel coefficient list {text!r}") from None


def _parse_grid(text: str) -> tuple[float, float, int]:
    """'start:stop:count' -> (start, stop, count) of a log-spaced grid.

    Validation only, so parsing needs no numpy: the handler builds the
    grid, and a count past io's cap on table rows is refused here, before
    anything is allocated.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}") from None
    if not 0.0 < start < stop or count < 2:
        raise argparse.ArgumentTypeError(f"grid needs 0 < start < stop and count >= 2, got {text!r}")
    if not math.isfinite(stop):
        raise argparse.ArgumentTypeError(f"grid bounds must be finite, got {text!r}")
    if count > bio._MAX_TABLE_ROWS:
        raise argparse.ArgumentTypeError(
            f"grid count {count} is past the cap of {bio._MAX_TABLE_ROWS} table rows"
        )
    return start, stop, count


def _build_params(args, parser) -> ModelParams:
    gamma = args.gamma or ()
    n_terms = VARIANTS[args.variant].n_kernel_terms
    if len(gamma) != n_terms:
        parser.error(
            f"variant {args.variant} takes {n_terms} kernel coefficient(s), got {len(gamma)}"
        )
    try:
        return ModelParams(
            a=args.a,
            b=args.b,
            c=math.log(args.rho),
            kernel=RefractoryKernel.log_spaced(gamma),
            variant=args.variant,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_simulate(args, parser) -> int:
    if args.events is not None and args.events < 2:
        parser.error("--events must be at least 2, the fewest that form an interval")
    if args.duration is not None and not 0.0 < args.duration < math.inf:
        parser.error("--duration must be positive and finite")
    if not 0.0 < args.dt < math.inf:
        parser.error("--dt must be positive and finite")
    if (args.events is None) == (args.duration is None):
        parser.error("give exactly one of --events / --duration")
    if not 0.0 < args.rho < math.inf:
        parser.error("--rho must be a positive finite rate")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.mode == "continuous" and args.events is None:
        parser.error("continuous mode generates by --events, not --duration")
    params = _build_params(args, parser)
    from .simulate import _train_from_intervals, simulate_continuous, simulate_discrete

    if args.mode == "continuous":
        intervals = simulate_continuous(params, n_events=args.events, seed=args.seed)
        train = _train_from_intervals(intervals)
    else:
        train = simulate_discrete(
            params, seed=args.seed, n_events=args.events, duration=args.duration, dt=args.dt
        )
        if train.n_events < 2:
            raise RuntimeError(f"simulated {train.n_events} events, fewer than 2; nothing written")

    bio.save_timestamps(train, args.out)
    span = train.duration_seconds
    rate = (train.n_events - 1) / span if span > 0 else float("nan")
    print(f"events={train.n_events} span={span:.3f}s rate={rate:.4f}Hz -> {args.out}")
    return 0


def _load_itis(path) -> ItiSet:
    return bio.compute_itis(bio.load_timestamps(path))


def _load_config(path) -> FitConfig:
    from .fit import FitConfig

    return FitConfig.from_file(path) if path else FitConfig()


def _cmd_fit(args, parser) -> int:
    from .fit import fit

    result = fit(args.variant, _load_itis(args.infile), _load_config(args.config))
    bio.write_atomic(args.out, bio.serialize_fit(result))
    p = result.params_star
    print(
        f"{args.variant}: a={p.a:.4f} b={p.b:.4f} rho={p.rho:.4f} "
        f"objective={result.objective:.2f} bic={result.bic:.2f} "
        f"converged={result.converged} ({result.reason}) -> {args.out}"
    )
    return 0


def _cmd_compare(args, parser) -> int:
    if not args.fits and not args.variants:
        parser.error("give fit artifacts (--fits) and/or variants to fit (--variants)")
    if args.variants and not args.infile:
        parser.error("--variants needs --in to fit against")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    from .selection import compare

    results = {}
    for path in args.fits or ():
        res = bio.deserialize_fit(Path(path).read_text())
        if res.variant in results:
            parser.error(f"variant {res.variant} appears twice")
        results[res.variant] = res
    # a variant named twice is fitted once
    todo = [v for v in dict.fromkeys(args.variants or ()) if v not in results]
    if todo:
        # imported here: comparing loaded fits alone never loads the fitter
        from .fit import fit

        # parsed once; the pool pickles both into each task
        fit_one = functools.partial(fit, data=_load_itis(args.infile), cfg=_load_config(args.config))
        if args.jobs > 1 and len(todo) > 1:
            # imported here: the pool machinery costs every other command
            # its import time
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(args.jobs, len(todo))) as pool:
                results.update(zip(todo, pool.map(fit_one, todo)))
        else:
            results.update(zip(todo, map(fit_one, todo)))
    matrix = compare(results)
    bio.write_atomic(args.out, bio.serialize_comparison(matrix))
    for name in sorted(matrix.bic):
        print(f"BIC[{name}] = {matrix.bic[name]:.2f}")
    best = min(matrix.bic, key=matrix.bic.get)
    rivals = [n for n in matrix.bic if n != best]
    beaten = [n for n in rivals if matrix.preference[(best, n)] == "i_favored"]
    if rivals and len(beaten) == len(rivals):
        print(f"favored: {best}")
    else:
        print("favored: none")
    print(f"-> {args.out}")
    return 0


def _write_table(path, taus: np.ndarray, values: np.ndarray) -> None:
    lines = [f"{t:.12g} {v:.12g}" for t, v in zip(taus, values)]
    bio.write_atomic(path, "\n".join(lines) + "\n")


def _cmd_hist(args, parser) -> int:
    if args.bins_per_decade < 1:
        parser.error("--bins-per-decade must be at least 1")
    data = _load_itis(args.infile)
    hist = bio.log_binned_histogram(data, bins_per_decade=args.bins_per_decade)
    _write_table(args.out, hist.centers, hist.densities)
    print(f"{hist.n_total} intervals in {hist.counts.size} bins -> {args.out}")
    return 0


def _load_fit_params(path) -> ModelParams:
    return bio.deserialize_fit(Path(path).read_text()).params_star


def _cmd_eval(args, parser) -> int:
    """eval-density and eval-kernel: args.evaluate(params, grid), tabulated."""
    import numpy as np

    params = _load_fit_params(args.fit)
    grid = np.geomspace(*args.tau_grid)
    _write_table(args.out, grid, args.evaluate(params, grid))
    print(f"{grid.size} {args.quantity} values -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burstfit",
        description="Simulate, fit, and compare bursty interval models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a timestamp file")
    sim.add_argument("--variant", choices=sorted(VARIANTS), default="M1")
    sim.add_argument("--a", type=float, default=0.7, help="priority shape a")
    sim.add_argument("--b", type=float, default=1.0, help="priority shape b")
    sim.add_argument("--rho", type=float, default=5.0, help="base rate in Hz")
    sim.add_argument(
        "--gamma",
        type=_parse_gamma,
        default=None,
        help="comma-separated kernel coefficients, e.g. '-0.3,-0.4,0,0,0,0,0,0'",
    )
    sim.add_argument("--events", type=int, default=None, help="number of events")
    sim.add_argument("--duration", type=float, default=None, help="span in seconds (discrete mode)")
    sim.add_argument("--dt", type=float, default=1e-3, help="bin width for discrete mode")
    sim.add_argument("--mode", choices=("continuous", "discrete"), default="continuous")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    fit_p = sub.add_parser("fit", help="fit one variant to a timestamp file")
    fit_p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    fit_p.add_argument("--in", dest="infile", required=True)
    fit_p.add_argument("--config", default=None, help="key=value fit settings")
    fit_p.add_argument("--out", required=True)
    fit_p.set_defaults(func=_cmd_fit)

    cmp_p = sub.add_parser("compare", help="BIC comparison across variants")
    cmp_p.add_argument("--in", dest="infile", default=None)
    cmp_p.add_argument("--fits", nargs="*", default=None, help="existing fit artifacts")
    cmp_p.add_argument("--variants", nargs="*", choices=sorted(VARIANTS), default=None)
    cmp_p.add_argument("--config", default=None)
    cmp_p.add_argument("--jobs", type=int, default=1, help="parallel fits for --variants")
    cmp_p.add_argument("--out", required=True)
    cmp_p.set_defaults(func=_cmd_compare)

    hist_p = sub.add_parser("hist", help="log-binned density table")
    hist_p.add_argument("--in", dest="infile", required=True)
    hist_p.add_argument("--bins-per-decade", type=int, default=8)
    hist_p.add_argument("--out", required=True)
    hist_p.set_defaults(func=_cmd_hist)

    dens = sub.add_parser("eval-density", help="model density on a grid")
    dens.add_argument("--fit", required=True, help="fit artifact to evaluate")
    dens.add_argument("--tau-grid", type=_parse_grid, required=True, help="start:stop:count (log-spaced)")
    dens.add_argument("--out", required=True)
    dens.set_defaults(func=_cmd_eval, evaluate=iti_density, quantity="density")

    kern = sub.add_parser("eval-kernel", help="rate modulation on a grid")
    kern.add_argument("--fit", required=True, help="fit artifact to evaluate")
    kern.add_argument("--tau-grid", type=_parse_grid, default="0.001:5:200")
    kern.add_argument("--out", required=True)
    kern.set_defaults(
        func=_cmd_eval,
        evaluate=lambda params, grid: refractory_eval(params.kernel, grid),
        quantity="kernel",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
