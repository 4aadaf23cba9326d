"""Command-line front end: closed-form bounds, single simulations, budget
sweeps, the two-panel figure experiment, and capacity scans.

Each argument is checked in one place: argparse checks types, choices,
required flags and flags that exclude each other; `ExperimentSpec`,
`harness.defectives_for_beta` and `bounds` check the values of a run and
raise `bounds.InputError`, before any output or directory is made. `main`
alone maps errors to exit codes: 0 success, 2 argument error (argparse's or
an `InputError`, and no other `ValueError`), 3 I/O error, 1 internal
invariant breach. All output is deterministic given the full flag set
including --seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import bounds, harness
from .algorithms import ADAPTIVE_ALGORITHMS, ALGORITHM_NAMES
from .bounds import InputError, NoiseKind, NoiseModel, ProblemSize
from .model import TRUTHFUL_CHANNELS


def parse_noise(text: str) -> NoiseModel:
    """Parse `kind[:p]` with kinds noiseless|erasure|symmetric|additive."""
    kind_text, _, p_text = text.partition(":")
    try:
        kind = NoiseKind(kind_text)
    except ValueError:
        raise InputError(f"--noise: unknown kind {kind_text!r} "
                         f"(expected one of {[k.value for k in NoiseKind]})")
    p = 0.0
    if p_text:
        try:
            p = float(p_text)
        except ValueError:
            raise InputError(f"--noise: bad probability {p_text!r}")
    elif kind is not NoiseKind.NOISELESS:
        raise InputError(f"--noise: {kind.value} needs a probability, e.g. {kind.value}:0.1")
    try:
        return NoiseModel(kind, p)
    except InputError as e:
        raise InputError(f"--noise: {e}")


def _size(args) -> ProblemSize:
    try:
        return ProblemSize(n=args.n, k=args.k)
    except InputError as e:
        raise InputError(f"--n/--k: {e}")


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
        print(out_path)
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_bounds(args) -> int:
    size = _size(args)
    noise = parse_noise(args.noise) if args.noise else None
    report = bounds.bound_report(size, t=args.t, noise=noise)
    payload = {k: v for k, v in dataclasses.asdict(report).items() if v is not None}
    payload.update(n=size.n, k=size.k)
    if args.t is not None:
        payload["t"] = args.t
    _emit(_json(payload), args.out)
    return 0


def _spec_from_args(args, budget_range=None) -> harness.ExperimentSpec:
    size = _size(args)
    noise = parse_noise(args.noise) if args.noise else NoiseModel.noiseless()
    comp_t = getattr(args, "t", None)
    if getattr(args, "delta", None) is not None:
        comp_t = bounds.comp_test_count(size, args.delta)
    return harness.ExperimentSpec(
        size=size, algorithm=args.alg, noise=noise, trials=args.trials,
        master_seed=args.seed, budget_range=budget_range, comp_t=comp_t)


def cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    run = harness.tally(spec)
    lo, hi = harness.wilson_interval(run.wins, spec.trials)
    payload = {
        "n": spec.size.n, "k": spec.size.k, "algorithm": spec.algorithm,
        "noise": spec.noise.kind.value, "noise_p": spec.noise.p,
        "trials": spec.trials, "seed": spec.master_seed,
        "success_rate": run.wins / spec.trials, "error_rate": 1.0 - run.wins / spec.trials,
        "ci_lo": lo, "ci_hi": hi,
        "mean_tests": run.tests_sum / spec.trials, "max_tests": run.tests_max,
    }
    if spec.algorithm in ADAPTIVE_ALGORITHMS and spec.size.k >= 1:
        payload["guarantee_tests"] = harness.guarantee_for(spec.algorithm, spec.size)
        if spec.noise.kind not in TRUTHFUL_CHANNELS:
            payload["no_guarantee"] = True  # no decoder exists for these channels
    if spec.algorithm == "comp":
        payload["t"] = spec.comp_t
    _emit(_json(payload), args.out)
    return 0


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args, budget_range=(args.t_min, args.t_max, args.step))
    curve = harness.success_curve(spec)
    _emit("\n".join(harness.curve_csv_lines(curve)) + "\n", args.out)
    return 0


def cmd_figure1(args) -> int:
    for p in harness.figure1_experiment(args.out_dir, args.trials, args.seed):
        print(p)
    return 0


def cmd_capacity(args) -> int:
    rows = harness.capacity_scan(args.beta, sorted(args.n_list), args.alg,
                                 args.trials, args.seed)
    _emit("\n".join(harness.capacity_csv_lines(rows)) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouptest",
        description="Adaptive group testing: algorithms, bounds, and Monte Carlo experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_alg=True):
        p.add_argument("--n", type=int, required=True, help="item count")
        p.add_argument("--k", type=int, required=True, help="defective count")
        if with_alg:
            p.add_argument("--alg", required=True, choices=ALGORITHM_NAMES)
            p.add_argument("--noise", default=None, help="noise spec kind[:p]")
            p.add_argument("--trials", type=int, default=1000)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("bounds", help="closed-form bounds for one (n, k)")
    common(p, with_alg=False)
    p.add_argument("--t", type=int, default=None, help="test budget")
    p.add_argument("--noise", default=None, help="noise spec kind[:p]")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run one Monte Carlo configuration")
    common(p)
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--t", type=int, default=None, help="COMP test budget")
    budget.add_argument("--delta", type=float, default=None,
                        help="COMP error exponent: t = ceil((1+delta) e k ln n)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="success probability over a budget grid")
    common(p)
    p.add_argument("--t-min", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure1", help="budget sweeps at (10,500) and (30,9699)")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("capacity", help="rate scan with k = n^(1-beta)")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n-list", type=int, nargs="+", required=True, dest="n_list")
    p.add_argument("--alg", default="hgbsa", choices=tuple(ADAPTIVE_ALGORITHMS))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_capacity)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except harness.InvariantBreach as e:
        print(f"error: invariant breach: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse's errors and --help
        return int(e.code or 0)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
