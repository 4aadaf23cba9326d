"""Monte Carlo experiment engine: reproducible trials, success curves with
Wilson intervals and analytic bound overlays, the two-panel budget-sweep
experiment at (k, n) = (10, 500) and (30, 9699), and capacity scans in the
k = n^(1-beta) regime.

An `ExperimentSpec` checks every run input when it is built, so a bad one
raises `bounds.InputError` before any trial runs. `figure1_experiment` and
`capacity_scan` build all their specs before they run any, or make any
directory. COMP's budget is its one field `comp_t`;
`bounds.comp_test_count` turns an error exponent into one.

Every trial derives its RNG stream from (master_seed, trial_index), so its
result does not depend on which other trials run with it. A trial either
runs its algorithm against a `TestOracle` (`run_trial`) or, for adaptive
algorithms on a noiseless or erasure channel, is sampled and answered in a
batch (`_run_batch`): the algorithm's firm tests come from
`algorithms.batch_runs`, and the harness only seeds, samples, checks them
against the guarantee and lands them through the erasures.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bounds
from .algorithms import ADAPTIVE_ALGORITHMS, SearchOverrun, batch_runs, comp_run
from .bounds import InputError, NoiseKind, NoiseModel, ProblemSize
from .model import (TestOracle, derive_stream_seed, derive_stream_seeds, make_rng,
                    sample_defective_set, sample_defective_sets)

_WILSON_Z = 1.959963984540054  # 95%
# Largest t x n COMP design a spec accepts: `comp_run` peaks near 9 bytes an
# entry (the uniform draws and the design), so one trial stays under 300 MB.
MAX_COMP_DESIGN_CELLS = 1 << 25
# Most trials x k cells sampled and walked together, max(1, BATCH_CELLS // k)
# trials: the sampler and the walk peak at 80-200 bytes a cell (190 MB at one
# trial of k = 10^6), and at k = 30 the walk is no slower at 546 than at 1024.
BATCH_CELLS = 1 << 14
# Most budgets a sweep accepts: each is a curve point and a CSV row (about
# 15 us each), and the figure needs a few hundred.
MAX_BUDGETS = 1 << 16
# Largest n a spec accepts: the batched walk takes bit lengths with
# `np.frexp`, exact only for integers up to 2^53.
MAX_N = 1 << 53
# Most expected submissions an adaptive erasure spec accepts, trials x
# guarantee / (1 - p): `_land` deals 1-2e8 uniforms a second, so a run at the
# cap takes under a minute, while p near 1 would otherwise run for hours.
MAX_SUBMISSIONS = 1 << 32


@dataclass(frozen=True)
class ExperimentSpec:
    size: ProblemSize
    algorithm: str
    noise: NoiseModel = NoiseModel.noiseless()
    trials: int = 1000
    master_seed: int = 0
    budget_range: Optional[tuple[int, int, int]] = None  # (t_min, t_max, step)
    comp_t: Optional[int] = None      # COMP's test budget

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("need at least one trial")
        if self.size.n > MAX_N:
            raise InputError(f"n must be <= {MAX_N}, got {self.size.n}")
        if self.budget_range is not None:
            t_min, t_max, step = self.budget_range
            if t_min > t_max or step < 1 or t_min < 0:
                raise InputError(f"bad budget range {self.budget_range}")
            if (t_max - t_min) // step + 1 > MAX_BUDGETS:
                raise InputError(f"budget range {self.budget_range} has more than "
                                 f"{MAX_BUDGETS} budgets")
        if self.algorithm == "comp":
            self._check_comp()
        elif self.comp_t is not None:
            raise InputError(f"only comp takes a test budget; {self.algorithm} "
                             "runs until it decodes")
        if self.algorithm in ADAPTIVE_ALGORITHMS and self.noise.kind is NoiseKind.ERASURE:
            self._check_erasure()

    def _check_erasure(self):
        p = self.noise.p
        if p >= 1.0:
            raise InputError("erasure probability 1 never terminates: "
                             "every test is retried until it lands")
        if self.trials * guarantee_for(self.algorithm, self.size) > MAX_SUBMISSIONS * (1.0 - p):
            raise InputError(f"erasure probability {p} needs about trials x guarantee "
                             f"/ (1 - p) submissions, more than {MAX_SUBMISSIONS}")

    def _check_comp(self):
        if self.size.k < 1:
            raise InputError("COMP design density 1/k needs k >= 1")
        if self.budget_range is not None:
            t_min, t_max = self.budget_range[:2]
        elif self.comp_t is not None:
            t_min = t_max = self.comp_t
        else:
            raise InputError("comp needs a test budget (comp_t) or a budget range")
        if t_min < 1:
            raise InputError(f"COMP needs t >= 1, got {t_min}")
        if t_max * self.size.n > MAX_COMP_DESIGN_CELLS:
            raise InputError(f"COMP needs t <= {MAX_COMP_DESIGN_CELLS // self.size.n} "
                             f"at n = {self.size.n} (t x n <= {MAX_COMP_DESIGN_CELLS})")

    def budgets(self) -> list[int]:
        if self.budget_range is None:
            raise ValueError("no budget range configured")
        t_min, t_max, step = self.budget_range
        return list(range(t_min, t_max + 1, step))


@dataclass(frozen=True)
class TrialResult:
    success: bool   # exact set equality with the truth
    tests_used: int


@dataclass
class CurvePoint:
    t: int
    success: float
    ci_lo: float
    ci_hi: float
    converse: float
    weak_converse: float


@dataclass
class SuccessCurve:
    algorithm: str
    size: ProblemSize
    points: list
    log2_binom_marker: float
    guarantee_marker: int


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2 * trials)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, (centre - half) / denom)
    hi = 1.0 if successes == trials else min(1.0, (centre + half) / denom)
    return lo, hi


def guarantee_for(algorithm: str, size: ProblemSize) -> int:
    """Budget at which the named adaptive algorithm is certain to finish;
    0 at k = 0, where no test is needed."""
    if algorithm in ADAPTIVE_ALGORITHMS and size.k == 0:
        return 0
    if algorithm == "rbt":
        return bounds.rbt_guarantee(size)
    if algorithm == "hgbsa":
        return bounds.hwang_guarantee(size)
    if algorithm == "variant":
        # ceiling of the analytic bound plus k slack for per-round
        # integer-ceiling effects the continuous derivation ignores
        return math.ceil(bounds.variant_guarantee(size)) + size.k
    raise ValueError(f"no deterministic guarantee for algorithm {algorithm!r}")


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialResult:
    """One independent trial, fully determined by (spec, trial_index).

    Under erasure noise the oracle resubmits each erased adaptive test until
    it lands. A binary search overrun (possible only under symmetric or
    additive noise) ends the trial as a failure."""
    n, k = spec.size.n, spec.size.k
    seed = derive_stream_seed(spec.master_seed, trial_index)
    rng = make_rng(seed, 0)
    truth = sample_defective_set(n, k, rng)
    oracle = TestOracle(n, truth, spec.noise, rng)
    if spec.algorithm == "comp":
        design_rng = make_rng(seed, 1)
        result = comp_run(oracle, n, k, spec.comp_t, design_rng)
    else:
        try:
            result = ADAPTIVE_ALGORITHMS[spec.algorithm](oracle, n, k)
        except SearchOverrun:
            return TrialResult(success=False, tests_used=oracle.tests_used)
    return TrialResult(success=result.estimate == truth, tests_used=result.tests_used)


def run_trials(spec: ExperimentSpec) -> list[TrialResult]:
    """All trials of a spec, run serially in one process, in trial-index
    order.

    Adaptive trials on a noiseless or erasure channel are sampled as
    `run_trial` samples them and then walked together (`_run_batch`); the
    results equal `run_trial`'s trial by trial. Other trials go through
    `run_trial`."""
    if spec.algorithm == "comp" and spec.comp_t is None:
        raise InputError("comp trials need comp_t; success_curve sweeps a budget range")
    if not (spec.algorithm in ADAPTIVE_ALGORITHMS
            and spec.noise.kind in (NoiseKind.NOISELESS, NoiseKind.ERASURE)):
        return [run_trial(spec, i) for i in range(spec.trials)]
    batch = max(1, BATCH_CELLS // max(spec.size.k, 1))
    return [r for lo in range(0, spec.trials, batch)
            for r in _run_batch(spec, lo, min(spec.trials, lo + batch))]


class InvariantBreach(Exception):
    """A batched trial decoded wrongly or spent more firm tests than
    `guarantee_for`; the message names its (master_seed, trial_index)."""


def _run_batch(spec: ExperimentSpec, start: int, stop: int) -> list[TrialResult]:
    """Trials start..stop-1, at most `BATCH_CELLS` cells (trials x k) or one
    trial, firm outcomes being the truth. They are seeded and sampled in bulk
    (`sample_defective_sets`), with the seeds `run_trial` derives; a trial
    that numpy would sample on a rejection redraw, or every trial when the
    bulk path does not apply, goes through `sample_defective_set`. The algorithm's firm tests and decodes come from
    `batch_runs`. Under erasure each trial's generator is handed on to
    `_land` as sampling left it."""
    n, k = spec.size.n, spec.size.k
    erasure = spec.noise.kind is NoiseKind.ERASURE
    seeds = derive_stream_seeds(derive_stream_seeds(spec.master_seed, np.arange(start, stop)), 0)
    truths, rngs = sample_defective_sets(n, k, seeds)
    firm, success = batch_runs(spec.algorithm, n, truths)
    limit = guarantee_for(spec.algorithm, spec.size)
    bad = np.flatnonzero(~success | (firm > limit))
    if len(bad):
        i = bad[0]
        raise InvariantBreach(
            f"trial (master_seed={spec.master_seed}, trial_index={start + i}) of "
            f"{spec.algorithm} at n={n}, k={k}, noise {spec.noise.kind.value}:"
            f"{spec.noise.p:g}: decoded {'right' if success[i] else 'wrongly'} in "
            f"{firm[i]} firm tests, guarantee {limit}")
    used = _land(firm.tolist(), spec.noise.p, rngs) if erasure else firm.tolist()
    return [TrialResult(s, t) for s, t in zip(success.tolist(), used)]


def _land(firm: list[int], p: float, rngs) -> list[int]:
    """Submissions per trial under erasure: its firm tests land in order on
    the uniforms u >= p its generator deals next, and each u < p is an
    erased submission. Draws are capped in size; that changes no value."""
    used = []
    for left, rng in zip(firm, rngs):
        spent = 0
        while left:
            u = rng.random(min(1 << 16, int(left / (1 - p)) + 64))
            lands = np.flatnonzero(u >= p)
            if len(lands) >= left:
                spent += int(lands[left - 1]) + 1
                break
            spent, left = spent + len(u), left - len(lands)
        used.append(spent)
    return used


def success_curve(spec: ExperimentSpec) -> SuccessCurve:
    """Empirical success probability per budget with bound overlays.

    Adaptive exact-recovery algorithms run to completion once per trial and
    success at budget T reads off the CDF of tests_used (anytime-correct).
    COMP is non-adaptive, so each budget gets its own batch of trials.
    """
    budgets = spec.budgets()
    points = []
    if spec.algorithm == "comp":
        for bi, t in enumerate(budgets):
            # distinct stream block per budget
            sub = replace(spec, comp_t=t,
                          master_seed=derive_stream_seed(spec.master_seed, bi + 1))
            results = run_trials(sub)
            wins = sum(r.success for r in results)
            points.append((t, wins))
    else:
        used = sorted(r.tests_used for r in run_trials(spec) if r.success)
        points = [(t, bisect_right(used, t)) for t in budgets]

    curve_points = []
    for t, wins in points:
        lo, hi = wilson_interval(wins, spec.trials)
        proper = 1 <= spec.size.k < spec.size.n
        curve_points.append(CurvePoint(
            t=t, success=wins / spec.trials, ci_lo=lo, ci_hi=hi,
            converse=bounds.converse_success_bound(spec.size, t),
            weak_converse=(bounds.weak_converse_bound(spec.size, t) if proper
                           else float("nan")),
        ))
    guarantee = (guarantee_for(spec.algorithm, spec.size)
                 if spec.algorithm in ADAPTIVE_ALGORITHMS else 0)
    return SuccessCurve(algorithm=spec.algorithm, size=spec.size,
                        points=curve_points,
                        log2_binom_marker=bounds.log2_binom(spec.size),
                        guarantee_marker=guarantee)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


CURVE_HEADER = "t,success,ci_lo,ci_hi,converse,weak_converse,algorithm"
FIG1_HEADER = CURVE_HEADER + ",log2_binom,guarantee"


def curve_csv_lines(curve: SuccessCurve, with_markers: bool = False) -> list[str]:
    lines = [FIG1_HEADER if with_markers else CURVE_HEADER]
    for p in curve.points:
        row = (f"{p.t},{_fmt(p.success)},{_fmt(p.ci_lo)},{_fmt(p.ci_hi)},"
               f"{_fmt(p.converse)},{_fmt(p.weak_converse)},{curve.algorithm}")
        if with_markers:
            row += f",{_fmt(curve.log2_binom_marker)},{curve.guarantee_marker}"
        lines.append(row)
    return lines


FIGURE1_CONFIGS = (
    ("fig1_k10_n500.csv", ProblemSize(n=500, k=10)),
    ("fig1_k30_n9699.csv", ProblemSize(n=9699, k=30)),
)


def _figure1_budget_range(size: ProblemSize) -> tuple[int, int, int]:
    lo = int(bounds.log2_binom(size)) - 25
    hi = max(guarantee_for("hgbsa", size), guarantee_for("variant", size)) + 2
    return (max(1, lo), hi, 1)


def figure1_experiment(out_dir, trials: int, master_seed: int) -> list[Path]:
    """Success-vs-budget CSVs for the splitting algorithms at
    (k, n) = (10, 500) and (30, 9699), with bound overlays and markers.
    Byte-identical across reruns with the same seed. Every spec is built
    before the directory is made, so a bad input leaves no trace."""
    panels = [(fname, [ExperimentSpec(size=size, algorithm=alg, trials=trials,
                                      master_seed=derive_stream_seed(master_seed, alg_index),
                                      budget_range=_figure1_budget_range(size))
                       for alg_index, alg in enumerate(("hgbsa", "variant"))])
              for fname, size in FIGURE1_CONFIGS]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fname, specs in panels:
        lines = [FIG1_HEADER]
        for spec in specs:
            lines.extend(curve_csv_lines(success_curve(spec), with_markers=True)[1:])
        path = out_dir / fname
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def defectives_for_beta(n: int, beta: float) -> int:
    """k = n^(1-beta) rounded to the nearest integer, floored at 1. n must
    be in [1, MAX_N], where it converts to a float exactly."""
    if not 0.0 < beta < 1.0:
        raise InputError(f"beta must be in (0,1), got {beta}")
    if not 1 <= n <= MAX_N:
        raise InputError(f"n must be in [1, {MAX_N}], got {n}")
    return max(1, int(math.floor(n ** (1.0 - beta) + 0.5)))


@dataclass
class CapacityRow:
    n: int
    k: int
    mean_tests: float
    achieved_rate: float
    guarantee_tests: int
    guarantee_rate: float


def capacity_scan(beta: float, n_list: Sequence[int], algorithm: str,
                  trials: int, seed: int) -> list[CapacityRow]:
    """Achieved and guaranteed rates along a sequence of problem sizes with
    k = n^(1-beta). For hgbsa the guarantee rate approaches 1 from below.
    Every spec is built before any trial runs."""
    specs = [ExperimentSpec(size=ProblemSize(n=n, k=defectives_for_beta(n, beta)),
                            algorithm=algorithm, trials=trials,
                            master_seed=derive_stream_seed(seed, idx))
             for idx, n in enumerate(n_list)]
    rows = []
    for spec in specs:
        size = spec.size
        mean = sum(r.tests_used for r in run_trials(spec)) / spec.trials
        guarantee = guarantee_for(algorithm, size)
        rows.append(CapacityRow(
            n=size.n, k=size.k, mean_tests=mean,
            achieved_rate=bounds.log2_binom(size) / max(mean, 1.0),
            guarantee_tests=guarantee,
            guarantee_rate=bounds.rate(size, max(guarantee, 1))))
    return rows
