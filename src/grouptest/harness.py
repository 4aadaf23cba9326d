"""Monte Carlo experiment engine: reproducible trials, success curves with
Wilson intervals and analytic bound overlays, the two-panel budget-sweep
experiment at (k, n) = (10, 500) and (30, 9699), and capacity scans in the
k = n^(1-beta) regime.

Every trial derives its RNG stream from (master_seed, trial_index), so
parallel and serial execution produce identical results.
"""
from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

from . import bounds
from .algorithms import ADAPTIVE_ALGORITHMS, comp_run
from .bounds import NoiseKind, NoiseModel, ProblemSize
from .model import (SearchOverrun, TestOracle, derive_stream_seed, make_rng,
                    sample_defective_set)

_WILSON_Z = 1.959963984540054  # 95%


@dataclass(frozen=True)
class ExperimentSpec:
    size: ProblemSize
    algorithm: str
    noise: NoiseModel = NoiseModel.noiseless()
    trials: int = 1000
    master_seed: int = 0
    budget_range: Optional[tuple[int, int, int]] = None  # (t_min, t_max, step)
    delta: Optional[float] = None     # COMP exponent
    comp_t: Optional[int] = None      # explicit COMP budget

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.budget_range is not None:
            t_min, t_max, step = self.budget_range
            if t_min > t_max or step < 1 or t_min < 0:
                raise ValueError(f"bad budget range {self.budget_range}")
        if self.delta is not None and not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.algorithm == "comp" and self.size.k < 1:
            raise ValueError("COMP design density 1/k needs k >= 1")
        t_min = self.budget_range[0] if self.budget_range else self.comp_t
        if self.algorithm == "comp" and t_min is not None and t_min < 1:
            raise ValueError(f"COMP needs t >= 1, got {t_min}")
        if (self.algorithm in ADAPTIVE_ALGORITHMS
                and self.noise.kind is NoiseKind.ERASURE and self.noise.p >= 1.0):
            raise ValueError("erasure probability 1 never terminates: "
                             "every test is retried until it lands")

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
    """Budget at which the named adaptive algorithm is certain to finish."""
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
        t = spec.comp_t
        if t is None:
            if spec.delta is None:
                raise ValueError("COMP needs an explicit budget or a delta")
            t = bounds.comp_test_count(spec.size, spec.delta)
        design_rng = make_rng(seed, 1)
        result = comp_run(oracle, n, k, t, design_rng)
    else:
        try:
            result = ADAPTIVE_ALGORITHMS[spec.algorithm](oracle, n, k)
        except SearchOverrun:
            return TrialResult(success=False, tests_used=oracle.tests_used)
    return TrialResult(success=result.estimate == truth, tests_used=result.tests_used)


def run_trials(spec: ExperimentSpec, threads: int = 1) -> list[TrialResult]:
    """All trials of a spec, across `threads` processes (0 = all cores), in
    trial-index order whatever the scheduling."""
    workers = threads or os.cpu_count() or 1
    if workers == 1:
        return [run_trial(spec, i) for i in range(spec.trials)]
    # imported here: it takes about 30 ms, which a serial run need not pay
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_trial, repeat(spec), range(spec.trials),
                             chunksize=max(1, spec.trials // (workers * 8))))


@dataclass
class TestsDistribution:
    counts: list
    mean: float
    max: int


def tests_distribution(spec: ExperimentSpec, threads: int = 1) -> TestsDistribution:
    """Empirical distribution of tests_used over the spec's trials."""
    results = run_trials(spec, threads)
    counts = sorted(r.tests_used for r in results)
    return TestsDistribution(counts=counts, mean=sum(counts) / len(counts),
                             max=counts[-1])


def success_curve(spec: ExperimentSpec, threads: int = 1) -> SuccessCurve:
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
            results = run_trials(sub, threads)
            wins = sum(r.success for r in results)
            points.append((t, wins))
    else:
        used = sorted(r.tests_used for r in run_trials(spec, threads) if r.success)
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


def figure1_experiment(out_dir, trials: int, master_seed: int,
                       threads: int = 1) -> list[Path]:
    """Success-vs-budget CSVs for the splitting algorithms at
    (k, n) = (10, 500) and (30, 9699), with bound overlays and markers.
    Byte-identical across reruns with the same seed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fname, size in FIGURE1_CONFIGS:
        lines = [FIG1_HEADER]
        for alg_index, alg in enumerate(("hgbsa", "variant")):
            spec = ExperimentSpec(
                size=size, algorithm=alg, trials=trials,
                master_seed=derive_stream_seed(master_seed, alg_index),
                budget_range=_figure1_budget_range(size))
            curve = success_curve(spec, threads)
            lines.extend(curve_csv_lines(curve, with_markers=True)[1:])
        path = out_dir / fname
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def defectives_for_beta(n: int, beta: float) -> int:
    """k = n^(1-beta) rounded to the nearest integer, floored at 1."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
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
                  trials: int, seed: int,
                  threads: int = 1) -> list[CapacityRow]:
    """Achieved and guaranteed rates along a sequence of problem sizes with
    k = n^(1-beta). For hgbsa the guarantee rate approaches 1 from below."""
    rows = []
    for idx, n in enumerate(n_list):
        k = defectives_for_beta(n, beta)
        size = ProblemSize(n=n, k=k)
        spec = ExperimentSpec(size=size, algorithm=algorithm, trials=trials,
                              master_seed=derive_stream_seed(seed, idx))
        dist = tests_distribution(spec, threads)
        guarantee = guarantee_for(algorithm, size)
        rows.append(CapacityRow(
            n=n, k=k, mean_tests=dist.mean,
            achieved_rate=bounds.log2_binom(size) / max(dist.mean, 1.0),
            guarantee_tests=guarantee,
            guarantee_rate=bounds.rate(size, guarantee)))
    return rows
