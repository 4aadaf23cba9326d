"""Monte Carlo experiment engine: reproducible trials, success curves with
Wilson intervals and analytic bound overlays, the two-panel budget-sweep
experiment at (k, n) = (10, 500) and (30, 9699), and capacity scans in the
k = n^(1-beta) regime.

An `ExperimentSpec` checks every run input when it is built, so a bad one
raises `bounds.InputError` before any trial runs: the validity checks one
by one, then every numeric limit as a row of one table
(`ExperimentSpec.limits`), refused at the first row above its bound.
`figure1_experiment` and `capacity_scan` build all their specs before they
run any, or make any directory. A COMP spec takes one budget: `comp_t` to
run, or a range that `success_curve` sweeps as one comp_t spec a budget;
`bounds.comp_test_count` turns an error exponent into a comp_t.

Every trial derives its RNG stream from (master_seed, trial_index), so its
result does not depend on which other trials run with it. Trials are seeded
and sampled in bulk a batch at a time (`_run_batch`) and folded by `tally`.
COMP trials draw their designs from bulk-seeded streams into one reused
buffer, a chunk of trials at a time, and decode each chunk with a handful of
numpy calls, the channel one `model.design_negatives` call (`_run_comp`);
adaptive trials on a channel in `model.TRUTHFUL_CHANNELS` (noiseless,
erasure) are answered together by `algorithms.batch_runs`, checked against
the guarantee and landed through the erasures (`model.erasure_submissions`),
and the others run one by one against a `TestOracle`. Which channel draws
noise is `model`'s decision alone. `run_trial` seeds and samples one trial
on its own: it is the reference, and replays any trial but those its own
rows refuse (`limits(replay=True)`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import bounds
from .algorithms import (ADAPTIVE_ALGORITHMS, ALGORITHM_NAMES, SearchOverrun, batch_runs,
                         comp_redraw, comp_run)
from .bounds import InputError, NoiseKind, NoiseModel, ProblemSize
from .model import (TRUTHFUL_CHANNELS, TestOracle, derive_stream_seed, derive_stream_seeds,
                    _pcg_seeded, design_negatives, draw_below, erasure_submissions, handed_on,
                    make_rng, sample_defective_set, sample_defective_sets)

_WILSON_Z = 1.959963984540054  # 95%
# Most cells one trial may hold, so that it stays under about 350 MB: COMP's
# bool t x n design (a byte a cell, so a chunk holds max(COMP_CHUNK_CELLS,
# t x n) bytes of design, and a noisy one a byte a test of noise flags: 196 MiB
# peak at n = 1, t = 2^25), 32 cells a defective to sample and walk (240 MB at
# 2^20), and per-trial RBT's n x (k + 4): a trial holds its n-item candidate list
# (322 MiB peak at (6710886, 1)), and the k + 4 factor tracks the pool slices
# its k rounds copy (48 MiB peak, about 0.5 s a trial, at (322638, 100)).
MAX_TRIAL_CELLS = 1 << 25
# Most trials x k cells sampled and walked together, max(1, BATCH_CELLS // k)
# trials: the sampler and the walk peak at 80-200 bytes a cell (190 MB at one
# trial of k = 10^6), and at k = 30 the walk is no slower at 546 than at 1024.
BATCH_CELLS = 1 << 14
# Most design cells, chunk x t x n, that `_run_comp` draws before it decodes
# them together, max(1, COMP_CHUNK_CELLS // (t x n)) trials: per-trial numpy
# calls were half of a COMP sweep at (100, 5), and a chunk of 2^20 cells
# raised that sweep's peak memory by 6%, where 2^17 adds about 1%.
COMP_CHUNK_CELLS = 1 << 17
# Most budgets a sweep accepts: each is a curve point and a CSV row (about
# 15 us each), and the figure needs a few hundred.
MAX_BUDGETS = 1 << 16
# Largest n a spec accepts: the batched walk takes bit lengths with
# `np.frexp`, exact only for integers up to 2^53.
MAX_N = 1 << 53
# Most expected submissions an adaptive erasure spec accepts, trials x
# guarantee / (1 - p): `erasure_submissions` steps 2-3e7 PCG64 outputs a second
# (2-core x86-64 VM, numpy 2.4.6), so a run at the cap takes a few minutes,
# while p near 1 would run for days.
MAX_SUBMISSIONS = 1 << 32
# Most design cells a COMP spec accepts, trials x t x n summed over its
# budgets: `_run_comp` takes about 4.5 ns a cell at (10000, 10), t = 1000
# (10^9 cells in 4.5 s; 2-core x86-64 VM, numpy 2.4.6), so a run at the cap
# takes about 2.5 minutes.
MAX_DESIGN_CELLS = 1 << 35
# Fewest cells a COMP trial of each budget counts as in that row: a trial of
# a few cells still costs 8-12 us (`simulate --alg comp --n 3 --k 1 --t 1`
# on the same VM), about 1,800-2,700 cells at 4.5 ns a cell.
COMP_TRIAL_CELLS = 1 << 11


def _refuse_beyond(limits):
    """Raise `InputError` at the first (value, bound, what) row above its bound."""
    for value, bound, what in limits:
        if value > bound:
            raise InputError(f"{what} is {value}, above its bound {bound}")


@dataclass(frozen=True)
class ExperimentSpec:
    size: ProblemSize
    algorithm: str
    noise: NoiseModel = NoiseModel.noiseless()
    trials: int = 1000
    master_seed: int = 0
    budget_range: Optional[tuple[int, int, int]] = None  # a sweep's (t_min, t_max, step)
    comp_t: Optional[int] = None  # a COMP run's test budget; COMP takes this or a range

    def __post_init__(self):
        if self.algorithm not in ALGORITHM_NAMES:
            raise InputError(f"unknown algorithm {self.algorithm!r}; "
                             f"choose one of {', '.join(ALGORITHM_NAMES)}")
        if self.trials < 1:
            raise InputError("need at least one trial")
        if self.budget_range is not None:
            t_min, t_max, step = self.budget_range
            if t_min > t_max or step < 1 or t_min < 0:
                raise InputError(f"bad budget range {self.budget_range}")
        if self.algorithm == "comp":
            if self.size.k < 1:
                raise InputError("COMP design density 1/k needs k >= 1")
            if (self.budget_range is None) == (self.comp_t is None):
                raise InputError("comp needs one test budget: comp_t or a budget range, not both")
        elif self.comp_t is not None:
            raise InputError(f"only comp takes a test budget; {self.algorithm} "
                             "runs until it decodes")
        if (self.algorithm in ADAPTIVE_ALGORITHMS and self.noise.kind is NoiseKind.ERASURE
                and self.noise.p >= 1.0):
            raise InputError("erasure probability 1 never terminates: "
                             "every test is retried until it lands")
        _refuse_beyond(self.limits())
        t_min = self.budget_range[0] if self.budget_range else self.comp_t
        if self.algorithm == "comp" and t_min < 1:
            raise InputError(f"COMP needs t >= 1, got {t_min}")

    def limits(self, replay: bool = False):
        """One (value, bound, what) row per numeric limit of a run, each computed
        once the rows before it hold; a value above its bound refuses the run.
        COMP's two rows read its one budget, comp_t or a range: a trial's
        cells at the range's t_max, and a run's over every budget, each trial
        counted as at least `COMP_TRIAL_CELLS`, summed over budgets an earlier row caps.
        `replay` adds per-trial RBT's row, which holds its n candidates, on
        every channel."""
        n, k = self.size.n, self.size.k
        yield n, MAX_N, "n"
        if self.budget_range is not None:
            t_min, t_max, step = self.budget_range
            yield ((t_max - t_min) // step + 1, MAX_BUDGETS,
                   f"the count of budgets in {self.budget_range}")
        yield 32 * k, MAX_TRIAL_CELLS, "a trial's cells to sample and walk, 32 x k,"
        if self.algorithm == "comp":
            t_min, t_max, step = self.budget_range or (self.comp_t, self.comp_t, 1)
            yield t_max * n, MAX_TRIAL_CELLS, "COMP's design cells, t x n,"
            yield (self.trials * sum(max(t * n, COMP_TRIAL_CELLS)
                                     for t in range(t_min, t_max + 1, step)),
                   MAX_DESIGN_CELLS, f"COMP's design cells of a run, trials x the sum of "
                   f"max(t x n, {COMP_TRIAL_CELLS}),")
        if self.algorithm == "rbt" and (replay or self.noise.kind not in TRUTHFUL_CHANNELS):
            yield n * (k + 4), MAX_TRIAL_CELLS, "per-trial RBT's items, n x (k + 4),"
        if self.algorithm in ADAPTIVE_ALGORITHMS and self.noise.kind is NoiseKind.ERASURE:
            yield (self.trials * guarantee_for(self.algorithm, self.size),
                   MAX_SUBMISSIONS * (1.0 - self.noise.p), f"trials x guarantee at erasure "
                   f"{self.noise.p}, against {MAX_SUBMISSIONS} x (1 - p) submissions,")

    def budgets(self) -> list[int]:
        if self.budget_range is None:
            raise InputError("a sweep needs a budget range")
        t_min, t_max, step = self.budget_range
        return list(range(t_min, t_max + 1, step))


class TrialResult(NamedTuple):
    success: bool   # exact set equality with the truth
    tests_used: int


@dataclass(frozen=True)
class Tally:
    """A run folded by `tally`: wins, the sum and max of tests_used, wins within each budget."""
    wins: int
    tests_sum: int
    tests_max: int
    wins_within: list


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
    """One trial, fully determined by (spec, trial_index) and seeded on its
    own: the reference `run_trials` is checked against, and its replay. It
    refuses, before it samples, what it cannot run: COMP without comp_t, and
    a row of `spec.limits(replay=True)` above its bound."""
    _runnable(spec, replay=True)
    seed = derive_stream_seed(spec.master_seed, trial_index)
    rng = make_rng(seed, 0)
    return _run_oracle(spec, sample_defective_set(spec.size.n, spec.size.k, rng), seed, rng)


def _run_oracle(spec: ExperimentSpec, truth, seed: int, rng) -> TrialResult:
    """The trial of stream seed `seed` and defectives `truth`, run against a
    `TestOracle` on the PCG64 `rng` as sampling left it; COMP's design comes
    from `make_rng(seed, 1)`. A binary search overrun (possible only under
    symmetric or additive noise) ends the trial as a failure."""
    n, k = spec.size.n, spec.size.k
    oracle = TestOracle(n, truth, spec.noise, rng)
    if spec.algorithm == "comp":
        result = comp_run(oracle, n, k, spec.comp_t, make_rng(seed, 1))
    else:
        try:
            result = ADAPTIVE_ALGORITHMS[spec.algorithm](oracle, n, k)
        except SearchOverrun:
            return TrialResult(success=False, tests_used=oracle.tests_used)
    return TrialResult(success=result.estimate == oracle.truth, tests_used=result.tests_used)


def _runnable(spec: ExperimentSpec, replay: bool = False):
    """Raise `InputError` for a spec whose trials cannot run: COMP with no
    comp_t (`success_curve` sweeps a budget range, one comp_t a budget) or,
    to replay a trial, a row of `spec.limits(replay=True)` above its bound."""
    if spec.algorithm == "comp" and spec.comp_t is None:
        raise InputError("comp trials need comp_t; success_curve sweeps a budget range")
    if replay:
        _refuse_beyond(spec.limits(replay=True))


def _batches(spec: ExperimentSpec):
    """Each batch's (success, tests_used) arrays (`_run_batch`), in trial-index
    order, at most `BATCH_CELLS` cells each; a bad COMP spec raises at once."""
    _runnable(spec)
    batch = max(1, BATCH_CELLS // max(spec.size.k, 1))
    return (_run_batch(spec, lo, min(spec.trials, lo + batch))
            for lo in range(0, spec.trials, batch))


def run_trials(spec: ExperimentSpec) -> list[TrialResult]:
    """One `TrialResult` a trial, equal to `run_trial`'s trial by trial, for
    tests and library use; the commands reduce through `tally` instead."""
    return [r for success, used in _batches(spec)
            for r in map(TrialResult, success.tolist(), used.tolist())]


def tally(spec: ExperimentSpec, budgets: Sequence[int] = ()) -> Tally:
    """The commands' one reduction, folded batch by batch, so memory does not
    grow with trials; no trial spends 2^63 tests, so larger budgets clip."""
    budgets = np.array([min(t, (1 << 63) - 1) for t in budgets], dtype=np.int64)
    wins = tests_sum = tests_max = 0
    within = np.zeros(len(budgets), dtype=np.int64)
    for success, used in _batches(spec):
        wins += int(np.count_nonzero(success))
        tests_sum += int(used.sum())
        tests_max = max(tests_max, int(used.max()))
        within += np.searchsorted(np.sort(used[success]), budgets, side="right")
    return Tally(wins, tests_sum, tests_max, within.tolist())


class InvariantBreach(Exception):
    """A batched trial on a channel in `TRUTHFUL_CHANNELS` decoded wrongly,
    spent more firm tests than `guarantee_for`, or (COMP) cleared a
    defective; the message names its (master_seed, trial_index) and, for
    COMP, its budget t, so that `run_trial` can replay it."""

    def __init__(self, spec: ExperimentSpec, trial_index: int, what: str):
        budget = f", t={spec.comp_t}" if spec.algorithm == "comp" else ""
        super().__init__(f"trial (master_seed={spec.master_seed}, trial_index={trial_index})"
                         f" of {spec.algorithm} at n={spec.size.n}, k={spec.size.k}{budget}, "
                         f"noise {spec.noise.kind.value}:{spec.noise.p:g}: {what}")


def _run_batch(spec: ExperimentSpec, start: int, stop: int) -> tuple:
    """Success and tests_used arrays of trials start..stop-1, at most
    `BATCH_CELLS` cells (trials x k) or one trial, seeded and sampled in bulk
    with `run_trial`'s seeds, sets and stream states. COMP trials then
    run without an oracle (`_run_comp`), those on a channel with no decoder
    one by one (`_run_oracle`); the others' firm tests and decodes come from
    `batch_runs`, and their submissions from `erasure_submissions`."""
    n, k = spec.size.n, spec.size.k
    trial_seeds = derive_stream_seeds(spec.master_seed, np.arange(start, stop))
    truths, handoff = sample_defective_sets(n, k, derive_stream_seeds(trial_seeds, 0))
    if spec.algorithm == "comp":
        return _run_comp(spec, start, truths, trial_seeds, handoff)
    if spec.noise.kind not in TRUTHFUL_CHANNELS:
        # the streams are one reused PCG64: each trial ends before the next is taken
        success, used = zip(*[_run_oracle(spec, truth, seed, rng) for truth, seed, rng in
                              zip(truths.tolist(), trial_seeds.tolist(), handed_on(handoff))])
        return np.array(success), np.array(used, dtype=np.int64)
    firm, success = batch_runs(spec.algorithm, n, truths)
    limit = guarantee_for(spec.algorithm, spec.size)
    bad = np.flatnonzero(~success | (firm > limit))
    if len(bad):
        i = bad[0]
        verdict = "right" if success[i] else "wrongly"
        raise InvariantBreach(spec, start + i,
                              f"decoded {verdict} in {firm[i]} firm tests, guarantee {limit}")
    return success, np.array(erasure_submissions(firm, spec.noise, handoff))


def _run_comp(spec: ExperimentSpec, start: int, truths: np.ndarray, trial_seeds: np.ndarray,
              handoff: np.ndarray) -> tuple:
    """COMP trials start, start + 1, ... as `_run_oracle` runs them, without
    an oracle, a chunk of max(1, `COMP_CHUNK_CELLS` // (t x n)) trials at a
    time. Each trial's design comes from stream 1 of its trial seed, seeded
    in bulk and drawn into its slot of one reused (chunk, t, n) buffer
    (`model.draw_below`), and the chunk's raw row outcomes are one gather. A
    row holding a defective is never empty, so only the others are checked; a
    trial with an empty row has its stream set again from its seed and
    advanced past its t x n draws, and `comp_redraw` redraws those rows as
    `comp_run` does. The chunk's outcomes go through the channel in one
    `design_negatives` call, a byte a test of noise flags drawn on the
    streams sampling left (one `handed_on` iterator for the batch). The
    chunk's negative rows are compressed once (on the noiseless channel they
    are the rows already checked) and OR-reduced trial by trial into the
    items they clear; an item in no negative row is declared defective. On a
    channel in `TRUTHFUL_CHANNELS` a negative row holds no defective, so one
    that clears a defective is an `InvariantBreach`."""
    n, k, t = spec.size.n, spec.size.k, spec.comp_t
    chunk = max(1, COMP_CHUNK_CELLS // (t * n))
    seeded = _pcg_seeded(derive_stream_seeds(trial_seeds, 1))
    designs, streams = handed_on(seeded), handed_on(handoff)
    buffer = np.empty((min(chunk, len(truths)), t, n), dtype=bool)
    success = np.empty(len(truths), dtype=bool)
    for lo in range(0, len(truths), chunk):
        truth = truths[lo:lo + chunk]
        design, slots = buffer[:len(truth)], np.arange(len(truth))
        cleared = np.empty((len(truth), n), dtype=bool)
        for d in design:
            draw_below(next(designs), 1.0 / k, d)
        hit = design[slots[:, None], :, truth].any(axis=1)
        rows, emptied = design[~hit], np.zeros(len(truth), dtype=bool)
        emptied[np.nonzero(~hit)[0][~rows.any(axis=1)]] = True
        redrawn = np.flatnonzero(emptied)
        if len(redrawn):
            for i, bits in zip(redrawn.tolist(), handed_on(seeded[:, lo + redrawn])):
                bits.advance(t * n)  # past the outputs its design took
                comp_redraw(bits, k, design[i])
            hit[redrawn] = design[redrawn[:, None], :, truth[redrawn]].any(axis=1)
        negative = design_negatives(hit, spec.noise, streams)
        if len(redrawn) or (negative == hit).any():  # else the rows at hand are the negative ones
            rows = design[negative]
        ends = np.cumsum(np.count_nonzero(negative, axis=1)).tolist()
        for i, (b, e) in enumerate(zip([0] + ends, ends)):
            np.logical_or.reduce(rows[b:e], axis=0, out=cleared[i])
        missed = cleared[slots[:, None], truth].any(axis=1)
        if missed.any() and spec.noise.kind in TRUTHFUL_CHANNELS:
            raise InvariantBreach(spec, start + lo + int(np.argmax(missed)),
                                  "a negative test cleared a defective")
        success[lo:lo + len(truth)] = ~missed & (np.count_nonzero(cleared, axis=1) == n - k)
    return success, np.full(len(truths), t, dtype=np.int64)


def success_curve(spec: ExperimentSpec) -> SuccessCurve:
    """Empirical success probability per budget with bound overlays.

    Adaptive exact-recovery algorithms run to completion once per trial and
    success at budget T counts those that succeeded within T (anytime-correct).
    COMP is non-adaptive: each budget runs as a comp_t spec on a master seed of its own.
    """
    budgets = spec.budgets()
    if spec.algorithm == "comp":
        wins_at = [tally(replace(spec, comp_t=t, budget_range=None,
                                 master_seed=derive_stream_seed(spec.master_seed, bi + 1))).wins
                   for bi, t in enumerate(budgets)]
    else:
        wins_at = tally(spec, budgets).wins_within

    curve_points = []
    for t, wins in zip(budgets, wins_at):
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


def capacity_csv_lines(rows: Sequence[CapacityRow]) -> list[str]:
    return ["n,k,mean_tests,achieved_rate,guarantee_tests,guarantee_rate"] + [
        f"{r.n},{r.k},{_fmt(r.mean_tests)},{_fmt(r.achieved_rate)},"
        f"{r.guarantee_tests},{_fmt(r.guarantee_rate)}" for r in rows]


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
        mean = tally(spec).tests_sum / spec.trials
        guarantee = guarantee_for(algorithm, size)
        rows.append(CapacityRow(
            n=size.n, k=size.k, mean_tests=mean,
            achieved_rate=bounds.log2_binom(size) / max(mean, 1.0),
            guarantee_tests=guarantee,
            guarantee_rate=bounds.rate(size, max(guarantee, 1))))
    return rows
