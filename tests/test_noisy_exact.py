"""Exact success of the adaptive algorithms on the symmetric and additive
channels at tiny n, and the simulation against it.

A run learns only the outcomes it is dealt, so the pools it tests and its
estimate are a function of the outcomes so far: the algorithm is a finite
decision tree (`outcome_paths`), each path the pools tested, the outcomes
seen and the estimate (none after a `SearchOverrun`). Against a truth T a
test's raw outcome is positive iff its pool meets T, and the path's flips
are where the outcome seen differs from the raw one: each truth and each
prefix of channel flips leads down one path. A flip has chance P and no
flip 1 - P; under additive noise only a raw negative can flip. A run
succeeds when its estimate is T, so with T uniform over the C(n, k) sets

    P(success) = sum over paths with estimate E of P(flips of the path | T = E) / C(n, k).

A channel corrupts a test when its raw output is below `model._threshold(p)`,
so P = ceil(p 2^53) / 2^53, as in `tests/test_comp_exact.py`.
"""
import math
from fractions import Fraction

import pytest

from grouptest.algorithms import ADAPTIVE_ALGORITHMS, SearchOverrun
from grouptest.bounds import NoiseKind, ProblemSize
from grouptest.cli import parse_noise
from grouptest.harness import ExperimentSpec, run_trials, wilson_interval
from grouptest.model import Outcome

N, P = Outcome.NEGATIVE, Outcome.POSITIVE


class Branch(Exception):
    """The run asked for a test past the outcomes dealt."""


class DealtOracle:
    """An oracle stand-in that answers with `outcomes` in turn and records
    each pool; a test past them raises `Branch`."""

    def __init__(self, outcomes):
        self.outcomes, self.pools, self.tests_used = outcomes, [], 0

    def test(self, pool):
        if self.tests_used == len(self.outcomes):
            raise Branch
        self.pools.append(tuple(pool))
        self.tests_used += 1
        return self.outcomes[self.tests_used - 1]


def outcome_paths(run):
    """(pools, outcomes, estimate) of every path of `run(oracle)`'s decision
    tree, each found by replaying the run on a prefix of outcomes and
    branching on each test past it; the estimate is None where a search
    overran."""
    paths, prefixes = [], [()]
    while prefixes:
        outcomes = prefixes.pop()
        oracle = DealtOracle(outcomes)
        try:
            estimate = run(oracle).estimate
        except Branch:
            prefixes += [outcomes + (N,), outcomes + (P,)]
            continue
        except SearchOverrun:
            estimate = None
        paths.append((oracle.pools, outcomes, estimate))
    return paths


def adaptive_success_exact(alg, n, k, noise):
    """P(success) of `alg` at (n, k) on a symmetric or additive channel,
    as a Fraction."""
    p = Fraction(math.ceil(noise.p * 2**53), 2**53)
    flip = {N: p, P: p if noise.kind is NoiseKind.SYMMETRIC else 0}  # by raw outcome
    total = Fraction(0)
    for pools, outcomes, estimate in outcome_paths(
            lambda oracle: ADAPTIVE_ALGORITHMS[alg](oracle, n, k)):
        if estimate is None or len(estimate) != k:
            continue
        chance = Fraction(1)
        for pool, seen in zip(pools, outcomes):
            raw = N if estimate.isdisjoint(pool) else P
            chance *= flip[raw] if seen is not raw else 1 - flip[raw]
        total += chance
    return total / math.comb(n, k)


@pytest.mark.parametrize("alg,n,k", [("hgbsa", 12, 3), ("variant", 12, 3), ("rbt", 10, 2)])
def test_noiseless_decision_tree_always_succeeds(alg, n, k):
    # at p = 0 only the flip-free path of each truth has weight, and it decodes
    for kind in ("symmetric:0", "additive:0"):
        assert adaptive_success_exact(alg, n, k, parse_noise(kind)) == 1


@pytest.mark.parametrize("alg,n,k,channel,exact", [
    ("hgbsa", 12, 3, "symmetric:0.05", 0.65034),
    ("variant", 12, 3, "additive:0.1", 0.71555),
    ("rbt", 10, 2, "symmetric:0.05", 0.69834),
])
def test_simulation_matches_exact_noisy_adaptive(alg, n, k, channel, exact):
    noise = parse_noise(channel)
    success = adaptive_success_exact(alg, n, k, noise)
    assert float(success) == pytest.approx(exact, abs=1e-5)
    spec = ExperimentSpec(size=ProblemSize(n, k), algorithm=alg, noise=noise,
                          trials=20_000, master_seed=11)
    lo, hi = wilson_interval(sum(r.success for r in run_trials(spec)), spec.trials, z=3.29)
    assert lo <= success <= hi
