"""Differential fuzz of the batched engine against its reference, over the
specs `ExperimentSpec` accepts and the ones it refuses.

Each drawn spec is built once. A refused one must raise `InputError` and
nothing else. An accepted one must give `run_trials == [run_trial ...]`
trial by trial, unless `run_trial` refuses to replay it (per-trial RBT
holds its n candidates as a list): then `run_trial` must raise
`InputError` while `run_trials` answers every trial.
Both paths draw their defective sets with the same bounded draws
(`model._bounded_draws`), so each replayed trial's set is also checked
against numpy 2.4.6's `Generator.integers` on the same fresh stream, the
definition the bulk-sampler gate pins.

The space: each algorithm; n uniform on [1, 2^e] for e in `EXPONENTS`, so
draws of 32 and 64 bits, k = n and k = n - 1 all come up; every channel at
p in {0, 0.01, 0.3, 0.9}; trials in {1, 3, 50, 700}, so some specs span
batches, kept to k x trials <= 3000 and to `BUDGET` tests for the
reference; a 64-bit master seed; COMP at t <= 60 and t x n <= 2 x 10^5, or
now and then a budget range and no comp_t, which neither path can run, or
both, which `ExperimentSpec` refuses.
"""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grouptest.algorithms import ALGORITHM_NAMES
from grouptest.bounds import InputError, NoiseKind, NoiseModel, ProblemSize
from grouptest.harness import (MAX_TRIAL_CELLS, ExperimentSpec, guarantee_for, run_trial,
                               run_trials)
from grouptest.model import _fisher_yates, derive_stream_seed, make_rng, sample_defective_set

EXPONENTS = (1, 2, 3, 5, 8, 12, 20, 31, 32, 33, 40, 53)
PROBABILITIES = (0.0, 0.01, 0.3, 0.9)
# about a second of reference tests a spec (1-3 us each); one trial may
# take more, up to the per-trial cell cap
BUDGET = 20_000


def reference_cost(alg, n, k, noise, t):
    """About the reference's tests a trial: an adaptive run's guarantee,
    retried under erasure, plus per-trial RBT's list; COMP's design cells,
    about a hundred to a test."""
    if alg == "comp":
        return t * n // 100 + t + k
    tests = guarantee_for(alg, ProblemSize(n, k))
    if noise.kind is NoiseKind.ERASURE:
        tests /= 1.0 - noise.p
    return tests + (n * (k + 4) // 100 if alg == "rbt" else 0)


@st.composite
def spec_inputs(draw):
    alg = draw(st.sampled_from(ALGORITHM_NAMES))
    rng = draw(st.randoms(use_true_random=True))  # uniform, where st.integers favours edges
    n = rng.randint(1, 2 ** rng.choice(EXPONENTS))
    k = min(n, draw(st.sampled_from([0, 1, 2, 3, n - 1, n, rng.randint(0, 40)])))
    kind = draw(st.sampled_from(NoiseKind))
    p = 0.0 if kind is NoiseKind.NOISELESS else draw(st.sampled_from(PROBABILITIES))
    comp_t = budget_range = None
    if alg == "comp" and draw(st.integers(0, 7)):
        comp_t = draw(st.integers(1, 60))
        assume(comp_t * n <= 200_000 or comp_t * n > MAX_TRIAL_CELLS)  # refused at once
    if alg == "comp" and (comp_t is None or draw(st.integers(0, 7)) == 0):
        t_min = draw(st.integers(1, 60))
        budget_range = (t_min, draw(st.integers(t_min, 60)), 1)
    assume(k <= 3000 or k > MAX_TRIAL_CELLS >> 5)
    trials = min(draw(st.sampled_from([1, 3, 50, 700])), max(1, 3000 // max(k, 1)))
    if k <= 3000 and not (alg == "rbt" and n * (k + 4) > MAX_TRIAL_CELLS):
        cost = reference_cost(alg, n, k, NoiseModel(kind, p), comp_t or 1)
        trials = min(trials, max(1, int(BUDGET // max(cost, 1))))
    return dict(size=ProblemSize(n, k), algorithm=alg, noise=NoiseModel(kind, p),
                trials=trials, master_seed=rng.getrandbits(64),
                comp_t=comp_t, budget_range=budget_range)


def numpy_sample(n, k, seed):
    """The set numpy 2.4.6's bounded draws pick on a fresh PCG64 of `seed`,
    as `make_rng(seed)` seeds it."""
    bits = np.random.PCG64(derive_stream_seed(seed, 0))
    draws = np.random.Generator(bits).integers(n - np.arange(k))
    return frozenset(_fisher_yates(draws.tolist()))


def inputs_of(size, alg, noise=NoiseModel.noiseless(), trials=50, seed=7, comp_t=None,
              budget_range=None):
    return dict(size=size, algorithm=alg, noise=noise, trials=trials, master_seed=seed,
                comp_t=comp_t, budget_range=budget_range)


@given(spec_inputs(), st.none())
# 32-bit draws just below 2^32, 64-bit ones just above
@example(inputs_of(ProblemSize(2 ** 32 - 2, 5), "hgbsa", NoiseModel.symmetric(0.01)),
         "equal")
@example(inputs_of(ProblemSize(2 ** 32 + 2, 5), "variant", NoiseModel.erasure(0.3)), "equal")
# k = n: the last draw takes no word; k = n - 1
@example(inputs_of(ProblemSize(7, 7), "variant"), "equal")
@example(inputs_of(ProblemSize(9, 8), "rbt", NoiseModel.symmetric(0.3), trials=300), "equal")
# the largest n; run_trial cannot hold RBT's 2^53 candidates
@example(inputs_of(ProblemSize(2 ** 53, 1), "hgbsa", NoiseModel.additive(0.01), trials=700),
         "equal")
@example(inputs_of(ProblemSize(2 ** 53, 1), "rbt", trials=700), "replay refused")
# about 30% of COMP's design rows at (3, 3) are empty and drawn again
@example(inputs_of(ProblemSize(3, 3), "comp", NoiseModel.symmetric(0.3), comp_t=300), "equal")
# 2^64 mod (n - i) is about n - i at every draw i < 30, so about one 64-bit
# draw in 2049 is rejected: four at seed 3, one after 16 kept draws of a window
@example(inputs_of(ProblemSize(2 ** 53 - 2 ** 53 // 2049 + 100, 30), "hgbsa", trials=100,
                   seed=3), "equal")
# an adaptive run at p near 1 would take about 10^13 submissions a trial
@example(inputs_of(ProblemSize(100, 5), "hgbsa", NoiseModel.erasure(1 - 1e-12), trials=1),
         "refused")
# a COMP spec takes comp_t or a budget range, not both: this comp_t is 4 x 10^7
# design cells, which the range's row and t >= 1 check never saw
@example(inputs_of(ProblemSize(100, 5), "comp", trials=2, comp_t=400_000,
                   budget_range=(1, 2, 1)), "refused")
@settings(max_examples=400, deadline=None, derandomize=True)
def test_batched_trials_equal_the_reference(inputs, outcome):
    try:
        spec = ExperimentSpec(**inputs)
    except InputError:
        assert outcome in (None, "refused")
        return
    assert inputs["comp_t"] is None or inputs["budget_range"] is None, "both budgets accepted"
    try:
        got = run_trials(spec)
    except InputError:  # COMP with a budget range and no comp_t: neither path runs it
        assert spec.comp_t is None and outcome is None
        with pytest.raises(InputError, match="comp_t"):
            run_trial(spec, 0)
        return
    assert len(got) == spec.trials
    n, k = spec.size.n, spec.size.k
    if spec.algorithm == "rbt" and n * (k + 4) > MAX_TRIAL_CELLS:
        assert outcome in (None, "replay refused")
        with pytest.raises(InputError, match=str(MAX_TRIAL_CELLS)):
            run_trial(spec, 0)
        return
    assert outcome in (None, "equal")
    assert got == [run_trial(spec, i) for i in range(spec.trials)]
    for i in range(spec.trials):
        seed = derive_stream_seed(spec.master_seed, i)
        assert sample_defective_set(n, k, make_rng(seed, 0)) == numpy_sample(n, k, seed)
