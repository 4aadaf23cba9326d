"""Equivalence gate for the interval oracle.

`PoolOracle` (in `oracle_reference.py`) is the reference: every pool copied
to a tuple, checked with `truth_outcome`, and pushed through `apply_noise`
with one scalar draw per test; a search or a splitting run is stepped test
by test. Every algorithm, under every noise kind, must behave test for test
the same against `TestOracle` (range pools by bisect, block-drawn uniforms)
as against the reference, and the sparse sampler must match a dense
Fisher-Yates draw for draw. A search or a splitting run on `TestOracle` is
`algorithms._halve` or `algorithms._split` over its `test`, and must match
the reference's own `search` and `split`. The batched trials
(`algorithms._split_walk` and `harness._land`) must give the reference's
test counts and decodes, and `run_trials` must equal `run_trial` trial by
trial.
"""
import hashlib

import numpy as np
import pytest

from grouptest import harness, model
from grouptest.algorithms import (
    SPLIT_GROUP_SIZES,
    SearchOverrun,
    _halve,
    _hwang_group_size,
    _split,
    _split_walk,
    _variant_group_size,
    binary_search,
    comp_run,
    hgbsa,
    hwang_variant,
    repeated_binary_testing,
)
from grouptest.bounds import NoiseKind, NoiseModel, ProblemSize
from grouptest.harness import (ExperimentSpec, _land, figure1_experiment, run_trial,
                               run_trials)
from grouptest.model import TestOracle, make_rng, sample_defective_set
from oracle_reference import PoolOracle


def dense_fisher_yates(n, k, rng):
    idx = list(range(n))
    for i in range(k):
        j = i + int(rng.integers(n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return frozenset(idx[:k])


def as_sets(transcript):
    return [(frozenset(pool), out) for pool, out in transcript]


def settle(fn):
    """fn()'s value, or SearchOverrun. A symmetric or additive channel, or a
    search over candidates with no defective, can drive binary search past
    its list; both oracles must then overrun at the same test."""
    try:
        return fn()
    except SearchOverrun:
        return SearchOverrun


def search(oracle, candidates):
    """A halving search: the reference's own, else `_halve` over `test`."""
    if isinstance(oracle, PoolOracle):
        return oracle.search(candidates)
    return _halve(candidates, oracle.test)


def split(oracle, candidates, group_size, kp):
    """A splitting run: the reference's own, else `_split` over `test`."""
    if isinstance(oracle, PoolOracle):
        return oracle.split(candidates, group_size, kp)
    return _split(candidates, group_size, kp, oracle.test)


NOISES = {
    "noiseless": NoiseModel.noiseless(),
    "erasure": NoiseModel.erasure(0.3),
    "symmetric": NoiseModel.symmetric(0.1),
    "additive": NoiseModel.additive(0.1),
}
# at erasure 0.9 a search's resubmissions often cross a block of 256; at 0
# none happen
ALL_NOISES = {**NOISES, "erasure0.9": NoiseModel.erasure(0.9),
              "erasure0": NoiseModel.erasure(0.0)}


def run_both(run, n, k, noise, seed):
    """Run `run(oracle)` against a fresh TestOracle and a fresh PoolOracle
    sharing a truth and a noise stream, and check they agree: the same
    estimate, tests_used and transcript, or the same exception."""
    truth = sample_defective_set(n, k, make_rng(seed, 0))
    seen = []
    for cls in (TestOracle, PoolOracle):
        oracle = cls(n, truth, noise, make_rng(seed, 1))
        res = settle(lambda: run(oracle))
        if not isinstance(res, type):
            assert res.tests_used == oracle.tests_used
            res = (res.estimate, res.tests_used)
        seen.append((res, oracle.tests_used, as_sets(oracle.transcript)))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("n,k", [(500, 10), (9699, 30), (100000, 71), (100, 5),
                                 (10, 10), (5, 0), (1, 1)])
def test_sampler_matches_dense_fisher_yates(n, k):
    for seed in range(100):
        a, b = make_rng(seed, 4), make_rng(seed, 4)
        assert sample_defective_set(n, k, a) == dense_fisher_yates(n, k, b)
        assert a.random() == b.random()  # same generator state afterwards


@pytest.mark.parametrize("noise", list(NOISES))
def test_binary_search_equivalent(noise):
    for seed in range(150):
        b = 1 + seed % 97
        truth = sample_defective_set(b, 1 + seed % min(b, 4), make_rng(seed, 0))
        results = []
        for cls in (TestOracle, PoolOracle):
            oracle = cls(b, truth, NOISES[noise], make_rng(seed, 1))
            results.append((settle(lambda: binary_search(oracle, range(b))),
                            as_sets(oracle.transcript)))
        assert results[0] == results[1]


ADAPTIVE = {"hgbsa": hgbsa, "variant": hwang_variant, "rbt": repeated_binary_testing}


@pytest.mark.parametrize("noise", list(NOISES))
@pytest.mark.parametrize("alg", list(ADAPTIVE))
@pytest.mark.parametrize("n,k", [(60, 4), (500, 10)])
def test_adaptive_equivalent(alg, noise, n, k):
    inner = ADAPTIVE[alg]
    for seed in range(60):
        run_both(lambda o: inner(o, n, k), n, k, NOISES[noise], seed)


@pytest.mark.parametrize("noise", list(NOISES))
def test_comp_equivalent(noise):
    # t = 300 crosses the oracle's block of 256 uniforms
    for seed in range(20):
        run_both(lambda o: comp_run(o, 100, 5, 300, make_rng(seed, 2)),
                 100, 5, NOISES[noise], seed)


@pytest.mark.parametrize("noise", list(NOISES))
def test_design_batches_interleaved_with_single_tests(noise):
    # batches that start mid-block, cross one or two block boundaries, end
    # exactly on one, or fit inside one, between single tests
    steps = [3, ("design", 300), 5, ("design", 204), ("design", 40), 1,
             ("design", 1), ("design", 600), 2]

    def run(oracle, seed):
        rng = make_rng(seed, 2)
        for step in steps:
            if isinstance(step, int):
                for _ in range(step):
                    oracle.test(range(int(rng.integers(40)), 40))
            else:
                design = rng.random((step[1], 40)) < 0.1
                design[:, int(rng.integers(40))] = True
                oracle.test_design(design)

    for seed in range(10):
        truth = sample_defective_set(40, 3, make_rng(seed, 0))
        seen = []
        for cls in (TestOracle, PoolOracle):
            oracle = cls(40, truth, NOISES[noise], make_rng(seed, 1))
            run(oracle, seed)
            seen.append((oracle.tests_used, as_sets(oracle.transcript)))
        assert seen[0] == seen[1]


RULES = {"hwang": _hwang_group_size, "variant": _variant_group_size}
ALGORITHM = {"hwang": "hgbsa", "variant": "variant"}


def batch_both(n, truths, rule, noise, make_uniforms):
    """The batch's walk (`_split_walk`) and, under erasure, its landing step
    (`_land`) on `truths` (all of one size k), against `PoolOracle.split` in
    the shape a trial uses: range(n), kp = k. Truth j's uniforms come from
    `make_uniforms(j)`, a fresh one for each side. Both must give the same
    tests_used, and success iff the reference found the truth. Returns the
    tests_used."""
    k = len(truths[0])
    want = []
    for j, truth in enumerate(truths):
        ref = PoolOracle(n, truth, noise, make_uniforms(j))
        want.append((set(ref.split(range(n), RULES[rule], k)) == set(truth),
                     ref.tests_used))
    rows = np.array([sorted(t) for t in truths], dtype=np.int64).reshape(len(truths), k)
    firm, success = _split_walk(n, rows, SPLIT_GROUP_SIZES[ALGORITHM[rule]](k))
    used = firm.tolist()
    if noise.kind is NoiseKind.ERASURE:
        used = _land(used, noise.p, [make_uniforms(j) for j in range(len(truths))])
    assert list(zip(success.tolist(), used)) == want
    assert all(ok for ok, _ in want)
    return used


def noiseless_cost(truth, candidates, group_size, kp):
    """Tests a noiseless splitting run over `candidates` takes."""
    probe = PoolOracle(0, truth, NOISES["noiseless"], make_rng(0))
    probe.split(candidates, group_size, kp)
    return probe.tests_used


@pytest.mark.parametrize("as_list", [False, True])
@pytest.mark.parametrize("noise", list(ALL_NOISES))
def test_searches_interleaved_with_batches_and_single_tests(noise, as_list):
    # Splitting runs over a range are one `split` call each. Single tests
    # pad before some of them so that, noiseless, one ends exactly on a
    # block boundary ("end") and another has a boundary inside it ("cross").
    # Searches, over ranges and lists, some with no defective, step through
    # `test`. With as_list every run and range search is handed over as a
    # list, so list pools, not range pools, cross those boundaries.
    n = 1000
    steps = [3, ("search", 0), ("split", 0, "end", "hwang"), ("design", 233),
             ("search", 0), 250, ("list", 40), ("split", 0, "cross", "variant"),
             ("search", 0), ("search", None), ("split", None, None, "hwang"),
             ("design", 300), ("search", None), 7, ("split", 0, "end", "variant"),
             ("search", 0), ("list", 3), ("split", 500, "cross", "hwang"),
             ("design", 1)]

    def single_tests(oracle, rng, count, pad=False):
        # padding tests one item each, to keep the transcripts small
        for _ in range(count):
            start = int(rng.integers(n))
            oracle.test(range(start, start + 1 if pad else n))

    def run(oracle, seed):
        rng = make_rng(seed, 2)
        for step in steps:
            if isinstance(step, int):
                single_tests(oracle, rng, step)
                continue
            kind, arg = step[:2]
            if kind == "design":
                design = rng.random((arg, n)) < 0.01
                design[:, int(rng.integers(n))] = True
                oracle.test_design(design)
            elif kind == "list":
                items = sorted(rng.choice(n, arg, replace=False).tolist())
                settle(lambda: search(oracle, items))
            else:
                start = int(rng.integers(n)) if arg is None else arg
                candidates = range(start, n)
                if kind == "search":
                    settle(lambda: search(oracle, list(candidates) if as_list
                                          else candidates))
                    continue
                rule, align = RULES[step[3]], step[2]
                cost = noiseless_cost(oracle.truth, candidates, rule, 3)
                if align == "end":
                    single_tests(oracle, rng, (-oracle.tests_used - cost) % 256, True)
                elif align == "cross":
                    assert cost >= 2
                    single_tests(oracle, rng, (255 - oracle.tests_used) % 256, True)
                settle(lambda: split(oracle, list(candidates) if as_list
                                     else candidates, rule, 3))

    for seed in range(10):
        truth = sample_defective_set(n, 3, make_rng(seed, 0))
        seen = []
        for cls in (TestOracle, PoolOracle):
            oracle = cls(n, truth, ALL_NOISES[noise], make_rng(seed, 1))
            run(oracle, seed)
            seen.append((oracle.tests_used, as_sets(oracle.transcript)))
        assert seen[0] == seen[1]


def test_noiseless_search_without_defective_overruns():
    # a range with no defective takes the step loop and overruns after the
    # same tests as the reference, unless b is a power of two: the last
    # candidate is then never tested, and is returned
    for b in range(1, 70):
        for start in (0, 5, 100):
            truth = {start + b} if start + b < 200 else {0}
            seen = []
            for cls in (TestOracle, PoolOracle):
                oracle = cls(200, truth, NOISES["noiseless"], make_rng(b, 1))
                seen.append((settle(lambda: search(oracle, range(start, start + b))),
                             oracle.tests_used, as_sets(oracle.transcript)))
            assert seen[0] == seen[1]
            assert seen[0][0] == (b - 1 if b & (b - 1) == 0 else SearchOverrun)


@pytest.mark.parametrize("noise", [*NOISES, "erasure0.9"])
def test_generator_advanced_by_whole_blocks(noise):
    # after any run the generator sits ceil(tests_used / 256) blocks of 256
    # draws past where the oracle found it; at (9699, 30) the splitting
    # algorithms spend about 290 firm tests, so a search often crosses 256
    model = ALL_NOISES[noise]
    n, k = 9699, 30
    runs = {alg: (lambda o, f=f: f(o, n, k)) for alg, f in ADAPTIVE.items()}
    runs["comp"] = lambda o: comp_run(o, n, k, 300, make_rng(0, 2))
    for name, run in runs.items():
        for seed in range(5):
            truth = sample_defective_set(n, k, make_rng(seed, 0))
            oracle = TestOracle(n, truth, model, make_rng(seed, 1))
            settle(lambda: run(oracle))
            fresh = make_rng(seed, 1)
            fresh.random(-(-oracle.tests_used // 256) * 256)
            assert oracle.rng.bit_generator.state == fresh.bit_generator.state


class CyclingUniforms:
    """A generator stand-in that deals `values` over and over as its
    uniforms, one at a time or in blocks."""

    def __init__(self, values):
        self.values, self.drawn = np.array(values), 0

    def random(self, size=None):
        if size is None:
            return float(self.random(1)[0])
        self.drawn += size
        return self.values[np.arange(self.drawn - size, self.drawn) % len(self.values)]


@pytest.mark.parametrize("values", [
    # u equal to p lands: `_channel` erases only u < p; 5 shifts against 256
    [0.25, 0.1, 0.7, 0.25, 0.2],
    # one firm test in 97 submissions: a splitting round's resubmissions
    # cross several blocks of 256
    [0.1] * 96 + [0.5],
], ids=["u-equal-p", "several-blocks"])
def test_erasure_resubmission_on_dealt_uniforms(values):
    # every run of hgbsa is one `split` over a range; the batch lands the
    # same runs' firm tests on the same dealt uniforms
    truths = [sample_defective_set(1000, 5, make_rng(seed, 0)) for seed in range(10)]
    for truth in truths:
        seen = []
        for cls in (TestOracle, PoolOracle):
            oracle = cls(1000, truth, NoiseModel.erasure(0.25), CyclingUniforms(values))
            res = hgbsa(oracle, 1000, 5)
            seen.append((res.estimate, oracle.tests_used, as_sets(oracle.transcript)))
        assert seen[0] == seen[1]
        assert seen[0][0] == truth
    batch_both(1000, truths, "hwang", NoiseModel.erasure(0.25),
               lambda j: CyclingUniforms(values))


def split_both(n, truth, candidates, rule, kp, noise, make_uniforms, before=0,
               after=()):
    """Run one splitting run on a fresh TestOracle and a fresh PoolOracle and
    check they agree: the same items found, tests_used, transcript and
    generator state, the reference's taken on to the end of its block of 256.
    `before` single tests on item 0 come first and a single test of each pool
    in `after` follows. Returns the items found, tests_used and the
    reference's rounds as (`PoolOracle.scan` value, candidates left)."""
    seen, rounds = [], []
    for cls in (TestOracle, PoolOracle):
        oracle = cls(n, truth, noise, make_uniforms())
        if cls is PoolOracle:
            def scan(cands, *args, inner=oracle.scan):
                rounds.append((inner(cands, *args), len(cands)))
                return rounds[-1][0]
            oracle.scan = scan
        for _ in range(before):
            oracle.test(range(1))
        found = settle(lambda: split(oracle, candidates, rule, kp))
        for pool in after:
            oracle.test(pool)
        if cls is PoolOracle:
            oracle.rng.random(-oracle.tests_used % 256)
        state = (oracle.rng.drawn if isinstance(oracle.rng, CyclingUniforms)
                 else oracle.rng.bit_generator.state)
        seen.append((found, oracle.tests_used, as_sets(oracle.transcript), state))
    assert seen[0] == seen[1]
    return seen[0][0], seen[0][1], rounds


@pytest.mark.parametrize("noise", ["noiseless", "erasure"])
@pytest.mark.parametrize("rule", list(RULES))
def test_scan_every_small_truth(rule, noise):
    # every truth with n <= 12, kp one below, at and one above the defectives
    # present (so also above the candidates, when all are defective), over
    # the whole range and over a suffix that skips some defectives; one
    # generator runs on from run to run, restarted for the second oracle.
    # The batch walks every truth of each (n, k) together, with kp = k.
    rng, ends = make_rng(7, 1), set()

    def restart(state):
        rng.bit_generator.state = state
        return rng

    for n in range(1, 13):
        by_k = {}
        for bits in range(1 << n):
            truth = frozenset(i for i in range(n) if bits >> i & 1)
            by_k.setdefault(len(truth), []).append(truth)
            for start in {0, n // 3}:
                present = sorted(i for i in truth if i >= start)
                for kp in {len(present) - 1, len(present), len(present) + 1}:
                    if kp < 0:
                        continue
                    state = rng.bit_generator.state
                    found, _, rounds = split_both(n, truth, range(start, n),
                                                  RULES[rule], kp, NOISES[noise],
                                                  lambda: restart(state))
                    if kp == len(present):
                        assert sorted(found) == present
                    ends.update("stop" if lo is None else "cleared" if lo == m
                                else "found" for lo, m in rounds)
        for k, truths in by_k.items():
            batch_both(n, truths, rule, NOISES[noise], lambda j: make_rng(7, 1000 * k + j))
    # the variant's groups never leave fewer than kp candidates
    assert ends == {"found", "stop"} | ({"cleared"} if rule == "hwang" else set())


@pytest.mark.parametrize("rule", list(RULES))
@pytest.mark.parametrize("values", [
    [0.25, 0.1, 0.7, 0.25, 0.2],
    [0.1] * 96 + [0.5],
], ids=["u-equal-p", "several-blocks"])
def test_scan_on_dealt_uniforms(values, rule):
    # u = p lands; with one firm test in 97 submissions a single run's group
    # tests and searches cross several blocks of 256; the batch lands whole
    # runs over range(1000) on the same dealt uniforms
    boundaries, truths = [], []
    for seed in range(10):
        truth = sample_defective_set(1000, 5, make_rng(seed, 0))
        truths.append(truth)
        start = min(truth) // 2
        _, tests, _ = split_both(1000, truth, range(start, 1000), RULES[rule], 5,
                                 NoiseModel.erasure(0.25), lambda: CyclingUniforms(values))
        boundaries.append(tests // 256)  # crossed, as the run starts at 0
    used = batch_both(1000, truths, rule, NoiseModel.erasure(0.25),
                      lambda j: CyclingUniforms(values))
    if len(values) == 97:
        assert max(boundaries) >= 2 and max(used) >= 512


@pytest.mark.parametrize("rule", list(RULES))
@pytest.mark.parametrize("values", [[0.5, 0.1, 0.9, 0.3, 0.1], [0.5], None],
                         ids=["dealt", "all-land", "generator"])
def test_split_walks_several_blocks_then_single_tests(values, rule):
    # at (9699, 30) one run needs about 300 firm tests, so under erasure the
    # walk draws two or more blocks of 256 in one call; it starts mid-block,
    # after `before` single tests, and the single tests after it take the
    # uniforms left in its last block, and cross into the next. When every
    # uniform lands, the padding makes the run end exactly on a block
    # boundary, so the walk must draw the blocks it needs and not one more.
    # The batch lands the same runs, more than 256 firm tests each, on the
    # same uniforms.
    n, k = 9699, 30

    def uniforms(seed):
        return make_rng(seed, 1) if values is None else CyclingUniforms(values)

    truths = [sample_defective_set(n, k, make_rng(seed, 0)) for seed in range(4)]
    for seed, truth in enumerate(truths):
        cost = noiseless_cost(truth, range(n), RULES[rule], k)  # firm tests
        assert cost > 256
        found, _, _ = split_both(
            n, truth, range(n), RULES[rule], k, NoiseModel.erasure(0.25),
            lambda: uniforms(seed),
            before=-cost % 256 if values == [0.5] else 70 * seed,
            after=[range(i, i + 1) for i in range(seed, n, 97)])
        assert set(found) == truth
    batch_both(n, truths, rule, NoiseModel.erasure(0.25), uniforms)


@pytest.mark.parametrize("alg,noise", [
    ("hgbsa", "noiseless"), ("variant", "noiseless"), ("rbt", "noiseless"),
    ("hgbsa", "erasure"), ("variant", "symmetric"), ("rbt", "additive"),
])
def test_run_trial_equivalent(monkeypatch, alg, noise):
    spec = ExperimentSpec(size=ProblemSize(300, 8), algorithm=alg,
                          noise=NOISES[noise], trials=150, master_seed=5)
    trials = range(spec.trials)
    new = [settle(lambda: run_trial(spec, i)) for i in trials]
    monkeypatch.setattr(harness, "TestOracle", PoolOracle)
    assert [settle(lambda: run_trial(spec, i)) for i in trials] == new


def test_run_trials_equivalent_comp(monkeypatch):
    spec = ExperimentSpec(size=ProblemSize(100, 5), algorithm="comp",
                          noise=NOISES["symmetric"], trials=150, master_seed=6,
                          comp_t=60)
    new = run_trials(spec)
    monkeypatch.setattr(harness, "TestOracle", PoolOracle)
    assert run_trials(spec) == new


@pytest.mark.parametrize("n,k", [(500, 10), (9699, 30), (100000, 71)])
@pytest.mark.parametrize("rule", list(RULES))
def test_array_group_sizes_match_scalar_rules(rule, n, k):
    # the batch's rule over arrays, at every (m, kp) with 1 <= kp <= k and
    # 1 <= m <= n, against the scalar rule the oracle's runs use
    sizes = SPLIT_GROUP_SIZES[ALGORITHM[rule]](k)
    m = np.arange(1, n + 1, dtype=np.int64)
    for kp in range(1, k + 1):
        want = list(map(RULES[rule], range(1, n + 1), [kp] * n))
        assert sizes(m, np.full(n, kp)).tolist() == want


# RBT halves 64 exactly
@pytest.mark.parametrize("n,k,trials", [(64, 4, 40), (500, 10, 25)], ids=["1", "2"])
@pytest.mark.parametrize("noise", list(NOISES))
@pytest.mark.parametrize("alg", ["hgbsa", "variant", "rbt", "comp"])
def test_run_trials_equal_run_trial(alg, noise, n, k, trials):
    # batched (splitting and RBT, noiseless or erasure) or not, run_trials
    # gives run_trial's results trial by trial
    spec = ExperimentSpec(size=ProblemSize(n, k), algorithm=alg,
                          noise=NOISES[noise], trials=trials, master_seed=n,
                          comp_t=30 if alg == "comp" else None)
    assert run_trials(spec) == [run_trial(spec, i) for i in range(trials)]


@pytest.mark.parametrize("alg,noise,n,k,trials", [
    ("hgbsa", "noiseless", 10, 10, 20),  # k == n: every row per trial
    ("variant", "erasure", 10, 10, 20),
    ("rbt", "erasure", 10, 10, 20),
    ("hgbsa", "erasure", 50, 1, 40),
    ("rbt", "noiseless", 50, 1, 40),
    ("variant", "noiseless", 50, 0, 20),
    ("hgbsa", "erasure", 50, 0, 20),
    ("hgbsa", "noiseless", 2**32 + 7, 3, 10),  # numpy's 64-bit bounded draws
    ("variant", "erasure", 2**32 + 7, 3, 10),
    ("hgbsa", "noiseless", 100, 4, 1025),  # within one batch of 4096 at k = 4
    ("variant", "erasure", 100, 4, 1025),
    # one trial more than a batch of BATCH_CELLS // 200 trials
    ("hgbsa", "noiseless", 1000, 200, harness.BATCH_CELLS // 200 + 1),
    ("variant", "erasure", 1000, 200, harness.BATCH_CELLS // 200 + 1),
    ("hgbsa", "noiseless", 200000, 20000, 3),  # a batch of one trial, 20000 rounds
    ("variant", "noiseless", 200000, 20000, 3),
    ("hgbsa", "erasure", 300, 7, 60),  # odd k hands on a buffered 32-bit half
    ("hgbsa", "erasure", 300, 8, 60),
    *[(alg, "noiseless", 2**53, k, 10)  # the largest n a spec accepts
      for alg in ("hgbsa", "variant") for k in (1, 2, 3)],
])
def test_run_trials_equal_run_trial_at_the_edges(alg, noise, n, k, trials):
    spec = ExperimentSpec(size=ProblemSize(n, k), algorithm=alg, noise=NOISES[noise],
                          trials=trials, master_seed=k + 1)
    assert run_trials(spec) == [run_trial(spec, i) for i in range(trials)]


@pytest.mark.parametrize("noise", ["noiseless", "erasure"])
def test_run_trials_fall_back_when_numpy_disagrees(monkeypatch, noise):
    # a numpy whose bounded draws differ from the bulk arithmetic fails the
    # spot check, so every trial is sampled per trial and nothing changes
    spec = ExperimentSpec(size=ProblemSize(500, 10), algorithm="hgbsa",
                          noise=NOISES[noise], trials=300, master_seed=4)
    want = [run_trial(spec, i) for i in range(spec.trials)]
    bulk, per_trial = model._bulk_draws, []

    def shifted(seeds, n, k):
        draws, rejected, handoff = bulk(seeds, n, k)
        return (draws + 1) % (n - np.arange(k)), rejected, handoff

    monkeypatch.setattr(model, "_bulk_draws", shifted)
    monkeypatch.setattr(model, "sample_defective_set",
                        lambda *a: per_trial.append(1) or sample_defective_set(*a))
    assert run_trials(spec) == want
    assert len(per_trial) == spec.trials


# sha256 of `grouptest figure1 --trials 50 --seed 0`, computed with the
# pool-based oracle and dense sampler before the interval oracle replaced them.
FIGURE1_SHA256 = {
    "fig1_k10_n500.csv": "bfedc5e26f73fe4392a17933e2507df9d02003a0b273e33f3b3005c27a94b917",
    "fig1_k30_n9699.csv": "a3688a09a3434e181e44576a9ec323aaa1dee98c9cea77d67ccf9d0598af4c78",
}


def test_figure1_csvs_pinned(tmp_path):
    paths = figure1_experiment(tmp_path, trials=50, master_seed=0)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert got == FIGURE1_SHA256


# sha256 of the per-trial "success,tests_used" lines of `run_trials` at
# (300, 8) under erasure 0.3 with retry, computed before HGBSA and the
# variant were merged into one splitting loop.
ERASURE_RETRY_SHA256 = {
    "hgbsa": "356f8e781b7ce61153afe02f86e71c2fe8a45043aea64c89eb74b623afff466e",
    "variant": "59733416224cefa92eb72db3a5fc7a69cd407ca8afe7fc2f280f32dc5bdd9f5c",
}


@pytest.mark.parametrize("alg", list(ERASURE_RETRY_SHA256))
def test_erasure_trials_pinned(alg):
    spec = ExperimentSpec(size=ProblemSize(300, 8), algorithm=alg,
                          noise=NOISES["erasure"], trials=200, master_seed=3)
    text = "".join(f"{int(r.success)},{r.tests_used}\n"
                   for r in run_trials(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == ERASURE_RETRY_SHA256[alg]


# sha256 of the per-trial "success,tests_used" lines of `run_trials` for
# HGBSA at the erasure-large-n benchmark size (100000, 71), erasure 0.25 with
# retry, pools of up to 1024 items; computed while every erasure search step
# still went through `test`.
ERASURE_LARGE_N_SHA256 = "96a66ddcedb769daa4a47f060c44dcad3cb2d4b3b8b8e83ed43eb155f1baa829"


def test_erasure_large_n_trials_pinned():
    spec = ExperimentSpec(size=ProblemSize(100000, 71), algorithm="hgbsa",
                          noise=NoiseModel.erasure(0.25), trials=20, master_seed=1)
    text = "".join(f"{int(r.success)},{r.tests_used}\n"
                   for r in run_trials(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == ERASURE_LARGE_N_SHA256
