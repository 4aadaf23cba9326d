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
(`algorithms._split_walk` and `model.erasure_submissions`) must give the
reference's test counts and decodes, and `run_trials`, which seeds and
samples every trial in bulk, must equal `run_trial` trial by trial.
"""
import contextlib
import hashlib
import math
import warnings

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
from grouptest.cli import main
from grouptest.harness import ExperimentSpec, figure1_experiment, run_trial, run_trials
from grouptest.model import (_PCG_MULT, Outcome, TestOracle, design_negatives,
                             erasure_submissions, make_rng, sample_defective_set)
from oracle_reference import (PoolOracle, Recorder, apply_noise, erasure_landing, generator_on,
                              handoff_of)


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
        log = Recorder(oracle)
        res = settle(lambda: run(oracle))
        if not isinstance(res, type):
            assert res.tests_used == oracle.tests_used
            res = (res.estimate, res.tests_used)
        seen.append((res, oracle.tests_used, as_sets(log)))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("n,k", [(500, 10), (9699, 30), (100000, 71), (100, 5),
                                 (10, 10), (5, 0), (1, 1)])
def test_sampler_matches_dense_fisher_yates(n, k):
    for seed in range(100):
        a, b = make_rng(seed, 4), make_rng(seed, 4)
        assert sample_defective_set(n, k, a) == dense_fisher_yates(n, k, generator_on(b))
        assert a.random_raw() == b.random_raw()  # the same raw stream afterwards


@pytest.mark.parametrize("noise", list(NOISES))
def test_binary_search_equivalent(noise):
    for seed in range(150):
        b = 1 + seed % 97
        truth = sample_defective_set(b, 1 + seed % min(b, 4), make_rng(seed, 0))
        results = []
        for cls in (TestOracle, PoolOracle):
            oracle = cls(b, truth, NOISES[noise], make_rng(seed, 1))
            log = Recorder(oracle)
            results.append((settle(lambda: binary_search(oracle, range(b))), as_sets(log)))
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
        rng = generator_on(make_rng(seed, 2))
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
            log = Recorder(oracle)
            run(oracle, seed)
            seen.append((oracle.tests_used, as_sets(log)))
        assert seen[0] == seen[1]


RULES = {"hwang": _hwang_group_size, "variant": _variant_group_size}
ALGORITHM = {"hwang": "hgbsa", "variant": "variant"}


def batch_both(n, truths, rule, noise, make_uniforms):
    """The batch's walk (`_split_walk`) and, under erasure, its landing step
    on `truths` (all of one size k), against `PoolOracle.split` in the shape
    a trial uses: range(n), kp = k. Truth j's uniforms come from
    `make_uniforms(j)`, a fresh one for each side. Both must give the same
    tests_used, and success iff the reference found the truth. The landing
    is `erasure_submissions`', on the generators' states or, for dealt
    uniforms, on `dealt_raw_outputs`; it must equal `erasure_landing`'s.
    Returns the tests_used."""
    k = len(truths[0])
    want = []
    for j, truth in enumerate(truths):
        ref = PoolOracle(n, truth, noise, make_uniforms(j))
        want.append((set(ref.split(range(n), RULES[rule], k)) == set(truth),
                     ref.tests_used))
    rows = np.array([sorted(t) for t in truths], dtype=np.int64).reshape(len(truths), k)
    firm, success = _split_walk(n, rows, SPLIT_GROUP_SIZES[ALGORITHM[rule]](k))
    uniforms = [make_uniforms(j) for j in range(len(truths))]
    if isinstance(uniforms[0], CyclingUniforms):
        with dealt_raw_outputs(uniforms[0].values):
            used = erasure_submissions(firm.tolist(), noise,
                                       np.zeros((4, len(truths)), dtype=np.uint64))
    else:
        used = erasure_submissions(firm.tolist(), noise, handoff_of(uniforms))
    assert used == erasure_landing(firm.tolist(), noise, uniforms)
    assert list(zip(success.tolist(), used)) == want
    assert all(ok for ok, _ in want)
    return used


@contextlib.contextmanager
def dealt_raw_outputs(values):
    """Within it, every PCG64 that `erasure_submissions` steps deals `values`
    over and over, as `CyclingUniforms` does: a state's high half counts the
    outputs taken, and output j is the raw output whose uniform is the
    largest not above values[j mod len], so a value at or above p = 0.25
    stays there. The landing's own threshold, passes and counts run
    unchanged."""
    raws = CyclingUniforms(values).raws

    def run(h, count, inc_terms):
        high = h[0][:, None] + np.arange(1, count + 1, dtype=np.uint64)
        return high, np.zeros_like(high)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_lcg_run", run)
        mp.setattr(model, "_xsl_rr", lambda high, low: raws[(high - 1) % len(raws)])
        yield


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
        rng = generator_on(make_rng(seed, 2))
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
            log = Recorder(oracle)
            run(oracle, seed)
            seen.append((oracle.tests_used, as_sets(log)))
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
                log = Recorder(oracle)
                seen.append((settle(lambda: search(oracle, range(start, start + b))),
                             oracle.tests_used, as_sets(log)))
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
            bits = make_rng(seed, 1)
            oracle = TestOracle(n, truth, model, bits)
            settle(lambda: run(oracle))
            fresh = make_rng(seed, 1)
            fresh.random_raw(-(-oracle.tests_used // 256) * 256)
            assert bits.state == fresh.state


class CyclingUniforms:
    """A bit generator stand-in that deals `values` over and over, on one
    count: as its uniforms, one at a time or in blocks, and as its raw
    outputs int(u 2^53) << 11 (0 for a u below 0), whose uniform each is."""

    def __init__(self, values):
        self.values, self.drawn = np.array(values), 0
        self.raws = np.array([max(0, int(u * 2**53)) << 11 for u in values], dtype=np.uint64)

    def _deal(self, dealt, size):
        self.drawn += size
        return dealt[np.arange(self.drawn - size, self.drawn) % len(dealt)]

    def random(self, size=None):
        if size is None:
            return float(self.random(1)[0])
        return self._deal(self.values, size)

    def random_raw(self, size):
        return self._deal(self.raws, size)


N, P, E = Outcome.NEGATIVE, Outcome.POSITIVE, Outcome.ERASED
# Each channel's outcome for a raw NEGATIVE and a raw POSITIVE test whose
# uniform is below p, equal to p and above p, from the channels' definitions:
# only u < p corrupts a test.
CHANNEL_CELLS = [
    (NoiseModel.noiseless(), {N: (N, N, N), P: (P, P, P)}),  # the identity
    (NoiseModel.erasure(0.25), {N: (E, N, N), P: (E, P, P)}),  # erases both
    (NoiseModel.symmetric(0.25), {N: (P, N, N), P: (N, P, P)}),  # flips both
    (NoiseModel.additive(0.25), {N: (P, N, N), P: (P, P, P)}),  # flips NEGATIVE only
]


@pytest.mark.parametrize("noise,cells", CHANNEL_CELLS,
                         ids=[noise.kind.value for noise, _ in CHANNEL_CELLS])
def test_every_cell_of_the_channel_table(noise, cells):
    # item 0 is negative and item 1 positive; the stand-in deals p - 1/8, p
    # and p + 1/8 (so -1/8 under the noiseless channel, p = 0) in turn, to
    # the scalar reference, to single tests (an erased one is resubmitted on
    # the next uniform), to one design and to the batched COMP decode
    dealt = [noise.p - 0.125, noise.p, noise.p + 0.125]
    for raw, pool in ((N, range(0, 1)), (P, range(1, 2))):
        assert [apply_noise(raw, noise, CyclingUniforms([u])) for u in dealt] == list(cells[raw])
        oracle = TestOracle(2, {1}, noise, CyclingUniforms(dealt))
        log = Recorder(oracle)
        while oracle.tests_used < 3:
            oracle.test(pool)
        assert [out for _, out in log] == list(cells[raw])
    oracle = TestOracle(2, {1}, noise, CyclingUniforms(dealt))
    assert oracle.test_design([[1, 0]] * 3 + [[0, 1]] * 3) == [*cells[N], *cells[P]]
    hit = np.array([[False] * 3 + [True] * 3])
    assert (design_negatives(hit, noise, iter([CyclingUniforms(dealt)]))[0].tolist()
            == [out is N for out in (*cells[N], *cells[P])])


class Untouchable:
    """An iterator that fails the test if it is advanced."""

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("a stream was taken")


@pytest.mark.parametrize("noise", [noise for noise, _ in CHANNEL_CELLS],
                         ids=[noise.kind.value for noise, _ in CHANNEL_CELLS])
def test_design_negatives_reads_a_chunk_as_each_oracle_reads_its_trial(noise):
    # one call over 7 trials of 300 rows, so each row's draw crosses a block
    # of 256 raw outputs; item 1 is the defective, and a row holds it or item 0.
    # The noiseless channel takes no stream; the others one a row, in row order
    hit = np.random.Generator(np.random.PCG64(3)).random((7, 300)) < 0.5
    noiseless = noise.kind is NoiseKind.NOISELESS
    streams = Untouchable() if noiseless else iter([make_rng(9, i) for i in range(8)])
    negative = design_negatives(hit, noise, streams)
    for i, row in enumerate(hit):
        oracle = TestOracle(2, {1}, noise, make_rng(9, i))
        assert negative[i].tolist() == [out is N for out in
                                        oracle.test_design(np.eye(2, dtype=bool)[row.astype(int)])]
    if not noiseless:  # and no more than one a row
        assert next(streams).random_raw() == make_rng(9, 7).random_raw()


# erasure probabilities from the smallest positive p a uniform can beat (only
# u = 0 is erased) to one where a submission lands about once in 10^9
LANDING_PS = [1e-300, 0.001, 0.25, 0.5, 0.9, 1 - 1e-9]


def next_raw_is(bits, raw):
    """The PCG64 `bits`, moved (inc kept) to where its next raw output is
    `raw`: the state after the step is raw itself, whose high half 0 rotates
    nothing."""
    state = bits.state
    inc = state["state"]["inc"]
    state["state"]["state"] = (raw - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128
    bits.state = state
    return bits


def landing_generators(p, firm):
    """A fresh PCG64 for each firm count, some holding a 32-bit half (which
    `random` ignores). At p = 1 - 1e-9 a row of one firm test starts where
    its next output is its largest, 2^64 - 1, so that it lands."""
    streams = [make_rng(int(p * 1000), j) for j in range(len(firm))]
    for bits in streams[::2]:
        generator_on(bits).integers(2**31)  # has_uint32 = 1
    if p > 0.99:
        next_raw_is(streams[1], 2**64 - 1)
    return streams


@pytest.mark.parametrize("p", [0.25, 0.1], ids=["u-equal-p", "least-u-above-p"])
def test_erasure_lands_the_raw_output_at_the_threshold(p):
    # the raw output ceil(p 2^53) << 11 deals the least u >= p (at p = 0.25,
    # p 2^53 is whole, so u = p; at p = 0.1 it is not) and lands; the raw
    # output below it deals u < p and is erased. One firm test each: the
    # first takes 1 submission.
    t = math.ceil(p * 2**53) << 11

    def streams():
        return [next_raw_is(make_rng(5, j), raw) for j, raw in enumerate((t, t - 1))]

    assert [bits.random_raw() for bits in streams()] == [t, t - 1]
    u = [generator_on(bits).random() for bits in streams()]
    assert u[0] >= p > u[1] and (u[0] == p) == (p == 0.25)
    noise = NoiseModel.erasure(p)
    used = erasure_submissions([1, 1], noise, handoff_of(streams()))
    assert used[0] == 1 < used[1]
    assert used == erasure_landing([1, 1], noise, streams())


@pytest.mark.parametrize("p", LANDING_PS)
def test_erasure_submissions_match_the_reference_landing(p):
    # firm 0 takes no draw; some counts need more than the reference's 2^16
    # uniforms in one call, and near p = 1 only the prepared row can land
    firm = ([0, 1, 0, 3, 17, 300] + [int(70000 * (1 - p)) + 1] * 2 if p < 0.99 else [0, 1, 0])
    noise = NoiseModel.erasure(p)
    streams = landing_generators(p, firm)
    handoff = handoff_of(streams)
    want = erasure_landing(firm, noise, streams)
    assert erasure_submissions(firm, noise, handoff) == want
    assert want[0] == 0 and max(want) > (1 << 16 if p < 0.99 else 0)
    assert erasure_submissions(firm, NoiseModel.noiseless(), None) == firm


@pytest.mark.parametrize("p", LANDING_PS)
def test_uniform_below_p_is_a_raw_output_below_a_threshold(p):
    # `Generator.random` deals (raw >> 11) 2^-53, so u < p iff
    # (raw >> 11) < ceil(p 2^53): checked on a stream and at the threshold
    bits = np.random.PCG64(17)
    raw = np.random.PCG64(17).random_raw(10000) >> 11
    assert (np.random.Generator(bits).random(10000) == raw * 2.0**-53).all()
    t = math.ceil(p * 2**53)
    tops = np.concatenate((raw, [v for v in (0, 1, t - 1, t, t + 1, 2**53 - 1) if 0 <= v < 2**53]))
    assert ((tops * 2.0**-53 < p) == (tops < t)).all()


# chances x of the threshold rule: the channels' edges and p, and COMP's 1 / k
THRESHOLD_XS = [0, 1e-300, 0.001, 0.01, 0.25, 0.5, 0.9999999999, 1.0,
                *(1.0 / k for k in (1, 2, 3, 5, 7, 10, 30, 71, 1000, 12345))]


def test_raw_below_threshold_is_uniform_below_x():
    # r < _threshold(x) iff `Generator.random`'s u < x, on the same 200,000
    # draws of one stream and on the raw outputs around each threshold
    raw = np.random.PCG64(29).random_raw(200_000)
    u = np.random.Generator(np.random.PCG64(29)).random(200_000)
    for x in THRESHOLD_XS:
        t = model._threshold(x)
        assert ((raw < t) == (u < x)).all()
        for r in (v for v in (t - 2049, t - 1, t, t + 2048) if 0 <= v < 2**64):
            assert (r < t) == ((r >> 11) * 2.0**-53 < x)
    assert model._threshold(0) == 0 and model._threshold(1.0) == 2**64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (raw < model._threshold(1.0)).all()


@pytest.mark.parametrize("shape", [(0,), (256,), (3, 70000)])
@pytest.mark.parametrize("p", [0, 1 / 3, 1])
def test_draw_below_fills_in_c_order_past_its_blocks(shape, p):
    # (3, 70000) crosses the 2^16-output block within its first row; the
    # fill reads the outputs a single draw would, and leaves the stream
    # just past them
    size = math.prod(shape)
    bits, fresh = np.random.PCG64(43), np.random.PCG64(43)
    out = np.empty(shape, dtype=bool)
    assert model.draw_below(bits, p, out) is out
    assert (out == (fresh.random_raw(size).reshape(shape) < model._threshold(p))).all()
    assert bits.state == fresh.state
    # a reshape would copy these, so they would be left unfilled
    for strided in (np.empty((3, 8), dtype=bool)[:, ::2], np.empty((3, 4), dtype=bool, order="F")):
        with pytest.raises(ValueError, match="C-contiguous"):
            model.draw_below(bits, p, strided)
    assert bits.state == fresh.state


def test_erasure_submissions_at_p1():
    handoff = handoff_of(np.random.PCG64(j) for j in range(3))
    assert erasure_submissions([0, 0, 0], NoiseModel.erasure(1.0), handoff) == [0, 0, 0]
    with pytest.raises(ValueError, match="no test ever lands"):
        erasure_submissions([0, 2, 0], NoiseModel.erasure(1.0), handoff)


@pytest.mark.parametrize("values", [
    # u equal to p lands: the erasure channel erases only u < p; 5 shifts against 256
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
            log = Recorder(oracle)
            res = hgbsa(oracle, 1000, 5)
            seen.append((res.estimate, oracle.tests_used, as_sets(log)))
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
        bits = make_uniforms()
        oracle = cls(n, truth, noise, bits)
        log = Recorder(oracle)
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
        state = bits.drawn if isinstance(bits, CyclingUniforms) else bits.state
        seen.append((found, oracle.tests_used, as_sets(log), state))
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
        rng.state = state
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
                    state = rng.state
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


# (n, k, trials) of the batched COMP edge rows, and the budgets other than 30
COMP_EDGES = ((3, 3, 20), (6, 3, 20), (20, 2, 20), (10, 10, 20), (300, 7, 60))
COMP_EDGE_BUDGETS = {(20, 2): 300}
EDGE_NOISES = {**NOISES, "erasure1.0": NoiseModel.erasure(1.0)}


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
    ("hgbsa", "erasure", 300, 7, 60),  # odd k holds a 32-bit half, which is not handed on
    ("hgbsa", "erasure", 300, 8, 60),
    *[(alg, "noiseless", 2**53, k, 10)  # the largest n a spec accepts
      for alg in ("hgbsa", "variant") for k in (1, 2, 3)],
    # COMP and the noisy channels run against an oracle, on the generator
    # the bulk sampler hands on
    ("comp", "symmetric", 10, 10, 20),  # k == n
    ("rbt", "symmetric", 10, 10, 20),
    ("variant", "additive", 10, 10, 20),
    ("hgbsa", "symmetric", 50, 0, 20),
    ("rbt", "additive", 50, 0, 20),
    ("hgbsa", "additive", 2**32 + 7, 3, 10),  # numpy's 64-bit bounded draws
    ("variant", "symmetric", 2**32 + 7, 3, 10),
    ("comp", "additive", 300, 7, 60),  # odd k
    ("comp", "erasure", 300, 7, 60),
    ("rbt", "symmetric", 300, 7, 60),
    ("hgbsa", "additive", 300, 7, 60),
    ("comp", "noiseless", 1000, 200, harness.BATCH_CELLS // 200 + 1),
    ("comp", "symmetric", 1000, 200, harness.BATCH_CELLS // 200 + 1),
    ("hgbsa", "symmetric", 1000, 200, harness.BATCH_CELLS // 200 + 1),
    ("rbt", "additive", 1000, 200, harness.BATCH_CELLS // 200 + 1),
    # batched COMP under every channel: empty rows redrawn at (3, 3) and
    # (6, 3), the oracle's noise draw across a block of 256 at (20, 2), k == n,
    # odd k
    *[("comp", noise, n, k, trials) for n, k, trials in COMP_EDGES for noise in NOISES
      if (noise, n, k) not in (("symmetric", 10, 10), ("additive", 300, 7),
                               ("erasure", 300, 7))],  # listed above
    ("comp", "erasure1.0", 6, 3, 20),  # every row erased
    ("comp", "erasure1.0", 10, 10, 20),
])
def test_run_trials_equal_run_trial_at_the_edges(alg, noise, n, k, trials):
    spec = ExperimentSpec(size=ProblemSize(n, k), algorithm=alg, noise=EDGE_NOISES[noise],
                          trials=trials, master_seed=k + 1,
                          comp_t=COMP_EDGE_BUDGETS.get((n, k), 30) if alg == "comp" else None)
    assert run_trials(spec) == [run_trial(spec, i) for i in range(trials)]


@pytest.mark.parametrize("alg,noise", [("hgbsa", "noiseless"), ("hgbsa", "erasure"),
                                       ("comp", "symmetric"), ("hgbsa", "symmetric"),
                                       ("comp", "additive"), ("comp", "noiseless"),
                                       ("comp", "erasure"), ("rbt", "additive")],
                         ids=["noiseless", "erasure", "comp-symmetric", "symmetric",
                              "comp-additive", "comp-noiseless", "comp-erasure", "additive"])
def test_run_trials_and_run_trial_never_call_generator_integers(monkeypatch, alg, noise):
    # the defective sets, COMP's designs and the noise are defined on PCG64's
    # raw output, not on numpy's `Generator.integers` or `Generator.random`,
    # whose streams numpy does not keep fixed across releases: a stream is a
    # PCG64 read by `random_raw`, so with no Generator to be built, both
    # paths still give the same trials
    spec = ExperimentSpec(size=ProblemSize(500, 10), algorithm=alg,
                          noise=NOISES[noise], trials=300, master_seed=4,
                          comp_t=60 if alg == "comp" else None)
    want = [run_trial(spec, i) for i in range(spec.trials)]

    def no_generator(*args, **kwargs):
        raise AssertionError("a numpy Generator was built")

    monkeypatch.setattr(np.random, "Generator", no_generator)
    assert run_trials(spec) == want
    assert [run_trial(spec, i) for i in range(spec.trials)] == want


@pytest.mark.parametrize("alg,noise", [("comp", "noiseless"), ("comp", "erasure"),
                                       ("rbt", "symmetric"), ("hgbsa", "additive"),
                                       ("variant", "symmetric")])
def test_run_trials_never_seeds_or_samples_per_trial(monkeypatch, alg, noise):
    # every trial is seeded and sampled by `sample_defective_sets`, and COMP's
    # design streams are seeded in bulk too: run_trials builds no generator
    # per trial, only a few bit generators per batch (one batch here)
    spec = ExperimentSpec(size=ProblemSize(100, 5), algorithm=alg, noise=NOISES[noise],
                          trials=50, master_seed=2, comp_t=40 if alg == "comp" else None)
    want = [run_trial(spec, i) for i in range(spec.trials)]
    make, streams = harness.make_rng, []
    monkeypatch.setattr(harness, "make_rng",
                        lambda seed, stream=0: streams.append(stream) or make(seed, stream))
    monkeypatch.setattr(harness, "sample_defective_set",
                        lambda *a: pytest.fail("a trial was sampled per trial"))
    pcg64, built = np.random.PCG64, []
    monkeypatch.setattr(np.random, "PCG64", lambda *a: built.append(a) or pcg64(*a))
    assert run_trials(spec) == want
    assert streams == []
    assert len(built) <= 3


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


# sha256 of `cli.main`'s stdout for the argvs of the comp-sweep and
# erasure-large-n benchmark workloads, computed while PCG64 was stepped in
# blocks of 64 steps from two jump tables; then for argvs whose trials span
# two or more batches, one per path (noiseless, per-trial oracle, COMP on a
# noisy channel, sweeps under each, capacity), computed while every command
# still reduced a list of `TrialResult`s; then for two argvs whose every row
# is drawn on its own by `model._bounded_draws` (64-bit then 32-bit ranges
# past 2^32, each trial run against a `TestOracle`; and k = 10^5, where every
# row has a rejected draw), computed while the per-trial sampler still kept
# numpy's held 32-bit half in step.
CLI_STDOUT_SHA256 = {
    "sweep --alg comp --n 100 --k 5 --t-min 40 --t-max 160 --step 10 --trials 300 --seed 1":
        "65f1a3457bda2d053cd0102bf737299a8614f01e48325db50589772701fdddc9",
    "simulate --alg hgbsa --n 100000 --k 71 --noise erasure:0.25 --trials 100 --seed 1":
        "f5541502c0fdece7565775b3bd5a904c9257cc61bafb65404c27fd5304191c0a",
    "simulate --alg hgbsa --n 500 --k 10 --trials 5000 --seed 3":
        "8fc20ac4c0615c8c79f8e6d8c93e8a265c21581ec9adfd3590e5d06eaa4f1209",
    "simulate --alg rbt --n 200 --k 5 --noise symmetric:0.05 --trials 7000 --seed 3":
        "bfbac016f9c4de987e2c96aaad2f98e0538999b2c53016324e58489ff843cb61",
    "simulate --alg comp --n 100 --k 5 --t 60 --noise additive:0.02 --trials 7000 --seed 3":
        "a63d6bce0ff9354719ac2fc52d3c166fc887f26533ad23916bee0942b0158a2b",
    "sweep --alg variant --n 9699 --k 30 --t-min 280 --t-max 330 --trials 1200 --seed 3":
        "ba542f534201d8f6a2536744db69133bb00895fda8e5270ab5aae14293d2cdf0",
    "sweep --alg hgbsa --n 500 --k 10 --noise erasure:0.25 --t-min 60 --t-max 120 "
    "--trials 4000 --seed 3":
        "fffa434cdfae6acb0a59f485987308fafb8b8c4de87362bd929a99efa8c81d1a",
    "sweep --alg comp --n 100 --k 5 --t-min 40 --t-max 160 --step 60 --trials 4000 --seed 3":
        "fcbc621a423b3e09f20ba75246b68c78e2188a1308395fd3a3d29c0a4627210d",
    "capacity --beta 0.5 --n-list 100 1000 --alg variant --trials 2000 --seed 3":
        "ff6aee6424e4385b5cd2114129cdaa7123c6444f3874f665133b3d9e41ccef93",
    "simulate --alg hgbsa --n 4294967298 --k 5 --noise symmetric:0.01 --trials 2000 --seed 3":
        "5a71b8ea320602adc35affd5dba4de85a355bafb9bd75114239b6f3c0255e418",
    "simulate --alg variant --n 1000000 --k 100000 --trials 2 --seed 3":
        "f26bac2ae37e2297543b2198bc727eca519077d04d1b3710ed184592a795acc5",
}


@pytest.mark.parametrize("argv", list(CLI_STDOUT_SHA256))
def test_cli_stdout_pinned(capsys, argv):
    assert main(argv.split()) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == CLI_STDOUT_SHA256[argv]


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
