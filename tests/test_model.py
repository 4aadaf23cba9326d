"""Tests for the testing-world model: truth function, noise channels, oracle
metering, and RNG stream derivation."""
import math
from itertools import chain, combinations

import numpy as np
import pytest

from grouptest.algorithms import _halve, _hwang_group_size, _split
from grouptest.bounds import NoiseModel
from grouptest.model import (
    Outcome,
    TestOracle,
    derive_stream_seed,
    make_rng,
    sample_defective_set,
)
from oracle_reference import Recorder, apply_noise, generator_on, truth_outcome


def all_nonempty_pools(n):
    items = range(n)
    return chain.from_iterable(combinations(items, r) for r in range(1, n + 1))


class TestTruthOutcome:
    def test_simple(self):
        assert truth_outcome({0, 1}, frozenset({2})) is Outcome.NEGATIVE
        assert truth_outcome({0, 1}, frozenset({1, 3})) is Outcome.POSITIVE

    def test_exhaustive_n4_k1_matches_set_intersection(self):
        for d in range(4):
            truth = frozenset({d})
            for pool in all_nonempty_pools(4):
                want = Outcome.POSITIVE if set(pool) & truth else Outcome.NEGATIVE
                assert truth_outcome(pool, truth) is want

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            truth_outcome((), frozenset({1}))


class TestSampleDefectiveSet:
    def test_degenerate(self):
        rng = make_rng(0)
        assert sample_defective_set(5, 5, rng) == frozenset(range(5))
        assert sample_defective_set(5, 0, rng) == frozenset()

    def test_k_gt_n_rejected(self):
        with pytest.raises(ValueError):
            sample_defective_set(3, 4, make_rng(0))

    def test_uniform_over_subsets(self):
        # all 6 2-subsets of 4 items with frequency 1/6 within 3 sigma
        rng = make_rng(42)
        draws = 60_000
        counts = {}
        for _ in range(draws):
            s = sample_defective_set(4, 2, rng)
            counts[s] = counts.get(s, 0) + 1
        assert len(counts) == 6
        expect = draws / 6
        sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
        for c in counts.values():
            assert abs(c - expect) <= 3 * sigma


class TestApplyNoise:
    def test_noiseless_identity(self):
        rng = generator_on(make_rng(1))
        assert apply_noise(Outcome.NEGATIVE, NoiseModel.noiseless(), rng) is Outcome.NEGATIVE
        assert apply_noise(Outcome.POSITIVE, NoiseModel.noiseless(), rng) is Outcome.POSITIVE

    def test_erased_input_rejected(self):
        with pytest.raises(ValueError):
            apply_noise(Outcome.ERASED, NoiseModel.erasure(0.5), generator_on(make_rng(1)))

    def test_additive_never_corrupts_positive(self):
        rng = generator_on(make_rng(2))
        model = NoiseModel.additive(0.9)
        for _ in range(2000):
            assert apply_noise(Outcome.POSITIVE, model, rng) is Outcome.POSITIVE

    def test_symmetric_flip_fraction(self):
        rng = generator_on(make_rng(3))
        model = NoiseModel.symmetric(0.3)
        draws = 50_000
        flips = sum(apply_noise(Outcome.NEGATIVE, model, rng) is Outcome.POSITIVE
                    for _ in range(draws))
        sigma = math.sqrt(draws * 0.3 * 0.7)
        assert abs(flips - draws * 0.3) <= 3 * sigma

    def test_erasure_fraction(self):
        rng = generator_on(make_rng(4))
        model = NoiseModel.erasure(0.4)
        draws = 50_000
        erased = sum(apply_noise(Outcome.POSITIVE, model, rng) is Outcome.ERASED
                     for _ in range(draws))
        sigma = math.sqrt(draws * 0.4 * 0.6)
        assert abs(erased - draws * 0.4) <= 3 * sigma

    def test_consumes_one_variate_even_when_noiseless(self):
        # under one seed, test j reads the j-th uniform whatever the noise model
        rng_a = generator_on(make_rng(9))
        rng_b = generator_on(make_rng(9))
        apply_noise(Outcome.NEGATIVE, NoiseModel.noiseless(), rng_a)
        apply_noise(Outcome.NEGATIVE, NoiseModel.erasure(0.5), rng_b)
        assert rng_a.random() == rng_b.random()


class TestOracleBehaviour:
    def test_metering_and_transcript(self):
        o = TestOracle(6, {1, 4}, NoiseModel.noiseless(), make_rng(0))
        log = Recorder(o)
        out1 = o.test((0, 1))
        out2 = o.test((0, 1))
        assert out1 is out2 is Outcome.POSITIVE
        assert o.tests_used == 2 == len(log)

    def test_empty_pool_rejected(self):
        o = TestOracle(4, {1}, NoiseModel.noiseless(), make_rng(0))
        with pytest.raises(ValueError):
            o.test(())

    def test_truth_indices_validated(self):
        with pytest.raises(ValueError):
            TestOracle(4, {5}, NoiseModel.noiseless(), make_rng(0))

    def test_erasure_p1_everything_erased(self):
        # no test ever lands: a design, which is never resubmitted, comes back
        # all erased; a single test, or a search or a splitting run through
        # `test`, refuses to resubmit forever
        def oracle():
            return TestOracle(4, {1}, NoiseModel.erasure(1.0), make_rng(0))

        assert oracle().test_design([[True] * 4] * 20) == [Outcome.ERASED] * 20
        for run in (lambda o: o.test((0, 1, 2)), lambda o: _halve(range(4), o.test),
                    lambda o: _halve([0, 1, 2, 3], o.test),
                    lambda o: _split(range(4), _hwang_group_size, 1, o.test),
                    lambda o: _split([0, 1, 2, 3], _hwang_group_size, 1, o.test)):
            with pytest.raises(ValueError):
                run(oracle())

    def test_seed_determinism(self):
        pools = [(0, 1), (2,), (1, 2, 3), (3,)]
        transcripts = []
        for _ in range(2):
            o = TestOracle(4, {1, 3}, NoiseModel.symmetric(0.3), make_rng(7, 3))
            log = Recorder(o)
            for p in pools:
                o.test(p)
            transcripts.append(log)
        assert transcripts[0] == transcripts[1]

    def test_transcript_replay_noiseless(self):
        o = TestOracle(8, {2, 5}, NoiseModel.noiseless(), make_rng(11))
        log = Recorder(o)
        for p in [(0, 1, 2, 3), (4, 5), (6,), (2,)]:
            o.test(p)
        for pool, out in log:
            assert truth_outcome(pool, o.truth) is out

    def test_design_rows_match_single_tests(self):
        design = [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 1], [0, 0, 1, 0, 1, 0]]
        batch = TestOracle(6, {1, 4}, NoiseModel.noiseless(), make_rng(0))
        single = TestOracle(6, {1, 4}, NoiseModel.noiseless(), make_rng(0))
        batch_log, single_log = Recorder(batch), Recorder(single)
        outs = batch.test_design(design)
        assert outs == [single.test(p) for p in [(0, 3), (1, 5), (2, 4)]]
        assert outs == [Outcome.NEGATIVE, Outcome.POSITIVE, Outcome.POSITIVE]
        assert batch.tests_used == 3
        assert batch_log == single_log

    def test_design_logged_as_copy(self):
        design = np.ones((2, 4), dtype=bool)
        o = TestOracle(4, {1}, NoiseModel.noiseless(), make_rng(0))
        log = Recorder(o)
        o.test_design(design)
        design[:, 1] = False  # after the call: the recorder keeps each row as tested
        assert log == [((0, 1, 2, 3), Outcome.POSITIVE)] * 2

    def test_design_empty_row_rejected(self):
        o = TestOracle(4, {1}, NoiseModel.noiseless(), make_rng(0))
        log = Recorder(o)
        with pytest.raises(ValueError):
            o.test_design([[1, 1, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(ValueError):
            o.test_design([[1, 1, 0]])  # not n columns
        assert o.tests_used == 0 and log == []


class TestStreamSeeds:
    def test_deterministic(self):
        assert derive_stream_seed(5, 9) == derive_stream_seed(5, 9)

    def test_distinct_streams(self):
        seeds = {derive_stream_seed(0, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_distinct_masters(self):
        assert derive_stream_seed(1, 0) != derive_stream_seed(2, 0)
