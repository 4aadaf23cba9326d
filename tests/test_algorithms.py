"""Tests for the adaptive algorithms and the COMP baseline.

Small instances are checked exhaustively over every possible defective set;
larger ones against the closed-form worst-case guarantees.
"""
import math
import statistics
from itertools import combinations

import pytest

from grouptest import bounds
from grouptest.algorithms import (
    _variant_group_size,
    binary_search,
    comp_run,
    hgbsa,
    hwang_variant,
    repeated_binary_testing,
)
from grouptest.bounds import NoiseModel, ProblemSize, ceil_log2
from grouptest.model import Outcome, TestOracle, make_rng, sample_defective_set
from oracle_reference import Recorder, generator_on


def noiseless_oracle(n, truth, seed=0):
    return TestOracle(n, truth, NoiseModel.noiseless(), make_rng(seed))


class TestBinarySearch:
    def test_singleton_no_tests(self):
        o = noiseless_oracle(10, {7})
        res = binary_search(o, [7])
        assert res.found == 7 and res.cleared == () and res.tests_spent == 0
        assert o.tests_used == 0

    def test_hand_trace(self):
        # candidates 1..8, defectives {3, 6}: three tests, leftmost found
        o = noiseless_oracle(9, {3, 6})
        log = Recorder(o)
        res = binary_search(o, list(range(1, 9)))
        assert res.found == 3
        assert res.cleared == (1, 2)
        assert res.tests_spent == 3
        pools = [set(p) for p, _ in log]
        outs = [out for _, out in log]
        assert pools == [{1, 2, 3, 4}, {1, 2}, {3}]
        assert outs == [Outcome.POSITIVE, Outcome.NEGATIVE, Outcome.POSITIVE]

    def test_exhaustive_single_defective_up_to_64(self):
        for b in range(1, 65):
            for pos in range(b):
                o = noiseless_oracle(b, {pos})
                res = binary_search(o, list(range(b)))
                assert res.found == pos
                assert res.cleared == tuple(range(pos))
                assert res.tests_spent == ceil_log2(b)
                assert o.tests_used == res.tests_spent

    def test_leftmost_with_many_defectives(self):
        for b in (5, 12, 33):
            for truth in combinations(range(b), 3):
                o = noiseless_oracle(b, set(truth))
                res = binary_search(o, list(range(b)))
                assert res.found == min(truth)
                assert res.tests_spent == ceil_log2(b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            binary_search(noiseless_oracle(4, {1}), [])

    def test_tests_spent_counts_erased_submissions(self):
        # under erasure a search spends its ceil(log2 b) firm tests plus the
        # resubmissions of every erased one
        exceeded = False
        for seed in range(20):
            o = TestOracle(16, {11}, NoiseModel.erasure(0.5), make_rng(seed))
            o.test(range(16))
            before = o.tests_used
            res = binary_search(o, range(16))
            assert res.found == 11
            assert res.tests_spent == o.tests_used - before
            exceeded |= res.tests_spent > ceil_log2(16)
        assert exceeded


def exhaustive_truths(n, k):
    return (frozenset(c) for c in combinations(range(n), k))


class TestRepeatedBinaryTesting:
    def test_hand_trace_n4(self):
        o = noiseless_oracle(4, {2})
        res = repeated_binary_testing(o, 4, 1)
        assert res.estimate == frozenset({2})
        assert res.tests_used == 2

    def test_all_defective(self):
        o = noiseless_oracle(8, set(range(8)))
        res = repeated_binary_testing(o, 8, 8)
        assert res.estimate == frozenset(range(8))
        assert res.tests_used <= 8 * 3

    def test_k0(self):
        o = noiseless_oracle(5, set())
        res = repeated_binary_testing(o, 5, 0)
        assert res.estimate == frozenset() and res.tests_used == 0

    def test_exact_test_count(self):
        # round i searches a list of n-i items: exactly ceil(log2(n-i)) tests
        def exact(n, k):
            return sum(ceil_log2(n - i) for i in range(k))

        for n in range(1, 13):
            for k in range(n + 1):
                for truth in exhaustive_truths(n, k):
                    res = repeated_binary_testing(noiseless_oracle(n, truth), n, k)
                    assert res.estimate == truth and res.tests_used == exact(n, k)
        rng = make_rng(17)
        for _ in range(200):
            truth = sample_defective_set(500, 10, rng)
            res = repeated_binary_testing(noiseless_oracle(500, truth), 500, 10)
            assert res.estimate == truth and res.tests_used == exact(500, 10)

    def test_exhaustive_n10_k2(self):
        g = bounds.rbt_guarantee(ProblemSize(10, 2))
        assert g == 8
        for truth in exhaustive_truths(10, 2):
            o = noiseless_oracle(10, truth)
            res = repeated_binary_testing(o, 10, 2)
            assert res.estimate == truth
            assert res.tests_used <= g


class TestHgbsa:
    def test_first_group_size_500_10(self):
        o = noiseless_oracle(500, {499})
        log = Recorder(o)
        hgbsa(o, 500, 10)
        first_pool, _ = log[0]
        assert len(first_pool) == 32

    def test_two_items(self):
        o = noiseless_oracle(2, {1})
        res = hgbsa(o, 2, 1)
        assert res.estimate == frozenset({1})
        assert res.tests_used <= 2

    @pytest.mark.parametrize("n,k", [(10, 2), (12, 2), (12, 3)])
    def test_exhaustive_small(self, n, k):
        g = bounds.hwang_guarantee(ProblemSize(n, k))
        for truth in exhaustive_truths(n, k):
            o = noiseless_oracle(n, truth)
            res = hgbsa(o, n, k)
            assert res.estimate == truth
            assert res.tests_used <= g


class TestHwangVariant:
    def test_first_group_size_500_10(self):
        o = noiseless_oracle(500, {499})
        log = Recorder(o)
        hwang_variant(o, 500, 10)
        first_pool, _ = log[0]
        assert len(first_pool) == 34  # ceil(500 * (1 - 2^(-1/10)))

    def test_n_equals_k_zero_tests(self):
        o = noiseless_oracle(5, set(range(5)))
        res = hwang_variant(o, 5, 5)
        assert res.estimate == frozenset(range(5))
        assert res.tests_used == 0

    def test_group_never_leaves_fewer_candidates_than_defectives(self):
        for m in range(2, 601):
            for kp in range(1, m):
                assert _variant_group_size(m, kp) <= m - kp

    @pytest.mark.parametrize("n,k", [(10, 2), (12, 2), (12, 3)])
    def test_exhaustive_small(self, n, k):
        slack_bound = math.ceil(bounds.variant_guarantee(ProblemSize(n, k))) + k
        for truth in exhaustive_truths(n, k):
            o = noiseless_oracle(n, truth)
            res = hwang_variant(o, n, k)
            assert res.estimate == truth
            assert res.tests_used <= slack_bound

    def test_no_defective_removed_by_negative(self):
        for truth in exhaustive_truths(12, 3):
            o = noiseless_oracle(12, truth)
            log = Recorder(o)
            hwang_variant(o, 12, 3)
            for pool, out in log:
                if out is Outcome.NEGATIVE:
                    assert truth.isdisjoint(pool)


@pytest.mark.parametrize("alg", [hgbsa, hwang_variant])
def test_group_tests_advance_past_cleared_items(alg):
    # every pool is a contiguous range; a negative group drops exactly its
    # items, and a binary search that finds d drops everything up to d
    for truth in exhaustive_truths(14, 3):
        o = noiseless_oracle(14, truth)
        log = Recorder(o)
        alg(o, 14, 3)
        assert all(isinstance(p, range) and p.step == 1 for p, _ in log)
        i, start = 0, 0
        while i < len(log):
            group, out = log[i]
            assert group.start == start
            if out is Outcome.NEGATIVE:
                i, start = i + 1, group.stop
            else:
                i, start = i + 1 + ceil_log2(len(group)), min(truth & set(group)) + 1
        assert i == len(log)


class TestErasureRetry:
    def test_p0_transparent(self):
        truth = frozenset({3, 17})
        bare = noiseless_oracle(30, truth, seed=5)
        bare_log = Recorder(bare)
        bare_res = hgbsa(bare, 30, 2)
        erasing = TestOracle(30, truth, NoiseModel.erasure(0.0), make_rng(5))
        erasing_log = Recorder(erasing)
        erasing_res = hgbsa(erasing, 30, 2)
        assert erasing_res.estimate == bare_res.estimate
        assert erasing_res.tests_used == bare_res.tests_used
        assert erasing_log == bare_log

    def test_filtered_transcript_matches_noiseless(self):
        truth = frozenset({3, 17})
        bare = noiseless_oracle(30, truth, seed=5)
        bare_log = Recorder(bare)
        hgbsa(bare, 30, 2)
        noisy = TestOracle(30, truth, NoiseModel.erasure(0.5), make_rng(99))
        noisy_log = Recorder(noisy)
        res = hgbsa(noisy, 30, 2)
        assert res.estimate == truth
        filtered = [(p, o) for p, o in noisy_log if o is not Outcome.ERASED]
        assert filtered == bare_log

    def test_expected_inflation_factor(self):
        # p = 0.5 doubles the expected test count (geometric repetition)
        truth = frozenset({2})
        base = noiseless_oracle(4, truth)
        base_tests = hgbsa(base, 4, 1).tests_used
        counts = []
        for i in range(4000):
            o = TestOracle(4, truth, NoiseModel.erasure(0.5), make_rng(123, i))
            counts.append(hgbsa(o, 4, 1).tests_used)
        mean = statistics.mean(counts)
        sem = statistics.stdev(counts) / math.sqrt(len(counts))
        assert abs(mean - 2 * base_tests) <= 3 * sem

    def test_p1_rejected(self):
        # no test ever lands, so an adaptive algorithm cannot finish: it
        # raises instead of resubmitting forever
        for run in (lambda o: hgbsa(o, 4, 1), lambda o: binary_search(o, range(4)),
                    lambda o: hwang_variant(o, 4, 1)):
            with pytest.raises(ValueError):
                run(TestOracle(4, {1}, NoiseModel.erasure(1.0), make_rng(0)))


class TestComp:
    def test_all_positive_estimates_everything(self):
        o = noiseless_oracle(6, set(range(6)))
        res = comp_run(o, 6, 6, 10, make_rng(1))
        assert res.estimate == frozenset(range(6))
        assert res.tests_used == 10

    def test_negative_pool_eliminates_members(self):
        o = noiseless_oracle(20, {1})
        log = Recorder(o)
        res = comp_run(o, 20, 1, 30, make_rng(2))
        for pool, out in log:
            if out is Outcome.NEGATIVE:
                assert not (set(pool) & set(res.estimate))

    def test_noiseless_estimate_superset_of_truth(self):
        for i in range(200):
            rng = generator_on(make_rng(50, i))
            truth = frozenset(int(x) for x in rng.choice(40, 4, replace=False))
            o = noiseless_oracle(40, truth, seed=i)
            res = comp_run(o, 40, 4, 25, make_rng(51, i))
            assert truth <= res.estimate

    def test_pools_never_empty(self):
        o = noiseless_oracle(3, {0})
        log = Recorder(o)
        comp_run(o, 3, 1, 50, make_rng(3))
        assert len(log) == 50 and all(len(p) >= 1 for p, _ in log)

    def test_bad_args_rejected(self):
        o = noiseless_oracle(4, {1})
        with pytest.raises(ValueError):
            comp_run(o, 4, 1, 0, make_rng(0))
        with pytest.raises(ValueError):
            comp_run(o, 4, 0, 5, make_rng(0))
