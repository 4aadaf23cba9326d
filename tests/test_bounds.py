"""Tests for the closed-form bounds module.

Frozen expected values were computed with independent oracles: exact integer
binomials (math.comb) plus math.log2, and 50-digit mpmath evaluation for the
channel formulas.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptest import bounds
from grouptest.bounds import (
    NoiseKind,
    NoiseModel,
    ProblemSize,
    binary_entropy,
    binom_log_bounds,
    bound_report,
    channel_capacity_bound,
    comp_test_count,
    converse_success_bound,
    expected_tests_floor,
    hwang_guarantee,
    log2_binom,
    rate,
    rbt_guarantee,
    variant_guarantee,
    weak_converse_bound,
)


def exact_log2_binom(n, k):
    """Arbitrary-precision oracle: integer binomial, then log2."""
    return math.log2(math.comb(n, k))


class TestLog2Binom:
    def test_trivial_k0(self):
        assert log2_binom(ProblemSize(4, 0)) == 0.0
        assert log2_binom(ProblemSize(4, 4)) == 0.0

    def test_small_exact(self):
        assert log2_binom(ProblemSize(4, 2)) == pytest.approx(math.log2(6), rel=1e-12)

    def test_large_against_big_integer_oracle(self):
        assert log2_binom(ProblemSize(500, 10)) == pytest.approx(
            exact_log2_binom(500, 10), rel=1e-9)
        assert log2_binom(ProblemSize(500, 10)) == pytest.approx(67.7361089, rel=1e-7)
        assert log2_binom(ProblemSize(9699, 30)) == pytest.approx(
            exact_log2_binom(9699, 30), rel=1e-9)

    def test_exhaustive_small_n(self):
        for n in range(1, 61):
            for k in range(n + 1):
                got = log2_binom(ProblemSize(n, k))
                want = exact_log2_binom(n, k)
                if want == 0.0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(want, rel=1e-9)

    @given(st.integers(1, 10 ** 6), st.data())
    @settings(max_examples=200)
    def test_symmetry(self, n, data):
        k = data.draw(st.integers(0, n))
        assert log2_binom(ProblemSize(n, k)) == pytest.approx(
            log2_binom(ProblemSize(n, n - k)), rel=1e-12, abs=1e-12)

    def test_pure(self):
        s = ProblemSize(12345, 67)
        assert log2_binom(s) == log2_binom(s)


class TestSandwichBounds:
    def test_frozen_values(self):
        lo, hi = binom_log_bounds(ProblemSize(500, 10))
        assert lo == pytest.approx(56.43856, rel=1e-6)
        assert hi == pytest.approx(70.86551, rel=1e-6)
        assert lo <= log2_binom(ProblemSize(500, 10)) <= hi

    def test_degenerate_n_equals_k(self):
        lo, hi = binom_log_bounds(ProblemSize(4, 4))
        assert lo == 0.0
        assert hi == pytest.approx(4 * math.log2(math.e), rel=1e-12)

    def test_hand_value(self):
        lo, hi = binom_log_bounds(ProblemSize(2, 1))
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0 + math.log2(math.e), rel=1e-12)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            binom_log_bounds(ProblemSize(5, 0))

    @given(st.integers(1, 10 ** 6), st.data())
    @settings(max_examples=300)
    def test_sandwich_property(self, n, data):
        k = data.draw(st.integers(1, n))
        s = ProblemSize(n, k)
        lo, hi = binom_log_bounds(s)
        mid = log2_binom(s)
        assert lo <= mid + 1e-9
        assert mid <= hi + 1e-9


class TestRate:
    def test_frozen(self):
        assert rate(ProblemSize(500, 10), 78) == pytest.approx(0.868412, rel=1e-6)
        assert rate(ProblemSize(2, 1), 1) == 1.0

    def test_identity(self):
        s = ProblemSize(4, 2)
        assert rate(s, 7) * 7 == pytest.approx(log2_binom(s), rel=1e-12)

    def test_t0_rejected(self):
        with pytest.raises(ValueError):
            rate(ProblemSize(4, 2), 0)


class TestConverseBounds:
    def test_frozen(self):
        assert converse_success_bound(ProblemSize(10, 2), 3) == pytest.approx(
            8 / 45, rel=1e-12)
        assert converse_success_bound(ProblemSize(4, 1), 2) == 1.0
        assert converse_success_bound(ProblemSize(500, 10), 60) == pytest.approx(
            2.0 ** (60 - exact_log2_binom(500, 10)), rel=1e-9)

    def test_weak_frozen(self):
        assert weak_converse_bound(ProblemSize(10, 2), 3) == pytest.approx(
            3 / math.log2(45), rel=1e-12)
        assert weak_converse_bound(ProblemSize(10, 2), 6) == 1.0
        assert weak_converse_bound(ProblemSize(500, 10), 60) == pytest.approx(
            0.885790, rel=1e-6)

    def test_weak_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            weak_converse_bound(ProblemSize(5, 0), 3)
        with pytest.raises(ValueError):
            weak_converse_bound(ProblemSize(5, 5), 3)

    @given(st.integers(2, 5000), st.data())
    @settings(max_examples=300)
    def test_monotone_and_clamped(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        s = ProblemSize(n, k)
        prev_c = prev_w = -1.0
        for t in range(0, 25, 3):
            c = converse_success_bound(s, t)
            w = weak_converse_bound(s, t)
            assert 0.0 <= c <= 1.0 and 0.0 <= w <= 1.0
            assert c >= prev_c and w >= prev_w
            prev_c, prev_w = c, w

    @given(st.integers(2, 2000), st.data())
    @settings(max_examples=500)
    def test_strict_bound_dominates_weak(self, n, data):
        # Pointwise domination holds on the unclamped region once
        # log2 C(n,k) >= 2; tiny instances (e.g. n=3,k=1,t=1) violate it.
        k = data.draw(st.integers(1, n - 1))
        s = ProblemSize(n, k)
        l2 = log2_binom(s)
        if l2 < 2.0:
            return
        t = data.draw(st.integers(1, max(1, int(l2))))
        c = converse_success_bound(s, t)
        if c < 1.0:
            assert c <= weak_converse_bound(s, t) + 1e-12


class TestExpectedTestsFloor:
    def test_values(self):
        assert expected_tests_floor(ProblemSize(10, 2)) == pytest.approx(
            math.log2(45) - 2, rel=1e-12)
        assert expected_tests_floor(ProblemSize(2, 1)) == -1.0
        assert expected_tests_floor(ProblemSize(500, 10)) == pytest.approx(
            65.73611, rel=1e-6)


class TestGuarantees:
    def test_hwang(self):
        assert hwang_guarantee(ProblemSize(500, 10)) == 78
        assert hwang_guarantee(ProblemSize(2, 1)) == 2
        assert hwang_guarantee(ProblemSize(10, 2)) == 8

    def test_rbt(self):
        assert rbt_guarantee(ProblemSize(500, 10)) == 90
        assert rbt_guarantee(ProblemSize(8, 1)) == 3
        assert rbt_guarantee(ProblemSize(9699, 30)) == 420

    def test_variant(self):
        assert variant_guarantee(ProblemSize(500, 10)) == pytest.approx(
            72.57912, rel=1e-6)
        assert variant_guarantee(ProblemSize(2, 1)) == pytest.approx(
            1 + 1 + math.log2(math.log(2)), rel=1e-10)

    def test_variant_gap_under_half_k(self):
        gap = variant_guarantee(ProblemSize(500, 10)) - log2_binom(ProblemSize(500, 10))
        assert gap == pytest.approx(4.843, abs=1e-3)
        assert gap < 5.0

    def test_comp(self):
        assert comp_test_count(ProblemSize(100, 5), 1.0) == 126
        assert comp_test_count(ProblemSize(3, 1), 0.0001) == 3

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_comp_rejects_delta_outside_0_inf(self, delta):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            comp_test_count(ProblemSize(100, 5), delta)

    def test_comp_monotone_in_delta(self):
        prev = 0
        for d in (0.1, 0.5, 1.0, 2.0, 5.0):
            c = comp_test_count(ProblemSize(200, 7), d)
            assert c >= prev
            prev = c


class TestChannelCapacity:
    def test_binary_entropy(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.1) == pytest.approx(0.4689956, rel=1e-6)

    def test_erasure_exact(self):
        assert channel_capacity_bound(NoiseModel.erasure(0.25)) == 0.75

    def test_symmetric(self):
        assert channel_capacity_bound(NoiseModel.symmetric(0.5)) == 0.0

    def test_additive_frozen(self):
        assert channel_capacity_bound(NoiseModel.additive(0.1)) == pytest.approx(
            0.762848, rel=1e-6)

    def test_against_high_precision_reference(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        mp.dps = 50
        for p in (0.0, 0.1, 0.5, 0.9):
            pm = mp.mpf(repr(p))
            # erasure
            assert channel_capacity_bound(NoiseModel.erasure(p)) == pytest.approx(
                float(1 - pm), abs=1e-12)
            # symmetric
            if p in (0.0, 1.0):
                href = mp.mpf(0)
            else:
                href = -pm * mp.log(pm, 2) - (1 - pm) * mp.log(1 - pm, 2)
            assert channel_capacity_bound(NoiseModel.symmetric(p)) == pytest.approx(
                float(1 - href), abs=1e-12)
            # additive Z-channel
            if p == 0.0:
                zref = mp.mpf(1)
            else:
                zref = mp.log(1 + (1 - pm) * pm ** (pm / (1 - pm)), 2)
            assert channel_capacity_bound(NoiseModel.additive(p)) == pytest.approx(
                float(zref), abs=1e-12)

    def test_continuity_limits(self):
        assert channel_capacity_bound(NoiseModel.noiseless()) == 1.0
        assert channel_capacity_bound(NoiseModel.erasure(0.0)) == 1.0
        assert channel_capacity_bound(NoiseModel.symmetric(0.0)) == 1.0
        assert channel_capacity_bound(NoiseModel.additive(0.0)) == 1.0
        assert channel_capacity_bound(NoiseModel.additive(1.0)) == 0.0


class TestValidation:
    def test_problem_size(self):
        with pytest.raises(ValueError):
            ProblemSize(0, 0)
        with pytest.raises(ValueError):
            ProblemSize(4, 5)
        with pytest.raises(ValueError):
            ProblemSize(4, -1)

    def test_noise_model(self):
        with pytest.raises(ValueError):
            NoiseModel(NoiseKind.ERASURE, 1.5)
        with pytest.raises(ValueError):
            NoiseModel(NoiseKind.NOISELESS, 0.2)


class TestBoundReport:
    def test_full_report(self):
        r = bound_report(ProblemSize(500, 10), t=60, noise=NoiseModel.erasure(0.25))
        assert r.converse == pytest.approx(4.6903e-3, rel=1e-4)
        assert r.hwang_tests == 78
        assert r.rbt_tests == 90
        assert r.channel_capacity == 0.75
        assert 0.0 <= r.converse <= 1.0
        assert 0.0 <= r.weak_converse <= 1.0

    def test_degenerate_k0(self):
        r = bound_report(ProblemSize(4, 0))
        assert r.log2_binom == 0.0
        assert r.hwang_tests is None
        assert r.rate is None
