"""Exact test counts of the splitting loop, and the simulation against them.

HGBSA and the variant are one loop over the state (m candidates, k' hidden
defectives), with the defectives a uniform k'-subset of the candidates. The
loop tests the first g = group_size(m, k') candidates. With probability
C(m-g, k') / C(m, k') the test is negative, costs 1 test and leaves
(m-g, k'). Otherwise the leftmost defective sits at index j < g with
probability C(m-j-1, k'-1) / C(m, k'); the test and its binary search cost
1 + ceil(log2 g) tests and leave (m-j-1, k'-1). The loop stops at k' = 0 or
m = k'. Over j the positive branch is a window m' = m-j-1 in [m-g, m-1], so
prefix sums over m' of C(m', k'-1) P(m', k'-1) give each window in O(1).
"""
import math
from itertools import combinations

import numpy as np
import pytest

from grouptest.algorithms import _hwang_group_size, _variant_group_size, hgbsa, hwang_variant
from grouptest.bounds import NoiseModel, ProblemSize, ceil_log2
from grouptest.harness import ExperimentSpec, guarantee_for, success_curve, wilson_interval
from grouptest.model import TestOracle, derive_stream_seed, make_rng

RULES = {"hgbsa": _hwang_group_size, "variant": _variant_group_size}
RUNS = {"hgbsa": hgbsa, "variant": hwang_variant}


def worst_case(n_max, k_max, group_size):
    """W[k'][m]: the most tests the loop can spend on m candidates holding k'
    defectives, for every m <= n_max and k' <= k_max."""
    w = [[0] * (n_max + 1) for _ in range(k_max + 1)]
    for kp in range(1, k_max + 1):
        prev, cur = w[kp - 1], w[kp]
        for m in range(kp + 1, n_max + 1):
            g = group_size(m, kp)
            most = 1 + ceil_log2(g) + max(prev[max(m - g, kp - 1):m])
            if m - g >= kp:  # a negative is possible
                most = max(most, 1 + cur[m - g])
            cur[m] = most
    return w


def exact_distribution(n, k, group_size, length):
    """P[T = t] for t < length, T the loop's test count at (n, k)."""
    prev = np.zeros((n + 1, length))
    prev[:, 0] = 1.0  # k' = 0: no test
    for kp in range(1, k + 1):
        weight = np.array([math.comb(m, kp - 1) for m in range(n + 1)], dtype=float)
        below = np.zeros((n + 2, length))  # below[j] = sum over m' < j
        np.cumsum(weight[:, None] * prev, axis=0, out=below[1:])
        cur = np.zeros((n + 1, length))
        cur[kp, 0] = 1.0  # m = k': every candidate is defective
        for m in range(kp + 1, n + 1):
            g = group_size(m, kp)
            total = math.comb(m, kp)
            cost = 1 + ceil_log2(g)
            cur[m, 1:] = math.comb(m - g, kp) / total * cur[m - g, :-1]
            cur[m, cost:] += (below[m] - below[m - g])[:-cost] / total
        prev = cur
    return prev[n]


@pytest.mark.parametrize("alg", list(RULES))
@pytest.mark.parametrize("n,k", [(1, 1), (6, 1), (9, 2), (12, 3), (12, 5), (11, 10)])
def test_references_match_enumeration(alg, n, k):
    counts = []
    for truth in combinations(range(n), k):
        oracle = TestOracle(n, truth, NoiseModel.noiseless(), make_rng(0))
        counts.append(RUNS[alg](oracle, n, k).tests_used)
    worst = worst_case(n, k, RULES[alg])[k][n]
    assert worst == max(counts)
    dist = exact_distribution(n, k, RULES[alg], worst + 1)
    want = np.bincount(counts, minlength=worst + 1) / len(counts)
    assert np.abs(dist - want).max() < 1e-12


# exact means and worst cases at the figure's smaller size
EXACT_500_10 = {"hgbsa": (68.5600, 74), "variant": (72.8295, 79)}


@pytest.mark.parametrize("alg", list(RULES))
def test_figure1_cdf_within_wilson_of_exact(alg):
    mean, worst = EXACT_500_10[alg]
    size = ProblemSize(500, 10)
    assert worst_case(500, 10, RULES[alg])[10][500] == worst
    dist = exact_distribution(500, 10, RULES[alg], worst + 1)
    assert abs(dist.sum() - 1.0) < 1e-12
    assert dist[worst] > 0
    assert dist @ np.arange(worst + 1) == pytest.approx(mean, abs=5e-5)
    # the (500, 10) curve of `figure1 --seed 0`, at every budget up to the worst case
    alg_index = list(RULES).index(alg)
    spec = ExperimentSpec(size=size, algorithm=alg, trials=2000,
                          master_seed=derive_stream_seed(0, alg_index),
                          budget_range=(0, worst + 1, 1))
    cdf = np.cumsum(dist)
    for point in success_curve(spec).points:
        wins = round(point.success * spec.trials)
        lo, hi = wilson_interval(wins, spec.trials, z=4.0)
        exact = cdf[min(point.t, worst)]
        assert lo <= exact <= hi, (point.t, wins, exact)


@pytest.mark.parametrize("alg", list(RULES))
def test_guarantee_bounds_exact_worst_case(alg):
    # every size with n <= 1500 and 1 <= k <= 40
    w = worst_case(1500, 40, RULES[alg])
    for k in range(1, 41):
        for n in range(k, 1501):
            assert w[k][n] <= guarantee_for(alg, ProblemSize(n, k)), (n, k)
