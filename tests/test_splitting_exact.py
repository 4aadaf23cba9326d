"""Exact test counts of the splitting loop, and the simulation against them.

HGBSA and the variant are one loop over the state (m candidates, k' hidden
defectives), with the defectives a uniform k'-subset of the candidates. The
loop tests the first g = group_size(m, k') candidates. With probability
C(m-g, k') / C(m, k') the test is negative, costs 1 test and leaves
(m-g, k'). Otherwise the leftmost defective sits at index j < g with
probability C(m-j-1, k'-1) / C(m, k'); the test and its binary search cost
1 + ceil(log2 g) tests and leave (m-j-1, k'-1). The loop stops at k' = 0 or
m = k'. Counted in subsets rather than probabilities, the subsets of m
candidates that cost t tests are those of m-g that cost t-1, plus those of
each m' = m-j-1 in the window [m-g, m-1], with one defective fewer, that
cost t-1-ceil(log2 g); prefix sums over m' give each window in O(1). The m
that share a group size are computed together, in runs of at most g, so a
run's negative branch reads only finished rows.

Where the whole distribution costs too much (n = 10^4), the moments of the
test count follow the same loop. On m candidates holding k' defectives, a
step that costs c and leaves a state whose count is T' adds c to T, so
E[(c + T')^2] = c^2 + 2c E[T'] + E[T'^2]: each moment of (m, k') is the
negative branch's, read from (m-g, k'), plus a window sum over m' in
[m-g, m-1] of C(m', k'-1) times a moment of (m', k'-1), divided by
C(m, k'). The window sums come from prefix sums taken in logs
(`np.logaddexp.accumulate`), so no binomial coefficient overflows.

Under erasure with resubmission the firm tests are these noiseless ones,
and the erased submissions before each are geometric: given F = f firm
tests, the erased ones are negative binomial, NB(f, 1 - p), so the
submissions S have P(S <= t) = sum over f of P(F = f) P(NB(f, 1 - p) <= t - f).
"""
import math
from dataclasses import replace
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from grouptest import harness
from grouptest.algorithms import _hwang_group_size, _variant_group_size, hgbsa, hwang_variant
from grouptest.bounds import NoiseModel, ProblemSize, ceil_log2, converse_success_bound
from grouptest.harness import (ExperimentSpec, capacity_scan, guarantee_for, run_trial,
                               success_curve)
from grouptest.model import Outcome, TestOracle, derive_stream_seed, make_rng
from oracle_reference import Recorder

RULES = {"hgbsa": _hwang_group_size, "variant": _variant_group_size}
RUNS = {"hgbsa": hgbsa, "variant": hwang_variant}


def group_sizes(m_max, kp, group_size):
    """g[m] = group_size(m, k') for k' < m <= m_max (0 elsewhere), and the
    runs [a, b) of consecutive such m that share a g, each at most g long:
    every m - g of a run lies below the run, so a negative's next state is
    final before the run is reached."""
    g = np.zeros(m_max + 1, dtype=np.int64)
    g[kp + 1:] = [group_size(m, kp) for m in range(kp + 1, m_max + 1)]
    gl = g.tolist()
    cuts = [kp + 1, *(np.flatnonzero(np.diff(g[kp + 1:])) + kp + 2).tolist(), m_max + 1]
    runs = [(a, min(a + gl[lo], hi)) for lo, hi in zip(cuts, cuts[1:]) if lo < hi
            for a in range(lo, hi, gl[lo])]
    return g, runs


def window_max(x, lo, hi):
    """max(x[lo[i]:hi[i]]) for every i, each window non-empty, from a sparse
    table whose level l holds the max of every 2^l consecutive entries."""
    table = [x]
    while 2 ** len(table) <= len(x):
        half = 2 ** (len(table) - 1)
        table.append(np.maximum(table[-1][:-half], table[-1][half:]))
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo))
    out = np.zeros(len(lo), dtype=x.dtype)
    for lv in np.unique(level).tolist():
        at = level == lv
        out[at] = np.maximum(table[lv][lo[at]], table[lv][hi[at] - 2 ** lv])
    return out


def worst_case(n_max, k_max, group_size):
    """W[k'][m]: the most tests the loop can spend on m candidates holding k'
    defectives, for every m <= n_max and k' <= k_max."""
    w = np.zeros((k_max + 1, n_max + 1), dtype=np.int64)
    m = np.arange(n_max + 1)
    for kp in range(1, k_max + 1):
        g, runs = group_sizes(n_max, kp, group_size)
        live = m > kp
        # positive: 1 + ceil(log2 g) tests, then W[k'-1] at some m' in
        # [m-g, m-1]; the windows may reach below k'-1, where W is 0
        cur = w[kp]
        cur[live] = (1 + np.frexp(g[live] - 1)[1]
                     + window_max(w[kp - 1], m[live] - g[live], m[live]))
        # negative, possible when m-g >= k': 1 test, then W[k'][m-g]; below
        # k', W[k'] is 0 and 1 + 0 never beats the positive branch
        for a, b in runs:
            cur[a:b] = np.maximum(cur[a:b], 1 + cur[a - g[a]:b - g[a]])
    return w


def exact_distribution(n, k, group_size, worst):
    """P[T = t] for t <= W[k][n], T the loop's test count at (n, k), given
    W = worst_case(n, k, group_size). Row m of level k' counts the k'-subsets
    of m candidates by the tests the loop spends on them; level k' keeps
    only t <= max W[k']."""
    prev = np.ones((n + 1, 1))  # k' = 0: one subset, no test
    for kp in range(1, k + 1):
        g, runs = group_sizes(n, kp, group_size)
        length = max(prev.shape[1], int(worst[kp].max()) + 1)
        below = np.zeros((n + 2, length))  # below[j] = sum over m' < j
        np.cumsum(prev, axis=0, out=below[1:, :prev.shape[1]])
        cur = np.zeros((n + 1, length))
        cur[kp, 0] = 1.0  # m = k': every candidate is defective
        for a, b in runs:
            ga = int(g[a])
            cost = 1 + ceil_log2(ga)
            np.subtract(below[a:b, :-cost], below[a - ga:b - ga, :-cost], out=cur[a:b, cost:])
            cur[a:b, 1:] += cur[a - ga:b - ga, :-1]
        prev = cur
    return prev[n, :worst[k][n] + 1] / math.comb(n, k)


@pytest.mark.parametrize("alg", list(RULES))
@pytest.mark.parametrize("n,k", [(1, 1), (6, 1), (9, 2), (12, 3), (12, 5), (11, 10)])
def test_references_match_enumeration(alg, n, k):
    counts = []
    for truth in combinations(range(n), k):
        oracle = TestOracle(n, truth, NoiseModel.noiseless(), make_rng(0))
        counts.append(RUNS[alg](oracle, n, k).tests_used)
    w = worst_case(n, k, RULES[alg])
    worst = w[k][n]
    assert worst == max(counts)
    dist = exact_distribution(n, k, RULES[alg], w)
    want = np.bincount(counts, minlength=worst + 1) / len(counts)
    assert np.abs(dist - want).max() < 1e-12


def exact_moments(n, k, group_size):
    """(E[T], E[T^2]) of the loop's test count T at (n, k), by the recursion
    over (m, k') in the module docstring: O(n k) work, vectorised over m,
    with the negative branch taken over the runs of m that share a g."""
    m = np.arange(n + 1)
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    moments = np.zeros((2, n + 1))  # k' = 0: no test
    for kp in range(1, k + 1):
        g, runs = group_sizes(n, kp, group_size)
        live = m > kp
        ml, gl = m[live], g[live]
        log_c = log_fact[ml] - log_fact[kp] - log_fact[ml - kp]  # log C(m, k')
        p_neg = np.zeros(n + 1)  # C(m - g, k') / C(m, k'), 0 where m - g < k'
        neg = live & (m - g >= kp)
        mn, gn = m[neg], g[neg]
        p_neg[neg] = np.exp(log_fact[mn - gn] - log_fact[mn - gn - kp] - log_fact[mn]
                            + log_fact[mn - kp])
        cost = 1 + np.frexp(gl - 1)[1]  # the group test and its search
        window = np.zeros((2, len(ml)))
        if kp > 1:  # at k' - 1 = 0 every moment is 0
            with np.errstate(divide="ignore"):  # log 0 = -inf where m' <= k' - 1
                log_terms = (np.log(moments) + log_fact[m] - log_fact[kp - 1]
                             - log_fact[np.maximum(m - kp + 1, 0)])
            prefix = np.logaddexp.accumulate(log_terms, axis=1)  # log sum over m' <= j
            hi, lo = prefix[:, ml - 1], prefix[:, ml - gl - 1]
            window = np.exp(hi - log_c) * -np.expm1(lo - hi)
        cur = np.zeros((2, n + 1))
        p_pos = 1 - p_neg[live]
        cur[0, live] = 1 + (cost - 1) * p_pos + window[0]
        cur[1, live] = p_neg[live] + cost ** 2 * p_pos + 2 * cost * window[0] + window[1]
        for a, b in runs:  # + P(neg) (E, E^2 + 2E) of (m - g, k'), final below the run
            e, e2 = cur[:, a - g[a]:b - g[a]]
            cur[0, a:b] += p_neg[a:b] * e
            cur[1, a:b] += p_neg[a:b] * (e2 + 2 * e)
        moments = cur
    return tuple(moments[:, n].tolist())


@lru_cache(maxsize=None)
def exact_at(alg, n, k):
    """(W[k][n], P[T = t] for t <= W[k][n]) of the named algorithm at (n, k)."""
    w = worst_case(n, k, RULES[alg])
    return int(w[k][n]), exact_distribution(n, k, RULES[alg], w)


def erasure_cdf(dist, p, budgets):
    """P(S <= t) at t = 0..budgets-1, for firm counts F with P(F = f) =
    dist[f] and NB(f, 1 - p) erased submissions on top; float sums can pass
    1 by an ulp or so, so the CDF is clipped at 1."""
    e = np.arange(budgets)
    cdf = np.zeros(budgets)
    for f, pf in enumerate(dist.tolist()):
        if pf == 0.0 or f >= budgets:
            continue
        # P(E = e) = C(f + e - 1, e) (1 - p)^f p^e, by its ratio in e
        ratio = np.concatenate(([(1 - p) ** f], (f + e[:-1]) / e[1:] * p))
        cdf[f:] += pf * np.cumsum(np.cumprod(ratio))[:budgets - f]
    return np.minimum(cdf, 1.0)


def binomial_tails(trials, p, wins):
    """P(X <= wins) and P(X >= wins) for X ~ Binomial(trials, p)."""
    x = np.arange(trials + 1)
    if p in (0.0, 1.0):
        pmf = (x == round(p * trials)).astype(float)
    else:
        log_comb = np.concatenate(([0.0], np.cumsum(np.log((trials - x[:-1]) / x[1:]))))
        pmf = np.exp(log_comb + x * math.log(p) + (trials - x) * math.log1p(-p))
    return pmf[:wins + 1].sum(), pmf[wins:].sum()


Z4_TAIL = 0.5 * math.erfc(4 / math.sqrt(2))  # 3.2e-5, one side of z = 4


def check_within_z4_tails(spec, exact):
    """Every point of `success_curve(spec)` has a win count within the exact
    binomial's z = 4 tails around exact[t], the exact success at its budget
    t: neither P(X <= wins) nor P(X >= wins) is below `Z4_TAIL`. A z = 4
    Wilson interval would not do: around a count of 1 in 2000 trials it
    excludes every p below about 2.8e-5, which gives that count with
    probability up to about 5%."""
    for point in success_curve(spec).points:
        wins = round(point.success * spec.trials)
        tails = binomial_tails(spec.trials, exact[point.t], wins)
        assert min(tails) >= Z4_TAIL, (point.t, wins, exact[point.t], tails)


# exact means and worst cases at the figure's two sizes
EXACT_500_10 = {"hgbsa": (68.5600, 74), "variant": (72.8295, 79)}
EXACT_9699_30 = {"hgbsa": (291.5662, 306), "variant": (301.7111, 329)}


def check_figure1_cdf(alg, n, k, trials, mean, worst):
    """The exact mean and worst case at (n, k), and every point of the
    (n, k) curve of `figure1 --seed 0` at `trials` trials, at every budget
    up to one past the worst case, within the exact binomial's z = 4 tails
    around the exact CDF (`check_within_z4_tails`)."""
    exact_worst, dist = exact_at(alg, n, k)
    assert exact_worst == worst
    assert abs(dist.sum() - 1.0) < 1e-12
    assert dist[worst] > 0
    assert dist @ np.arange(worst + 1) == pytest.approx(mean, abs=5e-5)
    alg_index = list(RULES).index(alg)
    spec = ExperimentSpec(size=ProblemSize(n, k), algorithm=alg, trials=trials,
                          master_seed=derive_stream_seed(0, alg_index),
                          budget_range=(0, worst + 1, 1))
    check_within_z4_tails(spec, np.minimum(np.cumsum(np.append(dist, 0.0)), 1.0))


@pytest.mark.parametrize("alg", list(RULES))
def test_figure1_cdf_within_wilson_of_exact(alg):
    check_figure1_cdf(alg, 500, 10, 2000, *EXACT_500_10[alg])


@pytest.mark.parametrize("alg", list(RULES))
def test_figure1_large_cdf_within_wilson_of_exact(alg):
    check_figure1_cdf(alg, 9699, 30, 500, *EXACT_9699_30[alg])


@pytest.mark.parametrize("alg", list(RULES))
@pytest.mark.parametrize("n,k", [(500, 10), (9699, 30)])
def test_exact_cdf_below_the_converse(alg, n, k):
    # no algorithm succeeds with t tests more often than min(1, 2^t / C(n, k))
    worst, dist = exact_at(alg, n, k)
    cdf = np.minimum(np.cumsum(dist), 1.0)
    for t in range(worst + 1):
        assert cdf[t] <= converse_success_bound(ProblemSize(n, k), t), t


@pytest.mark.parametrize("alg", list(RULES))
def test_erasure_sweep_within_z4_of_exact(alg):
    # 4000 trials at k = 10 span three batches of the fold. A z = 4 Wilson
    # interval around a count of 1 excludes every p below 1.4e-5, and here
    # (the variant at t = 74, p = 1.8e-6) that count happens
    p, budgets = 0.25, 201
    spec = ExperimentSpec(size=ProblemSize(500, 10), algorithm=alg,
                          noise=NoiseModel.erasure(p), trials=4000, master_seed=3,
                          budget_range=(0, budgets - 1, 1))
    exact = erasure_cdf(exact_at(alg, 500, 10)[1], p, budgets)
    assert exact[-1] > 1 - 1e-9
    check_within_z4_tails(spec, exact)


def symmetric_cdf(dist, p):
    """P(success, S <= t) at t = 0..len(dist) under symmetric noise p. A
    splitting trial never returns left of the item a round finds, so it
    succeeds iff no test of its noiseless run is flipped, and then spends
    exactly its noiseless count T: the sum over s <= t of P(T = s) (1 - P)^s,
    P the flip chance, p rounded up to a multiple of 2^-53 as a raw output's
    threshold rounds it."""
    flip = math.ceil(p * 2.0 ** 53) / 2.0 ** 53
    s = np.arange(len(dist) + 1)
    return np.minimum(np.cumsum(np.append(dist, 0.0) * (1.0 - flip) ** s), 1.0)


@pytest.mark.parametrize("alg", list(RULES))
@pytest.mark.parametrize("n,k,trials", [(500, 10, 2000), (9699, 30, 1000)])
def test_symmetric_sweep_within_z4_of_exact(alg, n, k, trials):
    # at 500 trials the variant at (9699, 30) passes even with the flip
    # chance 1.3 P (23 wins at its worst case, against 9.7 expected under it)
    p = 0.01
    worst, dist = exact_at(alg, n, k)
    spec = ExperimentSpec(size=ProblemSize(n, k), algorithm=alg,
                          noise=NoiseModel.symmetric(p), trials=trials, master_seed=3,
                          budget_range=(0, worst + 1, 1))
    check_within_z4_tails(spec, symmetric_cdf(dist, p))


@pytest.mark.parametrize("alg", list(RULES))
def test_capacity_rows_within_z4_of_exact_mean(alg):
    # k = n^(1/2): 10 at n = 100, 32 at n = 1000
    trials = 2000
    for row in capacity_scan(0.5, [100, 1000], alg, trials, 3):
        dist = exact_at(alg, row.n, row.k)[1]
        t = np.arange(len(dist))
        mean = dist @ t
        sd = math.sqrt(dist @ (t - mean) ** 2)
        z = (row.mean_tests - mean) / (sd / math.sqrt(trials))
        assert abs(z) <= 4, (row.n, row.mean_tests, mean, z)


@pytest.mark.parametrize("alg", list(RULES))
@pytest.mark.parametrize("n,k", [(1, 1), (6, 1), (12, 5), (11, 10), (500, 10), (9699, 30)])
def test_exact_moments_match_exact_distribution(alg, n, k):
    # at the figure's sizes the means are the pinned ones too
    mean, second = exact_moments(n, k, RULES[alg])
    dist = exact_at(alg, n, k)[1]
    t = np.arange(len(dist))
    assert mean == pytest.approx(dist @ t, rel=1e-9)
    assert second == pytest.approx(dist @ t ** 2, rel=1e-9)
    pinned = {(500, 10): EXACT_500_10, (9699, 30): EXACT_9699_30}.get((n, k))
    if pinned:
        assert mean == pytest.approx(pinned[alg][0], abs=5e-5)


@pytest.mark.parametrize("alg", list(RULES))
def test_capacity_row_at_n_10000_within_z4_of_exact_mean(alg):
    # k = n^(1/2) = 100, where the exact distribution costs too much: the
    # exact mean and variance from `exact_moments`
    trials = 2000
    (row,) = capacity_scan(0.5, [10000], alg, trials, 3)
    mean, second = exact_moments(row.n, row.k, RULES[alg])
    z = (row.mean_tests - mean) / math.sqrt((second - mean ** 2) / trials)
    assert abs(z) <= 4, (row.mean_tests, mean, z)


@pytest.mark.parametrize("alg", list(RULES))
def test_erasure_firm_tests_are_noiseless(monkeypatch, alg):
    # With erased tests resubmitted the firm outcomes are the noiseless
    # ones: trial by trial the firm count F equals the noiseless test count
    # on the same truth, and the erased submissions before each firm test are
    # geometric, so their total has mean sum F p/(1-p) and variance
    # sum F p/(1-p)^2 (negative binomial).
    p = 0.25
    logs = []

    class RecordedOracle(TestOracle):
        def __init__(self, *args):
            super().__init__(*args)
            logs.append(Recorder(self))

    monkeypatch.setattr(harness, "TestOracle", RecordedOracle)
    spec = ExperimentSpec(size=ProblemSize(500, 10), algorithm=alg,
                          noise=NoiseModel.erasure(p), trials=2000, master_seed=7)
    noiseless = replace(spec, noise=NoiseModel.noiseless())
    firm_total = erased_total = 0
    for i in range(spec.trials):
        res = run_trial(spec, i)
        erased = sum(out is Outcome.ERASED for _, out in logs[-1])
        assert res.success
        assert res.tests_used - erased == run_trial(noiseless, i).tests_used, i
        firm_total += res.tests_used - erased
        erased_total += erased
    mean = firm_total * p / (1 - p)
    sd = math.sqrt(firm_total * p) / (1 - p)
    assert abs(erased_total - mean) <= 4 * sd, (erased_total, mean, sd)


@pytest.mark.parametrize("alg", list(RULES))
def test_guarantee_bounds_exact_worst_case(alg):
    # every size with n <= 1500 and 1 <= k <= 40
    w = worst_case(1500, 40, RULES[alg])
    for k in range(1, 41):
        for n in range(k, 1501):
            assert w[k][n] <= guarantee_for(alg, ProblemSize(n, k)), (n, k)
