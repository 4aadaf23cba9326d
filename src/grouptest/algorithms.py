"""Group-testing algorithms: halving binary search, repeated binary testing,
Hwang's generalized binary splitting (HGBSA), the tightened splitting variant,
and the non-adaptive COMP baseline. This module owns the splitting schedule;
the oracle only answers the tests it asks for.

Every adaptive test goes through `oracle.test(pool)`. `_halve` is the halving
search of RBT and `binary_search`; HGBSA and the variant are one splitting
loop (`_split`, a `_scan` round at a time) with two group-size rules for m
candidates holding k' hidden defectives: Hwang's 2^alpha, with
alpha = floor(log2((m-k'+1)/k')), or 1 once m <= 2k'-2; and the variant's
ceil(m * (1 - 2^(-1/k'))), at least 1, which never exceeds m-k'.

`batch_runs` answers many runs at once with numpy, where firm outcomes are
the truth: RBT's firm count is a constant, and `_split_walk` steps every
round of every splitting run together, each an independent row, by the rules
over arrays in `SPLIT_GROUP_SIZES`.

All adaptive algorithms assume noiseless-equivalent oracle behaviour, which a
noiseless oracle gives and an erasure oracle gives by resubmitting every
erased test until it lands. They know the true defective count k and recover
the defective set exactly. Under symmetric or additive noise, a search can
clear every candidate of a group that tested positive; it then raises
`SearchOverrun`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Outcome


class SearchOverrun(Exception):
    """Every candidate of a halving search tested negative: only a noisy
    channel can do that, after a false positive or a false negative, or a
    search over candidates that hold no defective. When the number of
    candidates b is a power of two, the last one is never tested, so a
    search with no defective returns b - 1 instead of overrunning."""


def _halve(candidates: Sequence[int], test) -> int:
    """The halving schedule: index within `candidates` of the leftmost
    defective, asking `test(pool)` once per step.

    The list is conceptually padded at the end with dummy non-defective items
    to a power of two; dummies never reach `test`, so each step tests only
    the real members of the current first half (always non-empty), and b
    candidates take ceil(log2 b) steps. Each pool is a slice of `candidates`,
    so a `range` yields range pools. The last candidate is never tested: for
    a power-of-two b with no defective, b - 1 is returned, not an overrun."""
    b = len(candidates)
    lo, size = 0, 1 << (b - 1).bit_length()
    while size > 1:
        size //= 2
        if test(candidates[lo:min(lo + size, b)]) is not Outcome.POSITIVE:
            lo += size
            if lo >= b:
                raise SearchOverrun(f"all {b} candidates tested negative")
    return lo


def _scan(candidates: Sequence[int], group_size, kp: int, test) -> int | None:
    """The splitting round, asking `test(pool)` once per group: drop each
    negative leading group of `group_size(m, kp)` of the m candidates left,
    and halve the first positive one with `_halve`. Returns the index in
    `candidates` of the defective found; None once only kp are left, untested;
    len(candidates) if all tested negative (a noisy channel, or kp too big)."""
    start, m = 0, len(candidates)
    while m > kp:
        group = candidates[start:start + group_size(m, kp)]
        if test(group) is not Outcome.NEGATIVE:
            return start + _halve(group, test)
        start += len(group)
        m -= len(group)
    return None if m else start


def _split(candidates: Sequence[int], group_size, kp: int, test) -> list:
    """The splitting loop behind HGBSA and the variant, one `_scan` round at a
    time while kp defectives stay hidden among the candidates (always a
    suffix of the item order). Returns the items found: each round's
    defective, or, once m == kp, every candidate left, untested."""
    found = []
    while kp and candidates:
        lo = _scan(candidates, group_size, kp, test)
        if lo is None:
            found.extend(candidates[-kp:])
            break
        found.extend(candidates[lo:lo + 1])  # none if every candidate tested negative
        kp -= 1
        candidates = candidates[lo + 1:]
    return found


@dataclass(frozen=True)
class SearchResult:
    found: int
    cleared: tuple
    tests_spent: int


@dataclass
class RunResult:
    estimate: frozenset
    tests_used: int


def binary_search(oracle, candidates: Sequence[int]) -> SearchResult:
    """Locate the leftmost defective among `candidates` (which must contain at
    least one), proving the preceding prefix non-defective. The search itself
    is `_halve`: ceil(log2 b) firm tests, plus any erased submissions, all
    counted in `tests_spent`."""
    if len(candidates) == 0:
        raise ValueError("a search needs at least one candidate")
    before = oracle.tests_used
    lo = _halve(candidates, oracle.test)
    return SearchResult(found=candidates[lo], cleared=tuple(candidates[:lo]),
                        tests_spent=oracle.tests_used - before)


def repeated_binary_testing(oracle, n: int, k: int) -> RunResult:
    """k rounds of binary search, each over every item not yet found
    defective. Cleared-prefix knowledge is deliberately discarded between
    rounds, so the per-round cost is ceil(log2) of the full remaining list."""
    found: list[int] = []
    remaining = list(range(n))
    for _ in range(k):
        found.append(remaining.pop(_halve(remaining, oracle.test)))
    return RunResult(estimate=frozenset(found), tests_used=oracle.tests_used)


def _hwang_group_size(m: int, kp: int) -> int:
    if m <= 2 * kp - 2:
        return 1
    # 2^alpha with alpha = floor(log2((m-k'+1)/k')), in exact integer arithmetic
    return 1 << (((m - kp + 1) // kp).bit_length() - 1)


def _variant_group_size(m: int, kp: int) -> int:
    # never above m-k' for m > k': (k'+1)(1-2^(-1/k')) <= 1, as 2^x <= 1+x on [0,1]
    return max(1, math.ceil(m * (1.0 - 2.0 ** (-1.0 / kp))))


def _hwang_group_sizes(m: np.ndarray, kp: np.ndarray) -> np.ndarray:
    """`_hwang_group_size` over int64 arrays (k' >= 1). `np.frexp` gives the
    bit length, exactly below 2^53; at m <= 2k'-2 the quotient is 0 and the
    size 1."""
    alpha = np.frexp((m - kp + 1) // kp)[1] - 1
    return np.left_shift(1, np.maximum(alpha, 0), dtype=np.int64)


def _variant_group_sizes(k: int):
    """`_variant_group_size` over int64 arrays with 1 <= k' <= k. The table of
    1 - 2^(-1/k') is filled in Python floats, so m * q and its ceiling are
    the float64 operations of the scalar rule."""
    q = np.array([0.0] + [1.0 - 2.0 ** (-1.0 / kp) for kp in range(1, k + 1)])
    return lambda m, kp: np.maximum(1, np.ceil(m * q[kp]).astype(np.int64))


# Each splitting algorithm's group-size rule over arrays, for k defectives.
SPLIT_GROUP_SIZES = {"hgbsa": lambda k: _hwang_group_sizes, "variant": _variant_group_sizes}


def batch_runs(algorithm: str, n: int, truths: np.ndarray) -> tuple:
    """(firm, decoded) of the named adaptive algorithm's run over range(n)
    for each row of defectives in `truths`, firm outcomes being the truth:
    the firm tests each run spends and whether it decodes its row. RBT
    always finds its defectives in order with sum over i < k of
    ceil(log2(n - i)) firm tests; the splitting runs are walked round by
    round by `_split_walk`, on the rows sorted in place."""
    t, k = truths.shape
    if algorithm == "rbt":
        return (np.full(t, sum((n - i - 1).bit_length() for i in range(k))),
                np.ones(t, dtype=bool))
    truths.sort(axis=1)
    return _split_walk(n, truths, SPLIT_GROUP_SIZES[algorithm](k))


def _split_walk(n: int, truths: np.ndarray, group_sizes) -> tuple:
    """Firm tests and success of `_split` over range(n) with kp = k, for
    each row of sorted defectives in `truths`; `group_sizes(m, kp)` is the
    rule over arrays. Round r of a row starts at c = truths[r-1] + 1 (0 at
    r = 0) with kp = k - r hidden and ends at d = truths[r]: a group [c, c+g)
    is negative iff c + g <= d, and a positive one adds (g-1).bit_length()
    search steps. A round stops untested once m = n - c <= kp, and so does
    every round after it, at no cost: a row's tests are the sum over its
    rounds, and it succeeds iff each round that stops has d >= n - kp."""
    t, k = truths.shape
    c, d = np.pad(truths + 1, ((0, 0), (1, 0)))[:, :k].ravel(), truths.ravel()
    kp = np.tile(np.arange(k, 0, -1), t)
    tests, stopped = np.zeros(t * k, dtype=np.int64), n - c <= kp
    live = np.flatnonzero(~stopped)
    c, step = c[live], 0
    while len(live):
        step += 1
        g = group_sizes(n - c, kp[live])
        hit = c + g > d[live]
        c += g
        stop = ~hit & (n - c <= kp[live])
        if (done := hit | stop).any():
            tests[live[done]] = step + (np.frexp(g - 1)[1] * hit)[done]
            stopped[live[stop]] = True
            live, c = live[~done], c[~done]
    failed = (stopped & (d < n - kp)).reshape(t, k).any(axis=1)
    return tests.reshape(t, k).sum(axis=1), ~failed


def hgbsa(oracle, n: int, k: int) -> RunResult:
    """Hwang's generalized binary splitting.

    Tests groups of size 2^alpha with alpha = floor(log2((m-k'+1)/k')) so a
    positive is roughly even odds; a negative discards the whole group, a
    positive is binary-searched. Tests items one at a time once
    m <= 2k'-2. Never exceeds ceil(log2 C(n,k)) + k tests.
    """
    return RunResult(estimate=frozenset(_split(range(n), _hwang_group_size, k, oracle.test)),
                     tests_used=oracle.tests_used)


def hwang_variant(oracle, n: int, k: int) -> RunResult:
    """Tightened splitting variant: k rounds, each a run of negative tests on
    groups sized so a negative has probability just under 1/2, ended by a
    positive test that is binary-searched.

    Group size is ceil(N * (1 - 2^(-1/K'))), at least 1, where N counts
    current possible defectives and K' the defectives still hidden; it never
    exceeds N - K', so a negative test cannot leave fewer candidates than
    hidden defectives.
    """
    return RunResult(estimate=frozenset(_split(range(n), _variant_group_size, k, oracle.test)),
                     tests_used=oracle.tests_used)


def comp_run(oracle, n: int, k: int, t: int, rng: np.random.Generator) -> RunResult:
    """Non-adaptive COMP: a t x n Bernoulli(1/k) design (empty pools
    resampled), tested in one `test_design` call; every item seen in a
    negative pool is eliminated, the rest are declared defective.

    On a noiseless oracle the estimate always contains every true defective.
    """
    if t < 1:
        raise ValueError(f"COMP needs t >= 1, got {t}")
    if k < 1:
        raise ValueError("COMP design density 1/k needs k >= 1")
    design = rng.random((t, n)) < (1.0 / k)
    while True:
        empty = ~design.any(axis=1)
        if not empty.any():
            break
        design[empty] = rng.random((int(empty.sum()), n)) < (1.0 / k)
    negative_outcome = Outcome.NEGATIVE
    negative = np.array([o is negative_outcome for o in oracle.test_design(design)])
    estimate = frozenset(np.flatnonzero(~design[negative].any(axis=0)).tolist())
    return RunResult(estimate=estimate, tests_used=oracle.tests_used)


ADAPTIVE_ALGORITHMS = {
    "rbt": repeated_binary_testing,
    "hgbsa": hgbsa,
    "variant": hwang_variant,
}

ALGORITHM_NAMES = tuple(ADAPTIVE_ALGORITHMS) + ("comp",)
