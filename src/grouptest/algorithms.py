"""Group-testing algorithms: halving binary search, repeated binary testing,
Hwang's generalized binary splitting (HGBSA), the tightened splitting variant,
an erasure-retry wrapper, and the non-adaptive COMP baseline.

All adaptive algorithms assume noiseless-equivalent oracle behaviour: either a
noiseless oracle or an erasure oracle behind `erasure_retry`. They know the
true defective count k and recover the defective set exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import NoiseKind, ceil_log2
from .model import Outcome, TestOracle


@dataclass(frozen=True)
class SearchResult:
    found: int
    cleared: tuple
    tests_spent: int


@dataclass
class RoundRecord:
    """Bookkeeping snapshot for one round of the splitting variant."""

    round_index: int               # 1-based
    remaining_defectives: int      # k - round_index + 1
    start_possible: int            # possible defectives at round start
    group_sizes: list = field(default_factory=list)
    negatives_in_round: int = 0
    leftmost_offset: Optional[int] = None
    declared_all: bool = False


@dataclass
class RunResult:
    estimate: frozenset
    tests_used: int
    completed: bool = True
    round_trace: Optional[list] = None


def binary_search(oracle, candidates: Sequence[int]) -> SearchResult:
    """Locate the leftmost defective among `candidates` (which must contain at
    least one) in exactly ceil(log2 b) tests, proving the preceding prefix
    non-defective.

    The list is conceptually padded at the end with dummy non-defective items
    to a power of two; dummies never reach the oracle, so each step tests only
    the real members of the current first half (always non-empty). Each pool
    is a slice of `candidates`, so a `range` yields range pools.
    """
    b = len(candidates)
    if b == 0:
        raise ValueError("binary search needs a non-empty candidate list")
    size = 1 << ceil_log2(b)
    lo = 0
    tests = 0
    while size > 1:
        half = size // 2
        pool = candidates[lo:min(lo + half, b)]
        tests += 1
        if oracle.test(pool) is Outcome.POSITIVE:
            size = half
        else:
            lo += half
            size = half
    return SearchResult(found=candidates[lo], cleared=tuple(candidates[:lo]),
                        tests_spent=tests)


def repeated_binary_testing(oracle, n: int, k: int) -> RunResult:
    """k rounds of binary search, each over every item not yet found
    defective. Cleared-prefix knowledge is deliberately discarded between
    rounds, so the per-round cost is ceil(log2) of the full remaining list."""
    found: list[int] = []
    remaining = list(range(n))
    for _ in range(k):
        res = binary_search(oracle, remaining)
        found.append(res.found)
        remaining.remove(res.found)
    return RunResult(estimate=frozenset(found), tests_used=oracle.tests_used)


def hgbsa(oracle, n: int, k: int) -> RunResult:
    """Hwang's generalized binary splitting.

    Tests groups of size 2^alpha with alpha = floor(log2((m-k'+1)/k')) so a
    positive is roughly even odds; a negative discards the whole group, a
    positive is binary-searched. Falls back to individual testing once
    m <= 2k'-2. Never exceeds ceil(log2 C(n,k)) + k tests.
    """
    candidates = range(n)  # always a suffix of the item order
    found: list[int] = []
    kp = k
    while candidates:
        m = len(candidates)
        if kp == 0:
            break  # remainder proven non-defective
        if m == kp:
            found.extend(candidates)
            break
        if m <= 2 * kp - 2:
            if oracle.test(candidates[:1]) is Outcome.POSITIVE:
                found.append(candidates[0])
                kp -= 1
            candidates = candidates[1:]
            continue
        # floor(log2((m-k'+1)/k')) in exact integer arithmetic
        alpha = ((m - kp + 1) // kp).bit_length() - 1
        group = candidates[:1 << alpha]
        if oracle.test(group) is Outcome.NEGATIVE:
            candidates = candidates[len(group):]
        else:
            res = binary_search(oracle, group)
            found.append(res.found)
            kp -= 1
            candidates = candidates[len(res.cleared) + 1:]
    return RunResult(estimate=frozenset(found), tests_used=oracle.tests_used)


def hwang_variant(oracle, n: int, k: int, *,
                  shifted_group_size: bool = False) -> RunResult:
    """Tightened splitting variant: k rounds, each a run of negative tests on
    groups sized so a negative has probability just under 1/2, ended by a
    positive test that is binary-searched.

    Group size is ceil(N * (1 - 2^(-1/K'))) clamped to [1, N - K'], where N
    counts current possible defectives and K' the defectives still hidden.
    `shifted_group_size` subtracts (K'-1) before clamping (the alternative
    published form).
    """
    possible = range(n)  # always a suffix of the item order
    found: list[int] = []
    trace: list[RoundRecord] = []
    i = 1
    while i <= k:
        kp = k - i + 1
        rec = RoundRecord(round_index=i, remaining_defectives=kp,
                          start_possible=len(possible))
        trace.append(rec)
        while True:
            m = len(possible)
            if m == kp:
                found.extend(possible)
                rec.declared_all = True
                return RunResult(estimate=frozenset(found),
                                 tests_used=oracle.tests_used, round_trace=trace)
            b = m * (1.0 - 2.0 ** (-1.0 / kp))
            if shifted_group_size:
                b -= kp - 1
            b = min(max(1, math.ceil(b)), m - kp)
            rec.group_sizes.append(b)
            group = possible[:b]
            if oracle.test(group) is Outcome.NEGATIVE:
                possible = possible[b:]
                rec.negatives_in_round += 1
            else:
                res = binary_search(oracle, group)
                found.append(res.found)
                rec.leftmost_offset = len(res.cleared)
                possible = possible[len(res.cleared) + 1:]
                break
        i += 1
    return RunResult(estimate=frozenset(found), tests_used=oracle.tests_used,
                     round_trace=trace)


class _RetryingOracle:
    """Oracle proxy that resubmits erased tests until a firm outcome arrives.

    The wrapped algorithm sees only NEGATIVE/POSITIVE; every resubmission
    still consumes budget on the underlying oracle.
    """

    def __init__(self, oracle: TestOracle):
        self._oracle = oracle

    @property
    def n(self):
        return self._oracle.n

    @property
    def tests_used(self):
        return self._oracle.tests_used

    def test(self, pool) -> Outcome:
        out = self._oracle.test(pool)
        while out is Outcome.ERASED:
            out = self._oracle.test(pool)
        return out


def erasure_retry(inner: Callable[..., RunResult], oracle: TestOracle,
                  *args, **kwargs) -> RunResult:
    """Run `inner` against `oracle` with every erased test retried until it
    lands. Requires noiseless or erasure noise with p < 1."""
    if oracle.noise.kind not in (NoiseKind.NOISELESS, NoiseKind.ERASURE):
        raise ValueError("erasure retry only supports noiseless or erasure oracles")
    if oracle.noise.kind is NoiseKind.ERASURE and oracle.noise.p >= 1.0:
        raise ValueError("erasure probability 1 never terminates")
    return inner(_RetryingOracle(oracle), *args, **kwargs)


def comp_run(oracle, n: int, k: int, t: int, rng: np.random.Generator) -> RunResult:
    """Non-adaptive COMP: a t x n Bernoulli(1/k) design (empty pools
    resampled), all pools submitted up front; every item seen in a negative
    pool is eliminated, the rest are declared defective.

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
    eliminated: set[int] = set()
    for row in design:
        pool = np.flatnonzero(row).tolist()
        if oracle.test(pool) is Outcome.NEGATIVE:
            eliminated.update(pool)
    estimate = frozenset(i for i in range(n) if i not in eliminated)
    return RunResult(estimate=estimate, tests_used=oracle.tests_used)


ADAPTIVE_ALGORITHMS = {
    "rbt": repeated_binary_testing,
    "hgbsa": hgbsa,
    "variant": hwang_variant,
}

ALGORITHM_NAMES = tuple(ADAPTIVE_ALGORITHMS) + ("comp",)
