"""Group-testing algorithms: halving binary search, repeated binary testing,
Hwang's generalized binary splitting (HGBSA), the tightened splitting variant,
and the non-adaptive COMP baseline.

HGBSA and the variant are one splitting loop (`model._split`) with two
group-size rules for m candidates holding k' hidden defectives: Hwang's
2^alpha, with alpha = floor(log2((m-k'+1)/k')), or 1 once m <= 2k'-2; and
the variant's ceil(m * (1 - 2^(-1/k'))), at least 1, which never exceeds
m-k'. A whole run, every round's group tests and the halving search of its
positive group, is one `TestOracle.split` call; RBT's and `binary_search`'s
halving searches are one `TestOracle.search` call each.

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

from .model import Outcome, SearchOverrun  # noqa: F401 (re-exported)


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
    is `oracle.search`: ceil(log2 b) firm tests, plus any erased submissions,
    all counted in `tests_spent`."""
    before = oracle.tests_used
    lo = oracle.search(candidates)
    return SearchResult(found=candidates[lo], cleared=tuple(candidates[:lo]),
                        tests_spent=oracle.tests_used - before)


def repeated_binary_testing(oracle, n: int, k: int) -> RunResult:
    """k rounds of binary search, each over every item not yet found
    defective. Cleared-prefix knowledge is deliberately discarded between
    rounds, so the per-round cost is ceil(log2) of the full remaining list."""
    found: list[int] = []
    remaining = list(range(n))
    for _ in range(k):
        found.append(remaining.pop(oracle.search(remaining)))
    return RunResult(estimate=frozenset(found), tests_used=oracle.tests_used)


def _hwang_group_size(m: int, kp: int) -> int:
    if m <= 2 * kp - 2:
        return 1
    # 2^alpha with alpha = floor(log2((m-k'+1)/k')), in exact integer arithmetic
    return 1 << (((m - kp + 1) // kp).bit_length() - 1)


def _variant_group_size(m: int, kp: int) -> int:
    # never above m-k' for m > k': (k'+1)(1-2^(-1/k')) <= 1, as 2^x <= 1+x on [0,1]
    return max(1, math.ceil(m * (1.0 - 2.0 ** (-1.0 / kp))))


def hgbsa(oracle, n: int, k: int) -> RunResult:
    """Hwang's generalized binary splitting.

    Tests groups of size 2^alpha with alpha = floor(log2((m-k'+1)/k')) so a
    positive is roughly even odds; a negative discards the whole group, a
    positive is binary-searched. Tests items one at a time once
    m <= 2k'-2. Never exceeds ceil(log2 C(n,k)) + k tests.
    """
    return RunResult(estimate=frozenset(oracle.split(range(n), _hwang_group_size, k)),
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
    return RunResult(estimate=frozenset(oracle.split(range(n), _variant_group_size, k)),
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
