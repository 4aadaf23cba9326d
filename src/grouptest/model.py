"""The testing world: hidden defective sets, pooled-test truth, noise
channels, and the metered oracle every algorithm talks to.

Pools are sequences of 0-based item indices, and a contiguous pool is best
passed as a `range`; a non-adaptive design is a boolean t x n array tested
in one `test_design` call. A whole HGBSA or variant run (each round's group
tests and the halving search of its positive group) is one `split` call,
which steps through `test` one group test and one search step at a time.
Defective sets are frozensets. One oracle serves one trial and is never
shared.
"""
from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .bounds import NoiseKind, NoiseModel

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class Outcome(Enum):
    NEGATIVE = "N"
    POSITIVE = "P"
    ERASED = "E"


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_stream_seed(master: int, stream: int) -> int:
    """64-bit mix of (master seed, stream index). Distinct streams from the
    same master are statistically independent; the pair fully determines the
    generated sequence."""
    return _splitmix64(_splitmix64(master & _MASK64) ^ _splitmix64(stream & _MASK64))


def make_rng(master: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_stream_seed(master, stream)))


def sample_defective_set(n: int, k: int, rng: np.random.Generator) -> frozenset:
    """Uniformly random k-subset of {0, ..., n-1} via partial Fisher-Yates.

    The swaps are kept in a dict, so the cost is O(k), not O(n). The k bounded
    draws come from one vectorised call, which yields the same values and
    leaves the generator in the same state as k scalar draws.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    moved: dict[int, int] = {}
    chosen = []
    for i, d in enumerate(rng.integers(n - np.arange(k)).tolist()):
        j = i + d
        chosen.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return frozenset(chosen)


def _channel(out: Outcome, u: float, model: NoiseModel) -> Outcome:
    """The noise channel applied to a raw outcome, given its uniform u."""
    kind = model.kind
    if kind is NoiseKind.NOISELESS:
        return out
    if kind is NoiseKind.ERASURE:
        return Outcome.ERASED if u < model.p else out
    if kind is NoiseKind.SYMMETRIC:
        if u < model.p:
            return Outcome.NEGATIVE if out is Outcome.POSITIVE else Outcome.POSITIVE
        return out
    # Additive (Z-channel): only negatives are corrupted.
    if out is Outcome.NEGATIVE and u < model.p:
        return Outcome.POSITIVE
    return out


_NEG, _POS, _ERA = 0, 1, 2  # outcome codes of `_channel_column`
_OUTCOMES = np.array([Outcome.NEGATIVE, Outcome.POSITIVE, Outcome.ERASED], dtype=object)


def _channel_column(hit: np.ndarray, u: np.ndarray, model: NoiseModel) -> np.ndarray:
    """`_channel` over a column of raw outcomes (`hit` is True for positive),
    one uniform each; returns outcome codes indexing `_OUTCOMES`."""
    kind = model.kind
    out = hit.astype(np.int8)
    if kind is NoiseKind.NOISELESS:
        return out
    if kind is NoiseKind.ERASURE:
        return np.where(u < model.p, _ERA, out)
    if kind is NoiseKind.SYMMETRIC:
        return np.where(u < model.p, _POS - out, out)
    # Additive (Z-channel): only negatives are corrupted.
    return np.where((out == _NEG) & (u < model.p), _POS, out)


_BLOCK = 256  # noise uniforms drawn per refill


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


class TestOracle:
    """Meters and records every pooled test for one trial.

    The only channel by which algorithms learn anything about the hidden
    defective set. The contract:

    - A `range` pool with step 1 is tested by bisecting the sorted truth, in
      O(log k), and the range itself is logged. Any other pool is copied to a
      tuple and checked item by item.
    - `split` runs a whole HGBSA or variant run (`_split`), and `search` a
      halving search (`_halve`), each test through `test`. The harness
      batches noiseless and erasure trials outside the oracle
      (`harness.run_trials`); the oracle is the per-trial definition they
      are checked against.
    - `test_design` tests every row of a boolean t x n design at once, with
      the outcomes of t single submissions, and logs the whole batch as one
      entry. `transcript` expands each logged row into its test when it is
      read.
    - `test` and every test of `search` and `split` resubmit an erased pool
      until its outcome is firm; a `test_design` row is never resubmitted.
      Every submission counts in `tests_used`, uses its own uniform and is
      logged. At erasure probability 1 no submission lands, so `test`,
      `search` and `split` raise ValueError instead of resubmitting forever.
    - Test j (0-based) is pushed through the noise channel `_channel` with
      the j-th uniform of `rng`; a noiseless test still uses up its uniform.
    - The uniforms are drawn `rng.random(256)` at a time, so after the last
      test `rng` sits ceil(tests_used / 256) * 256 draws on. Do not draw from
      `rng` once it is handed to the oracle.
    """

    def __init__(self, n: int, truth: Iterable[int], noise: NoiseModel,
                 rng: np.random.Generator):
        truth = frozenset(int(i) for i in truth)
        if truth and (min(truth) < 0 or max(truth) >= n):
            raise ValueError("defective indices must lie in [0, n)")
        self.n = n
        self.truth = truth
        self.noise = noise
        self.rng = rng
        self.tests_used = 0
        # (pool, outcome) or (design, [outcome per row])
        self._log: list = []
        self._sorted_truth = sorted(truth)
        self._uniforms: list[float] = []

    @property
    def transcript(self) -> list[tuple[Sequence[int], Outcome]]:
        """Every test so far as (pool, outcome), in order."""
        tests = []
        for pool, out in self._log:
            if type(out) is list:
                tests.extend((tuple(np.flatnonzero(row).tolist()), o)
                             for row, o in zip(pool, out))
            else:
                tests.append((pool, out))
        return tests

    def _take_uniforms(self, t: int):
        """Count t more tests and return their uniforms, drawing one fresh
        block for each block boundary they cross."""
        left = -self.tests_used % _BLOCK  # uniforms left in the current block
        u = self._uniforms[_BLOCK - left:_BLOCK - left + t]
        if t > left:
            blocks = -((left - t) // _BLOCK)  # ceil((t - left) / _BLOCK)
            fresh = self.rng.random(blocks * _BLOCK)
            self._uniforms = fresh[-_BLOCK:].tolist()
            u = np.concatenate((u, fresh[:t - left]))
        self.tests_used += t
        return u

    def test(self, pool: Sequence[int]) -> Outcome:
        if type(pool) is range and pool.step == 1:
            i = bisect_left(self._sorted_truth, pool.start)  # the next defective
            hit = i < len(self._sorted_truth) and self._sorted_truth[i] < pool.stop
        else:
            pool = tuple(pool)
            hit = not self.truth.isdisjoint(pool)
        if not pool:
            raise ValueError("cannot test an empty pool")
        raw = Outcome.POSITIVE if hit else Outcome.NEGATIVE
        while True:
            j = self.tests_used % _BLOCK
            if j == 0:
                self._uniforms = self.rng.random(_BLOCK).tolist()
            out = _channel(raw, self._uniforms[j], self.noise)
            self.tests_used += 1
            self._log.append((pool, out))
            if out is not Outcome.ERASED:
                return out
            if self.noise.p >= 1.0:
                raise ValueError("erasure probability 1: no test ever lands")

    def search(self, candidates: Sequence[int]) -> int:
        """Index within `candidates` of their leftmost defective, by the
        halving schedule of `_halve`: ceil(log2 b) steps for b candidates, each
        one `test`, resubmissions included.

        Raises ValueError on no candidates or a test that can never land, and
        `SearchOverrun` when every candidate tests negative."""
        if len(candidates) == 0:
            raise ValueError("a search needs at least one candidate")
        return _halve(candidates, self.test)

    def split(self, candidates: Sequence[int], group_size, kp: int) -> list:
        """The items a splitting run by the schedule of `_split` finds, each
        test through `test`."""
        return _split(candidates, group_size, kp, self.test)

    def test_design(self, design) -> list[Outcome]:
        """Test each row of a boolean t x n design as one pool, in row order.
        An erased row is never resubmitted.

        Raises ValueError, before testing anything, if a row is empty."""
        design = np.array(design, dtype=bool)
        if design.ndim != 2 or design.shape[1] != self.n:
            raise ValueError(f"a design needs shape (t, {self.n}), got {design.shape}")
        if not design.any(axis=1).all():
            raise ValueError("cannot test an empty pool")
        design.flags.writeable = False
        u = self._take_uniforms(len(design))
        codes = _channel_column(design[:, self._sorted_truth].any(axis=1),
                                np.asarray(u), self.noise)
        outs = _OUTCOMES[codes].tolist()
        self._log.append((design, outs))
        return outs


def transcript_lines(oracle: TestOracle) -> list[str]:
    """Debug serialization: one `<test-index>,<i;j;k>,<N|P|E>` line per test."""
    return [
        f"{i},{';'.join(str(x) for x in sorted(pool))},{out.value}"
        for i, (pool, out) in enumerate(oracle.transcript)
    ]
