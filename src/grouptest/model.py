"""The testing world: hidden defective sets, pooled-test truth, noise
channels, and the metered oracle every algorithm talks to.

Pools are sequences of 0-based item indices, and a contiguous pool is best
passed as a `range`; a non-adaptive design is a boolean t x n array tested
in one `test_design` call. Defective sets are frozensets. One oracle serves
one trial and is never shared.
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


def truth_outcome(pool: Iterable[int], truth: frozenset) -> Outcome:
    """Noiseless pooled test: positive iff the pool hits a defective."""
    pool = tuple(pool)
    if not pool:
        raise ValueError("cannot test an empty pool")
    return Outcome.POSITIVE if not truth.isdisjoint(pool) else Outcome.NEGATIVE


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


def apply_noise(out: Outcome, model: NoiseModel, rng: np.random.Generator) -> Outcome:
    """Push a raw outcome through the noise channel.

    Always consumes exactly one RNG variate, `rng.random()`, even for the
    noiseless channel, so transcripts stay aligned across noise models under
    a shared seed. `TestOracle` applies the same channel to the same stream
    of uniforms, one per test.
    """
    if out is Outcome.ERASED:
        raise ValueError("noise channels apply to raw outcomes only, not ERASED")
    return _channel(out, rng.random(), model)


_BLOCK = 256  # noise uniforms drawn per refill


class TestOracle:
    """Meters and records every pooled test for one trial.

    The only channel by which algorithms learn anything about the hidden
    defective set. The contract:

    - A `range` pool with step 1 is tested by bisecting the sorted truth, in
      O(log k), and the range itself is logged. Any other pool is copied to a
      tuple and checked item by item.
    - `test_design` tests every row of a boolean t x n design at once, with
      the same outcomes as t calls of `test`, and logs the whole batch as one
      entry. `transcript` expands each logged row into the tuple of its item
      indices when it is read.
    - Test j (0-based) is pushed through the noise channel with the j-th
      uniform of `rng`, as if `apply_noise` had been called once per test.
    - The uniforms are drawn `rng.random(256)` at a time, so after the last
      test `rng` may sit up to 255 draws further on. Do not draw from `rng`
      once it is handed to the oracle.
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
        self._log: list = []  # (pool, outcome) or (design, [outcome per row])
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

    def test(self, pool: Sequence[int]) -> Outcome:
        if type(pool) is range and pool.step == 1:
            i = bisect_left(self._sorted_truth, pool.start)
            hit = i < len(self._sorted_truth) and self._sorted_truth[i] < pool.stop
        else:
            pool = tuple(pool)
            hit = not self.truth.isdisjoint(pool)
        if not pool:
            raise ValueError("cannot test an empty pool")
        j = self.tests_used % _BLOCK
        if j == 0:
            self._uniforms = self.rng.random(_BLOCK).tolist()
        out = _channel(Outcome.POSITIVE if hit else Outcome.NEGATIVE,
                       self._uniforms[j], self.noise)
        self.tests_used += 1
        self._log.append((pool, out))
        return out

    def test_design(self, design) -> list[Outcome]:
        """Test each row of a boolean t x n design as one pool, in row order.

        Raises ValueError, before testing anything, if a row is empty."""
        design = np.array(design, dtype=bool)
        if design.ndim != 2 or design.shape[1] != self.n:
            raise ValueError(f"a design needs shape (t, {self.n}), got {design.shape}")
        if not design.any(axis=1).all():
            raise ValueError("cannot test an empty pool")
        design.flags.writeable = False
        t = len(design)
        # uniforms left in the current block, then whole fresh blocks
        left = -self.tests_used % _BLOCK
        u = self._uniforms[_BLOCK - left:_BLOCK - left + t]
        if t > left:
            blocks = -((left - t) // _BLOCK)  # ceil((t - left) / _BLOCK)
            fresh = self.rng.random(blocks * _BLOCK)
            self._uniforms = fresh[-_BLOCK:].tolist()
            u = np.concatenate((u, fresh[:t - left]))
        codes = _channel_column(design[:, self._sorted_truth].any(axis=1),
                                np.asarray(u), self.noise)
        outs = _OUTCOMES[codes].tolist()
        self.tests_used += t
        self._log.append((design, outs))
        return outs


def transcript_lines(oracle: TestOracle) -> list[str]:
    """Debug serialization: one `<test-index>,<i;j;k>,<N|P|E>` line per test."""
    return [
        f"{i},{';'.join(str(x) for x in sorted(pool))},{out.value}"
        for i, (pool, out) in enumerate(oracle.transcript)
    ]
