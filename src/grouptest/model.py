"""The testing world: hidden defective sets, pooled-test truth, noise
channels, and the metered oracle every algorithm talks to.

Pools are sequences of 0-based item indices, and a contiguous pool is best
passed as a `range`; a non-adaptive design is a boolean t x n array tested
in one `test_design` call. The oracle only answers and meters tests; which
pools to test is the algorithms' business (`grouptest.algorithms`).
Defective sets are frozensets. One oracle serves one trial and is never
shared.

A trial's generator is `np.random.PCG64(seed)` with its seed mixed from
(master seed, stream) by `derive_stream_seed`, and its defective set is
`sample_defective_set`'s partial Fisher-Yates over it. `derive_stream_seeds`
and `sample_defective_sets` compute the same seeds, sets and generator states
for many trials at once with numpy, bit for bit: SeedSequence's hash,
PCG64's 128-bit LCG in 32-bit limbs and numpy's Lemire bounded draws. A row
numpy would redraw after a rejection, and every row of a size the bulk path
does not cover, goes through `sample_defective_set` itself.
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


def _splitmix64(x):
    """SplitMix64's mix of an int or of a uint64 array (numpy wraps mod 2^64)."""
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


def _as_uint64(x) -> np.ndarray:
    if isinstance(x, int):
        x &= _MASK64
    return np.atleast_1d(np.asarray(x)).astype(np.uint64)


def derive_stream_seeds(master, streams) -> np.ndarray:
    """`derive_stream_seed` over arrays: a uint64 seed for each broadcast
    (master, stream) pair. Ints are taken mod 2^64, as there."""
    return _splitmix64(_splitmix64(_as_uint64(master)) ^ _splitmix64(_as_uint64(streams)))


def make_rng(master: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_stream_seed(master, stream)))


def sample_defective_set(n: int, k: int, rng: np.random.Generator) -> frozenset:
    """Uniformly random k-subset of {0, ..., n-1} via partial Fisher-Yates.

    The swaps are kept in a dict, so the cost is O(k), not O(n). The k bounded
    draws come from one vectorised call, which yields the same values and
    leaves the generator in the same state as k scalar draws. This is the
    per-trial definition; `sample_defective_sets` computes it for many fresh
    generators at once and is checked against it.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return frozenset(_fisher_yates(rng.integers(n - np.arange(k)).tolist()))


def _fisher_yates(draws: list) -> list:
    """The items partial Fisher-Yates picks when step i swaps positions i and
    i + draws[i] and picks what lands at i."""
    moved: dict[int, int] = {}
    chosen = []
    for i, d in enumerate(draws):
        j = i + d
        chosen.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return chosen


# PCG64's 128-bit LCG multiplier; numpy's SeedSequence hash constants follow.
_U32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(h: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before and after each of `calls` hashmix calls, as a
    (2, calls, 1) array."""
    pairs = []
    for _ in range(calls):
        pairs.append((h, h * mult & _U32))
        h = pairs[-1][1]
    return np.array(pairs, dtype=np.uint64).T[:, :, None]


_POOL_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # 4 fills, 12 mixes
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    h, m = consts
    v = (v ^ h) * m & _U32
    return v ^ (v >> 16)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(seed).generate_state(8, uint32)` of each uint64 seed, as
    an (8, rows) array: the seed's two 32-bit words and two zeros fill a pool
    of four, which is then cross-mixed. uint32 arithmetic, held in uint64."""
    zero = np.zeros_like(seeds)
    pool = _hashmix(np.stack((seeds & _U32, seeds >> 32, zero, zero)), _POOL_HASHES[:, :4])
    for src in range(4):  # the three words mixed with pool[src] do not interact
        dst = [d for d in range(4) if d != src]
        r = (0xCA01F9DD * pool[dst]
             - 0x4973F715 * _hashmix(pool[src], _POOL_HASHES[:, 4 + 3 * src:7 + 3 * src])) & _U32
        pool[dst] = r ^ (r >> 16)
    return _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASHES)


def _limbs(values) -> np.ndarray:
    """128-bit ints as a (4, len) array of 32-bit limbs, lowest first."""
    return np.array([[v >> 32 * i & _U32 for v in values] for i in range(4)], dtype=np.uint64)


def _carry(columns: np.ndarray) -> np.ndarray:
    """Column sums of 32-bit limbs (first axis, lowest first) reduced in
    place to limbs, mod 2^128."""
    for m in range(3):
        columns[m + 1] += columns[m] >> 32
    columns &= _U32
    return columns


def _pcg_states(x: np.ndarray, inc: np.ndarray, steps: int) -> np.ndarray:
    """PCG64 states after 1..steps LCG steps s -> s * MULT + inc from state x,
    as limbs of shape (4, rows, steps). Step e is jumped to directly:
    MULT^e x + (MULT^(e-1) + ... + 1) inc, mod 2^128."""
    jumps, sums, a, g = [], [], 1, 0
    for _ in range(steps):
        a, g = a * _PCG_MULT & _MASK128, g + a
        jumps.append(a)
        sums.append(g)
    columns = np.zeros((4, x.shape[1], steps), dtype=np.uint64)
    for v, c in ((x, _limbs(jumps)), (inc, _limbs(sums))):
        for i in range(4):
            p = v[i][:, None] * c[:4 - i, None, :]  # v_i c_j < 2^64, j < 4 - i
            columns[i:] += p & _U32
            columns[i + 1:] += p[:3 - i] >> 32
    return _carry(columns)


def _bulk_draws(seeds: np.ndarray, n: int, k: int) -> tuple:
    """`Generator(PCG64(seed)).integers(n - arange(k))` for each seed, with
    0 < n - i < 2^32: (draws, rejected, handoff). A rejected row hit a Lemire
    rejection, after which numpy draws again, so its draws are not numpy's.
    handoff[r] is the (state, inc, has_uint32, uinteger) of `bit_generator.state`
    that row r is left in; uinteger, the high half of the last output (0 if
    none), is what numpy keeps for the next 32-bit draw when k is odd."""
    w = _seed_words(seeds)
    init = np.stack((w[2], w[3], w[0], w[1]))  # the 64-bit words are (high, low)
    seq = np.stack((w[6], w[7], w[4], w[5]))
    # srandom: inc = 2 seq + 1; state = (inc + init) * MULT + inc
    inc = (seq << 1 | np.vstack((np.ones_like(seeds), seq[:-1] >> 31))) & _U32
    outputs = (k + 1) // 2  # each 64-bit output gives two 32-bit words
    s = _pcg_states(_carry(inc + init), inc, outputs + 1)
    high, low = s[3] << 32 | s[2], s[1] << 32 | s[0]  # the 64-bit halves
    # XSL-RR: high ^ low rotated right by the top 6 bits of high
    xored, rot = (high ^ low)[:, 1:], high[:, 1:] >> 58
    out = xored >> rot | xored << (-rot & 63)
    # Lemire on draw i: word * (n - i), the high half the draw, rejected iff
    # the low half < 2^32 % (n - i); even draws take low halves, odd ones high
    draws = np.empty((len(seeds), k), dtype=np.int64)
    rejected = np.zeros(len(seeds), dtype=bool)
    for half, word in ((0, out & _U32), (1, out >> 32)):
        ranges = (n - np.arange(half, k, 2)).astype(np.uint64)
        m = word[:, :len(ranges)] * ranges
        rejected |= ((m & _U32) < (1 << 32) % ranges).any(axis=1)
        draws[:, half::2] = m >> 32
    last = out[:, -1] >> 32 if outputs else np.zeros(len(seeds), dtype=np.uint64)
    wide = [[h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]
            for hi, lo in ((high[:, -1], low[:, -1]), (inc[3] << 32 | inc[2], inc[1] << 32 | inc[0]))]
    return draws, rejected, list(zip(*wide, [k & 1] * len(seeds), last.tolist()))


def _state_tuple(rng: np.random.Generator) -> tuple:
    """(state, inc, has_uint32, uinteger) of a PCG64 generator."""
    state = rng.bit_generator.state
    return (state["state"]["state"], state["state"]["inc"], state["has_uint32"],
            state["uinteger"])


def _handed_on(handoff):
    """One Generator, set in turn to each (state, inc, has_uint32, uinteger)
    and yielded."""
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for state, inc, has_uint32, uinteger in handoff:
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": has_uint32, "uinteger": uinteger}
        yield rng


def sample_defective_sets(n: int, k: int, seeds) -> tuple:
    """`sample_defective_set(n, k, Generator(PCG64(seed)))` for each uint64
    seed, in bulk: (truths, rngs). Row r of the (len(seeds), k) array truths
    holds the k defectives of seed r, in no set order; rngs yields each row's
    generator in turn, left as `sample_defective_set` leaves it. They are one
    reused Generator, so each is valid until the next is taken. All rows are
    drawn at once: the caller bounds len(seeds) x k (`harness.BATCH_CELLS`).

    Each stage runs over many rows with numpy: `SeedSequence`'s hash (uint32
    arithmetic), PCG64's seeding and LCG steps (O'Neill 2014; 128 bits in
    32-bit limbs) with its XSL-RR output, and numpy's bounded draws (Lemire
    2019, on the 32-bit halves of each output, low half first). A row whose
    swap targets are distinct picks them; the others, about k^2 / 2n of the
    rows, follow their swaps with `_fisher_yates`.
    `sample_defective_set` itself samples a row whose draw numpy would redraw
    after a Lemire rejection. It samples every row when n > 2^32 - 1 (numpy's
    64-bit path) or k == n (the last draw, over one value, takes no word),
    and when a spot check of the first other row against numpy fails: the
    bit streams of `Generator.integers` are not fixed across numpy releases."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    seeds = np.asarray(seeds, dtype=np.uint64)
    truths = np.empty((len(seeds), k), dtype=np.int64)
    slow, handoff = np.ones(len(seeds), dtype=bool), [None] * len(seeds)
    if k < n <= _U32 and len(seeds):
        truths, slow, handoff = _bulk_draws(seeds, n, k)  # the draws, until the swaps
        r = int(np.argmin(slow))  # the first row numpy does not redraw
        check = np.random.Generator(np.random.PCG64(int(seeds[r])))
        if (slow[r] or check.integers(n - np.arange(k)).tolist() != truths[r].tolist()
                or handoff[r] != _state_tuple(check)):
            slow[:] = True
        j = truths + np.arange(k)
        ordered = np.sort(j, axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1) & ~slow
        for r in np.flatnonzero(repeats).tolist():
            j[r] = _fisher_yates(truths[r].tolist())
        truths[~slow] = j[~slow]
    for r in np.flatnonzero(slow).tolist():
        rng = np.random.Generator(np.random.PCG64(int(seeds[r])))
        truths[r] = np.fromiter(sample_defective_set(n, k, rng), np.int64, k)
        handoff[r] = _state_tuple(rng)
    return truths, _handed_on(handoff)


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


class TestOracle:
    """Meters and records every pooled test for one trial.

    The only channel by which algorithms learn anything about the hidden
    defective set. The contract:

    - A `range` pool with step 1 is tested by bisecting the sorted truth, in
      O(log k), and the range itself is logged. Any other pool is copied to a
      tuple and checked item by item.
    - The algorithms drive every adaptive test through `test`, one pool at
      a time. The harness batches noiseless and erasure trials outside the
      oracle (`harness.run_trials`); the oracle is the per-trial definition
      they are checked against.
    - `test_design` tests every row of a boolean t x n design at once, with
      the outcomes of t single submissions, and logs the whole batch as one
      entry. `transcript` expands each logged row into its test when it is
      read.
    - `test` resubmits an erased pool until its outcome is firm; a
      `test_design` row is never resubmitted. Every submission counts in
      `tests_used`, uses its own uniform and is logged. At erasure
      probability 1 no submission lands, so `test` raises ValueError instead
      of resubmitting forever.
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
