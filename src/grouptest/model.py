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
`sample_defective_set`'s partial Fisher-Yates over it, its bounded draws
defined on PCG64's raw output (which NEP 19 keeps stable) as numpy 2.4.6
takes them. `derive_stream_seeds` and `sample_defective_sets` compute the
same seeds, sets and generator states for many trials at once with numpy,
bit for bit: SeedSequence's hash, PCG64's 128-bit LCG in 32-bit limbs and
the same Lemire step; only a row they do not cover builds a numpy
generator. The seeding half, `SeedSequence` then PCG64's srandom
(`_pcg_seeded`), also serves `seeded_generators`, which hands out
`PCG64(seed)` generators for many seeds on one reused object; the LCG jump
tables are built once per step count.

Each noise channel is defined once, as a row of the transition table
`_CHANNELS`. `TestOracle` reads it test by test; its batched stand-ins,
`design_negatives` and `erasure_submissions`, deal a trial the oracle's
uniforms in bulk. No other module draws or compares a noise uniform.
"""
from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import lru_cache
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

    The swaps are kept in a dict, so the cost is O(k), not O(n). Draw i is
    uniform on [0, n - i), taken from PCG64's raw output (`_bounded_draws`).
    This is the per-trial definition; `sample_defective_sets` computes it for
    many fresh generators at once.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return frozenset(_fisher_yates(_bounded_draws(n, k, rng.bit_generator)))


def _bounded_draws(n: int, k: int, bits) -> list:
    """Draws uniform on [0, n), [0, n - 1), ..., [0, n - k + 1) from the raw
    output of the PCG64 `bits`, taken and leaving `bits.state` as numpy
    2.4.6's `Generator.integers(n - arange(k))` does (Lemire 2019). A range
    of 1 takes no word; one up to 2^32 a 32-bit word, the halves of each
    output low first, after a half `bits` holds (`has_uint32`, `uinteger`);
    a larger one a whole output (`_lemire_runs`)."""
    start = bits.state
    half = start["uinteger"]

    def halves(count):
        nonlocal half
        raw = bits.random_raw((count + 1) // 2)
        half = int(raw[-1] >> 32)
        return raw.astype("<u8", copy=False).view("<u4")  # low half first

    ranges = n - np.arange(k - (k == n), dtype=np.uint64)
    wide = min(len(ranges), max(0, n - (1 << 32)))  # the ranges above 2^32 come first
    draws, _ = _lemire_runs(ranges[:wide], np.empty(0, np.uint64), bits.random_raw, 64)
    narrow, held = _lemire_runs(ranges[wide:], np.array([half] * start["has_uint32"], np.uint32),
                                halves, 32)
    bits.state = {**bits.state, "has_uint32": len(held), "uinteger": half}
    return draws + narrow + [0] * (k == n)


def _lemire_runs(ranges: np.ndarray, held: np.ndarray, more, b: int) -> tuple:
    """Lemire's draws over `ranges` on b-bit words, `held` and then those
    `more(count)` draws (count, or one half more), drawn only as the draws
    need them: (draws, words left). Word w gives w * range >> b, unless
    w * range mod 2^b < 2^b mod range: then the draw is made again on the
    next word. Each pass tries a window of draws at once and keeps those
    before its first rejection; the first window holds every draw, so with
    no rejection one `more` call serves them all. Where rejections come
    thick, the rest go word by word, in Python ints."""
    draws, window = [], len(ranges)
    while len(draws) < len(ranges):
        r = ranges[len(draws):len(draws) + window]
        if len(held) < len(r):
            held = np.concatenate((held, more(len(r) - len(held))))
        m, rejected = (_lemire32 if b == 32 else _lemire64)(held[:len(r)], r)
        j = int(rejected.argmax()) if rejected.any() else len(r)  # the first rejection
        draws += m[:j].tolist()
        held, window = held[j + (j < len(r)):], 2 * j + 64
        if j < min(16, len(r)):
            break
    else:
        return draws, held
    words, t = held.tolist(), 0
    for r in ranges[len(draws):].tolist():
        while True:
            if t == len(words):
                words += more(len(ranges) - len(draws)).tolist()
            x, t = words[t] * r, t + 1
            if x & ((1 << b) - 1) >= (1 << b) % r:
                break
        draws.append(x >> b)
    return draws, np.array(words[t:], dtype=held.dtype)


def _lemire32(words: np.ndarray, ranges: np.ndarray) -> tuple:
    """Lemire's draws on 32-bit words over ranges up to 2^32: (draws,
    rejected), rejected where the draw is to be made again."""
    m = words * ranges
    return m >> 32, (m & _U32) < (1 << 32) % ranges


def _lemire64(words: np.ndarray, ranges: np.ndarray) -> tuple:
    """`_lemire32` on 64-bit words over ranges above 2^32, the 128-bit
    products taken in 32-bit limbs."""
    a0, a1, b0, b1 = words & _U32, words >> 32, ranges & _U32, ranges >> 32
    cross = (a0 * b0 >> 32) + (a1 * b0 & _U32) + (a0 * b1 & _U32)
    high = a1 * b1 + (a1 * b0 >> 32) + (a0 * b1 >> 32) + (cross >> 32)
    return high, words * ranges < (_MASK64 - ranges + 1) % ranges


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
    """128-bit ints as a (4, len) uint32 array of limbs, lowest first."""
    return np.array([[v >> 32 * i & _U32 for v in values] for i in range(4)], dtype=np.uint32)


def _wide(limbs: np.ndarray) -> list:
    """A (4, rows) array of 32-bit limbs as a list of 128-bit ints."""
    return [h << 64 | l for h, l in zip((limbs[3] << 32 | limbs[2]).tolist(),
                                        (limbs[1] << 32 | limbs[0]).tolist())]


def _carry(columns: np.ndarray) -> np.ndarray:
    """Column sums of 32-bit limbs (first axis, lowest first) reduced in
    place to limbs, mod 2^128."""
    for m in range(3):
        columns[m + 1] += columns[m] >> 32
    columns &= _U32
    return columns


@lru_cache(maxsize=1)
def _jump_tables(steps: int) -> tuple:
    """Limbs of MULT^e and of MULT^(e-1) + ... + 1 for e = 0..steps, each a
    read-only (4, steps + 1) array: they depend on `steps` alone, so batch
    after batch of one spec reuses them."""
    jumps, sums, a, g = [], [], 1, 0
    for _ in range(steps + 1):
        jumps.append(a)
        sums.append(g)
        a, g = a * _PCG_MULT & _MASK128, g + a
    tables = _limbs(jumps), _limbs(sums)
    for table in tables:
        table.flags.writeable = False
    return tables


# one LCG step, for seeding: kept out of `_jump_tables`, whose one entry is
# the sampler's
_ONE_STEP = _limbs([_PCG_MULT]), _limbs([1])


def _lcg_jumps(x: np.ndarray, inc: np.ndarray, jumps: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """PCG64 states jumped from each state x by the LCG step
    s -> s * MULT + inc, as limbs of shape (4, rows, columns of the tables):
    column e is jumps[e] x + sums[e] inc, mod 2^128."""
    columns = np.zeros((4, x.shape[1], jumps.shape[1]), dtype=np.uint64)
    for v, c in ((x, jumps), (inc, sums)):
        for i in range(4):
            p = v[i][:, None] * c[:4 - i, None, :]  # v_i c_j < 2^64, j < 4 - i
            columns[i:] += p & _U32
            columns[i + 1:] += p[:3 - i] >> 32
    return _carry(columns)


def _pcg_seeded(seeds: np.ndarray) -> tuple:
    """(state, inc) of `PCG64(seed)` for each uint64 seed, each as (4, rows)
    limbs: `SeedSequence(seed)`'s eight words, then srandom, which sets
    inc = 2 seq + 1 and state = (inc + init) * MULT + inc."""
    w = _seed_words(seeds)
    init = np.stack((w[2], w[3], w[0], w[1]))  # the 64-bit words are (high, low)
    seq = np.stack((w[6], w[7], w[4], w[5]))
    inc = (seq << 1 | np.vstack((np.ones_like(seeds), seq[:-1] >> 31))) & _U32
    return _lcg_jumps(_carry(inc + init), inc, *_ONE_STEP)[:, :, 0], inc


def _bulk_draws(seeds: np.ndarray, n: int, k: int) -> tuple:
    """`_bounded_draws(n, k, PCG64(seed))` for each seed, with
    0 < n - i < 2^32: (draws, rejected, handoff). A rejected row's draws are
    not the definition's, which draws again after a rejection. handoff[r] is
    the (state, inc, has_uint32, uinteger) of `bit_generator.state` that row
    r is left in; uinteger, the high half of the last output (0 if none), is
    held for the next 32-bit draw when k is odd."""
    state, inc = _pcg_seeded(seeds)
    outputs = (k + 1) // 2  # each 64-bit output gives two 32-bit words
    s = _lcg_jumps(state, inc, *_jump_tables(outputs))
    high, low = s[3] << 32 | s[2], s[1] << 32 | s[0]  # the 64-bit halves
    # XSL-RR: high ^ low rotated right by the top 6 bits of high
    xored, rot = (high ^ low)[:, 1:], high[:, 1:] >> 58
    out = xored >> rot | xored << (-rot & 63)
    words = out.astype("<u8", copy=False).view("<u4")[:, :k]  # low half first
    draws, rejected = _lemire32(words, n - np.arange(k, dtype=np.uint64))
    last = out[:, -1] >> 32 if outputs else np.zeros(len(seeds), dtype=np.uint64)
    return draws.astype(np.int64), rejected.any(axis=1), list(zip(
        _wide(s[:, :, -1]), _wide(inc), [k & 1] * len(seeds), last.tolist()))


def _handed_on(handoff):
    """One Generator, set in turn to each (state, inc, has_uint32, uinteger)
    and yielded."""
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for state, inc, has_uint32, uinteger in handoff:
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": has_uint32, "uinteger": uinteger}
        yield rng


def seeded_generators(seeds):
    """`Generator(PCG64(seed))` for each uint64 seed, yielded in turn and
    seeded in bulk (`_pcg_seeded`). They are one reused Generator, so each is
    valid until the next is taken."""
    state, inc = _pcg_seeded(np.asarray(seeds, dtype=np.uint64))
    return _handed_on((s, i, 0, 0) for s, i in zip(_wide(state), _wide(inc)))


def sample_defective_sets(n: int, k: int, seeds) -> tuple:
    """`sample_defective_set(n, k, Generator(PCG64(seed)))` for each uint64
    seed, in bulk: (truths, rngs). Row r of the (len(seeds), k) array truths
    holds the k defectives of seed r, in no set order; rngs yields each row's
    generator in turn, left as `sample_defective_set` leaves it. They are one
    reused Generator, so each is valid until the next is taken. All rows are
    drawn at once: the caller bounds len(seeds) x k (`harness.BATCH_CELLS`).

    Each stage runs over many rows with numpy: `SeedSequence`'s hash (uint32
    arithmetic), PCG64's seeding and LCG steps (O'Neill 2014; 128 bits in
    32-bit limbs) with its XSL-RR output, and the bounded draws on the 32-bit
    halves of each output (`_lemire32`, as `_bounded_draws` takes them). A
    row whose swap targets are distinct picks them; the others, about
    k^2 / 2n of the rows, follow their swaps with `_fisher_yates`.
    `sample_defective_set` itself samples a row with a rejected draw, and
    every row when n > 2^32 - 1 (64-bit draws) or k == n (the last draw, over
    one value, takes no word); only these rows build a numpy generator."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    seeds = np.asarray(seeds, dtype=np.uint64)
    truths = np.empty((len(seeds), k), dtype=np.int64)
    slow, handoff = np.ones(len(seeds), dtype=bool), [None] * len(seeds)
    if k < n <= _U32 and len(seeds):
        truths, slow, handoff = _bulk_draws(seeds, n, k)  # the draws, until the swaps
        j = truths + np.arange(k)
        ordered = np.sort(j, axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1) & ~slow
        for r in np.flatnonzero(repeats).tolist():
            j[r] = _fisher_yates(truths[r].tolist())
        truths[~slow] = j[~slow]
    for r in np.flatnonzero(slow).tolist():
        rng = np.random.Generator(np.random.PCG64(int(seeds[r])))
        truths[r] = np.fromiter(sample_defective_set(n, k, rng), np.int64, k)
        s = rng.bit_generator.state
        handoff[r] = (s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"])
    return truths, _handed_on(handoff)


# The noise channels, one transition table: a test of raw outcome `raw` (0
# negative, 1 positive) and uniform u comes out as _OUTCOMES[_CHANNELS[kind][raw][u < p]].
_OUTCOMES = (Outcome.NEGATIVE, Outcome.POSITIVE, Outcome.ERASED)
_CHANNELS = {
    NoiseKind.NOISELESS: ((0, 0), (1, 1)),
    NoiseKind.ERASURE: ((0, 2), (1, 2)),
    NoiseKind.SYMMETRIC: ((0, 1), (1, 0)),
    NoiseKind.ADDITIVE: ((0, 1), (1, 1)),  # the Z-channel: only negatives are corrupted
}
# The channels whose firm (not erased) outcomes are the truth, so a trial is
# answered from its truth alone (`algorithms.batch_runs`); the rest have no decoder.
TRUTHFUL_CHANNELS = frozenset(kind for kind, (neg, pos) in _CHANNELS.items()
                              if {*neg} <= {0, 2} and {*pos} <= {1, 2})


def _channel_codes(hit: np.ndarray, u: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """The outcome codes of raw outcomes `hit` (True: positive), given uniforms `u`."""
    return np.array(_CHANNELS[noise.kind])[hit.astype(np.intp), (u < noise.p).astype(np.intp)]


_BLOCK = 256  # noise uniforms drawn per refill


def design_negatives(hit: np.ndarray, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Which rows of a design come out NEGATIVE as the first `test_design` of
    a fresh `TestOracle` on `rng`, given each row's raw outcome `hit`: the
    same channel on the same uniforms. The oracle draws them 256 at a time;
    this draws only those it reads, and a noiseless channel none."""
    if noise.kind is NoiseKind.NOISELESS:
        return ~hit
    return _channel_codes(hit, rng.random(len(hit)), noise) == 0


def erasure_submissions(firm: list[int], noise: NoiseModel, rngs) -> list[int]:
    """Each trial's submissions on a channel in `TRUTHFUL_CHANNELS`, as
    `TestOracle.test` makes them on the generator `rngs` yields for it. Under
    erasure its `firm` tests land in order on the uniforms u >= p dealt next,
    and each u < p is an erased one; the noiseless channel returns `firm` and
    takes no generator. Draws are capped in size; that changes no value."""
    if noise.kind is not NoiseKind.ERASURE:
        return firm
    p, used = noise.p, []
    for left, rng in zip(firm, rngs):
        spent = 0
        while left:
            u = rng.random(min(1 << 16, int(left / (1 - p)) + 64))
            lands = np.flatnonzero(u >= p)
            if len(lands) >= left:
                spent += int(lands[left - 1]) + 1
                break
            spent, left = spent + len(u), left - len(lands)
        used.append(spent)
    return used


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
    - Test j (0-based) goes through the channel table `_CHANNELS` with the
      j-th uniform of `rng`; a noiseless test still uses up its uniform.
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
        self._channel = _CHANNELS[noise.kind]

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
        row, p = self._channel[hit], self.noise.p
        while True:
            j = self.tests_used % _BLOCK
            if j == 0:
                self._uniforms = self.rng.random(_BLOCK).tolist()
            out = _OUTCOMES[row[self._uniforms[j] < p]]
            self.tests_used += 1
            self._log.append((pool, out))
            if out is not Outcome.ERASED:
                return out
            if p >= 1.0:
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
        codes = _channel_codes(design[:, self._sorted_truth].any(axis=1), np.asarray(u),
                               self.noise)
        outs = [_OUTCOMES[c] for c in codes.tolist()]
        self._log.append((design, outs))
        return outs


def transcript_lines(oracle: TestOracle) -> list[str]:
    """Debug serialization: one `<test-index>,<i;j;k>,<N|P|E>` line per test."""
    return [
        f"{i},{';'.join(str(x) for x in sorted(pool))},{out.value}"
        for i, (pool, out) in enumerate(oracle.transcript)
    ]
