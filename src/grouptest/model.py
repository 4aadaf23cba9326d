"""The testing world: hidden defective sets, pooled-test truth, noise
channels, and the metered oracle every algorithm talks to.

Pools are sequences of 0-based item indices, and a contiguous pool is best
passed as a `range`; a non-adaptive design is a boolean t x n array tested
in one `test_design` call. The oracle only answers and meters tests, and
keeps no record of them; which pools to test is the algorithms' business
(`grouptest.algorithms`).
Defective sets are frozensets. One oracle serves one trial and is never
shared.

A trial's stream is `np.random.PCG64(seed)` with its seed mixed from
(master seed, stream) by `derive_stream_seed`: its state and inc, read only
as raw outputs (`random_raw`, which NEP 19 keeps stable). Its defective set
is `sample_defective_set`'s partial Fisher-Yates over it, its bounded draws
taken as numpy 2.4.6 takes them on a fresh stream. `derive_stream_seeds`
and `sample_defective_sets` compute the same seeds, sets and stream states
for many trials at once with numpy, bit for bit: SeedSequence's hash, PCG64
with its 128-bit state in two uint64 halves, stepped by jumps from one table
(`_lcg_run`), and the same Lemire steps; only a row with a rejected draw is
drawn again, on its own. They hand on each trial's PCG64 state and inc as
plain numbers (see `_pcg_seeded`), to which `handed_on` sets one numpy PCG64
only for a consumer that draws from it, COMP's design streams included.

Every draw after sampling compares a PCG64 raw output with `_threshold`, on
a numpy PCG64 in one bool fill (`draw_below`): COMP's design and noise flags,
the oracle's blocks. Each noise channel is one row of the transition table
`_CHANNELS` (and of its int8 arrays), read by `TestOracle`, `design_negatives`
(a COMP chunk at a time) and `erasure_submissions`; no other module draws noise.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence

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


def make_rng(master: int, stream: int = 0) -> np.random.PCG64:
    return np.random.PCG64(derive_stream_seed(master, stream))


def sample_defective_set(n: int, k: int, bits: np.random.PCG64) -> frozenset:
    """Uniformly random k-subset of {0, ..., n-1} via partial Fisher-Yates.

    The swaps are kept in a dict, so the cost is O(k), not O(n). Draw i is
    uniform on [0, n - i), taken from the next raw outputs of `bits`
    (`_bounded_draws`); a 32-bit half the bit generator holds is ignored, as
    on a fresh stream. This is the per-trial definition;
    `sample_defective_sets` computes it for many fresh streams at once.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return frozenset(_fisher_yates(_bounded_draws(n, k, bits.random_raw)))


def _bounded_draws(n: int, k: int, raw) -> list:
    """Draws uniform on [0, n), [0, n - 1), ..., [0, n - k + 1) from the PCG64
    outputs `raw(count)` yields, taken as numpy 2.4.6's
    `Generator.integers(n - arange(k))` takes them (Lemire 2019) on a fresh
    stream. A range of 1 takes no word; one up to 2^32 a 32-bit word, the
    halves of each output low first; a larger one a whole output
    (`_lemire_runs`). A high half the last draw leaves unread is dropped."""
    def halves(count):
        return raw((count + 1) // 2).astype("<u8", copy=False).view("<u4")  # low half first

    ranges = n - np.arange(k - (k == n), dtype=np.uint64)
    wide = min(len(ranges), max(0, n - (1 << 32)))  # the ranges above 2^32 come first
    return (_lemire_runs(ranges[:wide], raw, 64) + _lemire_runs(ranges[wide:], halves, 32)
            + [0] * (k == n))


def _lemire_runs(ranges: np.ndarray, more, b: int) -> list:
    """Lemire's draws over `ranges` on the b-bit words `more(count)` draws
    (count, or one half more), drawn only as the draws need them. Word w
    gives w * range >> b, unless w * range mod 2^b < 2^b mod range: then the
    draw is made again on the next word. Each pass tries a window of draws
    at once and keeps those before its first rejection; the first window
    holds every draw, so with no rejection one `more` call serves them all.
    Where rejections come thick, the rest go word by word, in Python ints.
    No more words are drawn than draws are left, so only the spare half of a
    32-bit `more` is ever left over."""
    draws, window, held = [], len(ranges), np.empty(0, np.uint64)
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
        return draws
    words, t = held.tolist(), 0
    for r in ranges[len(draws):].tolist():
        while True:
            if t == len(words):
                words += more(len(ranges) - len(draws)).tolist()
            x, t = words[t] * r, t + 1
            if x & ((1 << b) - 1) >= (1 << b) % r:
                break
        draws.append(x >> b)
    return draws


def _lemire32(words: np.ndarray, ranges: np.ndarray) -> tuple:
    """Lemire's draws on 32-bit words over ranges up to 2^32: (draws,
    rejected), rejected where the draw is to be made again."""
    m = words * ranges
    return m >> 32, (m & _U32) < (1 << 32) % ranges


def _lemire64(words: np.ndarray, ranges: np.ndarray) -> tuple:
    """`_lemire32` on 64-bit words over ranges above 2^32."""
    return _mulhi(words, ranges), words * ranges < (_MASK64 - ranges + 1) % ranges


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b of uint64 arrays, taken
    in 32-bit limbs."""
    a0, a1, b0, b1 = a & _U32, a >> 32, b & _U32, b >> 32
    high_low = a1 * b0
    cross = (a0 * b0 >> 32) + (high_low & _U32) + a0 * b1  # at most 2^64 - 1
    return a1 * b1 + (high_low >> 32) + (cross >> 32)


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


def _mul(a: tuple, b: tuple) -> tuple:
    """a * b mod 2^128 in (high, low) uint64 halves, whose products wrap mod
    2^64: only low x low needs its high half (`_mulhi`)."""
    return _mulhi(a[1], b[1]) + a[0] * b[1] + a[1] * b[0], a[1] * b[1]


def _add(a: tuple, b: tuple) -> tuple:
    """a + b mod 2^128, in (high, low) halves."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _jump_table(steps: int) -> np.ndarray:
    """e LCG steps for e = 1..steps, a power of two: the read-only halves
    (high, low) of MULT^e and MULT^(e-1) + ... + 1 mod 2^128, one column
    each. Built by doubling: e + m steps are m steps after e. Arrays
    throughout, since a numpy scalar product that wraps warns."""
    table = np.array([[_PCG_MULT >> 64], [_PCG_MULT & _MASK64], [0], [1]], dtype=np.uint64)
    while table.shape[1] < steps:
        a, c = table[:2, -1:], table[2:, -1:]  # m steps, m the width so far
        table = np.hstack((table, [*_mul(a, table[:2]), *_add(_mul(a, table[2:]), c)]))
    table.flags.writeable = False
    return table


_PASS = 4096  # most LCG steps a pass of raw outputs takes
_JUMPS = _jump_table(_PASS)


def _lcg_run(h: np.ndarray, count: int, inc_terms: np.ndarray) -> tuple:
    """The states of the PCG64 of each column of the handoff h after 1, ...,
    count <= `_PASS` LCG steps, as halves of shape (rows, count): step e is
    MULT^e s plus inc_terms[:, :, e - 1] (`_inc_terms`) from h's state s."""
    return _add(_mul(h[:2, :, None], _JUMPS[:2, :count]), inc_terms[:, :, :count])


def _inc_terms(h: np.ndarray, steps: int) -> np.ndarray:
    """(MULT^(e-1) + ... + 1) inc for e = 1..steps <= `_PASS`, the inc term
    of e LCG steps, of each column of the handoff h: halves, shape
    (2, rows, steps)."""
    return np.array(_mul(h[2:4, :, None], _JUMPS[2:, :steps]))


def _xsl_rr(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """PCG64's output of each state: high ^ low rotated right by the top 6
    bits of high."""
    xored, rot = high ^ low, high >> 58
    return xored >> rot | xored << (-rot & 63)


def _raw_outputs(h: np.ndarray, count: int) -> np.ndarray:
    """The next `count` raw outputs of the PCG64 of each column of the
    handoff h, as a (rows, count) uint64 array, in passes of `_lcg_run`;
    h's states are moved past them in place."""
    blocks, inc_terms = [np.empty((h.shape[1], 0), np.uint64)], _inc_terms(h, min(count, _PASS))
    for done in range(0, count, _PASS):
        high, low = _lcg_run(h, min(_PASS, count - done), inc_terms)
        h[0], h[1] = high[:, -1], low[:, -1]
        blocks.append(_xsl_rr(high, low))
    return np.concatenate(blocks, axis=1)


def _pcg_seeded(seeds: np.ndarray) -> np.ndarray:
    """The handoff of `PCG64(seed)`: a (4, seeds) uint64 array, a column per
    seed of its state and inc, each in high and low halves: all of PCG64
    that a draw after sampling reads. `SeedSequence(seed)`'s eight words,
    then srandom: inc = 2 seq + 1 and state = (inc + init) * MULT + inc."""
    w = _seed_words(seeds)
    init_high, init_low, seq_high, seq_low = w[1::2] << 32 | w[::2]  # 64-bit words, high first
    h = np.empty((4, len(seeds)), dtype=np.uint64)
    h[2], h[3] = seq_high << 1 | seq_low >> 63, seq_low << 1 | 1
    h[:2] = _add(_mul(_add(h[2:4], (init_high, init_low)), _JUMPS[:2, :1]), h[2:4])
    return h


def handed_on(handoff: np.ndarray):
    """One PCG64, set in turn to the state and inc of each column of the
    handoff (see `_pcg_seeded`) and yielded; every draw made on it is a raw
    output. numpy's state setter needs the held-half keys, so they are set
    to none held."""
    bits = np.random.PCG64(0)
    for sh, sl, ih, il in map(np.ndarray.tolist, handoff.T):
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": sh << 64 | sl, "inc": ih << 64 | il}}
        yield bits


def sample_defective_sets(n: int, k: int, seeds) -> tuple:
    """`sample_defective_set(n, k, PCG64(seed))` for each uint64 seed, in
    bulk: (truths, handoff). Row r of the (len(seeds), k) array truths holds
    the k defectives of seed r, in no set order; column r of the handoff is
    the state and inc of its PCG64 as `sample_defective_set` leaves it (see
    `_pcg_seeded`), and `handed_on` sets a PCG64 to it. All rows are drawn
    at once: the caller bounds len(seeds) x k (`harness.BATCH_CELLS`).

    Each stage runs over many rows with numpy: `SeedSequence`'s hash, PCG64's
    seeding, LCG steps (O'Neill 2014; `_lcg_run`) and output, and the bounded
    draws as `_bounded_draws` takes them. Rows whose swap targets repeat, about
    k^2 / 2n of them, follow their swaps with `_fisher_yates`. Only a row with
    a rejected draw is drawn on its own, by `_bounded_draws`, at any n and k."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    seeded = _pcg_seeded(np.asarray(seeds, dtype=np.uint64))
    handoff = seeded.copy()
    ranges = n - np.arange(k - (k == n), dtype=np.uint64)  # a last range of 1 draws 0
    wide = min(len(ranges), max(0, n - (1 << 32)))  # the ranges above 2^32 come first
    out = _raw_outputs(handoff, wide + (len(ranges) - wide + 1) // 2)
    draws, slow = np.zeros((len(out), k), dtype=np.int64), np.zeros(len(out), dtype=bool)
    halves = out[:, wide:].astype("<u8", copy=False).view("<u4")  # low half first
    for lemire, words, lo, hi in ((_lemire64, out, 0, wide),
                                  (_lemire32, halves, wide, len(ranges))):
        if lo < hi:  # slow rows, with a rejected draw, are drawn again below
            part, rejected = lemire(words[:, :hi - lo], ranges[lo:hi])
            draws[:, lo:hi], slow = part, slow | rejected.any(axis=1)
    truths = draws + np.arange(k)
    repeats = (np.diff(np.sort(truths, axis=1), axis=1) == 0).any(axis=1) & ~slow
    for r in np.flatnonzero(repeats).tolist():
        truths[r] = _fisher_yates(draws[r].tolist())
    for r in np.flatnonzero(slow).tolist():
        row = handoff[:, r:r + 1]
        row[:] = seeded[:, r:r + 1]
        truths[r] = _fisher_yates(_bounded_draws(n, k, lambda c: _raw_outputs(row, c)[0]))
    return truths, handoff


def _threshold(x: float) -> int:
    """A PCG64 raw output r is below it iff `Generator.random`'s (r >> 11) 2^-53 is below x."""
    return math.ceil(x * 2.0 ** 53) << 11  # x 2^53 is exact; 2^64 at x = 1, above every r


# The noise channels, one transition table: a test of raw outcome `raw` (0
# negative, 1 positive) on output r is _OUTCOMES[_CHANNELS[kind][raw][r < _threshold(p)]].
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
_CHANNEL_ARRAYS = {kind: np.array(rows, dtype=np.int8) for kind, rows in _CHANNELS.items()}


def _channel_codes(hit: np.ndarray, corrupt: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """The outcome codes of raw outcomes `hit` (True: positive), corrupted where `corrupt`."""
    return _CHANNEL_ARRAYS[noise.kind][hit.view(np.uint8), corrupt.view(np.uint8)]


_BLOCK = 256  # noise outputs drawn per refill
_LANDING_ROWS = 256  # trials a landing pass steps together
_LANDING_OUTPUTS = 1 << 14  # most outputs a landing pass steps, at most `_PASS` a trial
_DRAW_BLOCK = 1 << 16  # most raw outputs `draw_below` holds at once


def draw_below(bits: np.random.PCG64, p: float, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous bool array `out`, in C order, with whether each
    next raw output of `bits` is below `_threshold(p)`. Returns `out`; raises
    ValueError on any other `out`, which a reshape would copy, unfilled."""
    if not out.flags.c_contiguous:
        raise ValueError("draw_below fills only a C-contiguous array")
    flat, threshold = out.reshape(-1), _threshold(p)
    for lo in range(0, flat.size, _DRAW_BLOCK):
        block = flat[lo:lo + _DRAW_BLOCK]
        np.less(bits.random_raw(block.size), threshold, out=block)
    return out


def design_negatives(hit: np.ndarray, noise: NoiseModel, streams: Iterator) -> np.ndarray:
    """Which rows of each trial's design, raw outcomes `hit` (trials x t), come
    out NEGATIVE as a fresh `TestOracle`'s first `test_design` on its stream:
    exactly one PCG64 from `streams` a trial, in row order (none when noiseless),
    its first t noise flags drawn into its row (`draw_below`), one table read."""
    if noise.kind is NoiseKind.NOISELESS:
        return ~hit
    corrupt = np.empty(hit.shape, dtype=bool)
    for row in corrupt:
        draw_below(next(streams), noise.p, row)
    return _channel_codes(hit, corrupt, noise) == 0


def erasure_submissions(firm: Sequence[int], noise: NoiseModel,
                        handoff: np.ndarray) -> Sequence[int]:
    """Each trial's submissions on a channel in `TRUTHFUL_CHANNELS`, as
    `TestOracle.test` makes them on the PCG64 `handed_on` sets to its column
    of the handoff. Under erasure its `firm` tests land in order on
    the raw outputs dealt next at or above `_threshold(p)`, each one below
    it an erased one; the noiseless channel returns `firm`. The trials step
    256 at a time, and a trial drops out once its firm tests have landed."""
    if noise.kind is not NoiseKind.ERASURE:
        return firm
    if noise.p >= 1.0 and any(firm):
        raise ValueError("erasure probability 1: no test ever lands")
    used, firm = np.zeros(len(firm), dtype=np.int64), np.array(firm, dtype=np.int64)
    for first in range(0, len(firm), _LANDING_ROWS):
        rows = first + np.flatnonzero(firm[first:first + _LANDING_ROWS])
        left, h, inc_terms = firm[rows], handoff[:, rows], np.empty((2, len(rows), 0), np.uint64)
        while len(rows):
            count = min(_PASS, _LANDING_OUTPUTS // len(rows))
            if count > inc_terms.shape[2]:  # the first pass, or rows dropped out
                inc_terms = _inc_terms(h, count)
            high, low = _lcg_run(h, count, inc_terms)
            lands = _xsl_rr(high, low) >= _threshold(noise.p)
            landed = np.count_nonzero(lands, axis=1)
            done = landed >= left
            used[rows] += np.where(done, 0, count)
            used[rows[done]] += (lands[done].cumsum(axis=1) < left[done, None]).sum(axis=1) + 1
            h[0], h[1], left = high[:, -1], low[:, -1], left - landed
            h, inc_terms, rows, left = h[:, ~done], inc_terms[:, ~done], rows[~done], left[~done]
    return used.tolist()


def _corruptions(bits: np.random.PCG64, p: float) -> Iterator[bool]:
    """Whether each raw output of `bits` is below `_threshold(p)`, `_BLOCK` at a time."""
    blocks = map(draw_below, repeat(bits), repeat(p), repeat(np.empty(_BLOCK, dtype=bool)))
    return chain.from_iterable(map(np.ndarray.tolist, blocks))


class TestOracle:
    """Answers and meters every pooled test of one trial, and keeps no log:
    its memory does not grow with the tests it answers.

    The only channel by which algorithms learn anything about the hidden
    defective set. The contract:

    - A `range` pool with step 1 is tested by bisecting the sorted truth, in
      O(log k). Any other pool is checked as given, item by item.
    - The algorithms drive every adaptive test through `test`, one pool at
      a time. The harness batches noiseless and erasure trials outside the
      oracle (`harness._run_batch`); the oracle is the per-trial definition
      they are checked against.
    - `test_design` tests every row of a boolean t x n design at once, with
      the outcomes of t single submissions.
    - `test` resubmits an erased pool until its outcome is firm; a
      `test_design` row is never resubmitted. Every submission counts in
      `tests_used` and uses its own raw output. At erasure probability 1 no
      submission lands, so `test` raises ValueError instead of resubmitting
      forever.
    - Test j (0-based) goes through `_CHANNELS` on the j-th raw output r of
      the bit generator `bits`, corrupted iff r < `_threshold(p)`; a
      noiseless test still uses up its output. `test` and `test_design` read
      one stream (`_corruptions`).
    - The stream fills a block of 256 flags at a time (`draw_below`), so
      after the last test `bits` sits ceil(tests_used / 256) * 256 outputs
      on. Do not draw from `bits` once it is handed to the oracle.
    """

    def __init__(self, n: int, truth: Iterable[int], noise: NoiseModel,
                 bits: np.random.PCG64):
        truth = frozenset(int(i) for i in truth)
        if truth and (min(truth) < 0 or max(truth) >= n):
            raise ValueError("defective indices must lie in [0, n)")
        self.n = n
        self.truth = truth
        self.noise = noise
        self.tests_used = 0
        self._sorted_truth = sorted(truth)
        self._corrupt = _corruptions(bits, noise.p)
        self._channel = _CHANNELS[noise.kind]

    def test(self, pool: Sequence[int]) -> Outcome:
        if len(pool) == 0:
            raise ValueError("cannot test an empty pool")
        if type(pool) is range and pool.step == 1:
            i = bisect_left(self._sorted_truth, pool.start)  # the next defective
            hit = i < len(self._sorted_truth) and self._sorted_truth[i] < pool.stop
        else:
            hit = not self.truth.isdisjoint(pool)
        row, p = self._channel[hit], self.noise.p
        while True:
            out = _OUTCOMES[row[next(self._corrupt)]]
            self.tests_used += 1
            if out is not Outcome.ERASED:
                return out
            if p >= 1.0:
                raise ValueError("erasure probability 1: no test ever lands")

    def test_design(self, design) -> list[Outcome]:
        """Test each row of a boolean t x n design as one pool, in row order.
        An erased row is never resubmitted.

        Raises ValueError, before testing anything, if a row is empty."""
        design = np.asarray(design, dtype=bool)
        if design.ndim != 2 or design.shape[1] != self.n:
            raise ValueError(f"a design needs shape (t, {self.n}), got {design.shape}")
        if not design.any(axis=1).all():
            raise ValueError("cannot test an empty pool")
        t = len(design)
        corrupt = np.fromiter(islice(self._corrupt, t), bool, t)
        self.tests_used += t
        codes = _channel_codes(design[:, self._sorted_truth].any(axis=1), corrupt, self.noise)
        return [_OUTCOMES[c] for c in codes.tolist()]
