"""Gate for the sampler: `sample_defective_set`, the per-trial definition,
draws from PCG64's raw output (`model._bounded_draws`), and
`derive_stream_seeds` and `sample_defective_sets` must give, seed for seed,
what `run_trial` gives (the scalar seed mix, `np.random.PCG64(seed)` and
`sample_defective_set`), including the PCG64 state and inc handed on to
the noise and erasure draws. A stream is a PCG64's state and inc, read only
as raw outputs: the sampler neither reads nor leaves a held 32-bit half, so
the handed-on state equals the reference's in full. The bulk sampler steps
PCG64 with the package's own 128-bit arithmetic (`model._raw_outputs`),
checked here against `PCG64.random_raw`.

NEP 19 keeps PCG64's raw stream fixed across numpy releases, but not
`Generator.integers`. The definition follows numpy 2.4.6's bounded draws on
a fresh stream, and the tests here pin it to them: every bulk row and every
reference row equals partial Fisher-Yates on
`Generator(PCG64(seed)).integers(n - arange(k))`, with the same PCG64 state
after it, on numpy 2.4.6 (CI pins it). On another numpy these pins may fail
while the package's output stays the same. `_fisher_yates` itself is pinned
against a full-array swap that shares no code with it.
"""
import itertools

import numpy as np
import pytest

from grouptest import model
from grouptest.model import (_JUMPS, _PASS, _PCG_MULT, _fisher_yates, _raw_outputs,
                             derive_stream_seed, derive_stream_seeds, handed_on,
                             sample_defective_set, sample_defective_sets)
from oracle_reference import handoff_of

SEEDS = 100_000
BATCH = 1024  # as the harness batches


@pytest.fixture
def per_trial(monkeypatch):
    """The draws of each row `sample_defective_sets` draws one by one: the
    calls of `_bounded_draws` on the package's own PCG64, not on a numpy bit
    generator."""
    rows, bounded = [], model._bounded_draws

    def counted(n, k, raw):
        draws = bounded(n, k, raw)
        if not isinstance(getattr(raw, "__self__", None), np.random.PCG64):
            rows.append(tuple(draws))
        return draws

    monkeypatch.setattr(model, "_bounded_draws", counted)
    return rows


def numpy_sample(n, k, bits):
    """The set numpy 2.4.6's bounded draws pick on the PCG64 `bits`, and the
    state they leave it in. The picks are `_fisher_yates`', pinned on its own
    by `test_fisher_yates_matches_full_array_swaps`."""
    draws = np.random.Generator(bits).integers(n - np.arange(k)).tolist()
    return frozenset(_fisher_yates(draws)), bits.state


def rejected_rows(n, k, seeds):
    """The draws, sorted, of each seed whose numpy 2.4.6 bounded draws on
    PCG64(seed) make a draw again: those read more words than the ones a
    draw takes on its first try, a whole output for a range above 2^32, a
    32-bit half for the rest, and none for a last range of 1 (k == n). A
    rejection reads a whole output or a half more, so it moves the stream
    past the first-try count or leaves no half held where one would be."""
    m = k - (k == n)
    wide = min(m, max(0, n - 2**32))
    rows = []
    for seed in seeds:
        bits = np.random.PCG64(seed)
        draws = tuple(np.random.Generator(bits).integers(n - np.arange(k)).tolist())
        first_try = np.random.PCG64(seed).advance(wide + (m - wide + 1) // 2).state["state"]
        if (bits.state["state"], bits.state["has_uint32"]) != (first_try, (m - wide) % 2):
            rows.append(draws)
    return sorted(rows)


@pytest.mark.parametrize("n,k", [(500, 10), (9699, 30), (100000, 71)])
def test_bulk_sampler_matches_per_trial_numpy(per_trial, n, k):
    for lo in range(0, SEEDS, BATCH):
        seeds = derive_stream_seeds(derive_stream_seeds(k, np.arange(lo, lo + BATCH)), 0)
        truths, handoff = sample_defective_sets(n, k, seeds)
        for seed, row, bits in zip(seeds.tolist(), truths.tolist(), handed_on(handoff)):
            ref = np.random.PCG64(seed)
            start = ref.state
            want, state = numpy_sample(n, k, ref)
            assert frozenset(row) == want and bits.state["state"] == state["state"]
            ref.state = start
            assert sample_defective_set(n, k, ref) == want and ref.state["state"] == state["state"]
    # Only rows with a rejected draw are drawn one by one: the
    # sum over i < k of (2^32 mod (n - i)) / 2^32, 8e-4 at (100000, 71), 4e-5
    # and 6e-7 at the figure's sizes. Those rows matched above too.
    assert len(per_trial) < SEEDS // 100
    if n == 100000:
        assert per_trial


def test_derive_stream_seeds_matches_scalar_per_trial():
    # the harness's seeds, trial i of master m on mix(mix(m, i), 0), for the
    # masters the gate above uses
    for master in (10, 30, 71):
        seeds = derive_stream_seeds(derive_stream_seeds(master, np.arange(SEEDS)), 0)
        assert seeds.tolist() == [derive_stream_seed(derive_stream_seed(master, i), 0)
                                  for i in range(SEEDS)]


@pytest.mark.parametrize("n,k,master", [
    *[(1000, k, 3) for k in (0, 1, 2, 7, 8)],  # odd k leaves a 32-bit half held
    (100000, 71, 25),  # as the harness seeds master 25: a row with a rejected draw
    (2**32 + 7, 3, 3),  # 64-bit draws: every row on its own
])
def test_handoff_is_state_and_inc(per_trial, n, k, master):
    # the handoff is each PCG64's state and inc as the reference sampler
    # leaves them: the handed-on state is the reference's in full, no held
    # half on either, and the next raw output is the reference's
    seeds = derive_stream_seeds(derive_stream_seeds(master, np.arange(200)), 0)
    _, handoff = sample_defective_sets(n, k, seeds)
    assert handoff.shape == (4, len(seeds))
    for seed, bits in zip(seeds.tolist(), handed_on(handoff)):
        ref = np.random.PCG64(seed)
        sample_defective_set(n, k, ref)
        assert bits.state == ref.state and ref.state["has_uint32"] == 0
        assert bits.random_raw() == ref.random_raw()
    # rows drawn one by one: exactly those with a rejected draw, which
    # 64-bit draws at n = 2^32 + 7 make about once in 2^32 draws
    assert sorted(per_trial) == rejected_rows(n, k, seeds.tolist())
    if n == 1000:
        assert not per_trial
    elif n < 2**32:
        assert 0 < len(per_trial) < len(seeds)
    else:
        assert not per_trial


@pytest.mark.parametrize("n,k", [
    (3 * 10**9, 40),  # 2^32 mod n is 30% of 2^32: nearly every row draws again
    (2**32, 3),  # a range of exactly 2^32 takes a whole 32-bit word
    (2**32 + 2, 5),  # 64-bit words, then 32-bit ones from range 2^32 down
    (2**33, 5), (2**62, 5),  # 64-bit words
    (3 * 2**61, 5),  # 64-bit words, 2^64 mod n a quarter of 2^64
    (10, 10), (1, 1),  # k == n: the last draw takes no word
    (2**32 - 1, 2), (100000, 71),  # 32-bit words, in numpy
    (10**6, 1000),  # a rejection in about 1 row in 6: more passes, over windows
])
@pytest.mark.parametrize("before", [0, 1, 2])  # 32-bit draws made first; 1 holds a half
def test_reference_matches_numpy(n, k, before):
    # the sampler starts at the next raw output and ignores a held half: it
    # draws what numpy draws on the same position with the half cleared, and
    # leaves the half as it found it
    for seed in range(200):
        bits, ref = np.random.PCG64(seed), np.random.PCG64(seed)
        for b in (bits, ref):
            np.random.Generator(b).integers(2**31, size=before)
        assert ref.state["has_uint32"] == before & 1
        bits.state = {**bits.state, "has_uint32": 0, "uinteger": 0}
        want, state = numpy_sample(n, k, bits)
        held = ref.state["has_uint32"], ref.state["uinteger"]
        assert sample_defective_set(n, k, ref) == want
        assert ref.state["state"] == state["state"]
        assert (ref.state["has_uint32"], ref.state["uinteger"]) == held


def full_swap_sample(n, draws):
    """The items partial Fisher-Yates picks on `draws` over the whole array:
    step i swaps positions i and i + draws[i] of list(range(n)) and picks
    what lands at position i."""
    items = list(range(n))
    for i, d in enumerate(draws):
        items[i], items[i + d] = items[i + d], items[i]
    return items[:len(draws)]


def test_fisher_yates_matches_full_array_swaps():
    # `_fisher_yates`, which the sampler and the gate's numpy reference both
    # use, against the whole array swapped in place: every draw sequence of
    # every k <= n at n <= 6, then random ones at n <= 40, half of them with
    # their swap targets i + d drawn from two positions, so targets repeat
    for n in range(7):
        for k in range(n + 1):
            for draws in itertools.product(*map(range, range(n, n - k, -1))):
                assert _fisher_yates(list(draws)) == full_swap_sample(n, draws)
    rng = np.random.default_rng(13)
    for _ in range(4000):
        n = int(rng.integers(1, 41))
        k = n if rng.random() < 0.25 else int(rng.integers(n + 1))
        i = np.arange(k)
        if rng.random() < 0.5:
            draws = rng.integers(n - i)
        else:
            draws = np.maximum(i, rng.choice(rng.integers(n, size=2), size=k)) - i
        draws = draws.tolist()
        assert _fisher_yates(draws) == full_swap_sample(n, draws)


@pytest.mark.parametrize("master", [-5, 0, 2**64 + 3])
def test_derive_stream_seeds_matches_scalar(master):
    streams = [0, 1, 2, 255, 2**32 - 1, 2**32, 2**40 - 1, 2**40]
    got = derive_stream_seeds(master, np.array(streams))
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_stream_seed(master, s) for s in streams]
    # and over an array of masters, as the harness's second mix
    assert (derive_stream_seeds(got, 0).tolist()
            == [derive_stream_seed(derive_stream_seed(master, s), 0) for s in streams])


@pytest.mark.parametrize("n,k,bulk", [
    (10, 10, True), (1, 1, True),  # k == n: the last draw takes no word
    (2**32 + 7, 3, True), (2**32 + 30, 30, True),  # 64-bit draws, down to range 2^32 + 1
    (2**32 + 15, 30, True),  # 15 64-bit draws, then 15 32-bit ones
    (2**40, 30, True), (2**53, 30, True),  # 64-bit draws; 2^64 mod n is 0: none rejected
    (2**53 - 2**53 // 2049 + 100, 30, False),  # 2^64 mod n about n: 2^-11 a draw rejected
    (3 * 10**9, 40, False),  # 2^32 mod n is 30% of 2^32: nearly every row draws again
    (2**32 - 1, 2, True), (5, 0, True), (5, 4, True),
])
def test_bulk_sampler_edges(per_trial, n, k, bulk):
    # every row is drawn in bulk unless one of its draws is rejected: then
    # that row, and no other, is drawn again on its own; bulk: no row is
    seeds = derive_stream_seeds(7, np.arange(300))
    truths, handoff = sample_defective_sets(n, k, seeds)
    assert truths.shape == (300, k)
    assert sorted(per_trial) == rejected_rows(n, k, seeds.tolist())
    assert bool(per_trial) != bulk
    for seed, row, bits in zip(seeds.tolist(), truths.tolist(), handed_on(handoff)):
        ref = np.random.PCG64(seed)
        assert frozenset(row) == sample_defective_set(n, k, ref) and len(set(row)) == k
        assert bits.state == ref.state


def test_bad_sizes_rejected():
    for n, k in ((5, 6), (5, -1)):
        with pytest.raises(ValueError):
            sample_defective_sets(n, k, derive_stream_seeds(0, np.arange(3)))


def test_jump_table_is_the_lcg_recurrence():
    # column e - 1 holds the halves of MULT^e and MULT^(e-1) + ... + 1
    # mod 2^128, as the Python-int recurrence steps them
    assert _JUMPS.shape == (4, _PASS) and _JUMPS.dtype == np.uint64
    a, c, mask = 1, 0, (1 << 64) - 1
    for column in _JUMPS.T.tolist():
        a, c = a * _PCG_MULT % (1 << 128), (c * _PCG_MULT + 1) % (1 << 128)
        assert column == [a >> 64, a & mask, c >> 64, c & mask]
    assert not _JUMPS.flags.writeable


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1000, _PASS - 1, _PASS + 1, 3 * _PASS + 5])
def test_raw_outputs_match_random_raw(count):
    # random 128-bit states and odd incs, stepped by the package's halves
    # arithmetic, against numpy's C PCG64 from the same state; the counts
    # end inside a pass of _PASS steps or cross one
    rng = np.random.default_rng(count)
    states = [(int.from_bytes(rng.bytes(16), "little"), int.from_bytes(rng.bytes(16), "little") | 1)
              for _ in range(12)] + [(2**128 - 1, 2**128 - 1), (0, 1)]
    bits = [np.random.PCG64(0) for _ in states]
    for b, (state, inc) in zip(bits, states):
        b.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                   "has_uint32": 0, "uinteger": 0}
    h = handoff_of(bits)
    out = _raw_outputs(h, count)
    assert out.shape == (len(states), count)
    for b, row, moved in zip(bits, out, h.T.tolist()):
        assert row.tolist() == b.random_raw(count).tolist()
        assert moved == handoff_of([b])[:, 0].tolist()  # moved past them

