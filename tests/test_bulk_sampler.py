"""Gate for the bulk sampler: `derive_stream_seeds` and `sample_defective_sets`
must give, seed for seed, what `run_trial`'s per-trial numpy path gives (the
scalar seed mix, `np.random.PCG64(seed)` and `sample_defective_set`),
including the generator state handed on to the erasure uniforms.

These depend on numpy's `SeedSequence` and PCG64 seeding and on
`Generator.integers`; the bounded draws are not fixed across numpy releases
(NEP 19), so CI pins numpy.
"""
import numpy as np
import pytest

from grouptest import model
from grouptest.model import (derive_stream_seed, derive_stream_seeds, sample_defective_set,
                             sample_defective_sets)

SEEDS = 100_000
BATCH = 1024  # as the harness batches


@pytest.fixture
def per_trial(monkeypatch):
    """Counts the rows `sample_defective_sets` hands to `sample_defective_set`."""
    rows = []
    monkeypatch.setattr(model, "sample_defective_set",
                        lambda *a: rows.append(1) or sample_defective_set(*a))
    return rows


@pytest.mark.parametrize("n,k", [(500, 10), (9699, 30), (100000, 71)])
def test_bulk_sampler_matches_per_trial_numpy(per_trial, n, k):
    for lo in range(0, SEEDS, BATCH):
        seeds = derive_stream_seeds(derive_stream_seeds(k, np.arange(lo, lo + BATCH)), 0)
        truths, rngs = sample_defective_sets(n, k, seeds)
        for seed, row, rng in zip(seeds.tolist(), truths.tolist(), rngs):
            ref = np.random.Generator(np.random.PCG64(seed))
            assert frozenset(row) == sample_defective_set(n, k, ref)
            assert rng.bit_generator.state == ref.bit_generator.state
    # Only rows numpy redraws after a Lemire rejection go through
    # `sample_defective_set`: the sum over i < k of (2^32 mod (n - i)) / 2^32,
    # 8e-4 at (100000, 71), 4e-5 and 6e-7 at the figure's sizes. Those rows
    # matched above too.
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


def test_handed_on_state_by_parity_of_k(per_trial):
    # odd k leaves the high half of the last output for the next 32-bit draw
    seeds = derive_stream_seeds(3, np.arange(200))
    for k in (1, 2, 7, 8):
        _, rngs = sample_defective_sets(1000, k, seeds)
        for seed, rng in zip(seeds.tolist(), rngs):
            ref = np.random.Generator(np.random.PCG64(seed))
            sample_defective_set(1000, k, ref)
            state = rng.bit_generator.state
            assert state == ref.bit_generator.state and state["has_uint32"] == k & 1
            assert rng.integers(2**31, size=3).tolist() == ref.integers(2**31, size=3).tolist()
            assert rng.random() == ref.random()
    assert not per_trial  # all drawn in bulk


@pytest.mark.parametrize("master", [-5, 0, 2**64 + 3])
def test_derive_stream_seeds_matches_scalar(master):
    streams = [0, 1, 2, 255, 2**32 - 1, 2**32, 2**40 - 1, 2**40]
    got = derive_stream_seeds(master, np.array(streams))
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_stream_seed(master, s) for s in streams]
    # and over an array of masters, as the harness's second mix
    assert (derive_stream_seeds(got, 0).tolist()
            == [derive_stream_seed(derive_stream_seed(master, s), 0) for s in streams])


@pytest.mark.parametrize("n,k,bulk", [(10, 10, False), (1, 1, False), (2**32 + 7, 3, False),
                                      (2**32 - 1, 2, True), (5, 0, True), (5, 4, True)])
def test_bulk_sampler_edges(per_trial, n, k, bulk):
    # k == n and n > 2^32 - 1 take the per-trial path for every row
    seeds = derive_stream_seeds(7, np.arange(300))
    truths, rngs = sample_defective_sets(n, k, seeds)
    assert truths.shape == (300, k)
    assert len(per_trial) == (0 if bulk else 300)
    for seed, row, rng in zip(seeds.tolist(), truths.tolist(), rngs):
        ref = np.random.Generator(np.random.PCG64(seed))
        assert frozenset(row) == sample_defective_set(n, k, ref) and len(set(row)) == k
        assert rng.bit_generator.state == ref.bit_generator.state


def test_bad_sizes_rejected():
    for n, k in ((5, 6), (5, -1)):
        with pytest.raises(ValueError):
            sample_defective_sets(n, k, derive_stream_seeds(0, np.arange(3)))
