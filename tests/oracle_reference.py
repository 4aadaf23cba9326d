"""Reference semantics that the fast oracle paths are checked against.

`truth_outcome` and `apply_noise` are the scalar truth function and noise
channel, one pool and one uniform at a time. `PoolOracle` is the reference
oracle built from them: every pool copied to a tuple, one scalar draw per
test, a design tested row by row, and a search, a splitting round or a
whole splitting run stepped test by test. `erasure_landing` lands a batch's
firm tests trial by trial on numpy's uniforms, and `handoff_of` hands numpy
bit generators' states to the package's own PCG64 arithmetic. The
references draw their uniforms with `Generator.random` on the bit generator
they are given (`generator_on`), not with the package's raw-output
threshold. `Recorder` rebuilds the list of tests an oracle makes, which
`TestOracle` does not keep.
"""
import numpy as np

from grouptest.bounds import NoiseKind, ceil_log2
from grouptest.algorithms import SearchOverrun
from grouptest.model import _CHANNELS, _OUTCOMES, Outcome


def truth_outcome(pool, truth):
    """Noiseless pooled test: positive iff the pool hits a defective."""
    pool = tuple(pool)
    if not pool:
        raise ValueError("cannot test an empty pool")
    return Outcome.POSITIVE if not truth.isdisjoint(pool) else Outcome.NEGATIVE


def generator_on(bits):
    """A numpy Generator on the bit generator `bits`, drawing from its stream;
    a stand-in that deals its own uniforms is returned as it is."""
    return np.random.Generator(bits) if isinstance(bits, np.random.BitGenerator) else bits


def apply_noise(out, model, rng):
    """Push a raw outcome through the noise channel.

    Always consumes exactly one RNG variate, `rng.random()`, even for the
    noiseless channel, so under a shared seed test j reads the j-th uniform
    whatever the noise model. `TestOracle` reads the same channel table on
    the same stream of uniforms, one per test.
    """
    if out is Outcome.ERASED:
        raise ValueError("noise channels apply to raw outcomes only, not ERASED")
    return _OUTCOMES[_CHANNELS[model.kind][_OUTCOMES.index(out)][rng.random() < model.p]]


class Recorder(list):
    """Every test one oracle instance makes, as (pool, outcome) in order,
    rebuilt from what its `test` and `test_design` are given and return; it
    wraps those two methods of the instance, so make it before the first
    test. A step-1 `range` pool is kept as passed, any other as a tuple. A
    `test` call that adds s to `tests_used` is kept as s - 1 erased
    submissions and then its outcome, or as s erased ones if it raises. A
    design row is kept as the tuple of its items."""

    def __init__(self, oracle):
        super().__init__()
        test, test_design = oracle.test, oracle.test_design

        def recorded_test(pool):
            entry = pool if type(pool) is range and pool.step == 1 else tuple(pool)
            before = oracle.tests_used
            try:
                out = test(pool)
            except Exception:
                self.extend([(entry, Outcome.ERASED)] * (oracle.tests_used - before))
                raise
            self.extend([(entry, Outcome.ERASED)] * (oracle.tests_used - before - 1))
            self.append((entry, out))
            return out

        def recorded_design(design):
            outs = test_design(design)
            self.extend((tuple(np.flatnonzero(row).tolist()), out)
                        for row, out in zip(np.asarray(design, dtype=bool), outs))
            return outs

        oracle.test, oracle.test_design = recorded_test, recorded_design


class PoolOracle:
    """Reference oracle with tuple pools and one scalar noise draw per test;
    a design is tested row by row, a search, a round or a run step by step,
    and an erased single test, search step or group test is resubmitted
    until it lands. Its uniforms are `Generator.random`'s on `bits`."""

    def __init__(self, n, truth, noise, bits):
        self.n = n
        self.truth = frozenset(truth)
        self.noise = noise
        self.rng = generator_on(bits)
        self.tests_used = 0

    def _submit(self, pool):
        out = apply_noise(truth_outcome(pool, self.truth), self.noise, self.rng)
        self.tests_used += 1
        return out

    def test(self, pool):
        pool = tuple(pool)
        out = self._submit(pool)
        while out is Outcome.ERASED:
            out = self._submit(pool)
        return out

    def test_design(self, design):
        return [self._submit(tuple(np.flatnonzero(row).tolist())) for row in design]

    def search(self, candidates):
        b = len(candidates)
        if b == 0:
            raise ValueError("binary search needs a non-empty candidate list")
        size = 1 << ceil_log2(b)
        lo = 0
        while size > 1:
            half = size // 2
            pool = candidates[lo:min(lo + half, b)]
            if self.test(pool) is Outcome.POSITIVE:
                size = half
            else:
                lo += half
                if lo >= b:
                    raise SearchOverrun(f"all {b} candidates tested negative")
                size = half
        return lo

    def scan(self, candidates, group_size, kp):
        """One splitting round, test by test: while more than kp candidates
        are left, test the leading group; drop it if negative, else search
        it. Returns the index within `candidates` of the defective found,
        None once only kp or fewer are left, or len(candidates) once every
        group tested negative."""
        rest = candidates
        while rest:
            m = len(rest)
            if m <= kp:
                return None
            group = rest[:group_size(m, kp)]
            if self.test(group) is Outcome.NEGATIVE:
                rest = rest[len(group):]
            else:
                return len(candidates) - m + self.search(group)
        return len(candidates)

    def split(self, candidates, group_size, kp):
        """A whole splitting run, round by round through `scan`: returns the
        items found, each round's defective or, once only kp candidates are
        left, the round's last kp, untested."""
        found = []
        while kp and candidates:
            lo = self.scan(candidates, group_size, kp)
            if lo is None:
                found.extend(candidates[-kp:])
                break
            found.extend(candidates[lo:lo + 1])  # none if every candidate tested negative
            kp -= 1
            candidates = candidates[lo + 1:]
        return found


def erasure_landing(firm, noise, streams):
    """Each trial's submissions when its `firm` tests land in order on the
    uniforms u >= p that the bit generator `streams` yields for it deals
    next, each u < p an erased one, drawn with `Generator.random` a trial at
    a time: the reference `model.erasure_submissions` is checked against.
    The noiseless channel returns `firm`. Draws are capped in size; that
    changes no value."""
    if noise.kind is not NoiseKind.ERASURE:
        return firm
    used = []
    for left, rng in zip(firm, map(generator_on, streams)):
        spent = 0
        while left:
            u = rng.random(min(1 << 16, int(left / (1 - noise.p)) + 64))
            lands = np.flatnonzero(u >= noise.p)
            if len(lands) >= left:
                spent += int(lands[left - 1]) + 1
                break
            spent, left = spent + len(u), left - len(lands)
        used.append(spent)
    return used


def handoff_of(bit_generators):
    """The handoff (see `model._pcg_seeded`) of numpy PCG64 bit generators:
    each one's state and inc as high and low 64-bit halves."""
    columns = []
    for bits in bit_generators:
        s = bits.state["state"]
        state, inc = s["state"], s["inc"]
        columns.append((state >> 64, state & 2**64 - 1, inc >> 64, inc & 2**64 - 1))
    return np.array(columns, dtype=np.uint64).reshape(-1, 4).T.copy()
