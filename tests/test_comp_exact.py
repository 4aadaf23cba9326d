"""Exact finite-size error of noiseless COMP, and the simulation against it.

A non-defective escapes COMP when no negative test contains it. A row of the
design misses every item of a set S of s non-defectives, or holds a
defective, with probability 1 - q^k (1 - q^s) / (1 - q^n), q = 1 - 1/k: the
row is Bernoulli(1/k) per item, resampled while empty. Rows are independent,
so inclusion-exclusion over the escaping set gives

    P(err) = sum_{s=1}^{n-k} (-1)^(s+1) C(n-k, s) (1 - q^k (1 - q^s) / (1 - q^n))^t.

On a noisy channel a test comes out negative with probability f if its pool
holds a defective and e if not; COMP succeeds when no negative row holds a
defective and every non-defective lies in some negative row, so

    P(success) = sum_{s=0}^{n-k} (-1)^s C(n-k, s)
                 (1 - [(1 - q^k) f + q^k (1 - q^s) e] / (1 - q^n))^t,

with (f, e) = (0, 1) noiseless, (0, 1 - P) erasure and additive, and
(P, 1 - P) symmetric. A channel draws u < p on uniforms of 53 bits, so
P = ceil(p 2^53) / 2^53.
"""
import math
from fractions import Fraction
from itertools import product

import pytest

from grouptest.bounds import NoiseKind, NoiseModel, ProblemSize
from grouptest.cli import parse_noise
from grouptest.harness import ExperimentSpec, run_trials, wilson_interval


def comp_error_exact(n, k, t):
    q = Fraction(k - 1, k)
    hit_free, nonempty = q ** k, 1 - q ** n
    total = Fraction(0)
    for s in range(1, n - k + 1):
        escape = (1 - hit_free * (1 - q ** s) / nonempty) ** t
        total += (-1) ** (s + 1) * math.comb(n - k, s) * escape
    return total


def comp_success_exact(n, k, t, noise):
    q, p = Fraction(k - 1, k), Fraction(math.ceil(noise.p * 2**53), 2**53)
    f, e = {NoiseKind.NOISELESS: (0, 1), NoiseKind.ERASURE: (0, 1 - p),
            NoiseKind.SYMMETRIC: (p, 1 - p), NoiseKind.ADDITIVE: (0, 1 - p)}[noise.kind]
    hit_free, nonempty = q ** k, 1 - q ** n
    return sum((-1) ** s * math.comb(n - k, s)
               * (1 - ((1 - hit_free) * f + hit_free * (1 - q ** s) * e) / nonempty) ** t
               for s in range(n - k + 1))


def comp_error_brute(n, k, t):
    """P(err) by enumerating every design of t non-empty rows; truth {0..k-1}."""
    q = Fraction(k - 1, k)
    rows = [r for r in product((0, 1), repeat=n) if any(r)]
    weight = {r: Fraction(1, k) ** sum(r) * q ** (n - sum(r)) / (1 - q ** n)
              for r in rows}
    total = Fraction(0)
    for design in product(rows, repeat=t):
        eliminated = {i for r in design if not any(r[:k]) for i in range(n) if r[i]}
        if len(eliminated) < n - k:
            total += math.prod(weight[r] for r in design)
    return total


@pytest.mark.parametrize("n,k,t", [(3, 2, 1), (3, 2, 3), (4, 2, 2), (5, 2, 2),
                                   (5, 3, 2), (4, 1, 2)])
def test_exact_matches_enumeration(n, k, t):
    assert comp_error_exact(n, k, t) == comp_error_brute(n, k, t)


def test_exact_value_at_100_5_126():
    assert float(comp_error_exact(100, 5, 126)) == pytest.approx(0.017993, abs=1e-6)


def test_simulation_matches_exact():
    exact = float(comp_error_exact(100, 5, 126))
    spec = ExperimentSpec(size=ProblemSize(100, 5), algorithm="comp",
                          trials=5000, master_seed=0, comp_t=126)
    errors = sum(not r.success for r in run_trials(spec))
    lo, hi = wilson_interval(errors, spec.trials, z=3.29)
    assert lo <= exact <= hi


def test_noiseless_success_is_one_minus_error():
    for n, k, t in [(3, 2, 3), (5, 3, 2), (100, 5, 126)]:
        assert comp_success_exact(n, k, t, NoiseModel.noiseless()) == 1 - comp_error_exact(n, k, t)


@pytest.mark.parametrize("channel,t,exact", [("noiseless", 126, 0.98201),
                                             ("symmetric:0.01", 126, 0.41951),
                                             ("additive:0.02", 140, 0.99140),
                                             ("erasure:0.2", 150, 0.97194),
                                             ("symmetric:0.001", 150, 0.90076)])
def test_simulation_matches_exact_on_every_channel(channel, t, exact):
    noise = parse_noise(channel)
    success = comp_success_exact(100, 5, t, noise)
    assert float(success) == pytest.approx(exact, abs=1e-5)
    spec = ExperimentSpec(size=ProblemSize(100, 5), algorithm="comp", noise=noise,
                          trials=20_000, master_seed=11, comp_t=t)
    lo, hi = wilson_interval(sum(r.success for r in run_trials(spec)), spec.trials, z=3.29)
    assert lo <= success <= hi
