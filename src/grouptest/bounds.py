"""Closed-form quantities for group testing: log-binomials, rates, converse
bounds, algorithm test-count guarantees, and channel capacities.

Everything here is a pure function of its arguments; no randomness, no state.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

LN2 = math.log(2.0)

# log2_binom uses exact integer binomials up to this min(k, n-k), where they
# cost microseconds; beyond it, Loader's saddle-point form stays within 1e-15
# relative error for every n <= 2^53 (harness.MAX_N).
_EXACT_K_MAX = 64


class InputError(ValueError):
    """A run input outside its domain, such as k > n or a test budget below
    1. The CLI maps exactly this error to exit code 2; any other
    `ValueError` is an internal fault."""


class NoiseKind(str, Enum):
    NOISELESS = "noiseless"
    ERASURE = "erasure"
    SYMMETRIC = "symmetric"
    ADDITIVE = "additive"


@dataclass(frozen=True)
class NoiseModel:
    """A test-outcome noise channel: erasure, symmetric flip, or additive
    (Z-channel, false positives only), each with parameter p."""

    kind: NoiseKind
    p: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InputError(f"noise probability must be in [0,1], got {self.p}")
        if self.kind is NoiseKind.NOISELESS and self.p != 0.0:
            raise InputError("noiseless channel must have p = 0")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(NoiseKind.NOISELESS, 0.0)

    @classmethod
    def erasure(cls, p: float) -> "NoiseModel":
        return cls(NoiseKind.ERASURE, p)

    @classmethod
    def symmetric(cls, p: float) -> "NoiseModel":
        return cls(NoiseKind.SYMMETRIC, p)

    @classmethod
    def additive(cls, p: float) -> "NoiseModel":
        return cls(NoiseKind.ADDITIVE, p)


@dataclass(frozen=True)
class ProblemSize:
    """An instance shape: n items of which k are defective."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"item count must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise InputError(f"defective count must be in [0, {self.n}], got {self.k}")


def ceil_log2(m: int) -> int:
    """Exact ceiling of log2(m) for positive integers, no float rounding."""
    if m < 1:
        raise ValueError(f"ceil_log2 needs a positive integer, got {m}")
    return (m - 1).bit_length()


def log2_binom(size: ProblemSize) -> float:
    """log2 of the binomial coefficient C(n, k), in bits.

    Computed from k' = min(k, n-k), so C(n, k) and C(n, n-k) agree exactly.
    Exact integer arithmetic for k' <= 64; beyond that, Loader's (2000)
    saddle-point form, which subtracts no large log-gamma values (and needs
    n within the float range). Either way the result is within 1e-15
    relative error for every n <= 2^53.
    """
    n, k = size.n, min(size.k, size.n - size.k)
    if k == 0:
        return 0.0
    if k <= _EXACT_K_MAX:
        return math.log2(math.comb(n, k))
    if n > sys.float_info.max:
        raise InputError(f"log2 C(n, k) at min(k, n-k) > {_EXACT_K_MAX} needs n <= "
                         f"{sys.float_info.max:g}")
    ln_c = (_stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
            + k * math.log(n / k) - (n - k) * math.log1p(-k / n)
            - 0.5 * (math.log(2.0 * math.pi) + math.log(k) + math.log1p(-k / n)))
    return ln_c / LN2


def _stirling_error(m: int) -> float:
    """ln m! - ln(sqrt(2 pi m) (m/e)^m) from the first four terms of its
    series, within about 1e-16 for the m > 64 that log2_binom passes."""
    m2 = float(m) * m
    return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * m2)) / m2) / m2) / m


def binom_log_bounds(size: ProblemSize) -> tuple[float, float]:
    """Sandwich bounds k*log2(n/k) <= log2 C(n,k) <= k*log2(n*e/k)."""
    n, k = size.n, size.k
    if k < 1:
        raise ValueError("binomial sandwich bounds are undefined for k = 0")
    lower = k * math.log2(n / k)
    upper = k * (math.log2(n / k) + math.log2(math.e))
    return lower, upper


def rate(size: ProblemSize, t: int) -> float:
    """Bits of defective-set identity learned per test: log2 C(n,k) / t."""
    if t < 1:
        raise InputError(f"test count must be >= 1, got {t}")
    return log2_binom(size) / t


def converse_success_bound(size: ProblemSize, t: float) -> float:
    """Upper bound min(1, 2^t / C(n,k)) on any algorithm's success probability
    with t tests, computed in the log domain."""
    if t < 0:
        raise InputError(f"test count must be >= 0, got {t}")
    log2_p = t - log2_binom(size)
    if log2_p >= 0.0:
        return 1.0
    return 2.0 ** log2_p


def weak_converse_bound(size: ProblemSize, t: float) -> float:
    """Weaker upper bound min(1, t / log2 C(n,k)) on success probability."""
    denom = log2_binom(size)
    if denom <= 0.0:
        raise ValueError("weak converse undefined when log2 C(n,k) = 0 (need 1 <= k < n)")
    if t < 0:
        raise InputError(f"test count must be >= 0, got {t}")
    return min(1.0, t / denom)


def expected_tests_floor(size: ProblemSize) -> float:
    """Lower bound log2 C(n,k) - 2 on the expected number of tests of any
    certain-recovery algorithm. May be negative for tiny instances."""
    return log2_binom(size) - 2.0


def hwang_guarantee(size: ProblemSize) -> int:
    """Worst-case test count of Hwang's generalized binary splitting:
    ceil(log2 C(n,k)) + k."""
    if size.k < 1:
        raise ValueError("guarantee requires k >= 1")
    return math.ceil(log2_binom(size)) + size.k


def rbt_guarantee(size: ProblemSize) -> int:
    """Worst-case test count of repeated binary testing: k * ceil(log2 n)."""
    if size.k < 1:
        raise ValueError("guarantee requires k >= 1")
    return size.k * ceil_log2(size.n)


def variant_guarantee(size: ProblemSize) -> float:
    """Deterministic part of the improved splitting variant's test-count bound:
    k*log2(n) + (1 + log2(ln 2))*k - log2(k!).

    The bound's random term is always <= 0 and is dropped here.
    """
    n, k = size.n, size.k
    if k < 1:
        raise ValueError("guarantee requires k >= 1")
    try:
        bound = k * math.log2(n) + (1.0 + math.log2(LN2)) * k - math.lgamma(k + 1) / LN2
    except OverflowError:  # k itself, or ln k!, beyond the float range
        bound = math.nan
    if not math.isfinite(bound):
        raise InputError("the variant's guarantee needs k log2(n) and log2(k!) within "
                         f"the float range, below {sys.float_info.max:g}")
    return bound


def comp_test_count(size: ProblemSize, delta: float) -> int:
    """Tests needed by COMP for error probability <= n^-delta:
    ceil((1+delta) * e * k * ln n)."""
    if size.k < 1:
        raise InputError("COMP count requires k >= 1")
    if not 0.0 < delta < math.inf:
        raise InputError(f"delta must be positive and finite, got {delta}")
    count = (1.0 + delta) * math.e * size.k * math.log(size.n)
    if count == math.inf:
        raise InputError(f"COMP count overflows at delta {delta}")
    return math.ceil(count)


def binary_entropy(p: float) -> float:
    """Binary entropy h(p) in bits, with h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0,1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def channel_capacity_bound(model: NoiseModel) -> float:
    """Capacity of the matching communication channel, in bits per test.

    Exact for noiseless (1) and erasure (1-p); an upper bound for the
    symmetric (1-h(p)) and additive (Z-channel) models. Endpoints p in {0,1}
    are taken by continuity.
    """
    p = model.p
    if model.kind is NoiseKind.NOISELESS:
        return 1.0
    if model.kind is NoiseKind.ERASURE:
        return 1.0 - p
    if model.kind is NoiseKind.SYMMETRIC:
        return 1.0 - binary_entropy(p)
    # Additive: log2(1 + (1-p) * p^(p/(1-p)))
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return math.log2(1.0 + (1.0 - p) * p ** (p / (1.0 - p)))


@dataclass(frozen=True)
class BoundReport:
    """All closed-form quantities for one (n, k) instance, optionally with a
    test budget and noise model. Fields that need an absent input are None."""

    log2_binom: float
    expected_tests_floor: float
    channel_capacity: float
    hwang_tests: Optional[int] = None
    rbt_tests: Optional[int] = None
    variant_tests: Optional[float] = None
    rate: Optional[float] = None
    converse: Optional[float] = None
    weak_converse: Optional[float] = None


def bound_report(size: ProblemSize, t: Optional[int] = None,
                 noise: Optional[NoiseModel] = None) -> BoundReport:
    noise = noise or NoiseModel.noiseless()
    has_k = size.k >= 1
    proper = 1 <= size.k < size.n
    return BoundReport(
        log2_binom=log2_binom(size),
        expected_tests_floor=expected_tests_floor(size),
        channel_capacity=channel_capacity_bound(noise),
        hwang_tests=hwang_guarantee(size) if has_k else None,
        rbt_tests=rbt_guarantee(size) if has_k else None,
        variant_tests=variant_guarantee(size) if has_k else None,
        rate=rate(size, t) if t is not None else None,
        converse=converse_success_bound(size, t) if t is not None else None,
        weak_converse=weak_converse_bound(size, t) if (t is not None and proper) else None,
    )
