"""Learners: affine-subspace recovery from samples, a correlation-query
baseline for parity distributions, and a brute-force noisy-parity solver
used as a small-scale verification oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dist import AffineUniform, SampleOracle, StatOracle, ParityCorrelation
from .gf2 import AffineSubspace, BitVec, max_independent_subset

MAX_BRUTE_FORCE_BITS = 20


@dataclass(frozen=True)
class LearnedAffine:
    """Recovered affine subspace plus the sample budget that produced it."""

    subspace: AffineSubspace
    samples_used: int

    def dist(self) -> AffineUniform:
        return AffineUniform(self.subspace)


def recover_affine(samples: Sequence[BitVec]) -> LearnedAffine:
    """Shift all samples by the first one and span the differences.

    The recovered set always contains every sample and is exact whenever the
    shifted samples span the underlying linear part.
    """
    if not samples:
        raise ValueError("need at least one sample")
    origin = samples[0]
    diffs = [x ^ origin for x in samples[1:]]
    pivots: dict[int, int] = {}
    idx = max_independent_subset(diffs, pivots)
    sub = AffineSubspace._from_cols(
        origin.n, tuple(diffs[i].bits for i in idx), origin.bits, pivots
    )
    return LearnedAffine(sub, len(samples))


def closure_learn(oracle: SampleOracle, n: int, delta: float) -> LearnedAffine:
    """Recover an affine-subspace distribution from n + ceil(log2(1/delta))
    samples (base-2 count; the failure probability is at most ~delta, with a
    factor-2 slack at full dimension because the first sample only seeds the
    shift)."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    k = n + math.ceil(math.log2(1.0 / delta))
    samples = []
    for _ in range(k):
        x = oracle.draw()
        if x.n != n:
            raise ValueError("oracle sample length does not match n")
        samples.append(x)
    return recover_affine(samples)


def sq_correlation_learner(oracle: StatOracle, k: int, budget: int, rng) -> BitVec | None:
    """Probe candidate parities with correlation queries in a seeded random
    order; return the first candidate whose response exceeds 1/2, or None
    once the query budget is spent."""
    if k < 1:
        raise ValueError("k must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    total = 1 << k
    # Sparse Fisher-Yates: only the queried prefix of the permutation exists.
    slots: dict[int, int] = {}
    for i in range(min(budget, total)):
        j = i + rng.randrange(total - i)
        cand = slots.get(j, j)
        slots[j] = slots.get(i, i)
        t = BitVec(k, cand)
        if oracle.query(ParityCorrelation(t)) > 0.5:
            return t
    return None


def lpn_brute_force(samples: Sequence[tuple[BitVec, int]], k: int) -> BitVec:
    """Agreement-count maximizer over all 2^k candidate parities: a fast
    Walsh-Hadamard transform of the label histogram h[x] = sum (-1)^y gives
    agree(s) - disagree(s) for every s in O(k 2^k) time and 2^k memory.

    Ties break to the lexicographically smallest candidate bit string. Only
    viable at small k; the guard is a hard error.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > MAX_BRUTE_FORCE_BITS:
        raise ValueError(f"brute force limited to {MAX_BRUTE_FORCE_BITS} bits")
    if not samples:
        return BitVec.zeros(k)
    if any(x.n != k for x, _ in samples):
        raise ValueError("sample length does not match k")
    xs = np.array([x.bits for x, _ in samples], dtype=np.int64)
    signs = np.array([1 - 2 * (y & 1) for _, y in samples], dtype=np.int64)
    w = np.bincount(xs, weights=signs, minlength=1 << k).astype(np.int64)
    for i in range(k):
        pairs = w.reshape(-1, 2, 1 << i)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi
        hi *= -2
        hi += lo
    ties = np.flatnonzero(w == w.max())
    # to_str() puts bit 0 first, so the smallest string is the smallest
    # bit-reversed index.
    rev = sum(((ties >> i) & 1) << (k - 1 - i) for i in range(k))
    return BitVec(k, int(ties[rev.argmin()]))
