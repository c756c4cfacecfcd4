"""Learners: affine-subspace recovery from samples, a correlation-query
baseline for parity distributions, and a brute-force noisy-parity solver
used as a small-scale verification oracle."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dist import AffineUniform, SampleOracle, StatOracle, ParityCorrelation
from .gf2 import AffineSubspace, BitVec

MAX_BRUTE_FORCE_BITS = 20


def _recover(n: int, bits: Sequence[int]) -> AffineUniform:
    """recover_affine on n-bit samples given as ints, at least one."""
    origin = bits[0]
    return AffineUniform(AffineSubspace._span(n, [x ^ origin for x in bits[1:]], origin))


def recover_affine(samples: Sequence[BitVec]) -> AffineUniform:
    """Shift all samples by the first one and span the differences.

    The recovered set always contains every sample and is exact whenever the
    shifted samples span the underlying linear part.
    """
    if not samples:
        raise ValueError("need at least one sample")
    n = samples[0].n
    if any(x.n != n for x in samples):
        raise ValueError("samples have mixed lengths")
    return _recover(n, [x.bits for x in samples])


def closure_learn(oracle: SampleOracle, n: int, delta: float) -> AffineUniform:
    """Recover an affine-subspace distribution from n + j samples, where j is
    the least integer with 2^j * delta >= 1, exactly ceil(log2(1/delta)) for the
    float delta (the failure probability is at most ~delta, with a factor-2
    slack at full dimension because the first sample only seeds the shift).
    With delta = f * 2^e and 1/2 <= f < 1 (math.frexp), j = 1 - e."""
    if type(n) is not int:  # a bool is an int, not a size
        raise ValueError("n must be an int")
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 < delta < 1 or 1.0 / delta == math.inf:
        raise ValueError("delta must lie in (0, 1), with 1/delta finite")
    if oracle.dist.n != n:
        raise ValueError("oracle sample length does not match n")
    return _recover(n, oracle.draw_bits(n + 1 - math.frexp(delta)[1]))


def sq_correlation_learner(oracle: StatOracle, k: int, budget: int, rng) -> BitVec | None:
    """Probe candidate parities with correlation queries in a seeded random
    order; return the first candidate whose response exceeds 1/2, or None
    once the query budget is spent."""
    if type(k) is not int or type(budget) is not int:  # a bool is an int, not a size
        raise ValueError("k and budget must be ints")
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
    agree(s) - disagree(s) for every s in O(k 2^k) time and two 2^k int64
    buffers of memory.

    The transform runs in constant geometry (Pease, J. ACM 1968): each of
    the k stages reads the pairs (2j, 2j+1) and writes their sum to j and
    their difference to j + 2^(k-1) of the other buffer. Every stage rotates
    the index bits right by one, so after k stages they are back in order.

    Ties break to the lexicographically smallest candidate bit string. Only
    viable at small k; the guard is a hard error.
    """
    if type(k) is not int:  # a bool is an int, not a size
        raise ValueError("k must be an int")
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
    w = np.zeros(1 << k, dtype=np.int64)
    np.add.at(w, xs, signs)
    half = 1 << (k - 1)
    out = np.empty_like(w)
    for _ in range(k):
        np.add(w[0::2], w[1::2], out=out[:half])
        np.subtract(w[0::2], w[1::2], out=out[half:])
        w, out = out, w
    ties = np.flatnonzero(w == w.max())
    # to_str() puts bit 0 first, so the smallest string is the smallest
    # bit-reversed index.
    rev = sum(((ties >> i) & 1) << (k - 1 - i) for i in range(k))
    return BitVec(k, int(ties[rev.argmin()]))
