"""Exactly-representable distribution families over bit strings.

Every family exposes an evaluator (exact probability mass, rational where the
parameters are rational) and a generator (sampling against a caller-supplied
RNG), plus total variation, embedding/marginalization, JSON serialization
of the kinds the package writes, and the two query oracles: counted sampling
and tolerance-tau statistical queries in exact and adversarial modes.
"""

from __future__ import annotations

import itertools
import random
import re
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .circuit import MAX_TABLEAU_QUBITS
from .gf2 import AffineSubspace, BitMatrix, BitVec, _transpose

DIST_SCHEMA = "dist_v1"

# Largest combined support enumerated by tv() and exact expectations.
_SUPPORT_BUDGET = 1 << 22

# Bits of the largest 2^n table: DenseDist, truth tables, and statevectors.
_MAX_TABLE_BITS = 20

# Allowed drift of a state's norm, and of a probability table's sum, from 1.
_NORM_TOL = 1e-10


class Dist(ABC):
    """A distribution over {0,1}^n with an exact evaluator and a generator."""

    n: int

    @abstractmethod
    def eval(self, x: BitVec):
        """Probability of x; Fraction when the parameters are rational."""

    @abstractmethod
    def sample(self, rng) -> BitVec:
        """One draw distributed per eval."""

    def sample_bits(self, rng, k: int) -> list[int]:
        """k draws as ints, consuming rng as k sample calls do."""
        return [self.sample(rng).bits for _ in range(k)]

    @property
    @abstractmethod
    def support_size(self) -> int:
        """Number of points the support iterator yields."""

    @abstractmethod
    def support(self) -> Iterator[BitVec]:
        """Every x with eval(x) > 0, without repetition."""

    def _check_len(self, x: BitVec) -> None:
        if x.n != self.n:
            raise ValueError(f"expected {self.n}-bit input, got {x.n}")


class AffineUniform(Dist):
    """Uniform distribution on an affine subspace; mass 2^-dim per member."""

    def __init__(self, subspace: AffineSubspace):
        self.subspace = subspace
        self.n = subspace.n

    def eval(self, x: BitVec) -> Fraction:
        self._check_len(x)
        return Fraction(1 if self.subspace.contains(x) else 0, self.subspace.size)

    def sample(self, rng) -> BitVec:
        return self.subspace.sample(rng)

    def sample_bits(self, rng, k: int) -> list[int]:
        return self.subspace._draw(rng, k)

    @property
    def support_size(self) -> int:
        return self.subspace.size

    def support(self) -> Iterator[BitVec]:
        return self.subspace.elements()


def uniform(n: int) -> AffineUniform:
    return AffineUniform(AffineSubspace.full(n))


def PointMass(value: BitVec) -> AffineUniform:
    """All mass on value: uniform on the 0-dimensional subspace {value}."""
    return AffineUniform(AffineSubspace.point(value))


class NoisyParity(Dist):
    """Uniform x on k bits paired with its s-parity, flipped with rate eta.

    eta may be any rational or float in [0, 1); the regime of interest is
    below 1/2, where the parity bit still carries signal.
    """

    def __init__(self, s: BitVec, eta):
        if not 0 <= eta < 1:
            raise ValueError("eta must lie in [0, 1)")
        self.s = s
        self.eta = eta
        self.k = s.n
        self.n = s.n + 1

    def eval(self, x: BitVec):
        self._check_len(x)
        base = Fraction(1, 1 << self.k)
        if x[self.k] == x.take(self.k).dot(self.s):
            return base * (1 - self.eta)
        return base * self.eta

    def sample(self, rng) -> BitVec:
        xb = rng.getrandbits(self.k)
        y = (xb & self.s.bits).bit_count() & 1
        if rng.random() < self.eta:
            y ^= 1
        return BitVec(self.n, xb | (y << self.k))

    @property
    def support_size(self) -> int:
        return (1 << self.k) if self.eta == 0 else (1 << self.n)

    def support(self) -> Iterator[BitVec]:
        if self.eta == 0:
            for xb in range(1 << self.k):
                y = (xb & self.s.bits).bit_count() & 1
                yield BitVec(self.n, xb | (y << self.k))
        else:
            for v in range(1 << self.n):
                yield BitVec(self.n, v)


class FunctionDist(Dist):
    """Pairs x ~ base with y = f(x); the evaluator vanishes off the graph."""

    def __init__(self, table: Sequence[int], base: Dist):
        if base.n > _MAX_TABLE_BITS:
            raise ValueError(f"truth tables supported up to {_MAX_TABLE_BITS} input bits")
        if len(table) != 1 << base.n:
            raise ValueError("truth table length must be 2^n")
        if any(not isinstance(v, int) or v not in (0, 1) for v in table):  # 0.0 is in (0, 1)
            raise ValueError("truth table entries must be bits")
        self.table = tuple(table)
        self.base = base
        self.n = base.n + 1

    def eval(self, x: BitVec):
        self._check_len(x)
        head = x.take(self.base.n)
        if x[self.base.n] != self.table[head.bits]:
            return Fraction(0)
        return self.base.eval(head)

    def sample(self, rng) -> BitVec:
        x = self.base.sample(rng)
        return BitVec(self.n, x.bits | (self.table[x.bits] << self.base.n))

    @property
    def support_size(self) -> int:
        return self.base.support_size

    def support(self) -> Iterator[BitVec]:
        for x in self.base.support():
            yield BitVec(self.n, x.bits | (self.table[x.bits] << self.base.n))


class Product(Dist):
    """Independent concatenation of component distributions."""

    def __init__(self, parts: Sequence[Dist]):
        if not parts:
            raise ValueError("product needs at least one component")
        self.parts = tuple(parts)
        self.n = sum(p.n for p in self.parts)

    def eval(self, x: BitVec):
        self._check_len(x)
        total = Fraction(1)
        off = 0
        for p in self.parts:
            total *= p.eval(x.drop(off).take(p.n))
            if total == 0:
                return total
            off += p.n
        return total

    def sample(self, rng) -> BitVec:
        out = BitVec(0, 0)
        for p in self.parts:
            out = out.concat(p.sample(rng))
        return out

    @property
    def support_size(self) -> int:
        total = 1
        for p in self.parts:
            total *= p.support_size
        return total

    def support(self) -> Iterator[BitVec]:
        for combo in itertools.product(*(list(p.support()) for p in self.parts)):
            out = BitVec(0, 0)
            for piece in combo:
                out = out.concat(piece)
            yield out


class DenseDist(Dist):
    """Explicit probability table over {0,1}^n; sv_distribution returns one."""

    __slots__ = ("n", "probs", "_cum")

    def __init__(self, n: int, probs: np.ndarray):
        if type(n) is not int:  # a bool is an int, not a size
            raise ValueError("n must be an int")
        if not 0 <= n <= _MAX_TABLE_BITS:
            raise ValueError(f"dense tables supported up to {_MAX_TABLE_BITS} bits, got {n}")
        try:
            probs = np.asarray(probs, dtype=float)
        except OverflowError:
            raise ValueError("probs holds a number too large for a float") from None
        if probs.shape != (1 << n,):
            raise ValueError("probability count must be 2^n")
        # Both tests are written to fail on NaN; an infinity fails the sum.
        if not probs.min() >= -1e-12:
            raise ValueError("probabilities must be finite and nonnegative")
        if not abs(probs.sum() - 1.0) <= _NORM_TOL:
            raise ValueError("probabilities do not sum to 1")
        self.n = n
        self.probs = np.clip(probs, 0.0, None)
        self._cum: np.ndarray | None = None

    def eval(self, x: BitVec) -> float:
        self._check_len(x)
        return float(self.probs[x.bits])

    def sample(self, rng) -> BitVec:
        if self._cum is None:
            self._cum = np.cumsum(self.probs)
            # The float sum can end below 1: draws past it go to the last
            # positive outcome, never to a zero-probability one after it.
            # The first positive entry of the reversed table is that outcome.
            last = len(self.probs) - 1 - int(np.argmax(self.probs[::-1] > 0))
            self._cum[last:] = np.inf
        return BitVec(self.n, int(self._cum.searchsorted(rng.random(), side="right")))

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.probs))

    def support(self) -> Iterator[BitVec]:
        for idx in np.flatnonzero(self.probs):
            yield BitVec(self.n, int(idx))


# The identity, since a DenseDist is already a Dist. The name stays because
# the benchmark workloads call dist.Dense(dd) (bench/workloads.py), and the
# benchmark's files are held fixed across library changes.
def Dense(d: DenseDist) -> DenseDist:
    return d


def _tv_affine(p: AffineUniform, q: AffineUniform) -> Fraction:
    # With |A| >= |B| and c common points, TV is
    # (c (1/|B| - 1/|A|) + (|A| - c)/|A| + (|B| - c)/|B|) / 2 = 1 - c/|A|.
    inter = p.subspace.intersection_dim(q.subspace)
    if inter is None:
        return Fraction(1)
    size = max(p.subspace.size, q.subspace.size)
    return Fraction(size - (1 << inter), size)


def tv(p: Dist, q: Dist):
    """Total variation distance, exact wherever the supports are enumerable."""
    if p.n != q.n:
        raise ValueError("distributions have different bit lengths")
    if p is q:
        return Fraction(0)
    if isinstance(p, AffineUniform) and isinstance(q, AffineUniform):
        return _tv_affine(p, q)
    if p.support_size + q.support_size <= _SUPPORT_BUDGET:
        total = 0
        seen = set()
        for x in p.support():
            seen.add(x.bits)
            total += abs(p.eval(x) - q.eval(x))
        for x in q.support():
            if x.bits not in seen:
                total += q.eval(x)
        return total / 2
    raise ValueError("tv infeasible for this pair of distributions")


def embed(d: Dist, n: int) -> Dist:
    """Pad to n bits with a point mass at zero on the trailing bits."""
    if type(n) is not int:  # a bool is an int, not a size
        raise ValueError("n must be an int")
    if n < d.n:
        raise ValueError("cannot embed into fewer bits")
    if n == d.n:
        return d
    return Product((d, PointMass(BitVec.zeros(n - d.n))))


def marginalize(d: Dist, k: int) -> Dist:
    """Marginal of the first k bits; inverts embed on embedded distributions."""
    if type(k) is not int:  # a bool is an int, not a size
        raise ValueError("k must be an int")
    if not 0 <= k <= d.n:
        raise ValueError("marginal length out of range")
    if k == d.n:
        return d
    if isinstance(d, Product):
        kept: list[Dist] = []
        acc = 0
        for part in d.parts:
            if acc + part.n <= k:
                kept.append(part)
                acc += part.n
                if acc == k:
                    break
            else:
                kept.append(marginalize(part, k - acc))
                break
        if len(kept) == 1:
            return kept[0]
        return Product(kept)
    if isinstance(d, AffineUniform):
        return AffineUniform(AffineSubspace._span(k, d.subspace._cols, d.subspace.shift.bits))
    if isinstance(d, NoisyParity):
        return uniform(k)
    if isinstance(d, FunctionDist):
        return marginalize(d.base, k)
    if isinstance(d, DenseDist):
        return DenseDist(k, d.probs.reshape(1 << (d.n - k), 1 << k).sum(axis=0))
    raise ValueError(f"marginalization not supported for {type(d).__name__}")


# --- serialization (schema "dist_v1") -------------------------------------


def _eta_to_json(eta):
    # A float zero stays a float, so the loaded eval keeps float arithmetic.
    if eta == 0 and not isinstance(eta, float):
        return 0
    if isinstance(eta, Fraction):
        return f"{eta.numerator}/{eta.denominator}"
    return float(eta)


# What _eta_to_json writes; int() alone would also take signs, spaces and "_".
_ETA_FRACTION = re.compile("[0-9]+/[0-9]+")


def _eta_from_json(v):
    if isinstance(v, str):
        try:
            if not _ETA_FRACTION.fullmatch(v):
                raise ValueError
            num, den = v.split("/")
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{DIST_SCHEMA} field 'eta' is not a fraction: {v!r}") from None
    return v


def dist_to_json(d: Dist) -> dict:
    if isinstance(d, AffineUniform):
        sub = d.subspace
        return {
            "schema": DIST_SCHEMA,
            "kind": "affine_uniform",
            "n": sub.n,
            "dim": sub.dim,
            "basis_rows": [format(row, "x") for row in _transpose(sub._cols, sub.n)],
            "shift": sub.shift.to_hex(),
        }
    if isinstance(d, NoisyParity):
        return {
            "schema": DIST_SCHEMA,
            "kind": "noisy_parity",
            "k": d.k,
            "s": d.s.to_hex(),
            "eta": _eta_to_json(d.eta),
        }
    if isinstance(d, DenseDist):
        return {
            "schema": DIST_SCHEMA,
            "kind": "dense",
            "n": d.n,
            "probs": d.probs.tolist(),
        }
    raise ValueError(f"cannot serialize {type(d).__name__}")


def _of_type(v, types) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(v, types) and not isinstance(v, bool)


class _Fields(dict):
    """A dist_v1 object whose missing or wrong-typed fields raise ValueError,
    not KeyError or TypeError."""

    def __missing__(self, key):
        raise ValueError(f"{DIST_SCHEMA} object is missing field {key!r}")

    def typed(self, key: str, types, items=None):
        """Field key, checked to be of types; a list's entries of items."""
        v = self[key]
        if not _of_type(v, types) or (items is not None and not all(_of_type(x, items) for x in v)):
            raise ValueError(f"{DIST_SCHEMA} field {key!r} has the wrong type")
        return v


def _hex_field(key: str, width: int, s: str) -> BitVec:
    try:
        return BitVec.from_hex(width, s)
    except ValueError as e:
        raise ValueError(f"{DIST_SCHEMA} field {key!r}: {e}") from None


def _bit_count(obj: _Fields, key: str) -> int:
    """Field key as a vector width, refused before a BitVec that wide is
    built when it exceeds the widest circuit any backend simulates."""
    v = obj.typed(key, int)
    if v > MAX_TABLEAU_QUBITS:
        raise ValueError(f"{DIST_SCHEMA} field {key!r} is wider than {MAX_TABLEAU_QUBITS} bits")
    return v


def dist_from_json(obj: dict) -> Dist:
    if not isinstance(obj, dict):
        raise ValueError(f"{DIST_SCHEMA} object must be a JSON object")
    if obj.get("schema") != DIST_SCHEMA:
        raise ValueError(f"unsupported schema {obj.get('schema')!r}")
    obj = _Fields(obj)
    kind = obj.typed("kind", str)
    if kind == "affine_uniform":
        n, dim = _bit_count(obj, "n"), obj.typed("dim", int)
        rows = obj.typed("basis_rows", list, str)
        # Before any row is unpacked dim bits wide; independent columns give dim <= n.
        if len(rows) != n or not 0 <= dim <= n:
            raise ValueError(f"{DIST_SCHEMA} affine_uniform needs n basis rows and 0 <= dim <= n")
        basis = BitMatrix(n, dim, [_hex_field("basis_rows", dim, r).bits for r in rows])
        return AffineUniform(AffineSubspace(basis, _hex_field("shift", n, obj.typed("shift", str))))
    if kind == "noisy_parity":
        s = _hex_field("s", _bit_count(obj, "k"), obj.typed("s", str))
        return NoisyParity(s, _eta_from_json(obj.typed("eta", (int, float, str))))
    if kind == "dense":
        return DenseDist(obj.typed("n", int), obj.typed("probs", list, (int, float)))
    raise ValueError(f"unknown dist kind {kind!r}")


# --- oracles ---------------------------------------------------------------


class SampleOracle:
    """Query-counted sampling access to a distribution."""

    def __init__(self, dist: Dist, rng):
        self.dist = dist
        self.rng = rng
        self.queries = 0

    def draw(self) -> BitVec:
        self.queries += 1
        return self.dist.sample(self.rng)

    def draw_bits(self, k: int) -> list[int]:
        """k draws as ints, counted and consuming rng as k draw calls do."""
        if type(k) is not int or k < 0:  # a bool is an int, not a count
            raise ValueError("k must be a nonnegative int")
        self.queries += k
        return self.dist.sample_bits(self.rng, k)


class ParityCorrelation:
    """phi(x, y) = (-1)^(y + t.x): +1 when the last bit matches the t-parity
    of the first len(t) bits. Recognized by StatOracle for closed-form
    expectations against parity-style distributions."""

    __slots__ = ("t",)

    def __init__(self, t: BitVec):
        self.t = t

    def __call__(self, xy: BitVec) -> int:
        k = self.t.n
        if xy.n != k + 1:
            raise ValueError("input length must be len(t)+1")
        return 1 - 2 * (xy[k] ^ xy.take(k).dot(self.t))


def _expectation(dist: Dist, phi: Callable[[BitVec], float]):
    """Exact E[phi(x)] under dist."""
    if isinstance(phi, ParityCorrelation):
        if isinstance(dist, NoisyParity) and dist.k == phi.t.n:
            return (1 - 2 * dist.eta) * (1 if dist.s == phi.t else 0)
    if dist.support_size > _SUPPORT_BUDGET:
        raise ValueError("support too large for an exact expectation")
    total = 0
    for x in dist.support():
        total += dist.eval(x) * phi(x)
    return total


class StatOracle:
    """Tolerance-tau statistical-query access to a distribution.

    Modes:
      exact        responds with the true expectation;
      adversarial  true expectation plus a deterministic perturbation of
                   magnitude exactly tau, signed by a stream keyed to
                   adversary_seed (reproducible worst-ish-case responses).

    Any tau in (0, 1) is accepted; responses are only informative for
    tolerances that are not exponentially small in the string length.
    """

    def __init__(self, dist: Dist, tau: float, mode: str = "exact", *, adversary_seed: int = 0):
        if not 0 < tau < 1:
            raise ValueError("tau must lie in (0, 1)")
        if mode not in ("exact", "adversarial"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.dist = dist
        self.tau = tau
        self.mode = mode
        self._adv_rng = random.Random(adversary_seed)
        self.queries = 0

    def query(self, phi: Callable[[BitVec], float]):
        """Respond with v such that |E[phi] - v| <= tau."""
        self.queries += 1
        truth = _expectation(self.dist, phi)
        if self.mode == "exact":
            return truth
        sign = 1 if self._adv_rng.getrandbits(1) else -1
        return truth + self.tau * sign
