"""Exact simulation of Clifford+T circuits, independent of borncraft.statevector.

Every amplitude lies in Z[w]/2^e with w = e^(i pi/4): it is kept as four
integer coefficients of 1, w, w^2, w^3 over one exponent e shared by the whole
state. No float is ever formed, and the gates are written on flat basis
indices, not on the statevector's axes.

- Multiplying by w maps (c0, c1, c2, c3) to (-c3, c0, c1, c2), since w^4 = -1.
  S and T multiply the |1> half by w^2 and w.
- H maps the halves to (a0 + a1)/sqrt(2) and (a0 - a1)/sqrt(2). With
  1/sqrt(2) = sqrt(2)/2 and sqrt(2) = w - w^3, that is the sum and the
  difference times w - w^3, with e raised by 1.
- CNOT and SWAP permute the basis indices.
- |z|^2 = A + B sqrt(2) for z = sum_j c_j w^j, with A = sum_j c_j^2 and
  B = c0 c1 + c1 c2 + c2 c3 - c0 c3, so every probability is exact in Q(sqrt 2).

Each coefficient is at most 2^e in size: c_j = (1/4) sum_k s_k(z) w^(-jk)
over the four Galois conjugates s_k (w -> w^k, k = 1, 3, 5, 7), and s_k(z) is
an amplitude of a unitary circuit too (H -> +-H, S -> S^k, T -> T^k), so at
most 2^e. int64 thus holds the state, with its sums before an H, up to e = 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class QSqrt2:
    """a + b sqrt(2) with rational a and b: exact arithmetic in Q(sqrt 2)."""

    a: Fraction
    b: Fraction = Fraction(0)

    @staticmethod
    def _of(v):
        if isinstance(v, QSqrt2):
            return v
        if isinstance(v, (int, Fraction)):
            return QSqrt2(Fraction(v))
        return NotImplemented

    def __add__(self, other):
        o = QSqrt2._of(other)
        return o if o is NotImplemented else QSqrt2(self.a + o.a, self.b + o.b)

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        o = QSqrt2._of(other)
        return o if o is NotImplemented else self + -o

    def __rsub__(self, other):
        o = QSqrt2._of(other)
        return o if o is NotImplemented else o + -self

    def __mul__(self, other):
        o = QSqrt2._of(other)
        if o is NotImplemented:
            return o
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def sign(self) -> int:
        """-1, 0 or 1: the sign of a + b sqrt(2), decided in integers."""
        a, b = self.a, self.b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa == sb or sb == 0:
            return sa
        if sa == 0:
            return sb
        # opposite signs: the larger of a^2 and 2 b^2 wins
        return sa if a * a > 2 * b * b else sb

    # NoisyParity checks 0 <= eta < 1
    def __lt__(self, other):
        return (self - other).sign() < 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def approx(self, bits: int = 120) -> Fraction:
        """A rational within 2^-bits * |b| of the value (sqrt 2 is floored)."""
        return self.a + self.b * Fraction(math.isqrt(2 << (2 * bits)), 1 << bits)


SQRT2 = QSqrt2(Fraction(0), Fraction(1))
# sin^2(pi/8) = (1 - cos(pi/4))/2 = (2 - sqrt 2)/4
ETA = QSqrt2(Fraction(1, 2), Fraction(-1, 4))


def _times_w(c: np.ndarray, k: int) -> np.ndarray:
    """Coefficients (leading axis of length 4) times w^k, 0 <= k < 4."""
    return np.concatenate([-c[4 - k:], c[:4 - k]]) if k else c


def exact_state(circuit) -> tuple[np.ndarray, int]:
    """(z, e): amplitude x of the circuit applied to |0...0> is
    sum_j z[j, x] w^j / 2^e, where bit q of x is qubit q."""
    n = circuit.n
    if circuit.count("H") > 60:
        raise ValueError("more than 60 H gates would overflow int64")
    idx = np.arange(1 << n)
    z = np.zeros((4, 1 << n), dtype=np.int64)
    z[0, 0] = 1
    e = 0
    for gate in circuit.gates():
        if gate.kind in ("H", "S", "T"):
            bit = 1 << gate.qubits[0]
            lo = idx[idx & bit == 0]
            hi = lo | bit
            if gate.kind == "H":
                s, d = z[:, lo] + z[:, hi], z[:, lo] - z[:, hi]
                z[:, lo] = _times_w(s, 1) - _times_w(s, 3)
                z[:, hi] = _times_w(d, 1) - _times_w(d, 3)
                e += 1
            else:
                z[:, hi] = _times_w(z[:, hi], 2 if gate.kind == "S" else 1)
        elif gate.kind == "CNOT":
            control, target = gate.qubits
            z = z[:, idx ^ (((idx >> control) & 1) << target)]
        else:
            a, b = gate.qubits
            differ = ((idx >> a) ^ (idx >> b)) & 1
            z = z[:, idx ^ (differ << a) ^ (differ << b)]
    return z, e


def exact_born(circuit) -> tuple[list[int], list[int], int]:
    """(A, B, e): the probability of basis index x is (A[x] + B[x] sqrt 2) / 4^e."""
    z, e = exact_state(circuit)
    c0, c1, c2, c3 = z.astype(object)  # Python ints: the products need 2e + 2 bits
    big_a = c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3
    big_b = c0 * c1 + c1 * c2 + c2 * c3 - c0 * c3
    return big_a.tolist(), big_b.tolist(), e


def exact_probs(circuit) -> list[QSqrt2]:
    """The Born distribution, exactly: entry x is the probability of basis index x."""
    big_a, big_b, e = exact_born(circuit)
    scale = Fraction(1, 4 ** e)
    return [QSqrt2(a * scale, b * scale) for a, b in zip(big_a, big_b)]


def exact_amplitudes(circuit) -> list[tuple[QSqrt2, QSqrt2]]:
    """(real part, imaginary part) of each amplitude, exactly. With
    w = (1 + i)/sqrt 2 and w^3 = (-1 + i)/sqrt 2, sum_j c_j w^j is
    c0 + (c1 - c3)/sqrt 2 + i (c2 + (c1 + c3)/sqrt 2), and 1/sqrt 2 = sqrt(2)/2."""
    z, e = exact_state(circuit)
    scale = Fraction(1, 2 ** e)
    return [(QSqrt2(c0 * scale, (c1 - c3) * scale / 2), QSqrt2(c2 * scale, (c1 + c3) * scale / 2))
            for c0, c1, c2, c3 in z.T.tolist()]
