"""Stabilizer-tableau simulation of Clifford circuits.

The computational-basis support of any stabilized state is an affine subspace
with uniform probabilities; `StabTableau.support` extracts it exactly.
"""

from __future__ import annotations

from .circuit import MAX_TABLEAU_QUBITS, Circuit
from .gf2 import AffineSubspace, _build_pivots, _lsb, _solutions, _transpose


def _pauli_mul(x1: int, z1: int, r1: int, x2: int, z2: int, r2: int) -> tuple[int, int, int]:
    """Multiply two signed Pauli rows (Y encoded as x=z=1); the accumulated
    i-power must come out even, which holds for any closed stabilizer group.

    With P(x, z) = i^|x&z| X^x Z^z, moving Z^z1 past X^x2 costs (-1)^|z1&x2|,
    so P1 P2 = i^e P(x1^x2, z1^z2) with e a sum of popcounts."""
    phase = (2 * (r1 + r2 + (z1 & x2).bit_count()) + (x1 & z1).bit_count()
             + (x2 & z2).bit_count() - ((x1 ^ x2) & (z1 ^ z2)).bit_count()) % 4
    if phase & 1:
        raise AssertionError("odd i-power in stabilizer product")
    return x1 ^ x2, z1 ^ z2, phase >> 1


class StabTableau:
    """The n stabilizer rows of the state, stored by qubit; row i starts as Z_i.

    Row i is the signed Pauli (-1)^rs[i] * P(xs[i], zs[i]) with the usual
    per-qubit encoding I=(0,0), X=(1,0), Y=(1,1), Z=(0,1). There are no
    destabilizer rows: they serve measurement, and nothing here measures.
    Storage is transposed and bit-packed: bit i of ``_x[q]`` / ``_z[q]`` is
    the X / Z bit of row i on qubit q and bit i of ``_r`` is the sign of row
    i, so a gate updates all rows in a few big-int operations. ``xs``, ``zs``
    and ``rs`` are read-only row views.
    """

    __slots__ = ("n", "_x", "_z", "_r")

    def __init__(self, n: int):
        if type(n) is not int:  # a bool is an int, not a qubit count
            raise ValueError("qubit count must be an int")
        if n < 1:
            raise ValueError("need at least one qubit")
        if n > MAX_TABLEAU_QUBITS:
            raise ValueError(f"stabilizer backend limited to {MAX_TABLEAU_QUBITS} qubits")
        self.n = n
        self._x = [0] * n
        self._z = [1 << q for q in range(n)]
        self._r = 0

    @property
    def xs(self) -> tuple[int, ...]:
        return _transpose(self._x, self.n)

    @property
    def zs(self) -> tuple[int, ...]:
        return _transpose(self._z, self.n)

    @property
    def rs(self) -> tuple[int, ...]:
        return tuple((self._r >> i) & 1 for i in range(self.n))

    def apply_all(self, gates) -> None:
        """Aaronson-Gottesman update of every row at once, for each gate in
        order. A non-Clifford gate raises ValueError and leaves the tableau as
        the gates before it made it."""
        X, Z, r = self._x, self._z, self._r
        try:
            for g in gates:
                kind, qs = g.kind, g.qubits
                a = qs[0]
                if kind == "H":
                    x, z = X[a], Z[a]
                    r ^= x & z
                    X[a], Z[a] = z, x
                elif kind == "S":
                    x = X[a]
                    r ^= x & Z[a]
                    Z[a] ^= x
                elif kind == "CNOT":
                    b = qs[1]
                    xa, zb = X[a], Z[b]
                    r ^= xa & zb & ~(X[b] ^ Z[a])
                    X[b] ^= xa
                    Z[a] ^= zb
                elif kind == "SWAP":
                    b = qs[1]
                    X[a], X[b] = X[b], X[a]
                    Z[a], Z[b] = Z[b], Z[a]
                else:
                    raise ValueError(
                        f"non-Clifford gate {kind} in circuit; use the statevector backend")
        finally:
            self._r = r

    def validate(self) -> None:
        """Check that the rows generate the stabilizer group of a state: they
        commute pairwise and are independent, so -I is not a product of them.
        Raises on violation."""
        n = self.n
        xs, zs = self.xs, self.zs
        for i in range(n):
            for j in range(i + 1, n):
                if ((xs[i] & zs[j]).bit_count() + (zs[i] & xs[j]).bit_count()) & 1:
                    raise AssertionError(f"rows {i},{j} anticommute")
        if len(_build_pivots(x | z << n for x, z in zip(xs, zs))) != n:
            raise AssertionError("rows are dependent")

    def support(self) -> AffineSubspace:
        """Affine subspace A with Born probability 2^-dim(A) on A, 0 elsewhere.

        Z-only elements of the stabilizer group pin affine constraints
        <z, x> = sign bit; the constraint system's solution set is A. One
        elimination of the stabilizer rows, X part first, finds the products
        whose X parts cancel; their signed Z parts, rows z | sign << n, go
        to gf2's solution-set read-out, which gives the shift and the basis.
        """
        n = self.n
        xs, zs = self.xs, self.zs
        # Row i is xs[i] << n | 1 << i: bits 0..n-1 record which stabilizers
        # were multiplied into a row, so a pivot keyed at most n (top bit below
        # the X part) is a product whose X parts cancel.
        constraints: list[int] = []
        for key, sel in _build_pivots(xs[i] << n | 1 << i for i in range(n)).items():
            if key > n:
                continue
            x, z, r = 0, 0, 0
            while sel:
                j = _lsb(sel)
                sel &= sel - 1
                x, z, r = _pauli_mul(x, z, r, xs[j], zs[j], (self._r >> j) & 1)
            constraints.append(z | (r << n))
        support = _solutions(constraints, n)
        if support is None:
            raise AssertionError("inconsistent support constraints")
        return support


def simulate_clifford(c: Circuit) -> StabTableau:
    """Tableau stabilizing the circuit output state; rejects T gates."""
    tab = StabTableau(c.n)
    # Packing keeps each qubit's gate order and gates on disjoint qubits
    # commute, so the given order yields the same tableau as layer order.
    tab.apply_all(c.given)
    return tab
