"""Bit-packed linear algebra over GF(2): vectors, matrices, affine subspaces."""

from __future__ import annotations

import re
from typing import Iterator, Sequence

import numpy as np

_HEX_DIGITS = re.compile("[0-9a-fA-F]+")


def _lsb(x: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (x & -x).bit_length() - 1


def _reduce(pivots: dict[int, int], v: int) -> int:
    """Reduce v against pivot rows keyed by their bit length (top set bit + 1),
    an O(1) read; a lowest-set-bit key would build the big int -v every step."""
    while (row := pivots.get(v.bit_length())) is not None:
        v ^= row
    return v


def _build_pivots(vecs, pivots: dict[int, int] | None = None,
                  kept: list[int] | None = None) -> dict[int, int]:
    """Greedy elimination of vecs, in order, into pivots (a new dict when
    None): bit length -> reduced row. The index of each vector that is
    independent of the ones before it is appended to kept."""
    if pivots is None:
        pivots = {}
    for idx, v in enumerate(vecs):
        w = _reduce(pivots, v)
        if w:
            pivots[w.bit_length()] = w
            if kept is not None:
                kept.append(idx)
    return pivots


def _transpose(rows: Sequence[int], cols: int) -> tuple[int, ...]:
    """The len(rows) x cols bit matrix with row i = rows[i], each below 2^cols,
    read by column: bit i of out[j] is bit j of rows[i]."""
    # Unpack to one byte per bit, transpose, repack: O(rows) Python steps.
    nbytes = (cols + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), np.uint8)
    bits = np.unpackbits(raw.reshape(len(rows), nbytes), axis=1, count=cols, bitorder="little")
    # Packing a contiguous copy is faster than packing the strided view.
    packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
    out, step = packed.tobytes(), packed.shape[1]
    return tuple([int.from_bytes(out[j * step:(j + 1) * step], "little") for j in range(cols)])


class BitVec:
    """Immutable vector over GF(2); component i is bit i of ``bits``.

    Bits beyond ``n`` are masked off at construction.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("BitVec length must be nonnegative")
        self.n = n
        self.bits = bits & ((1 << n) - 1)

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVec":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_str(cls, s: str) -> "BitVec":
        """Parse "0110..."; the first character is component 0."""
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid bit character {ch!r}")
        return cls(len(s), bits)

    @classmethod
    def random(cls, rng, n: int) -> "BitVec":
        return cls(n, rng.getrandbits(n) if n else 0)

    @classmethod
    def from_hex(cls, n: int, s: str) -> "BitVec":
        """Parse hex digits, most significant first; a sign, ``0x``, ``_``,
        whitespace or a set bit at or above n is a ValueError."""
        if not _HEX_DIGITS.fullmatch(s):
            raise ValueError(f"{s!r} is not a string of hex digits")
        bits = int(s, 16)
        v = cls(n, bits)
        if v.bits != bits:
            raise ValueError(f"hex value {s!r} has a set bit at or above {n}")
        return v

    def to_hex(self) -> str:
        return format(self.bits, "x")

    def to_str(self) -> str:
        # format gives "0" for n = 0, where the string must be empty.
        return format(self.bits, f"0{self.n}b")[::-1] if self.n else ""

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch in XOR")
        return BitVec(self.n, self.bits ^ other.bits)

    def dot(self, other: "BitVec") -> int:
        """Inner product mod 2."""
        if self.n != other.n:
            raise ValueError("length mismatch in dot product")
        return (self.bits & other.bits).bit_count() & 1

    def concat(self, other: "BitVec") -> "BitVec":
        return BitVec(self.n + other.n, self.bits | (other.bits << self.n))

    def take(self, k: int) -> "BitVec":
        """First k components."""
        if not 0 <= k <= self.n:
            raise ValueError("take length out of range")
        return BitVec(k, self.bits)

    def drop(self, k: int) -> "BitVec":
        """Components k..n-1."""
        if not 0 <= k <= self.n:
            raise ValueError("drop length out of range")
        return BitVec(self.n - k, self.bits >> k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BitVec('{self.to_str()}')"


class BitMatrix:
    """rows x cols matrix over GF(2), row-major; bit j of data[i] is entry (i, j)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(data) != rows:
            raise ValueError("row count does not match data")
        mask = (1 << cols) - 1
        self.rows = rows
        self.cols = cols
        self.data = tuple(r & mask for r in data)

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, _transpose(self.data, self.cols))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def max_independent_subset(vs: Sequence[BitVec]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in input order.

    A vector is kept when it is independent of the ones before it, so the
    result does not depend on how pivots are keyed, and the indexed vectors
    span span(vs). AffineSubspace._span keeps the same subset of plain ints.
    """
    if len({v.n for v in vs}) > 1:
        raise ValueError("vectors have mixed lengths")
    out: list[int] = []
    _build_pivots([v.bits for v in vs], None, out)
    return out


def _solutions(rows, cols: int) -> AffineSubspace | None:
    """The x in F2^cols with <row, x> = bit cols of row for all rows, or None when
    the rows hold 0 = 1; bits above cols are ignored. The rows go to their
    reduced echelon form, unique for the row space: each pivot is its row's
    lowest coefficient, and no other row has it. The basis has one column per
    free variable f, in increasing order: 1 << f plus the pivots that f feeds.
    The shift sets pivots to their right-hand sides and free variables to 0.

    Each row is eliminated bit-reversed, coefficient j at bit cols - j and the
    right-hand side at bit 0, so that its bit-length key is cols + 1 - (its
    lowest coefficient) and key 1 is the row 0 = 1."""
    width = cols + 1
    mask = (1 << width) - 1
    pivots = _build_pivots(int(format(r & mask, f"0{width}b")[::-1], 2) for r in rows)
    if 1 in pivots:
        return None
    # Back-substitution in one ascending pass: each row clears the pivot bits
    # below its own, highest first, with rows already reduced, which bring in
    # no other pivot bit.
    below = 0
    for k in sorted(pivots):
        row = pivots[k]
        while hit := row & below:
            row ^= pivots[hit.bit_length()]
        pivots[k] = row
        below |= 1 << (k - 1)
    # Row c holds pivot c's row; after the transpose, t[cols - f] lists the
    # pivots that variable f feeds and t[0] is the shift.
    t = _transpose([pivots.get(width - c, 0) for c in range(cols)], width)
    # Free variable f feeds only pivots below f, so column f has bit length
    # f + 1: the lengths differ, and keyed by them the columns are their own pivots.
    vecs = [t[cols - f] | 1 << f for f in range(cols) if width - f not in pivots]
    return AffineSubspace._from_cols(cols, vecs, t[0], {v.bit_length(): v for v in vecs})


def solve(m: BitMatrix, b: BitVec) -> BitVec | None:
    """One solution x of m.x = b, or None if the system is inconsistent."""
    if b.n != m.rows:
        raise ValueError("dimension mismatch")
    sol = _solutions((m.data[i] | ((b.bits >> i) & 1) << m.cols for i in range(m.rows)), m.cols)
    return None if sol is None else sol.shift


def nullspace(m: BitMatrix) -> list[BitVec]:
    """Basis of {v : m.v = 0}, one vector per free column in increasing order."""
    return [BitVec(m.cols, c) for c in _solutions(m.data, m.cols)._cols]


class AffineSubspace:
    """A = {basis.b + shift : b in F2^dim} with independent basis columns.

    Stored as packed columns, their pivot dict (built with the set) and a
    shift; the basis matrix is built on demand. Values are immutable after
    construction apart from the sampling tables, a pure function of the
    columns filled on the first draw, so they stay safe to share.
    """

    __slots__ = ("shift", "_cols", "_pivots", "_tables")

    def __init__(self, basis: BitMatrix, shift: BitVec):
        if basis.rows != shift.n:
            raise ValueError("basis/shift dimension mismatch")
        cols = _transpose(basis.data, basis.cols)
        pivots = _build_pivots(cols)
        if len(pivots) != len(cols):
            raise ValueError("basis columns are dependent")
        self.shift = shift
        self._cols = cols
        self._pivots = pivots
        self._tables = None

    @classmethod
    def _from_cols(cls, n: int, cols: Sequence[int], shift_bits: int,
                   pivots: dict[int, int]) -> "AffineSubspace":
        """Construct from independent packed column vectors, masked to n bits,
        and pivots = _build_pivots(cols), which is never mutated after."""
        sub = object.__new__(cls)
        sub.shift = BitVec(n, shift_bits)
        sub._cols = tuple(cols)
        sub._pivots = pivots
        sub._tables = None
        return sub

    @classmethod
    def _span(cls, n: int, vecs, shift_bits: int) -> "AffineSubspace":
        """shift_bits plus the span of vecs, ints masked to n bits; a vector
        is kept as a column when it is independent of the ones before it."""
        mask = (1 << n) - 1
        vecs = [v & mask for v in vecs]
        kept: list[int] = []
        pivots = _build_pivots(vecs, None, kept)
        return cls._from_cols(n, [vecs[i] for i in kept], shift_bits, pivots)

    @classmethod
    def point(cls, t: BitVec) -> "AffineSubspace":
        return cls._span(t.n, (), t.bits)

    @classmethod
    def full(cls, n: int) -> "AffineSubspace":
        if type(n) is not int:  # a bool is an int, not a size
            raise ValueError("n must be an int")
        return cls._span(n, [1 << i for i in range(n)], 0)

    @classmethod
    def random(cls, rng, n: int, m: int) -> "AffineSubspace":
        """Uniformly shifted subspace with m independent random basis vectors."""
        if type(n) is not int or type(m) is not int:  # a bool is an int, not a size
            raise ValueError("n and m must be ints")
        if not 0 <= m <= n:
            raise ValueError("dimension out of range")
        pivots: dict[int, int] = {}
        cols: list[int] = []
        while len(cols) < m:
            v = rng.getrandbits(n)
            w = _reduce(pivots, v)
            if w:
                pivots[w.bit_length()] = w
                cols.append(v)
        return cls._from_cols(n, cols, rng.getrandbits(n) if n else 0, pivots)

    @property
    def basis(self) -> BitMatrix:
        """The n x dim matrix whose columns are the basis vectors."""
        return BitMatrix(self.n, self.dim, _transpose(self._cols, self.n))

    @property
    def n(self) -> int:
        return self.shift.n

    @property
    def dim(self) -> int:
        return len(self._cols)

    @property
    def size(self) -> int:
        return 1 << self.dim

    def contains(self, x: BitVec) -> bool:
        if x.n != self.n:
            raise ValueError("dimension mismatch")
        return _reduce(self._pivots, x.bits ^ self.shift.bits) == 0

    def _draw(self, rng, k: int) -> list[int]:
        """k members as ints, each shift + basis.b for b = rng.getrandbits(dim):
        one call per draw, and none when dim = 0."""
        cols = self._cols
        tables = self._tables
        if tables is None:
            # Method of Four Russians: table g holds the 16 XOR combinations
            # of columns 4g..4g+3, indexed by the matching 4 bits of b.
            tables = []
            for g in range(0, len(cols), 4):
                t = [0]
                for c in cols[g:g + 4]:
                    t += [x ^ c for x in t]
                tables.append(t)
            self._tables = tables
        shift = self.shift.bits
        if not cols:
            return [shift] * k
        getrandbits, dim = rng.getrandbits, len(cols)
        out = []
        for _ in range(k):
            b = getrandbits(dim)
            acc = shift
            for t in tables:
                acc ^= t[b & 15]
                b >>= 4
            out.append(acc)
        return out

    def sample(self, rng) -> BitVec:
        """One uniform member, as _draw draws it."""
        return BitVec(self.n, self._draw(rng, 1)[0])

    def elements(self) -> Iterator[BitVec]:
        """All 2^dim members, enumerated by Gray code."""
        x = self.shift.bits
        yield BitVec(self.n, x)
        for i in range(1, self.size):
            x ^= self._cols[_lsb(i)]
            yield BitVec(self.n, x)

    def same_set(self, other: "AffineSubspace") -> bool:
        """Set equality of the two subspaces."""
        if self.n != other.n or self.dim != other.dim:
            return False
        pivots = self._pivots
        if _reduce(pivots, self.shift.bits ^ other.shift.bits):
            return False
        return all(_reduce(pivots, c) == 0 for c in other._cols)

    def intersection_dim(self, other: "AffineSubspace") -> int | None:
        """dim(A intersect B), or None when the intersection is empty."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        pivots = _build_pivots(other._cols, dict(self._pivots))
        if _reduce(pivots, self.shift.bits ^ other.shift.bits):
            return None
        return self.dim + other.dim - len(pivots)

    def __repr__(self) -> str:
        return f"AffineSubspace(n={self.n}, dim={self.dim})"
