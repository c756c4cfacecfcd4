"""Tests for the GF(2) substrate, checked against exhaustive span oracles."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from borncraft.circuit import random_circuit
from borncraft.dist import AffineUniform, dist_from_json, dist_to_json, marginalize, tv
from borncraft.gf2 import (
    AffineSubspace,
    BitMatrix,
    BitVec,
    _build_pivots,
    _solutions,
    _transpose,
    max_independent_subset,
    nullspace,
    solve,
)
from borncraft.learn import recover_affine
from borncraft.stabilizer import simulate_clifford
from borncraft.statevector import sv_distribution


def brute_span(vec_bits):
    """All XOR combinations of the given packed vectors."""
    span = {0}
    for v in vec_bits:
        span |= {x ^ v for x in span}
    return span


def brute_affine(cols, shift):
    return {x ^ shift for x in brute_span(cols)}


def _lowest_bit_rref(rows):
    """Gauss-Jordan on packed rows, each pivot its row's lowest set bit and
    no other row having it: {pivot column: row}."""
    rref: dict[int, int] = {}
    for r in rows:
        for c, p in rref.items():
            if (r >> c) & 1:
                r ^= p
        if r:
            c = (r & -r).bit_length() - 1
            rref = {c2: p ^ r if (p >> c) & 1 else p for c2, p in rref.items()}
            rref[c] = r
    return rref


def _mul_vec(m, x):
    """m times the column vector with bits x: bit i is <row i, x> mod 2."""
    return sum(((r & x).bit_count() & 1) << i for i, r in enumerate(m.data))


def _combination(rng, base):
    """XOR of a random subset of base."""
    x = 0
    for b in base:
        if rng.random() < 0.5:
            x ^= b
    return x


# --- BitVec -----------------------------------------------------------------


def test_bitvec_roundtrips():
    v = BitVec.from_str("01101")
    assert v.to_str() == "01101"
    assert len(v) == 5
    assert [v[i] for i in range(5)] == [0, 1, 1, 0, 1]
    assert BitVec.from_hex(5, v.to_hex()) == v


def test_bitvec_ops():
    a = BitVec.from_str("1100")
    b = BitVec.from_str("1010")
    assert (a ^ b).to_str() == "0110"
    assert a.dot(b) == 1
    assert a.dot(a) == 0
    assert a.concat(b).to_str() == "11001010"
    assert a.concat(b).take(4) == a
    assert a.concat(b).drop(4) == b
    with pytest.raises(ValueError):
        a ^ BitVec.from_str("111")
    with pytest.raises(IndexError):
        a[4]


def test_bitvec_masks_excess_bits():
    v = BitVec(3, 0b11111)
    assert v.bits == 0b111
    assert BitVec(0, 123).bits == 0


# --- rank -------------------------------------------------------------------



@settings(max_examples=300, deadline=None)
@given(st.data())
def test_to_str_matches_per_bit_definition(data):
    n = data.draw(st.one_of(st.integers(0, 300), st.just(4096)), label="n")
    v = BitVec(n, data.draw(st.integers(0, (1 << n) - 1), label="bits"))
    s = v.to_str()
    assert s == "".join("1" if (v.bits >> i) & 1 else "0" for i in range(n))
    assert BitVec.from_str(s) == v

def test_rank_identity():
    assert len(_build_pivots(BitMatrix(3, 3, [0b001, 0b010, 0b100]).data)) == 3


def test_rank_zero_matrix():
    assert len(_build_pivots(BitMatrix(4, 4, [0] * 4).data)) == 0


def test_rank_dependent_rows():
    # 110 XOR 011 = 101, so only two independent rows.
    m = BitMatrix(3, 3, [BitVec.from_str(s).bits for s in ("110", "011", "101")])
    assert BitVec.from_str("110").bits ^ BitVec.from_str("011").bits == BitVec.from_str("101").bits
    assert len(_build_pivots(m.data)) == 2


def test_rank_matches_brute_force_span():
    rng = random.Random(2024)
    for _ in range(200):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 10)
        data = [rng.getrandbits(cols) for _ in range(rows)]
        m = BitMatrix(rows, cols, data)
        assert (1 << len(_build_pivots(m.data))) == len(brute_span(data))


# --- max_independent_subset ---------------------------------------------------


def test_mis_all_zero():
    vs = [BitVec.zeros(4) for _ in range(3)]
    assert max_independent_subset(vs) == []


def test_mis_standard_basis():
    vs = [BitVec(5, 1 << i) for i in range(5)]
    assert max_independent_subset(vs) == [0, 1, 2, 3, 4]


def test_mis_dependent_triple():
    vs = [BitVec.from_str(s) for s in ("110", "011", "101")]
    assert max_independent_subset(vs) == [0, 1]


def test_mis_properties():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 9)
        count = rng.randrange(0, 10)
        vs = [BitVec(n, rng.getrandbits(n)) for _ in range(count)]
        idx = max_independent_subset(vs)
        assert idx == sorted(idx)
        chosen = [vs[i].bits for i in idx]
        # chosen vectors are independent and span the full set
        assert len(brute_span(chosen)) == 1 << len(idx)
        assert brute_span(chosen) == brute_span([v.bits for v in vs])
        # re-submitting the subset reproduces the rank of the full set
        if vs:
            full = BitMatrix(len(vs), n, [v.bits for v in vs])
            sub = BitMatrix(len(idx), n, [vs[i].bits for i in idx])
            assert len(_build_pivots(sub.data)) == len(_build_pivots(full.data)) == len(idx)


def _raises_rank(vecs):
    """Indices i with rank(vecs[:i + 1]) > rank(vecs[:i])."""
    rref: dict[int, int] = {}
    out = []
    for i, v in enumerate(vecs):
        before = len(rref)
        rref = _lowest_bit_rref(list(rref.values()) + [v])
        if len(rref) > before:
            out.append(i)
    return out


@pytest.mark.parametrize("n", [64, 130])
def test_kept_indices_are_the_rank_raising_prefix_steps(n):
    rng = random.Random(n)
    for dim in (0, 1, n // 2, n - 1, n):
        base = [rng.getrandbits(n) for _ in range(dim)]
        # Zeros, repeats and combinations of the base; _span also gets bits above n.
        vecs = [0] + base[:3] + base
        vecs += [_combination(rng, base) for _ in range(n // 4)]
        rng.shuffle(vecs)
        kept = _raises_rank(vecs)
        assert max_independent_subset([BitVec(n, v) for v in vecs]) == kept
        wide = [v | rng.getrandbits(3) << n for v in vecs]
        shift = rng.getrandbits(n + 3)
        assert AffineSubspace._span(n, wide, shift)._cols == tuple(vecs[i] for i in kept)
        origin = rng.getrandbits(n)
        pts = [BitVec(n, origin)] + [BitVec(n, v ^ origin) for v in vecs]
        sub = recover_affine(pts).subspace
        assert sub._cols == tuple(vecs[i] for i in kept) and sub.shift.bits == origin
        assert all(k == row.bit_length() for k, row in sub._pivots.items())
        assert len(kept) == len(_lowest_bit_rref(base))


# --- solve / nullspace --------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_solve_and_nullspace(data):
    # Every x in F2^cols is tried, so inconsistent systems and set equality
    # are checked exactly, the empty shapes included.
    cols = data.draw(st.integers(0, 8), label="cols")
    rows = data.draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=8), label="rows")
    m = BitMatrix(len(rows), cols, rows)
    b = BitVec(len(rows), data.draw(st.integers(0, (1 << len(rows)) - 1), label="b"))
    solutions = {x for x in range(1 << cols) if _mul_vec(m, x) == b.bits}
    shift, basis = solve(m, b), nullspace(m)
    # A column is a pivot when some vector of the row space has its lowest set bit there.
    pivots = {v & -v for v in brute_span(rows) if v}
    free = [1 << f for f in range(cols) if 1 << f not in pivots]
    assert [v.bits & sum(free) for v in basis] == free
    if not solutions:
        assert shift is None
    else:
        assert shift.bits & sum(free) == 0
        assert brute_affine([v.bits for v in basis], shift.bits) == solutions


def test_solve_inconsistent():
    m = BitMatrix(2, 2, [BitVec.from_str("10").bits] * 2)
    assert solve(m, BitVec.from_str("10")) is None


def _wide_systems(cols, seed):
    """Seeded rows of cols + 1 bits, the right-hand side at bit cols: random,
    dependent, consistent and inconsistent systems of 0 to cols + 3 rows."""
    rng = random.Random(seed)
    top = 1 << cols
    systems = [[], [top], [0, 0]]
    for count in (1, cols // 2, cols - 1, cols, cols + 3):
        systems.append([rng.getrandbits(cols + 1) for _ in range(count)])
        base = [rng.getrandbits(cols + 1) for _ in range(max(1, count // 3))]
        dep = base + [_combination(rng, base) for _ in range(count)]
        systems.append(dep)
        # The same coefficients with one right-hand side flipped: a dependent
        # row now holds 0 = 1 unless it is independent of the others.
        systems.append(dep[:-1] + [dep[-1] ^ top])
        x0 = rng.getrandbits(cols)
        systems.append([r & (top - 1) | ((r & x0).bit_count() & 1) << cols for r in dep])
    return systems


@pytest.mark.parametrize("cols", [63, 64, 65, 130])
def test_solutions_match_lowest_bit_elimination_at_wide_widths(cols):
    top = 1 << cols
    for seed in range(4):
        for rows in _wide_systems(cols, cols * 100 + seed):
            rref = _lowest_bit_rref(rows)
            free = [f for f in range(cols) if f not in rref]
            # Column f: 1 << f plus the pivots whose rows have f; the shift:
            # the pivots whose rows have a right-hand side of 1.
            cols_ref = tuple(1 << f | sum(1 << c for c, p in rref.items() if (p >> f) & 1)
                             for f in free)
            shift_ref = sum(1 << c for c, p in rref.items() if c < cols and p & top)
            sol = _solutions(rows, cols)
            # Bits above the right-hand side are ignored.
            wide = _solutions([r | 0b101 << (cols + 1) for r in rows], cols)
            m = BitMatrix(len(rows), cols, rows)
            b = BitVec(len(rows), sum(((r >> cols) & 1) << i for i, r in enumerate(rows)))
            # cols_ref reads no right-hand side, so it is nullspace's answer too.
            basis = nullspace(m)
            assert [v.bits & sum(1 << f for f in free) for v in basis] == [1 << f for f in free]
            assert tuple(v.bits for v in basis) == cols_ref
            if cols in rref:
                assert sol is None and wide is None and solve(m, b) is None
                continue
            for got in (sol, wide):
                assert got._cols == cols_ref and got.shift.bits == shift_ref
            assert solve(m, b).bits == shift_ref
            assert shift_ref & sum(1 << f for f in free) == 0
            assert _mul_vec(m, shift_ref) == b.bits
            assert all(_mul_vec(m, v.bits) == 0 for v in basis)


def _check_pivots(sub):
    """The subspace's pivots are those its columns build, keyed by bit length."""
    assert sub._pivots == _build_pivots(sub._cols)
    assert all(key == row.bit_length() for key, row in sub._pivots.items())


def _parity(x):
    return x.bit_count() & 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solutions_read_out_is_the_solution_set_with_its_pivots(data):
    cols = data.draw(st.integers(0, 130), label="cols")
    kind = data.draw(st.sampled_from(["rank 0", "full rank", "random", "inconsistent"]),
                     label="kind")
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    top = 1 << cols
    if kind == "rank 0":
        rows = [0] * data.draw(st.integers(0, 3))
    elif kind == "full rank":
        # Row j has its lowest coefficient at j; shuffled, with random right-hand sides.
        rows = [rng.getrandbits(cols + 1) >> (j + 1) << (j + 1) | 1 << j for j in range(cols)]
        rng.shuffle(rows)
    else:
        count = data.draw(st.integers(0, cols + 3))
        rows = [rng.getrandbits(cols + 1) for _ in range(count)]
        if kind == "inconsistent":
            # A combination of the rows with its right-hand side flipped holds 0 = 1.
            rows.append(_combination(rng, rows) ^ top)
    coeffs = [r & (top - 1) for r in rows]
    consistent = len(_build_pivots(coeffs)) == len(_build_pivots(r & (2 * top - 1) for r in rows))
    sol = _solutions(rows, cols)
    if not consistent:
        assert kind != "full rank" and sol is None
        return
    _check_pivots(sol)
    # shift + span(cols) solves the system and has the solution set's dimension.
    assert sol.n == cols and sol.dim == cols - len(_build_pivots(coeffs))
    for r, c in zip(rows, coeffs):
        assert _parity(c & sol.shift.bits) == (r >> cols) & 1
        assert all(_parity(c & v) == 0 for v in sol._cols)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 130), layers=st.integers(0, 12), rng=st.randoms(use_true_random=False))
def test_support_read_out_keeps_its_pivots(n, layers, rng):
    _check_pivots(simulate_clifford(random_circuit(rng, n, layers)).support())


@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 130])
def test_support_and_read_out_build_no_bit_matrix(n, monkeypatch):
    # The Clifford path transposes int rows through _transpose; a BitMatrix
    # is built only where the public API takes or returns one.
    rng = random.Random(n)
    tabs = [simulate_clifford(random_circuit(rng, n, layers)) for layers in (0, 1, 4, 12)]
    systems = _wide_systems(n, n)

    def outputs():
        read_outs = [_solutions(rows, n) for rows in systems]
        return ([dist_to_json(AffineUniform(t.support())) for t in tabs],
                [sol and (sol._cols, sol.shift) for sol in read_outs])

    expected = outputs()

    def fail(*args, **kwargs):
        raise AssertionError("a BitMatrix was built")

    monkeypatch.setattr(BitMatrix, "__init__", fail)
    assert outputs() == expected


# --- BitMatrix ----------------------------------------------------------------


def test_transpose_and_cols():
    rng = random.Random(3)
    for _ in range(50):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
        t = m.transpose()
        assert t.rows == cols and t.cols == rows
        for i in range(rows):
            for j in range(cols):
                assert (m.data[i] >> j) & 1 == (t.data[j] >> i) & 1
        assert t.transpose() == m



@settings(max_examples=60, deadline=None)
@given(st.integers(0, 200), st.integers(0, 200), st.randoms(use_true_random=False))
def test_transpose_matches_entrywise_definition(rows, cols, rng):
    data = [rng.getrandbits(cols) for _ in range(rows)]
    t = BitMatrix(rows, cols, data).transpose()
    expected = tuple(sum(((r >> j) & 1) << i for i, r in enumerate(data)) for j in range(cols))
    assert (t.rows, t.cols) == (cols, rows)
    assert t.data == expected
    assert _transpose(data, cols) == expected


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 130])
def test_from_cols_matches_entrywise_definition(rows):
    rng = random.Random(rows)
    for ncols in (0, 1, 7, rows, rows + 3):
        # dense random columns plus sparse ones with a single or no set bit
        vs = [BitVec.random(rng, rows) for _ in range(ncols)]
        vs += [BitVec(rows, 1 << rng.randrange(rows)), BitVec.zeros(rows),
               BitVec.ones(rows)]
        # The matrix with columns vs is the transpose of the one with rows vs.
        m = BitMatrix(len(vs), rows, [v.bits for v in vs]).transpose()
        expected = [0] * rows
        for j, v in enumerate(vs):
            for i in range(rows):
                if v[i]:
                    expected[i] |= 1 << j
        assert (m.rows, m.cols) == (rows, len(vs))
        assert m.data == tuple(expected)


# --- AffineSubspace -----------------------------------------------------------


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        AffineSubspace(
            BitMatrix(2, 2, [BitVec.from_str("10").bits] * 2).transpose(),
            BitVec.zeros(2),
        )


def test_subspace_point_and_full():
    p = AffineSubspace.point(BitVec.from_str("011"))
    assert p.dim == 0 and p.size == 1
    assert list(p.elements()) == [BitVec.from_str("011")]
    f = AffineSubspace.full(3)
    assert f.dim == 3 and f.size == 8
    assert {x.bits for x in f.elements()} == set(range(8))


def test_subspace_membership_and_elements():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 8)
        m = rng.randrange(0, n + 1)
        sub = AffineSubspace.random(rng, n, m)
        assert sub.dim == m
        members = {x.bits for x in sub.elements()}
        assert len(members) == sub.size
        assert members == brute_affine(sub._cols, sub.shift.bits)
        for _ in range(8):
            x = BitVec(n, rng.getrandbits(n))
            assert sub.contains(x) == (x.bits in members)


def test_subspace_sampling_stays_inside():
    rng = random.Random(123)
    sub = AffineSubspace.random(rng, 10, 4)
    members = {x.bits for x in sub.elements()}
    for _ in range(2000):
        assert sub.sample(rng).bits in members


def test_same_set_and_intersection():
    rng = random.Random(42)
    for _ in range(80):
        n = rng.randrange(1, 7)
        a = AffineSubspace.random(rng, n, rng.randrange(0, n + 1))
        b = AffineSubspace.random(rng, n, rng.randrange(0, n + 1))
        sa = {x.bits for x in a.elements()}
        sb = {x.bits for x in b.elements()}
        assert a.same_set(b) == (sa == sb)
        inter = sa & sb
        if inter:
            assert a.intersection_dim(b) == len(inter).bit_length() - 1
            assert 1 << a.intersection_dim(b) == len(inter)
        else:
            assert a.intersection_dim(b) is None
        assert a.same_set(a)


def test_same_set_equal_but_different_parametrization():
    # span{e1, e2} shifted by a member equals span{e1, e1+e2} unshifted
    a = AffineSubspace(
        BitMatrix(2, 3, [BitVec.from_str(s).bits for s in ("100", "010")]).transpose(),
        BitVec.from_str("110"),
    )
    b = AffineSubspace(
        BitMatrix(2, 3, [BitVec.from_str(s).bits for s in ("100", "110")]).transpose(),
        BitVec.zeros(3),
    )
    assert a.same_set(b) and b.same_set(a)


@st.composite
def _related_pairs(draw):
    """(a, b, whether a and b are the same set, or None when the kind of
    pair leaves it open) in F2^n, n up to 130."""
    n = draw(st.integers(0, 130), label="n")
    rng = draw(st.randoms(use_true_random=False), label="rng")
    a = AffineSubspace.random(rng, n, draw(st.integers(0, n), label="dim"))
    kind = draw(st.sampled_from(["rebased", "recovered", "coset", "other dim", "random"]),
                label="kind")
    if kind == "rebased":
        # Unitriangular combinations of a's columns, shuffled, and a member as shift.
        cols = [c ^ _combination(rng, a._cols[:i]) for i, c in enumerate(a._cols)]
        rng.shuffle(cols)
        return a, AffineSubspace._span(n, cols, a.sample(rng).bits), True
    if kind == "recovered":
        # A subset of a, as recover_affine builds it from a's samples.
        points = [a.sample(rng) for _ in range(draw(st.integers(1, a.dim + 2)))]
        b = recover_affine(points).subspace
        return a, b, b.dim == a.dim
    if kind == "coset":
        shift = a.shift.bits ^ (rng.getrandbits(n) if n else 0)
        return a, AffineSubspace._span(n, a._cols, shift), a.contains(BitVec(n, shift))
    if kind == "other dim" and n:
        m = draw(st.integers(0, n).filter(lambda m: m != a.dim), label="other dim")
        return a, AffineSubspace.random(rng, n, m), False
    return a, AffineSubspace.random(rng, n, a.dim), None


@settings(max_examples=400, deadline=None)
@given(_related_pairs())
def test_tv_is_zero_exactly_for_the_same_set(pair):
    # recovery_trial and learn closure read success as tv == 0.
    a, b, same = pair
    d = tv(AffineUniform(a), AffineUniform(b))
    assert type(d) is Fraction and d == tv(AffineUniform(b), AffineUniform(a))
    assert (d == 0) == a.same_set(b) == b.same_set(a)
    if same is not None:
        assert a.same_set(b) == same
    # So float(d) is 0.0 only for d == 0.
    assert d == 0 or d >= Fraction(1, 2)


# --- AffineSubspace against enumeration, over every construction path ------------


def _brute_affine_span(points):
    """The smallest affine subspace holding the points, as a set."""
    return {x ^ points[0] for x in brute_span([p ^ points[0] for p in points[1:]])}


_PATHS = ["init", "span", "point", "full", "solutions", "random", "recover_affine", "support",
          "marginalize", "json"]


@st.composite
def built_subspaces(draw, n, paths=tuple(_PATHS)):
    """(subspace of F2^n, a function that computes its member set without the
    subspace), built through one of the construction paths."""
    rng = draw(st.randoms(use_true_random=False))
    path = draw(st.sampled_from(paths))
    if path in ("init", "json"):
        src = AffineSubspace.random(rng, n, draw(st.integers(0, n)))
        if path == "init":
            sub = AffineSubspace(BitMatrix(src.dim, n, src._cols).transpose(), src.shift)
        else:
            sub = dist_from_json(json.loads(json.dumps(dist_to_json(AffineUniform(src))))).subspace
        return sub, lambda: brute_affine(src._cols, src.shift.bits)
    if path == "span":
        # Repeats, dependent vectors and bits at or above n included.
        vecs = draw(st.lists(st.integers(0, (1 << (n + 2)) - 1), max_size=n + 3))
        shift = draw(st.integers(0, (1 << (n + 2)) - 1))
        mask = (1 << n) - 1
        return (AffineSubspace._span(n, vecs, shift),
                lambda: brute_affine([v & mask for v in vecs], shift & mask))
    if path == "point":
        t = draw(st.integers(0, (1 << n) - 1))
        return AffineSubspace.point(BitVec(n, t)), lambda: {t}
    if path == "full":
        return AffineSubspace.full(n), lambda: set(range(1 << n))
    if path == "solutions":
        # A consistent system <row, x> = <row, x0>, read out as solve and nullspace do.
        x0 = draw(st.integers(0, (1 << n) - 1))
        rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
        return (_solutions([r | ((r & x0).bit_count() & 1) << n for r in rows], n),
                lambda: {x for x in range(1 << n) if all(
                    (r & x).bit_count() % 2 == (r & x0).bit_count() % 2 for r in rows)})
    if path == "random":
        sub = AffineSubspace.random(rng, n, draw(st.integers(0, n)))
        return sub, lambda: brute_affine(sub._cols, sub.shift.bits)
    if path == "recover_affine":
        # Repeats and dependent differences included.
        pts = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n + 3))
        sub = recover_affine([BitVec(n, p) for p in pts]).subspace
        return sub, lambda: _brute_affine_span(pts)
    if path == "support":
        circuit = random_circuit(rng, n, draw(st.integers(0, 6)))
        return (simulate_clifford(circuit).support(),
                lambda: {x for x, p in enumerate(sv_distribution(circuit).probs) if p > 1e-9})
    extra = draw(st.integers(1, 3))
    big = AffineSubspace.random(rng, n + extra, draw(st.integers(0, n + extra)))
    sub = marginalize(AffineUniform(big), n).subspace
    return sub, lambda: {x & ((1 << n) - 1) for x in brute_affine(big._cols, big.shift.bits)}


@st.composite
def subspaces(draw, n):
    """(subspace of F2^n, its member set computed without the subspace), built
    through one of the construction paths."""
    sub, members = draw(built_subspaces(n))
    return sub, members()


_OPS = ["contains", "eval", "elements", "same_set", "same_set_rev", "inter", "inter_rev", "dim"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subspace_methods_match_enumeration_on_every_path(data):
    n = data.draw(st.integers(1, 8), label="n")
    a, sa = data.draw(subspaces(n), label="a")
    if data.draw(st.booleans(), label="b re-expresses a"):
        # Same set through other columns: recovery from a's shuffled members.
        pts = data.draw(st.permutations(sorted(sa)), label="a's members")
        b, sb = recover_affine([BitVec(n, x) for x in pts]).subspace, sa
    else:
        b, sb = data.draw(subspaces(n), label="b")
    # Every path builds the pivot dict of its columns with the set.
    for sub in (a, b):
        _check_pivots(sub)
    # Run every check twice, in a drawn order, so that a call which changed
    # the pivot dict would show in a later call.
    ops = data.draw(st.permutations(_OPS * 2), label="ops")
    for op in ops:
        if op in ("contains", "eval"):
            xs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
            for x in xs + sorted(sa)[:4] + sorted(sb)[:4]:
                for sub, members in ((a, sa), (b, sb)):
                    if op == "contains":
                        assert sub.contains(BitVec(n, x)) == (x in members)
                    else:
                        p = AffineUniform(sub).eval(BitVec(n, x))
                        assert type(p) is Fraction
                        assert p == (Fraction(1, 2 ** sub.dim) if x in members else 0)
        elif op == "elements":
            for sub, members in ((a, sa), (b, sb)):
                got = [x.bits for x in sub.elements()]
                assert len(got) == sub.size and set(got) == members
        elif op == "dim":
            assert (1 << a.dim, 1 << b.dim) == (len(sa), len(sb))
        elif op.startswith("same_set"):
            x, y = (a, b) if op == "same_set" else (b, a)
            assert x.same_set(y) == (sa == sb)
        else:
            x, y = (a, b) if op == "inter" else (b, a)
            common = sa & sb
            assert x.intersection_dim(y) == (len(common).bit_length() - 1 if common else None)


# --- AffineSubspace.sample against the per-bit loop --------------------------------


def _reference_sample(sub, rng):
    """shift ^ XOR of cols[j] over the set bits j of one getrandbits(dim)."""
    b = rng.getrandbits(sub.dim) if sub.dim else 0
    acc = sub.shift.bits
    for j, c in enumerate(sub._cols):
        if (b >> j) & 1:
            acc ^= c
    return acc


def _check_sample(sub, seed, k):
    """k draws from sub match the reference on a twin generator, which ends in
    the same state."""
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(k):
        x = sub.sample(rng)
        assert x.n == sub.n and x.bits == _reference_sample(sub, twin)
    assert rng.getstate() == twin.getstate()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sample_matches_per_bit_reference_on_every_path(data):
    n = data.draw(st.integers(1, 40), label="n")
    sub, _ = data.draw(built_subspaces(n), label="sub")
    _check_sample(sub, data.draw(st.integers(0, 2 ** 32), label="seed"),
                  data.draw(st.integers(1, 20), label="k"))


@pytest.mark.parametrize("n, m", [(130, 0), (130, 1), (130, 66), (130, 130),
                                  (300, 3), (300, 150), (300, 299), (300, 300)])
def test_sample_matches_per_bit_reference_at_large_n(n, m):
    rng = random.Random(n * 1000 + m)
    sub = AffineSubspace.random(rng, n, m)
    x0 = rng.getrandbits(n)
    rows = [rng.getrandbits(n) for _ in range(n - m)]
    for built in (sub, AffineSubspace(sub.basis, sub.shift),
                  AffineSubspace._span(n, [rng.getrandbits(n) for _ in range(m)], x0),
                  _solutions([r | ((r & x0).bit_count() & 1) << n for r in rows], n)):
        _check_sample(built, m, 40)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_draw_matches_k_sample_calls(data):
    # dim 0-130 crosses every 4-column table boundary up to 33 tables.
    n = data.draw(st.integers(0, 130), label="n")
    dim = data.draw(st.integers(0, n), label="dim")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    k = data.draw(st.integers(0, 40), label="k")
    fresh = AffineSubspace.random(random.Random(seed), n, dim)
    built = AffineSubspace.random(random.Random(seed), n, dim)
    built.sample(random.Random(0))
    for sub in (fresh, built):
        rng, twin = random.Random(seed + 1), random.Random(seed + 1)
        got = sub._draw(rng, k)
        assert got == [sub.sample(twin).bits for _ in range(k)]
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("path", _PATHS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sampling_tables_are_built_on_the_first_sample(path, data):
    n = data.draw(st.integers(1, 8), label="n")
    sub, _ = data.draw(built_subspaces(n, [path]), label="sub")
    assert sub._tables is None
    sub.sample(random.Random(0))
    assert [len(t) for t in sub._tables] == [1 << len(sub._cols[g:g + 4])
                                             for g in range(0, sub.dim, 4)]
