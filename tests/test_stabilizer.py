"""Stabilizer backend, validated exhaustively against the statevector oracle."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borncraft.circuit import Circuit, Gate, parity_circuit, random_circuit
from borncraft.gf2 import AffineSubspace, BitMatrix, BitVec, nullspace, solve
from borncraft.stabilizer import (
    MAX_TABLEAU_QUBITS,
    StabTableau,
    _pauli_mul,
    simulate_clifford,
)
from borncraft.statevector import sv_distribution

# 99.9% chi-square quantiles by degrees of freedom, for uniformity checks.
CHI2_999 = {3: 16.266, 7: 24.322}

_I = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def row_to_matrix(x, z, r, n):
    """Dense matrix of a signed Pauli row (qubit 0 = least significant index bit)."""
    out = np.array([[1.0 + 0j]])
    for q in reversed(range(n)):
        xb, zb = (x >> q) & 1, (z >> q) & 1
        single = _I if not (xb or zb) else (_X if not zb else (_Y if xb else _Z))
        out = np.kron(out, single)
    return (-1) ** r * out


def support_probs(tab):
    sub = tab.support()
    probs = np.zeros(1 << tab.n)
    for x in sub.elements():
        probs[x.bits] = 1.0 / sub.size
    return probs


def assert_support_matches_sv(circuit):
    dd = sv_distribution(circuit)
    got = support_probs(simulate_clifford(circuit))
    assert np.abs(dd.probs - got).max() < 1e-12


def test_pauli_mul_matches_matrices():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randrange(1, 4)
        x1, z1, r1 = rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1)
        x2, z2, r2 = rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1)
        m1 = row_to_matrix(x1, z1, r1, n)
        m2 = row_to_matrix(x2, z2, r2, n)
        product = m1 @ m2
        try:
            x3, z3, r3 = _pauli_mul(x1, z1, r1, x2, z2, r2)
        except AssertionError:
            # odd i-power: the product is +-i times a Pauli, never +-1 times one
            assert np.abs(product - row_to_matrix(x1 ^ x2, z1 ^ z2, 0, n)).max() > 1e-9
            assert np.abs(product + row_to_matrix(x1 ^ x2, z1 ^ z2, 0, n)).max() > 1e-9
            continue
        assert np.allclose(product, row_to_matrix(x3, z3, r3, n), atol=1e-12)


def test_initial_tableau_is_zero_state():
    tab = StabTableau(3)
    tab.validate()
    sub = tab.support()
    assert sub.dim == 0
    assert sub.shift == BitVec.zeros(3)


def test_single_h_gives_uniform_bit():
    tab = simulate_clifford(Circuit(1, [Gate.h(0)]))
    # stabilizer row is +X
    assert tab.xs[0] == 1 and tab.zs[0] == 0 and tab.rs[0] == 0
    sub = tab.support()
    assert sub.dim == 1


def test_all_h_gives_full_space():
    tab = simulate_clifford(Circuit(4, [Gate.h(q) for q in range(4)]))
    sub = tab.support()
    assert sub.dim == 4


def test_t_gate_rejected():
    with pytest.raises(ValueError, match="non-Clifford"):
        simulate_clifford(Circuit(1, [Gate.t(0)]))


def test_parity_circuit_support():
    s = BitVec.from_str("101")
    sub = simulate_clifford(parity_circuit(s, noisy=False)).support()
    members = {x.bits for x in sub.elements()}
    expected = set()
    for xb in range(8):
        x = BitVec(3, xb)
        expected.add(xb | ((x[0] ^ x[2]) << 3))
    assert members == expected
    assert sub.size == 8


def test_support_probabilities_sum_to_one_exactly():
    rng = random.Random(19)
    for _ in range(30):
        c = random_circuit(rng, rng.randrange(1, 7), rng.randrange(0, 15))
        sub = simulate_clifford(c).support()
        assert Fraction(1, sub.size) * sub.size == 1
        assert sub.size == len({x.bits for x in sub.elements()})


def _single_qubit_cliffords():
    """The 24 distinct single-qubit Clifford unitaries as H/S words."""
    from borncraft.statevector import circuit_unitary

    seen = {}
    frontier = [()]
    while frontier:
        new = []
        for word in frontier:
            u = circuit_unitary(Circuit(1, [Gate(k, (0,)) for k in word]))
            # canonical form up to global phase: first nonzero entry made positive real
            flat = u.reshape(-1)
            pivot = flat[np.flatnonzero(np.abs(flat) > 1e-9)[0]]
            key = tuple(np.round(flat / pivot * np.abs(pivot), 9))
            if key not in seen:
                seen[key] = word
                new.extend([word + ("H",), word + ("S",)])
        frontier = new
    return list(seen.values())


def test_all_24_single_qubit_cliffords_match_sv():
    words = _single_qubit_cliffords()
    assert len(words) == 24
    for word in words:
        assert_support_matches_sv(Circuit(1, [Gate(k, (0,)) for k in word]))


def test_all_two_qubit_depth3_circuits_match_sv():
    layer_options = []
    singles = [None, "H", "S"]
    for a in singles:
        for b in singles:
            gates = []
            if a:
                gates.append(Gate(a, (0,)))
            if b:
                gates.append(Gate(b, (1,)))
            layer_options.append(tuple(gates))
    layer_options += [(Gate.cnot(0, 1),), (Gate.cnot(1, 0),), (Gate.swap(0, 1),)]
    for combo in itertools.product(layer_options, repeat=3):
        gates = [g for layer in combo for g in layer]
        assert_support_matches_sv(Circuit(2, gates))


def test_random_circuits_match_sv():
    rng = random.Random(2718)
    for _ in range(500):
        n = rng.randrange(1, 9)
        c = random_circuit(rng, n, rng.randrange(0, 21))
        assert_support_matches_sv(c)


def test_symplectic_invariant_after_every_gate():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(2, 7)
        c = random_circuit(rng, n, rng.randrange(1, 10))
        tab = StabTableau(n)
        for g in c.gates():
            tab.apply_all((g,))
            tab.validate()


def _corrupted(rows_x, rows_z):
    """A 2-qubit tableau whose row i is P(rows_x[i], rows_z[i]), written into
    the by-qubit storage directly."""
    tab = StabTableau(2)
    tab._x = list(BitMatrix(2, 2, rows_x).transpose().data)
    tab._z = list(BitMatrix(2, 2, rows_z).transpose().data)
    return tab


def test_validate_rejects_anticommuting_rows():
    tab = _corrupted([1, 0], [0, 1])  # X_0 and Z_0
    assert (tab.xs, tab.zs) == ((1, 0), (0, 1))
    with pytest.raises(AssertionError, match="anticommute"):
        tab.validate()


def test_validate_rejects_dependent_rows():
    tab = _corrupted([0, 0], [1, 1])  # Z_0 twice
    assert (tab.xs, tab.zs) == ((0, 0), (1, 1))
    with pytest.raises(AssertionError, match="dependent"):
        tab.validate()


def test_sampling_zero_state():
    tab = StabTableau(2)
    rng = random.Random(0)
    for _ in range(20):
        assert tab.support().sample(rng) == BitVec.zeros(2)


def test_sampling_uniform_two_qubits():
    tab = simulate_clifford(Circuit(2, [Gate.h(0), Gate.h(1)]))
    rng = random.Random(12)
    sub = tab.support()
    counts = [0, 0, 0, 0]
    draws = 100_000
    for _ in range(draws):
        counts[sub.sample(rng).bits] += 1
    expected = draws / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_999[3]


def test_sampling_parity_invariant():
    tab = simulate_clifford(parity_circuit(BitVec.from_str("11"), noisy=False))
    sub = tab.support()
    rng = random.Random(13)
    for _ in range(100_000):
        x = sub.sample(rng)
        assert x[2] == x[0] ^ x[1]


@st.composite
def clifford_circuits(draw, max_qubits=8, max_gates=30):
    n = draw(st.integers(1, max_qubits))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(("H", "S", "CNOT", "SWAP") if n > 1 else ("H", "S")))
        if kind in ("H", "S"):
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
        else:
            pair = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append(Gate(kind, tuple(pair)))
    return Circuit(n, gates)


@settings(max_examples=150, deadline=None)
@given(clifford_circuits())
def test_tableau_support_matches_sv_property(c):
    tab = StabTableau(c.n)
    for g in c.gates():
        tab.apply_all((g,))
        tab.validate()
    assert np.abs(sv_distribution(c).probs - support_probs(tab)).max() < 1e-12


def _x_gate(q):
    # H.S.S.H = H.Z.H = X
    return [Gate.h(q), Gate.s(q), Gate.s(q), Gate.h(q)]


@pytest.mark.parametrize("n", [63, 64, 65, 130, 300])
def test_support_closed_form_across_word_boundaries(n):
    """H on half the qubits, then linear gates and X flips: the support is
    span(H columns pushed through the CNOT/SWAP network) + the flipped bits."""
    rng = random.Random(n)
    hs = rng.sample(range(n), n // 2)
    gates = [Gate.h(q) for q in hs]
    vecs = [1 << q for q in hs] + [0]  # basis columns, then the shift
    boundary_pairs = [(b - 1, b) for b in (64, 128, 256) if b < n]
    for step in range(6 * n):
        if step < len(boundary_pairs):
            a, b = boundary_pairs[step]
            kind = "CNOT"
        else:
            a, b = rng.sample(range(n), 2)
            kind = rng.choice(("CNOT", "CNOT", "SWAP", "S", "X"))
        if kind == "CNOT":
            gates.append(Gate.cnot(a, b))
            vecs = [v ^ (((v >> a) & 1) << b) for v in vecs]
        elif kind == "SWAP":
            gates.append(Gate.swap(a, b))
            vecs = [v ^ ((((v >> a) ^ (v >> b)) & 1) * ((1 << a) | (1 << b))) for v in vecs]
        elif kind == "S":
            gates.append(Gate.s(a))
        else:
            gates += _x_gate(a)
            vecs[-1] ^= 1 << a
    tab = simulate_clifford(Circuit(n, gates))
    tab.validate()
    sub = tab.support()
    expected = AffineSubspace(
        BitMatrix(len(vecs) - 1, n, vecs[:-1]).transpose(), BitVec(n, vecs[-1])
    )
    assert sub.dim == n // 2
    assert sub.same_set(expected)
    assert vecs[-1] != 0  # the X flips reached the shift


def _reference_rows(c):
    """Per-row Aaronson-Gottesman updates, the loops the packed kernels replace."""
    n = c.n
    xs = [0] * n
    zs = [1 << i for i in range(n)]
    rs = [0] * n
    for g in c.gates():
        a = g.qubits[0]
        b = g.qubits[-1]
        for i in range(n):
            xa, za = (xs[i] >> a) & 1, (zs[i] >> a) & 1
            xb, zb = (xs[i] >> b) & 1, (zs[i] >> b) & 1
            if g.kind == "H":
                rs[i] ^= xa & za
                xs[i] ^= (xa ^ za) << a
                zs[i] ^= (xa ^ za) << a
            elif g.kind == "S":
                rs[i] ^= xa & za
                zs[i] ^= xa << a
            elif g.kind == "CNOT":
                rs[i] ^= xa & zb & (xb ^ za ^ 1)
                xs[i] ^= xa << b
                zs[i] ^= zb << a
            else:
                xs[i] ^= (xa ^ xb) * ((1 << a) | (1 << b))
                zs[i] ^= (za ^ zb) * ((1 << a) | (1 << b))
    return tuple(xs), tuple(zs), tuple(rs)


def _reference_support(xs, zs, rs, n):
    """Kernel of the stabilizer X part, one product per kernel vector, then
    solve and nullspace of the signed Z-only constraints."""
    constraints, rhs = [], 0
    for combo in nullspace(BitMatrix(n, n, xs).transpose()):
        x, z, r = 0, 0, 0
        for i in range(n):
            if combo[i]:
                x, z, r = _pauli_mul(x, z, r, xs[i], zs[i], rs[i])
        assert x == 0
        rhs |= r << len(constraints)
        constraints.append(z)
    cmat = BitMatrix(len(constraints), n, constraints)
    return nullspace(cmat), solve(cmat, BitVec(len(constraints), rhs))


def gate_lists(m, hot):
    """Up to 40 Clifford gates on qubits 0..m-1, with many on qubit hot."""
    qubit = st.integers(0, m - 1) | st.just(hot)
    one = st.builds(Gate, st.sampled_from(["H", "S"]), st.tuples(qubit))
    if m == 1:
        return st.lists(one, max_size=40)
    pair = st.tuples(qubit, st.integers(0, m - 2)).map(lambda p: (p[0], p[1] + (p[1] >= p[0])))
    return st.lists(one | st.builds(Gate, st.sampled_from(["CNOT", "SWAP"]), pair), max_size=40)


@st.composite
def reordered_circuits(draw):
    """Circuits whose given order is not layer order: qubit hot takes two gates
    first, qubits late..n-1 are first touched after the body, and H on qubit
    n-1 then packs into layer 0, between the two."""
    n = draw(st.integers(2, 130))
    late = draw(st.integers(1, n - 1))
    hot = draw(st.integers(0, late - 1))
    body, tail = draw(gate_lists(late, hot)), draw(gate_lists(n, hot))
    return Circuit(n, [Gate.h(hot), Gate.s(hot), *body, Gate.h(n - 1), *tail])


@settings(max_examples=150, deadline=None)
@given(reordered_circuits(), st.data())
def test_given_order_tableau_matches_layer_order_tableau(c, data):
    assert list(c.given) != list(c.gates())
    tab, ref = simulate_clifford(c), StabTableau(c.n)
    for g in c.gates():
        ref.apply_all((g,))
    assert (tab.xs, tab.zs, tab.rs) == (ref.xs, ref.zs, ref.rs)
    sub, ref_sub = tab.support(), ref.support()
    assert sub.basis == ref_sub.basis and sub.shift == ref_sub.shift
    # A T gate anywhere stops both paths with the same error.
    i = data.draw(st.integers(0, len(c.given)), label="T position")
    t = Gate.t(data.draw(st.integers(0, c.n - 1), label="T qubit"))
    c = Circuit(c.n, [*c.given[:i], t, *c.given[i:]])
    with pytest.raises(ValueError) as fast:
        simulate_clifford(c)
    ref = StabTableau(c.n)
    with pytest.raises(ValueError) as slow:
        for g in c.gates():
            ref.apply_all((g,))
    assert str(fast.value) == str(slow.value)


@pytest.mark.parametrize("n", [1, 2, 5, 31, 63, 64, 65, 130])
def test_packed_tableau_and_support_match_row_reference(n):
    rng = random.Random(1000 + n)
    for _ in range(3):
        extra = []
        for _ in range(n if n > 1 else 0):
            a, b = rng.sample(range(n), 2)
            extra.append(Gate(rng.choice(("CNOT", "SWAP")), (a, b)))
        c = Circuit(n, list(random_circuit(rng, n, rng.randrange(1, 8)).gates()) + extra
                    + [Gate.h(q) for q in rng.sample(range(n), n // 3)])
        tab = simulate_clifford(c)
        xs, zs, rs = _reference_rows(c)
        assert (tab.xs, tab.zs, tab.rs) == (xs, zs, rs)
        basis, shift = _reference_support(xs, zs, rs, n)
        sub = tab.support()
        # same columns in the same order and the same shift, not just the same set
        assert sub.basis == BitMatrix(len(basis), n, [v.bits for v in basis]).transpose()
        assert sub.shift == shift


def test_tableau_qubit_cap():
    with pytest.raises(ValueError, match="limited to"):
        StabTableau(MAX_TABLEAU_QUBITS + 1)
