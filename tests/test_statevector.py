"""Statevector backend: gate definitions, Born distributions, unitaries, and
the operator-norm vs total-variation comparison."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borncraft.circuit import (
    Circuit,
    Gate,
    T_NOISE_RATE,
    parity_circuit,
    random_circuit,
    route_nearest_neighbor,
)
from borncraft.dist import Dist, NoisyParity, tv
from borncraft.gf2 import BitVec
from borncraft.statevector import (
    DenseDist,
    circuit_unitary,
    opnorm_tv_check,
    run_state,
    sv_distribution,
)


def test_empty_circuit_is_point_mass():
    dd = sv_distribution(Circuit(3))
    assert dd.eval(BitVec.zeros(3)) == 1.0
    assert dd.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_single_h():
    dd = sv_distribution(Circuit(1, [Gate.h(0)]))
    assert np.allclose(dd.probs, [0.5, 0.5], atol=1e-12)


def test_gate_matrices_via_unitary():
    u_t = circuit_unitary(Circuit(1, [Gate.t(0)]))
    assert np.allclose(u_t, np.diag([1, np.exp(1j * np.pi / 4)]), atol=1e-12)
    u_h = circuit_unitary(Circuit(1, [Gate.h(0)]))
    assert np.allclose(u_h, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)
    u_s = circuit_unitary(Circuit(1, [Gate.s(0)]))
    assert np.allclose(u_s, np.diag([1, 1j]), atol=1e-12)


def test_cnot_truth_table():
    # index bit q is qubit q; CNOT(0,1) flips qubit 1 when qubit 0 is set
    u = circuit_unitary(Circuit(2, [Gate.cnot(0, 1)]))
    perm = {0: 0, 1: 3, 2: 2, 3: 1}
    expected = np.zeros((4, 4))
    for src, dst in perm.items():
        expected[dst, src] = 1
    assert np.allclose(u, expected, atol=1e-12)


def test_swap_truth_table():
    u = circuit_unitary(Circuit(2, [Gate.swap(0, 1)]))
    perm = {0: 0, 1: 2, 2: 1, 3: 3}
    expected = np.zeros((4, 4))
    for src, dst in perm.items():
        expected[dst, src] = 1
    assert np.allclose(u, expected, atol=1e-12)


def test_unitarity_random_circuits():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randrange(1, 7)
        c = random_circuit(rng, n, rng.randrange(0, 10), allow_t=True)
        u = circuit_unitary(c)
        assert np.allclose(u.conj().T @ u, np.eye(1 << n), atol=1e-10)


def test_single_t_gadget_flip_probability():
    # The H.T.H gadget flips a basis state with probability sin^2(pi/8);
    # this anchors the noise rate used throughout.
    u = circuit_unitary(Circuit(1, [Gate.h(0), Gate.t(0), Gate.h(0)]))
    flip = abs(u[1, 0]) ** 2
    assert flip == pytest.approx(math.sin(math.pi / 8) ** 2, abs=1e-12)
    assert abs(u[0, 1]) ** 2 == pytest.approx(T_NOISE_RATE, abs=1e-12)
    assert T_NOISE_RATE == pytest.approx(0.146, abs=5e-4)


def test_parity_circuit_noiseless_support():
    s = BitVec.from_str("101")
    dd = sv_distribution(parity_circuit(s, noisy=False))
    for idx in range(16):
        x = BitVec(4, idx)
        expected = 0.125 if x[3] == (x[0] ^ x[2]) else 0.0
        assert dd.eval(x) == pytest.approx(expected, abs=1e-12)


def test_parity_circuit_noisy_probabilities():
    dd = sv_distribution(parity_circuit(BitVec.from_str("11"), noisy=True))
    good = (1 - T_NOISE_RATE) / 4
    bad = T_NOISE_RATE / 4
    for idx in range(8):
        x = BitVec(3, idx)
        expected = good if x[2] == (x[0] ^ x[1]) else bad
        assert dd.eval(x) == pytest.approx(expected, abs=1e-12)
    assert good == pytest.approx(0.21339, abs=5e-6)
    assert bad == pytest.approx(0.03661, abs=5e-6)


def test_parity_circuit_padding_stays_zero():
    dd = sv_distribution(parity_circuit(BitVec.from_str("10"), noisy=True, pad=2))
    for idx in range(1 << 5):
        x = BitVec(5, idx)
        if x[3] or x[4]:
            assert dd.eval(x) == 0.0


def test_opnorm_identical_circuits():
    c = parity_circuit(BitVec.from_str("11"), noisy=True)
    opnorm, tvd = opnorm_tv_check(c, c)
    assert opnorm == 0.0 and tvd == 0.0


def test_opnorm_t_vs_empty():
    opnorm, tvd = opnorm_tv_check(Circuit(1, [Gate.t(0)]), Circuit(1))
    assert opnorm == pytest.approx(2 * math.sin(math.pi / 8), abs=1e-12)
    assert opnorm == pytest.approx(abs(np.exp(1j * np.pi / 4) - 1), abs=1e-12)
    assert tvd == 0.0


def test_tv_never_exceeds_opnorm():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randrange(1, 7)
        base = random_circuit(rng, n, rng.randrange(1, 8), allow_t=True)
        gates = list(base.gates())
        kinds = ["H", "S", "T"]
        extra = Gate(kinds[rng.randrange(3)], (rng.randrange(n),))
        perturbed = Circuit(n, gates + [extra])
        opnorm, tvd = opnorm_tv_check(base, perturbed)
        assert tvd <= opnorm


def test_routing_preserves_distribution():
    rng = random.Random(66)
    for _ in range(50):
        n = rng.randrange(2, 9)
        c = random_circuit(rng, n, rng.randrange(1, 10), allow_t=True)
        # widen a couple of gates to force actual routing work
        gates = list(c.gates())
        if n > 2:
            a, b = 0, n - 1
            gates.append(Gate.cnot(a, b))
        c2 = Circuit(n, gates)
        routed = route_nearest_neighbor(c2)
        assert routed.is_nearest_neighbor()
        p = sv_distribution(c2).probs
        q = sv_distribution(routed).probs
        assert 0.5 * np.abs(p - q).sum() < 1e-10


def test_dense_dist_validation_and_sampling():
    with pytest.raises(ValueError):
        DenseDist(1, np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        DenseDist(1, np.array([-0.2, 1.2]))
    dd = DenseDist(2, np.array([0.5, 0.5, 0.0, 0.0]))
    rng = random.Random(1)
    draws = [dd.sample(rng).bits for _ in range(2000)]
    assert set(draws) <= {0, 1}
    assert 800 < sum(1 for d in draws if d == 0) < 1200


class FixedDraws:
    """Stands in for random.Random: random() returns the given values in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_dense_sample_past_cumsum_end_skips_zero_mass():
    # the float cumsum ends at 1 - 5e-11; a draw above it must not land on
    # index 3, whose probability is 0
    dd = DenseDist(2, np.array([0.3, 0.7 - 5e-11, 0.0, 0.0]))
    assert dd.sample(FixedDraws([0.99999999999])).bits == 1
    assert dd.sample(FixedDraws([0.0])).bits == 0
    assert dd.sample(FixedDraws([0.3])).bits == 1


@st.composite
def dense_tables(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 5))
    weights = draw(st.lists(st.sampled_from([0.0, 1e-9, 0.1, 1.0, 3.0]),
                            min_size=1 << n, max_size=1 << n).filter(any))
    probs = np.array(weights) / sum(weights)
    return n, probs


@settings(max_examples=200, deadline=None)
@given(dense_tables(),
       st.lists(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                          st.just(math.nextafter(1.0, 0.0))), min_size=1, max_size=20))
def test_dense_samples_land_in_support(table, us):
    n, probs = table
    dd = DenseDist(n, probs)
    rng = FixedDraws(us)
    for _ in us:
        assert probs[dd.sample(rng).bits] > 0


@settings(max_examples=200, deadline=None)
@given(dense_tables(), st.data())
def test_dense_support_and_tv_match_the_table(table, data):
    n, p = table
    dd = DenseDist(n, p)
    support = list(dd.support())
    assert all(x.n == n for x in support)
    assert [x.bits for x in support] == np.flatnonzero(p).tolist()
    assert dd.support_size == len(support)
    _, q = data.draw(dense_tables(n))
    assert abs(tv(dd, DenseDist(n, q)) - 0.5 * np.abs(p - q).sum()) <= 1e-12


def test_sv_distribution_is_a_dist():
    for k in range(1, 5):
        for s_bits in range(1 << k):
            s = BitVec(k, s_bits)
            dd = sv_distribution(parity_circuit(s, noisy=True))
            assert type(dd) is DenseDist and isinstance(dd, Dist)
            assert tv(dd, NoisyParity(s, T_NOISE_RATE)) < 1e-12


def test_qubit_guards():
    with pytest.raises(ValueError, match="limited"):
        sv_distribution(Circuit(21))
    with pytest.raises(ValueError, match="limited"):
        circuit_unitary(Circuit(11))


def test_run_state_normalized():
    rng = random.Random(2)
    for _ in range(20):
        c = random_circuit(rng, rng.randrange(1, 6), rng.randrange(0, 8), allow_t=True)
        sv = run_state(c)
        assert np.linalg.norm(sv.amplitudes) == pytest.approx(1.0, abs=1e-10)


# --- reduced-state simulation against the full-state reference -------------------
#
# A frozen copy of the full-state simulator: every gate passes over all 2^n
# amplitudes, and two-qubit gates write into a copy of the array. The reduced
# simulator must give the same bytes.

_REF_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}


def _ref_index(ndim, assignments):
    idx = [slice(None)] * ndim
    for axis, v in assignments.items():
        idx[axis] = v
    return tuple(idx)


def _ref_apply_gate(arr, gate, n):
    # axis a holds qubit n-1-a; trailing axes pass through
    if gate.kind in _REF_1Q:
        axis = n - 1 - gate.qubits[0]
        out = np.tensordot(_REF_1Q[gate.kind], arr, axes=([1], [axis]))
        return np.moveaxis(out, 0, axis)
    a0, a1 = (n - 1 - q for q in gate.qubits)
    if gate.kind == "CNOT":
        i, j = _ref_index(arr.ndim, {a0: 1, a1: 0}), _ref_index(arr.ndim, {a0: 1, a1: 1})
    else:
        i, j = _ref_index(arr.ndim, {a0: 0, a1: 1}), _ref_index(arr.ndim, {a0: 1, a1: 0})
    out = arr.copy()
    out[i] = arr[j]
    out[j] = arr[i]
    return out


def _ref_probs(c):
    state = np.zeros(1 << c.n, dtype=complex)
    state[0] = 1.0
    arr = state.reshape((2,) * c.n) if c.n else state
    for layer in c.layers:
        for gate in layer:
            arr = _ref_apply_gate(arr, gate, c.n)
    return DenseDist(c.n, np.abs(arr.reshape(-1)) ** 2).probs


def _ref_unitary(c):
    dim = 1 << c.n
    arr = np.eye(dim, dtype=complex).reshape((2,) * c.n + (dim,))
    for gate in c.gates():
        arr = _ref_apply_gate(arr, gate, c.n)
    return arr.reshape(dim, dim)


@st.composite
def sv_circuits(draw, max_n):
    """Circuits whose top `pad` qubits carry no gate. With `grow`, every gate
    after the first touches a qubit already touched, so the first gates
    repeat on one qubit and new qubits join in later layers."""
    n = draw(st.integers(0, max_n), label="n")
    if n == 0:
        return Circuit(0)
    live = n - draw(st.integers(0, n - 1), label="pad")
    grow = draw(st.booleans(), label="grow")
    touched: list[int] = []
    gates = []
    for _ in range(draw(st.integers(0, 24), label="gates")):
        qubit = st.integers(0, live - 1)
        old = st.sampled_from(touched) if touched and grow else qubit
        kind = draw(st.sampled_from(["H", "S", "T", "CNOT", "SWAP"] if live > 1 else ["H", "S", "T"]))
        if kind in ("CNOT", "SWAP"):
            a = draw(old)
            b = draw(qubit.filter(lambda q: q != a))
            qubits = (a, b) if draw(st.booleans()) else (b, a)
        else:
            qubits = (draw(old),)
        touched.extend(q for q in qubits if q not in touched)
        gates.append(Gate(kind, qubits))
    return Circuit(n, gates)


@settings(max_examples=300, deadline=None)
@given(sv_circuits(10))
def test_sv_distribution_bytes_match_full_state(c):
    assert sv_distribution(c).probs.tobytes() == _ref_probs(c).tobytes()


@settings(max_examples=150, deadline=None)
@given(sv_circuits(6))
def test_circuit_unitary_bytes_match_full_state(c):
    assert circuit_unitary(c).tobytes() == _ref_unitary(c).tobytes()


@pytest.mark.parametrize("c", [
    # the same qubit twice while it is the only one touched: with fewer than
    # three simulated qubits the second H would give 0.0, not 5.0e-34
    Circuit(9, [Gate.h(0), Gate.h(0)]),
    parity_circuit(BitVec.from_str("1011"), noisy=True, pad=3),
    Circuit(5, [Gate.h(4), Gate.cnot(4, 0), Gate.h(2), Gate.swap(2, 3), Gate.t(0)]),
    # both blocks each two-qubit gate exchanges are nonzero and differ
    Circuit(3, [Gate.h(0), Gate.h(1), Gate.t(1), Gate.h(1), Gate.cnot(0, 2), Gate.swap(1, 2)]),
])
def test_reduced_state_matches_full_state(c):
    assert sv_distribution(c).probs.tobytes() == _ref_probs(c).tobytes()


def test_few_touched_qubits_of_twenty():
    probs = sv_distribution(Circuit(20, [Gate.h(3)])).probs
    assert np.flatnonzero(probs).tolist() == [0, 8]
    assert probs[0] == probs[8] == pytest.approx(0.5, abs=1e-15)
    # qubit 17 joins after qubit 3, above it
    probs = sv_distribution(Circuit(20, [Gate.h(3), Gate.cnot(3, 17)])).probs
    assert np.flatnonzero(probs).tolist() == [0, 8 | 1 << 17]
    assert probs[0] == probs[8 | 1 << 17] == pytest.approx(0.5, abs=1e-15)
