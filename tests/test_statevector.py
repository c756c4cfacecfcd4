"""Statevector backend: gate definitions, Born distributions, unitaries, and
the operator-norm vs total-variation comparison."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borncraft import statevector
from borncraft.circuit import (
    GATE_ARITY,
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


def test_dense_dist_never_writes_to_the_callers_table():
    probs = np.array([0.5, 0.5 + 1e-13, -1e-13, -0.0])
    before = probs.tobytes()
    dd = DenseDist(2, probs)
    assert probs.tobytes() == before
    # -1e-13 and -0.0 both become +0.0
    assert dd.probs.tobytes() == np.array([0.5, 0.5 + 1e-13, 0.0, 0.0]).tobytes()
    assert DenseDist(2, probs.tolist()).probs.tobytes() == dd.probs.tobytes()


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


def _frozen_last_positive_draw(probs, u):
    """Reference rule: draws past the cumsum go to np.flatnonzero(probs)[-1]."""
    cum = np.cumsum(probs)
    cum[np.flatnonzero(probs)[-1]:] = np.inf
    return int(cum.searchsorted(u, side="right"))


@pytest.mark.parametrize("probs,expected", [
    # only index 0 has mass; the zeros after it must never be drawn
    ([1.0, 0.0, 0.0, 0.0], 0),
    # the last index is the last positive one
    ([0.25, 0.0, 0.25, 0.5], 3),
    # the float cumsum stops at 1 - 1e-12, and the last positive entry (1e-300)
    # does not move it; a rule keyed on where the cumsum reaches its end would
    # pick index 1 instead
    ([0.5, 0.5 - 1e-12, 1e-300, 0.0], 2),
])
def test_dense_sample_top_draw_goes_to_last_positive_entry(probs, expected):
    u = 1.0 - 2.0 ** -53
    probs = np.array(probs)
    assert _frozen_last_positive_draw(probs, u) == expected
    assert DenseDist(2, probs).sample(FixedDraws([u])).bits == expected


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
        amplitudes = run_state(c)
        assert amplitudes.shape == (1 << c.n,)
        assert np.linalg.norm(amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_run_state_raises_on_norm_drift(monkeypatch):
    monkeypatch.setattr(statevector, "_R", 1.01 * statevector._R)
    with pytest.raises(ValueError, match="norm drifted"):
        run_state(Circuit(2, [Gate.h(0)]))


# --- reduced-state simulation against the full-state reference -------------------
#
# A frozen copy of the full-state simulator: every gate passes over all 2^n
# amplitudes and writes into a copy of the array. One-qubit gates take the same
# elementwise float steps as the simulator, so the reduced simulator must give
# the same bytes. The gate matrices below are a second reference, within a
# float tolerance.

_REF_R = 1 / np.sqrt(2.0)

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
    out = arr.copy()
    if gate.kind in _REF_1Q:
        i0, i1 = (_ref_index(arr.ndim, {n - 1 - gate.qubits[0]: b}) + (...,) for b in (0, 1))
        a0, a1 = arr[i0], arr[i1]
        if gate.kind == "H":
            out[i0], out[i1] = (a0 + a1) * _REF_R, (a0 - a1) * _REF_R
        elif gate.kind == "S":
            out[i1] = a1 * 1j
        else:
            out[i1].real, out[i1].imag = (a1.real - a1.imag) * _REF_R, (a1.real + a1.imag) * _REF_R
        return out
    a0, a1 = (n - 1 - q for q in gate.qubits)
    if gate.kind == "CNOT":
        i, j = _ref_index(arr.ndim, {a0: 1, a1: 0}), _ref_index(arr.ndim, {a0: 1, a1: 1})
    else:
        i, j = _ref_index(arr.ndim, {a0: 0, a1: 1}), _ref_index(arr.ndim, {a0: 1, a1: 0})
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
    flat = arr.reshape(-1)
    return DenseDist(c.n, flat.real * flat.real + flat.imag * flat.imag).probs


def _matrix_apply_gate(arr, gate, n):
    if gate.kind not in _REF_1Q:
        return _ref_apply_gate(arr, gate, n)
    axis = n - 1 - gate.qubits[0]
    return np.moveaxis(np.tensordot(_REF_1Q[gate.kind], arr, axes=([1], [axis])), 0, axis)


def _ref_unitary(c, apply=_ref_apply_gate):
    dim = 1 << c.n
    arr = np.eye(dim, dtype=complex).reshape((2,) * c.n + (dim,))
    for gate in c.gates():
        arr = apply(arr, gate, c.n)
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


# Each column of either unitary is within (1 + gamma)^g - 1 of the exact one in
# the 2-norm after g one-qubit gates, if each gate adds an error of at most
# gamma times the norm. The elementwise steps have gamma_4 = 4u/(1 - 4u), with
# u = 2^-53; the matrix product about sqrt(2) gamma_4 + u, as |H| has norm
# sqrt 2 and its entries are rounded. 8u per gate covers both.
@settings(max_examples=150, deadline=None)
@given(sv_circuits(6))
def test_circuit_unitary_within_float_tolerance_of_the_gate_matrices(c):
    g = sum(1 for gate in c.gates() if gate.kind in _REF_1Q)
    tol = 2 * ((1 + 8 * 2.0 ** -53) ** g - 1)
    assert np.abs(circuit_unitary(c) - _ref_unitary(c, _matrix_apply_gate)).max() <= tol


@settings(max_examples=200, deadline=None)
@given(sv_circuits(8))
def test_circuit_unitary_first_column_bytes_match_run_state(c):
    assert circuit_unitary(c)[:, 0].tobytes() == run_state(c).tobytes()


@pytest.mark.parametrize("c", [
    Circuit(9, [Gate.h(0), Gate.h(0)]),
    parity_circuit(BitVec.from_str("1011"), noisy=True, pad=3),
    Circuit(5, [Gate.h(4), Gate.cnot(4, 0), Gate.h(2), Gate.swap(2, 3), Gate.t(0)]),
    # both blocks each two-qubit gate exchanges are nonzero and differ
    Circuit(3, [Gate.h(0), Gate.h(1), Gate.t(1), Gate.h(1), Gate.cnot(0, 2), Gate.swap(1, 2)]),
    # the single-T circuit at k = 16: its CNOT run spans 17 index bits
    parity_circuit(BitVec(16, 0xB5E3), noisy=True),
    # unequal magnitudes on 15 qubits, then runs over every index bit
    Circuit(15, [Gate.h(q) for q in range(15)] + [Gate.t(q) for q in range(0, 15, 2)]
            + [Gate.h(q) for q in range(1, 15, 3)] + [Gate.cnot(q, (q + 7) % 15) for q in range(15)]
            + [Gate.swap(q, 14 - q) for q in range(7)] + [Gate.h(13), Gate.cnot(13, 2)]),
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


@st.composite
def permutation_runs(draw, max_n, n=None):
    """Circuits made mostly of CNOT/SWAP runs. A few one-qubit gates cut them,
    runs span layers wherever consecutive gates share a qubit, a qubit first
    touched by a two-qubit gate joins the state mid-run, the last run often ends
    the circuit, and the top `pad` qubits carry no gate."""
    if n is None:
        n = draw(st.integers(2, max_n), label="n")
    live = n - draw(st.integers(0, n - 2), label="pad")
    qubit = st.integers(0, live - 1)
    gates = [Gate.h(q) for q in sorted(draw(st.sets(qubit, max_size=live), label="h"))]
    for _ in range(draw(st.integers(1, 4), label="runs")):
        if draw(st.booleans()):
            gates.append(Gate(draw(st.sampled_from(["H", "S", "T"])), (draw(qubit),)))
        for _ in range(draw(st.integers(0, 14), label="run length")):
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            gates.append(Gate(draw(st.sampled_from(["CNOT", "SWAP"])), (a, b)))
    return Circuit(n, gates)


@settings(max_examples=300, deadline=None)
@given(permutation_runs(15))
def test_permutation_runs_sv_bytes_match_full_state(c):
    assert sv_distribution(c).probs.tobytes() == _ref_probs(c).tobytes()


@settings(max_examples=150, deadline=None)
@given(permutation_runs(6))
def test_permutation_runs_unitary_bytes_match_full_state(c):
    assert circuit_unitary(c).tobytes() == _ref_unitary(c).tobytes()


def _ref_opnorm_tv(c1, c2):
    u, w = _ref_unitary(c1), _ref_unitary(c2)
    return (float(np.linalg.norm(u - w, 2)),
            float(0.5 * np.abs(_ref_probs(c1) - _ref_probs(c2)).sum()))


# The opnorm comes from an SVD of the differing tails' small unitaries, whose
# last bits can differ from those of the full-unitary SVD in _ref_opnorm_tv
# (by at most 3.8e-15 over 1,500 random pairs with n <= 7). The TV comes from
# the same Born tables as before, so it keeps its bytes.
OPNORM_TOL = 1e-13


def _assert_matches_reference(c1, c2):
    for a, b in ((c1, c2), (c2, c1)):
        opnorm, tvd = opnorm_tv_check(a, b)
        ref_opnorm, ref_tvd = _ref_opnorm_tv(a, b)
        assert abs(opnorm - ref_opnorm) <= OPNORM_TOL
        assert np.float64(tvd).tobytes() == np.float64(ref_tvd).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["extends", "shared prefix", "shared suffix",
                                   "no common prefix"]))
def test_opnorm_tv_check_matches_reference(data, pair):
    c1 = data.draw(permutation_runs(6) | sv_circuits(6).filter(lambda c: c.n), label="c1")
    n, gates = c1.n, list(c1.gates())
    tail = list(data.draw(permutation_runs(6, n=n) if n > 1 else sv_circuits(1), label="tail").gates())
    if pair == "extends":
        c2 = Circuit(n, gates + tail)
    elif pair == "shared prefix":
        cut = data.draw(st.integers(0, len(gates)), label="cut")
        c2 = Circuit(n, gates[:cut] + [Gate.t(0)] + tail)
    elif pair == "shared suffix":
        cut = data.draw(st.integers(0, len(gates)), label="cut")
        c2 = Circuit(n, tail + [Gate.t(n - 1)] + gates[cut:])
    else:
        first = Gate.s(0) if gates[:1] == [Gate.t(0)] else Gate.t(0)
        c2 = Circuit(n, [first] + tail)
    _assert_matches_reference(c1, c2)


# Tails on high, non-adjacent qubits, in both orders, between shared gates on
# every qubit: the tails must be relabelled onto 0..m-1 keeping their order.
@pytest.mark.parametrize("t1,t2", [
    ([Gate.cnot(9, 2)], []),
    ([Gate.cnot(2, 9), Gate.h(9), Gate.t(2)], [Gate.h(7), Gate.swap(2, 7)]),
    ([Gate.h(9), Gate.cnot(9, 5), Gate.t(5)], [Gate.h(5), Gate.cnot(5, 9), Gate.t(9)]),
])
def test_opnorm_tails_on_high_qubits_match_reference(t1, t2):
    head = [Gate.h(q) for q in range(10)] + [Gate.t(4), Gate.cnot(3, 8)]
    tail = [Gate.cnot(q, q + 1) for q in range(9)] + [Gate.h(q) for q in range(10)]
    _assert_matches_reference(Circuit(10, head + t1 + tail), Circuit(10, head + t2 + tail))


def test_opnorm_unitaries_span_only_the_differing_tails(monkeypatch):
    sizes = []
    identity = statevector._identity
    monkeypatch.setattr(statevector, "_identity", lambda m: sizes.append(m) or identity(m))
    head = [Gate.h(q) for q in range(10)]
    tail = [Gate.cnot(q, q + 1) for q in range(9)]
    for extra, m, exact in ((Gate.t(9), 1, 2 * math.sin(math.pi / 8)), (Gate.cnot(9, 2), 2, 2.0)):
        sizes.clear()
        c1, c2 = Circuit(10, head + [extra] + tail), Circuit(10, head + tail)
        assert opnorm_tv_check(c1, c2)[0] == pytest.approx(exact, abs=OPNORM_TOL)
        assert sizes == [m, m]


# sigma_max(G - I) for one extra gate G: 2 for H, CNOT and SWAP (eigenvalue
# -1), |i - 1| = sqrt(2) for S and |e^(i pi/4) - 1| = 2 sin(pi/8) for T.
@pytest.mark.parametrize("kind,exact", [
    ("H", 2.0), ("S", math.sqrt(2)), ("T", 2 * math.sin(math.pi / 8)), ("CNOT", 2.0), ("SWAP", 2.0),
])
def test_opnorm_of_one_extra_gate_is_one_float_at_every_n(kind, exact):
    rng = random.Random(kind)
    arity = GATE_ARITY[kind]
    values = set()
    for n in range(arity, 11):
        for _ in range(4):
            c = random_circuit(rng, n, rng.randrange(1, 9), allow_t=True)
            extra = Gate(kind, tuple(rng.sample(range(n), arity)))
            values.add(opnorm_tv_check(c, Circuit(n, list(c.gates()) + [extra]))[0])
    assert len(values) == 1
    assert abs(values.pop() - exact) <= 2 * math.ulp(exact)


def test_norm_checked_after_layers_with_one_qubit_gates(monkeypatch):
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda x, *a: calls.append(x.size) or norm(x, *a))
    # H, then ten layers of one CNOT each: the CNOT layers only permute
    cnots = [Gate.cnot(q, q + 1) for q in range(10)]
    c = Circuit(11, [Gate.h(0)] + cnots)
    assert len(c.layers) == 11
    probs = sv_distribution(c).probs
    assert len(calls) == 1  # after the H layer only
    assert np.flatnonzero(probs).tolist() == [0, (1 << 11) - 1]
    calls.clear()
    run_state(Circuit(11, [Gate.h(0)] + cnots + [Gate.h(10)]))
    assert len(calls) == 2  # after each H layer, not only at the end


def test_norm_drift_after_a_long_cnot_run_raises(monkeypatch):
    # only the T drifts: the H layer before the run passes its norm check
    apply = statevector._apply_1q

    def drifting_t(arr, kind, axis):
        apply(arr, kind, axis)
        if kind == "T":
            arr *= 1.01

    monkeypatch.setattr(statevector, "_apply_1q", drifting_t)
    gates = [Gate.h(0)] + [Gate.cnot(q, q + 1) for q in range(10)] + [Gate.t(10)]
    with pytest.raises(ValueError, match="norm drifted"):
        run_state(Circuit(11, gates + [Gate.swap(q, q + 1) for q in range(10)]))
