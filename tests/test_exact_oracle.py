"""The statevector and the tableau against the exact oracle in exact_oracle.py,
which keeps amplitudes in Z[w]/2^e and shares no code with either of them."""

from fractions import Fraction
import math

import pytest
from hypothesis import given, settings, strategies as st

from borncraft.circuit import T_NOISE_RATE, Circuit, Gate, parity_circuit
from borncraft.dist import NoisyParity
from borncraft.gf2 import BitVec
from borncraft.stabilizer import simulate_clifford
from borncraft.statevector import run_state, sv_distribution
from exact_oracle import ETA, SQRT2, QSqrt2, exact_amplitudes, exact_born, exact_probs


@st.composite
def clifford_t_circuits(draw, max_n, max_t):
    """Circuits on 1..max_n qubits of up to 30 gates, at most max_t of them T."""
    n = draw(st.integers(1, max_n), label="n")
    t_left = draw(st.integers(0, max_t), label="T gates")
    gates = []
    for _ in range(draw(st.integers(0, 30), label="gates")):
        kind = draw(st.sampled_from(["H", "S"] + ["T"] * (t_left > 0) + ["CNOT", "SWAP"] * (n > 1)))
        t_left -= kind == "T"
        if kind in ("CNOT", "SWAP"):
            qubits = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        else:
            qubits = [draw(st.integers(0, n - 1))]
        gates.append(Gate(kind, tuple(qubits)))
    return Circuit(n, gates)


def test_oracle_hand_values():
    assert ETA == (2 - SQRT2) * Fraction(1, 4)
    assert abs(ETA.approx() - Fraction(T_NOISE_RATE)) <= 2.0 ** -55
    assert exact_probs(Circuit(1, [Gate.h(0), Gate.t(0), Gate.h(0)])) == [1 - ETA, ETA]
    assert exact_probs(Circuit(1, [Gate.h(0), Gate.s(0), Gate.h(0)])) == [QSqrt2(Fraction(1, 2))] * 2
    # CNOT(0, 1) copies qubit 0 onto qubit 1: index bit q is qubit q
    half, zero = QSqrt2(Fraction(1, 2)), QSqrt2(Fraction(0))
    assert exact_probs(Circuit(2, [Gate.h(0), Gate.cnot(0, 1)])) == [half, zero, zero, half]
    assert exact_probs(Circuit(3, [Gate.h(0), Gate.swap(0, 2)])) == [half] + [zero] * 3 + [half] + [zero] * 3


# Float error bounds for run_state and sv_distribution, with u = 2^-53. Each
# H or T output component is a sum or difference (one rounding) times
# fl(1/sqrt 2) (two roundings from 1/sqrt 2), rounded once more: relative error
# gamma_4 = 4u/(1 - 4u); S, CNOT and SWAP are exact. Gate by gate the error
# vector grows by at most gamma_4 times the state's norm, so after g H/T gates
# ||a_hat - a||_2 <= delta = (1 + gamma_4)^g - 1, which bounds each real and
# imaginary part too. For one amplitude a, then
# | |a_hat|^2 - |a|^2 | <= delta (2|a| + delta), and re*re + im*im (two
# roundings on each path) adds under 3u |a_hat|^2.
U = 2.0 ** -53


def _state_bound(g: int) -> float:
    return (1 + 4 * U / (1 - 4 * U)) ** g - 1


def _prob_bound(g: int, p: float) -> float:
    delta = _state_bound(g)
    a = math.sqrt(p)
    return delta * (2 * a + delta) + 3 * U * (a + delta) ** 2


@settings(max_examples=100, deadline=None)
@given(clifford_t_circuits(max_n=8, max_t=2))
def test_statevector_within_its_float_bound_of_exact(c):
    g = c.count("H") + c.count("T")
    for a_hat, (re, im) in zip(run_state(c).tolist(), exact_amplitudes(c)):
        assert abs(Fraction(a_hat.real) - re.approx()) <= _state_bound(g)
        assert abs(Fraction(a_hat.imag) - im.approx()) <= _state_bound(g)
    big_a, big_b, e = exact_born(c)
    assert sum(big_a) == 4 ** e and sum(big_b) == 0
    for p_hat, a, b in zip(sv_distribution(c).probs.tolist(), big_a, big_b):
        exact = QSqrt2(Fraction(a, 4 ** e), Fraction(b, 4 ** e)).approx()
        if exact == 0:
            assert p_hat <= _prob_bound(g, 0.0)
        else:
            assert abs(Fraction(p_hat) - exact) <= _prob_bound(g, float(exact))


@pytest.mark.parametrize("k", range(1, 9))
def test_single_t_circuit_is_exactly_noisy_parity(k):
    """Every s: each p(x, y) is NoisyParity(s, sin^2(pi/8)) in Q(sqrt 2), and the
    flip mass is (2 - sqrt 2)/4."""
    for s_bits in range(1 << k):
        s = BitVec(k, s_bits)
        big_a, big_b, e = exact_born(parity_circuit(s, noisy=True))
        model = NoisyParity(s, ETA)
        # the model's values on and off the parity graph, times 4^e
        on, off = (model.eval(BitVec(k + 1, y << k)) * 4 ** e for y in (0, 1))
        flip_a = flip_b = 0
        for x, (a, b) in enumerate(zip(big_a, big_b)):
            want = on if x >> k == (x & s_bits).bit_count() & 1 else off
            assert (a, b) == (want.a, want.b)
            if want is off:
                flip_a, flip_b = flip_a + a, flip_b + b
        assert QSqrt2(Fraction(flip_a, 4 ** e), Fraction(flip_b, 4 ** e)) == ETA


@settings(max_examples=100, deadline=None)
@given(clifford_t_circuits(max_n=8, max_t=0))
def test_tableau_support_matches_exact_support(c):
    support = sorted(x.bits for x in simulate_clifford(c).support().elements())
    big_a, big_b, e = exact_born(c)
    # A = sum_j c_j^2 vanishes only with the amplitude
    assert support == [x for x, a in enumerate(big_a) if a]
    assert all(big_a[x] * len(support) == 4 ** e and big_b[x] == 0 for x in support)
