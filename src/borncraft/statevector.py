"""Dense statevector simulation for small circuits, including T gates.

Ground-truth backend: exact Born distributions, full circuit unitaries, and
the operator-norm / total-variation comparison of two circuits. Basis index
convention: bit q of the integer index is the state of qubit q.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit
from .dist import _MAX_TABLE_BITS, _NORM_TOL, DenseDist

MAX_UNITARY_QUBITS = 10

_R = 1 / np.sqrt(2.0)


def _apply_1q(arr: np.ndarray, kind: str, bit: int) -> None:
    """Apply H, S or T to index bit `bit` of the rows of arr in place, elementwise
    on the two halves (views into arr). Scaling by the real _R and multiplying by
    0 and 1 leave no cross term for a SIMD kernel or an FMA to round differently."""
    a0, a1 = arr.reshape(-1, 2, arr.shape[1] << bit).swapaxes(0, 1)
    if kind == "H":
        d = a0 - a1
        a0 += a1
        a0 *= _R
        np.multiply(d, _R, out=a1)
    elif kind == "S":
        a1 *= 1j
    else:
        re, im = a1.real, a1.imag
        d = re - im
        im += re
        im *= _R
        np.multiply(d, _R, out=re)


def _xor_table(cols: list[int]) -> np.ndarray:
    """y -> XOR of cols[b] over the set bits b of y, for each y < 2^len(cols)."""
    table = np.zeros(1 << len(cols), dtype=np.intp)
    for b, col in enumerate(cols):
        np.bitwise_xor(table[:1 << b], col, out=table[1 << b:2 << b])
    return table


def _run(arr: np.ndarray, bits: dict[int, int], layers) -> np.ndarray:
    """Apply the layers of gates to the rows of arr, whose index bit bits[q] is
    qubit q; columns pass through, so states (one column) and unitaries share
    this kernel. A qubit not in bits joins as |0> on the next top bit: the rows
    double, the old ones in the lower half. Gates write into arr in place:
    callers pass a fresh one.

    CNOT and SWAP only move amplitudes: each maps row y to M·y for an
    invertible GF(2) matrix M. A run of them, across layers, folds into one
    map P (the product of the Ms in order), kept as its columns cols[b] = P·e_b
    and applied as one gather, new[y] = old[P·y], before a one-qubit gate, a
    join, and the end; values only move. A state (one column) has its norm
    checked after each layer with a one-qubit gate: a permutation cannot move it.
    """
    cols = None
    for layer in layers:
        mixes = False
        for gate in layer:
            one_q = len(gate.qubits) == 1
            new = [q for q in gate.qubits if q not in bits]
            if cols and (one_q or new):
                arr, cols = arr.take(_xor_table(cols), axis=0), None
            for q in new:
                bits[q] = len(bits)
                grown = np.zeros((2 * len(arr), arr.shape[1]), dtype=complex)
                grown[:len(arr)] = arr
                arr = grown
            b = [bits[q] for q in gate.qubits]
            if one_q:
                _apply_1q(arr, gate.kind, b[0])
                mixes = True
                continue
            cols = cols or [1 << j for j in range(len(bits))]
            if gate.kind == "CNOT":
                cols[b[0]] ^= cols[b[1]]
            else:
                cols[b[0]], cols[b[1]] = cols[b[1]], cols[b[0]]
        if mixes and arr.shape[1] == 1:
            norm = np.linalg.norm(arr)
            if abs(norm - 1.0) > _NORM_TOL:
                raise ValueError(f"norm drifted to {norm} during simulation")
    return arr.take(_xor_table(cols), axis=0) if cols else arr


def run_state(c: Circuit) -> np.ndarray:
    """2^n amplitudes of the circuit applied to |0...0>, norm-checked.

    Only the qubits some gate has touched are simulated, on index bits in the
    order they were first touched, which is the order bits lists them in. One
    relabel at the end moves qubit q onto bit q, with the untouched qubits at
    |0>; it is skipped when the qubits were first touched in the order 0..n-1.
    """
    n = c.n
    if n > _MAX_TABLE_BITS:
        raise ValueError(f"statevector backend limited to {_MAX_TABLE_BITS} qubits")
    bits: dict[int, int] = {}
    arr = _run(np.ones((1, 1), dtype=complex), bits, c.layers).reshape(-1)
    if list(bits) != list(range(n)):
        state = np.zeros(1 << n, dtype=complex)
        state[_xor_table([1 << q for q in bits])] = arr
        arr = state
    return arr


def sv_distribution(c: Circuit) -> DenseDist:
    """Exact Born distribution of the circuit output."""
    # |a|^2 = re*re + im*im, squared in place (np.abs, via hypot, rounds tiny
    # amplitudes differently in NumPy's AVX-512 and scalar loops). DenseDist
    # clips into a new table, which takes memory freed by the state: keeping
    # this one raised the single-t benchmark's peak RSS by 1.5 MB.
    parts = run_state(c).view(np.float64)
    np.square(parts, out=parts)
    return DenseDist(c.n, parts[0::2] + parts[1::2])


def _identity(n: int) -> np.ndarray:
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"unitary construction limited to {MAX_UNITARY_QUBITS} qubits")
    return np.eye(1 << n, dtype=complex)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary; column k is the circuit applied to basis state k."""
    return _run(_identity(c.n), {q: q for q in range(c.n)}, [c.gates()])


def opnorm_tv_check(c1: Circuit, c2: Circuit) -> tuple[float, float]:
    """(largest singular value of U1-U2, TV of the two Born distributions).

    The TV never exceeds the operator norm; both are raw, with no global-phase
    alignment. The norm is taken on the differing tails only. With P the gates
    the two circuits share as a prefix and S those they share as a suffix,
    U1 - U2 = S·(A - B)·P, and ||S·X·P|| = ||X|| for unitaries S and P. A - B
    acts only on the m qubits the tails A and B touch, and ||X ⊗ I|| = ||X||,
    so the norm is that of the tails' 2^m x 2^m unitaries. Prefix and suffix
    are matched in gates() order, which is layer order: a gate put in front
    of one circuit can move later gates between layers and widen the tails
    toward 2^n x 2^n.
    """
    if c1.n != c2.n:
        raise ValueError("circuits act on different qubit counts")
    if c1.n > MAX_UNITARY_QUBITS:
        raise ValueError(f"unitary construction limited to {MAX_UNITARY_QUBITS} qubits")
    g1, g2 = list(c1.gates()), list(c2.gates())
    k = next((i for i, (a, b) in enumerate(zip(g1, g2)) if a != b), min(len(g1), len(g2)))
    g1, g2 = g1[k:], g2[k:]
    k = next((i for i, (a, b) in enumerate(zip(g1[::-1], g2[::-1])) if a != b),
             min(len(g1), len(g2)))
    g1, g2 = g1[:len(g1) - k], g2[:len(g2) - k]
    # The tails' unitaries put the touched qubits on bits 0..m-1 in order.
    touched = sorted({q for g in g1 + g2 for q in g.qubits})
    u, w = (_run(_identity(len(touched)), {q: b for b, q in enumerate(touched)}, [tail])
            for tail in (g1, g2))
    opnorm = float(np.linalg.norm(u - w, 2))
    p = sv_distribution(c1).probs
    q = sv_distribution(c2).probs
    tv = float(0.5 * np.abs(p - q).sum())
    return opnorm, tv
