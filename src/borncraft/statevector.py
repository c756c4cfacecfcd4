"""Dense statevector simulation for small circuits, including T gates.

Ground-truth backend: exact Born distributions, full circuit unitaries, and
the operator-norm / total-variation comparison of two circuits. Basis index
convention: bit q of the integer index is the state of qubit q.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .circuit import Circuit
from .dist import _MAX_TABLE_BITS, _NORM_TOL, DenseDist

MAX_UNITARY_QUBITS = 10

_R = 1 / np.sqrt(2.0)


def _apply_1q(arr: np.ndarray, kind: str, axis: int) -> None:
    """Apply H, S or T to the given axis of arr in place, elementwise on its two
    halves (views, by the Ellipsis). Scaling by the real _R and multiplying by 0
    and 1 leave no cross term for a SIMD kernel or an FMA to round differently."""
    a0, a1 = (arr[(slice(None),) * axis + (b, ...)] for b in (0, 1))
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


# CNOT and SWAP only move amplitudes: each maps basis index x to M·x for an
# invertible GF(2) matrix M of the index bits. A run of them, across layers,
# folds into one map P (the product of the Ms in order), kept as its columns
# cols[b] = P·e_b and applied as one gather, new[y] = old[P·y]. Values only
# move, so no byte can change.
def _gather(arr: np.ndarray, cols: list[int]) -> np.ndarray:
    """Apply the run cols to the index over the leading len(cols) axes of arr."""
    m = len(cols)
    perm = np.zeros(1 << m, dtype=np.intp)
    for b, col in enumerate(cols):
        np.bitwise_xor(perm[:1 << b], col, out=perm[1 << b:2 << b])
    return arr.reshape((1 << m,) + arr.shape[m:]).take(perm, axis=0).reshape(arr.shape)


def _run(arr: np.ndarray, qubits: list[int], layers, check_norm: bool = False) -> np.ndarray:
    """Apply the layers of gates to arr, whose leading axes hold the sorted
    qubits, highest first (bit b of the index is qubits[b]); trailing axes pass
    through, so states and unitaries share this kernel. A qubit not yet in the
    list joins as |0>. Gates write into arr in place: callers pass a fresh one.

    The pending CNOT/SWAP run is gathered before a one-qubit gate, before a
    qubit joins, and at the end. With check_norm, the norm is checked after
    each layer that holds a one-qubit gate: a permutation cannot move it, and
    with no one-qubit gate the state stays a basis state.
    """
    cols = None
    for layer in layers:
        mixes = False
        for gate in layer:
            one_q = len(gate.qubits) == 1
            new = [q for q in gate.qubits if q not in qubits]
            if cols and (one_q or new):
                arr, cols = _gather(arr, cols), None
            for q in new:
                arr = _add_qubit(arr, qubits, q)
            b = [bisect_left(qubits, q) for q in gate.qubits]
            if one_q:
                _apply_1q(arr, gate.kind, len(qubits) - 1 - b[0])
                mixes = True
                continue
            cols = cols or [1 << j for j in range(len(qubits))]
            if gate.kind == "CNOT":
                cols[b[0]] ^= cols[b[1]]
            else:
                cols[b[0]], cols[b[1]] = cols[b[1]], cols[b[0]]
        if check_norm and mixes:
            norm = np.linalg.norm(arr)
            if abs(norm - 1.0) > _NORM_TOL:
                raise ValueError(f"norm drifted to {norm} during simulation")
    return _gather(arr, cols) if cols else arr


def _add_qubit(arr: np.ndarray, qubits: list[int], q: int) -> np.ndarray:
    """Insert qubit q, in |0>, into the state over the sorted list qubits."""
    i = bisect_left(qubits, q)
    qubits.insert(i, q)
    out = np.zeros((2,) * len(qubits), dtype=complex)
    out[(slice(None),) * (len(qubits) - 1 - i) + (0,)] = arr
    return out


def run_state(c: Circuit) -> np.ndarray:
    """2^n amplitudes of the circuit applied to |0...0>, norm-checked.

    Only the qubits some gate has touched are simulated, the a-th highest of
    them on axis a; the others stay |0> and are embedded at the end.
    """
    n = c.n
    if n > _MAX_TABLE_BITS:
        raise ValueError(f"statevector backend limited to {_MAX_TABLE_BITS} qubits")
    qubits: list[int] = []
    arr = _run(np.ones((), dtype=complex), qubits, c.layers, check_norm=True)
    if len(qubits) < n:
        state = np.zeros((2,) * n, dtype=complex)
        state[tuple(slice(None) if q in qubits else 0 for q in reversed(range(n)))] = arr
        arr = state
    return arr.reshape(-1)


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
    return np.eye(1 << n, dtype=complex).reshape((2,) * n + (1 << n,))


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary; column k is the circuit applied to basis state k."""
    dim = 1 << c.n
    return _run(_identity(c.n), list(range(c.n)), [c.gates()]).reshape(dim, dim)


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
    # _run puts bit b of the index on the b-th lowest of the listed qubits, so
    # listing the touched ones relabels them onto 0..m-1 in order.
    touched = sorted({q for g in g1 + g2 for q in g.qubits})
    dim = 1 << len(touched)
    u, w = (_run(_identity(len(touched)), touched, [tail]).reshape(dim, dim)
            for tail in (g1, g2))
    opnorm = float(np.linalg.norm(u - w, 2))
    p = sv_distribution(c1).probs
    q = sv_distribution(c2).probs
    tv = float(0.5 * np.abs(p - q).sum())
    return opnorm, tv
