"""Dense statevector simulation for small circuits, including T gates.

Ground-truth backend: exact Born distributions, full circuit unitaries, and
the operator-norm / total-variation comparison of two circuits. Basis index
convention: bit q of the integer index is the state of qubit q.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .circuit import Circuit
from .dist import _NORM_TOL, DenseDist

MAX_STATE_QUBITS = 20
MAX_UNITARY_QUBITS = 10

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
_1Q = {"H": _H, "S": _S, "T": _T}


# A one-qubit gate is a (2x2)·(2xN) product, N = 2^(m-1) on m simulated
# qubits. For N < 4 NumPy/OpenBLAS takes other code paths (gemv at N = 1, a
# small-size kernel at N <= 3) whose results can differ in the last bit from
# the full state's: 9-qubit `H 0; H 0` would give probability 0.0 where the
# full state gives 5.0e-34. Simulating at least three qubits keeps N >= 4 and
# the output floats equal to a full-state simulation's.
_MIN_SIM_QUBITS = 3


def _apply_1q(arr: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, arr, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _index(ndim: int, axes: list[int], values: tuple[int, int]) -> tuple:
    idx: list = [slice(None)] * ndim
    for axis, v in zip(axes, values):
        idx[axis] = v
    return tuple(idx)


# The two blocks each two-qubit gate exchanges, as values of its two qubits.
_2Q_BLOCKS = {"CNOT": ((1, 0), (1, 1)), "SWAP": ((0, 1), (1, 0))}


def _apply_gate(arr: np.ndarray, kind: str, axes: list[int]) -> np.ndarray:
    """Apply a gate to the qubit axes ``axes`` of arr; trailing axes pass
    through, so the same kernels serve states and unitaries. Two-qubit gates
    work in place."""
    if kind in _1Q:
        return _apply_1q(arr, _1Q[kind], axes[0])
    i, j = (_index(arr.ndim, axes, values) for values in _2Q_BLOCKS[kind])
    tmp = arr[i].copy()
    arr[i] = arr[j]
    arr[j] = tmp
    return arr


def _add_qubit(arr: np.ndarray, qubits: list[int], q: int) -> np.ndarray:
    """Insert qubit q, in |0>, into the state over the sorted list qubits."""
    i = bisect_left(qubits, q)
    qubits.insert(i, q)
    out = np.zeros((2,) * len(qubits), dtype=complex)
    out[(slice(None),) * (len(qubits) - 1 - i) + (0,)] = arr
    return out


def run_state(c: Circuit) -> np.ndarray:
    """2^n amplitudes of the circuit applied to |0...0>, norm-checked per layer.

    Only the qubits some gate has touched (and at least the lowest
    _MIN_SIM_QUBITS) are simulated: axis a of the state holds the a-th highest
    of them. The others stay |0> and are embedded at the end.
    """
    n = c.n
    if n > MAX_STATE_QUBITS:
        raise ValueError(f"statevector backend limited to {MAX_STATE_QUBITS} qubits")
    qubits = list(range(min(n, _MIN_SIM_QUBITS)))
    arr = np.zeros((2,) * len(qubits), dtype=complex)
    arr[(0,) * len(qubits)] = 1.0
    for layer in c.layers:
        for gate in layer:
            for q in gate.qubits:
                if q not in qubits:
                    arr = _add_qubit(arr, qubits, q)
            m = len(qubits)
            axes = [m - 1 - bisect_left(qubits, q) for q in gate.qubits]
            arr = _apply_gate(arr, gate.kind, axes)
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"norm drifted to {norm} during simulation")
    if len(qubits) < n:
        state = np.zeros((2,) * n, dtype=complex)
        state[tuple(slice(None) if q in qubits else 0 for q in reversed(range(n)))] = arr
        arr = state
    return arr.reshape(-1)


def sv_distribution(c: Circuit) -> DenseDist:
    """Exact Born distribution of the circuit output."""
    return DenseDist(c.n, np.abs(run_state(c)) ** 2)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary; column k is the circuit applied to basis state k."""
    if c.n > MAX_UNITARY_QUBITS:
        raise ValueError(f"unitary construction limited to {MAX_UNITARY_QUBITS} qubits")
    dim = 1 << c.n
    arr = np.eye(dim, dtype=complex).reshape((2,) * c.n + (dim,))
    for gate in c.gates():
        arr = _apply_gate(arr, gate.kind, [c.n - 1 - q for q in gate.qubits])
    return arr.reshape(dim, dim)


def opnorm_tv_check(c1: Circuit, c2: Circuit) -> tuple[float, float]:
    """(largest singular value of U1-U2, TV of the two Born distributions).

    The TV never exceeds the operator norm; both are raw, with no global-phase
    alignment.
    """
    if c1.n != c2.n:
        raise ValueError("circuits act on different qubit counts")
    u = circuit_unitary(c1)
    w = circuit_unitary(c2)
    opnorm = float(np.linalg.norm(u - w, 2))
    p = sv_distribution(c1).probs
    q = sv_distribution(c2).probs
    tv = float(0.5 * np.abs(p - q).sum())
    return opnorm, tv
