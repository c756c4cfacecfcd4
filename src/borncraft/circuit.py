"""Circuit IR over {H, S, CNOT, SWAP, T}: layer packing, parity-circuit builder,
SWAP routing onto a line, and a line-oriented text format."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .gf2 import BitVec

GATE_ARITY = {"H": 1, "S": 1, "T": 1, "CNOT": 2, "SWAP": 2}

# Flip probability of the single-T gadget H.T.H acting on a basis state:
# sin^2(pi/8) = (2 - sqrt(2))/4, correctly rounded, so that no libm call sets it.
T_NOISE_RATE = 0.14644660940672624

# Chance that random_circuit puts a two-qubit gate on a wire with a free neighbor.
_P_TWO = 0.4

# The tableau holds 2n^2 bits and `support` does O(n^2) row operations on
# n-bit rows: at this cap a 32-layer random circuit simulates in 0.04-0.05 s and
# gives its support in 0.39-0.41 s, at a peak RSS of 104 MB (Python 3.11, 2-vCPU
# VM). No backend simulates more qubits, so parse_circuit refuses larger counts.
MAX_TABLEAU_QUBITS = 4096


# Qubit fields repeat across distinct gate lines (a 128-qubit file has ~700
# distinct lines but 128 distinct indices); a cache hit costs less than int().
@functools.lru_cache(maxsize=1 << 12)
def _read_int(field: str) -> int:
    # What format_circuit writes for a count or an index; int() alone would
    # also take "+", "_" and non-ASCII digits (it still refuses "--1").
    if not (field.isascii() and field.lstrip("-").isdigit()):
        raise ValueError(f"{field!r} is not a decimal integer")
    return int(field)


# Gate's fields are checked and set in one hand-written __init__, through a
# bound object.__setattr__ since the class is frozen: 0.51 us per CNOT against
# 0.64 us for the generated __init__ plus a __post_init__ (Python 3.11).
_set_field = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    kind: str
    qubits: tuple[int, ...]

    def __init__(self, kind: str, qubits: tuple[int, ...]):
        # A list of qubits would leave the Gate unhashable and unequal to its tuple twin.
        if type(kind) is not str or type(qubits) is not tuple:
            raise ValueError(f"a gate is a str kind and a tuple of qubits, got "
                             f"{kind!r}, {qubits!r}")
        arity = GATE_ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(qubits) != arity:
            raise ValueError(f"{kind} takes {arity} qubit(s)")
        for q in qubits:
            # type() rather than isinstance: a bool is an int, and True would run as qubit 1.
            if type(q) is not int:
                raise ValueError(f"qubit indices must be ints, got {qubits!r}")
            if q < 0:
                raise ValueError("negative qubit index")
        if arity == 2 and qubits[0] == qubits[1]:
            raise ValueError("two-qubit gate needs distinct qubits")
        _set_field(self, "kind", kind)
        _set_field(self, "qubits", qubits)

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls("H", (q,))

    @classmethod
    def s(cls, q: int) -> "Gate":
        return cls("S", (q,))

    @classmethod
    def t(cls, q: int) -> "Gate":
        return cls("T", (q,))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("CNOT", (control, target))

    @classmethod
    def swap(cls, a: int, b: int) -> "Gate":
        return cls("SWAP", (a, b))

    def is_local(self) -> bool:
        """True for one-qubit gates and two-qubit gates on adjacent wires."""
        if len(self.qubits) == 1:
            return True
        return abs(self.qubits[0] - self.qubits[1]) == 1


def _pack(n: int, gates: Iterable[Gate]) -> tuple[tuple[Gate, ...], ...]:
    """Greedy earliest-fit packing of a gate sequence into layers."""
    layers: list[list[Gate]] = []
    avail = [0] * n
    for g in gates:
        qs = g.qubits
        level = avail[qs[0]] if len(qs) == 1 else max(avail[qs[0]], avail[qs[1]])
        if level == len(layers):
            layers.append([])
        layers[level].append(g)
        for q in qs:
            avail[q] = level + 1
    return tuple(tuple(layer) for layer in layers)


class Circuit:
    """Immutable circuit on n qubits (0-based wire indices). ``given`` holds the
    gates in the order given; ``layers`` packs them on first use, and
    ``gates()``, equality, the hash and the text format read layer order."""

    __slots__ = ("n", "given", "_layers")

    def __init__(self, n: int, gates: Iterable[Gate] = ()):
        # Before _pack allocates n entries.
        if not (isinstance(n, int) and not isinstance(n, bool) and 0 <= n <= MAX_TABLEAU_QUBITS):
            raise ValueError(f"qubit count must be an integer in 0..{MAX_TABLEAU_QUBITS}")
        self.n = n
        self.given = gates = tuple(gates)
        self._layers = None
        try:
            for g in gates:
                for q in g.qubits:
                    # Gate rejects negative indices, so only q >= n is out of range.
                    if q >= n:
                        raise ValueError(f"qubit {q} out of range for {n}-qubit circuit")
        except AttributeError:
            raise ValueError(f"circuit entries must be Gates, got {g!r}") from None

    @property
    def layers(self) -> tuple[tuple[Gate, ...], ...]:
        if self._layers is None:
            self._layers = _pack(self.n, self.given)
        return self._layers

    def gates(self) -> Iterator[Gate]:
        for layer in self.layers:
            yield from layer

    def count(self, kind: str) -> int:
        return sum(1 for g in self.gates() if g.kind == kind)

    def is_nearest_neighbor(self) -> bool:
        return all(g.is_local() for g in self.gates())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Circuit)
            and self.n == other.n
            and self.layers == other.layers
        )

    def __hash__(self) -> int:
        return hash((self.n, self.layers))

    def __repr__(self) -> str:
        return f"Circuit(n={self.n}, depth={len(self.layers)}, gates={len(self.given)})"


def depth(c: Circuit) -> int:
    """Number of nonempty layers after greedy left-packing."""
    return len(c.layers)


def parity_circuit(s: BitVec, noisy: bool, pad: int = 0) -> Circuit:
    """Circuit on len(s)+1+pad qubits whose output pairs a uniform x with the
    parity of the bits selected by s, written onto qubit len(s).

    With noisy=True the gadget H.T.H follows on the parity qubit, flipping it
    with probability sin^2(pi/8); it is the only T gate in the circuit. The
    trailing pad qubits carry no gates and stay at 0.
    """
    k = s.n
    if k < 1:
        raise ValueError("parity circuit needs at least one input bit")
    if pad < 0:
        raise ValueError("pad must be nonnegative")
    gates = [Gate.h(i) for i in range(k)]
    for i in range(k):
        if s[i]:
            gates.append(Gate.cnot(i, k))
    if noisy:
        gates += [Gate.h(k), Gate.t(k), Gate.h(k)]
    return Circuit(k + 1 + pad, gates)


def route_nearest_neighbor(c: Circuit) -> Circuit:
    """Rewrite two-qubit gates onto adjacent wires by SWAP conjugation.

    A gate at distance d becomes d-1 SWAPs, the gate, and d-1 inverse SWAPs;
    the Born distribution is unchanged. Already-local circuits are returned
    as-is.
    """
    if c.is_nearest_neighbor():
        return c
    out: list[Gate] = []
    for g in c.gates():
        if g.is_local():
            out.append(g)
            continue
        lo, hi = min(g.qubits), max(g.qubits)
        ladder = [Gate.swap(i, i + 1) for i in range(lo, hi - 1)]
        out += ladder
        remapped = tuple(hi - 1 if q == lo else q for q in g.qubits)
        out.append(Gate(g.kind, remapped))
        out += reversed(ladder)
    return Circuit(c.n, out)


def random_circuit(rng, n: int, n_layers: int, allow_t: bool = False) -> Circuit:
    """Random nearest-neighbor circuit with at most n_layers layers."""
    if type(n) is not int or type(n_layers) is not int:  # a bool is an int, not a size
        raise ValueError("n and n_layers must be ints")
    if n < 1:
        raise ValueError("need at least one qubit")
    one_q = ["H", "S", "T"] if allow_t else ["H", "S"]
    gates: list[Gate] = []
    for _ in range(n_layers):
        order = list(range(n))
        rng.shuffle(order)
        used: set[int] = set()
        for q in order:
            if q in used:
                continue
            neighbors = [p for p in (q - 1, q + 1) if 0 <= p < n and p not in used]
            if neighbors and rng.random() < _P_TWO:
                p = neighbors[0] if len(neighbors) == 1 else neighbors[rng.getrandbits(1)]
                if rng.getrandbits(1):
                    gates.append(Gate.cnot(q, p))
                else:
                    gates.append(Gate.swap(q, p))
                used.update((q, p))
            else:
                gates.append(Gate(one_q[rng.randrange(len(one_q))], (q,)))
                used.add(q)
    return Circuit(n, gates)


def format_circuit(c: Circuit) -> str:
    """Serialize to the text interchange format (header + one gate per line)."""
    lines = [f"qubits {c.n}"]
    for g in c.gates():
        lines.append(" ".join([g.kind, *map(str, g.qubits)]))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Parse the text format: `qubits N` header, `H q` / `CNOT q1 q2` lines,
    `#` comments. The gates are kept in file order; layers are packed on first use."""
    n: int | None = None
    gates: list[Gate] = []
    # Gate lines repeat (a 64-qubit file has a few hundred distinct ones), and
    # a Gate is immutable, so each distinct line is parsed and checked once.
    seen: dict[str, Gate] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = seen.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if n is None:
            if parts[0] != "qubits" or len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'qubits N' header")
            try:
                n = _read_int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad qubit count {parts[1]!r}") from None
            if n < 0:
                raise ValueError(f"line {lineno}: negative qubit count")
            if n > MAX_TABLEAU_QUBITS:  # before _pack allocates n entries
                raise ValueError(f"line {lineno}: circuits limited to {MAX_TABLEAU_QUBITS} qubits")
            continue
        kind = parts[0].upper()
        arity = GATE_ARITY.get(kind)
        if arity is None:
            raise ValueError(f"line {lineno}: unknown gate {parts[0]!r}")
        if len(parts) != 1 + arity:
            raise ValueError(f"line {lineno}: {kind} takes {arity} qubit(s)")
        try:
            qubits = ((_read_int(parts[1]),) if arity == 1
                      else (_read_int(parts[1]), _read_int(parts[2])))
        except ValueError:
            raise ValueError(f"line {lineno}: bad qubit index") from None
        try:
            gate = seen[raw] = Gate(kind, qubits)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        gates.append(gate)
    if n is None:
        raise ValueError("missing 'qubits N' header")
    return Circuit(n, gates)
