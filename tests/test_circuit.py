"""Circuit IR: layer packing, parity builder, routing structure, text format."""

import copy
import dataclasses
import decimal
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from borncraft import stabilizer
from borncraft.circuit import (
    GATE_ARITY,
    MAX_TABLEAU_QUBITS,
    T_NOISE_RATE,
    Circuit,
    Gate,
    depth,
    format_circuit,
    parity_circuit,
    parse_circuit,
    random_circuit,
    route_nearest_neighbor,
)
from borncraft.gf2 import BitVec


def test_t_noise_rate_is_sin_squared_pi_over_8_correctly_rounded():
    # sin^2(pi/8) = (2 - sqrt(2))/4, to 50 digits: the literal is nearer to it
    # than either float neighbour ((2 - math.sqrt(2)) / 4 is the lower one).
    with decimal.localcontext(decimal.Context(prec=50)):
        exact = (2 - decimal.Decimal(2).sqrt()) / 4
        err = abs(decimal.Decimal(T_NOISE_RATE) - exact)
        for neighbour in (math.nextafter(T_NOISE_RATE, 0), math.nextafter(T_NOISE_RATE, 1)):
            assert err < abs(decimal.Decimal(neighbour) - exact)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("X", (0,))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate.cnot(2, 2)
    with pytest.raises(ValueError):
        Gate.h(-1)


@pytest.mark.parametrize("qubits", [(0.5,), (True,), (np.int64(0),), ("0",), (1, False)])
def test_gate_rejects_qubit_indices_that_are_not_ints(qubits):
    # Refused at construction: a float would fail in _pack with a TypeError,
    # and True would run as qubit 1.
    kind = "H" if len(qubits) == 1 else "CNOT"
    with pytest.raises(ValueError, match="ints"):
        Gate(kind, qubits)


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(ValueError):
        Circuit(2, [Gate.h(2)])


# A list once made an unhashable Gate unequal to its tuple twin; the others
# raised TypeError, and a tuple entry in a Circuit raised AttributeError.
@pytest.mark.parametrize("kind, qubits", [("H", [0]), ("H", range(1)), ("H", {0: 0}),
                                          ("H", 5), ("H", None), (["H"], (0,)), (b"H", (0,))])
def test_gate_rejects_kind_or_qubits_of_the_wrong_type(kind, qubits):
    with pytest.raises(ValueError, match="str kind and a tuple"):
        Gate(kind, qubits)


def test_circuit_rejects_entries_that_are_not_gates():
    with pytest.raises(ValueError, match="must be Gates"):
        Circuit(2, [Gate.h(0), ("H", (0,))])


def test_depth_empty():
    assert depth(Circuit(3)) == 0


def test_depth_parallel_h():
    c = Circuit(5, [Gate.h(q) for q in range(5)])
    assert depth(c) == 1


def test_depth_parity_all_ones():
    for k in (1, 3, 5):
        c = parity_circuit(BitVec.ones(k), noisy=False)
        # one H layer, then k CNOTs serialized on the shared target
        assert depth(c) == k + 1


def test_layers_have_disjoint_qubits():
    rng = random.Random(8)
    for _ in range(50):
        c = random_circuit(rng, rng.randrange(1, 9), rng.randrange(0, 12))
        for layer in c.layers:
            touched = [q for g in layer for q in g.qubits]
            assert len(touched) == len(set(touched))


def test_given_orders_with_the_same_layers_are_one_circuit():
    h0, s0, h1 = Gate.h(0), Gate.s(0), Gate.h(1)
    a, b = Circuit(2, [h0, s0, h1]), Circuit(2, [h0, h1, s0])
    assert a.given != b.given
    assert a == b and hash(a) == hash(b)
    assert format_circuit(a) == format_circuit(b) == "qubits 2\nH 0\nH 1\nS 0\n"
    # A different order inside a layer is a different circuit.
    assert Circuit(2, [h1, h0, s0]) != a


def test_packing_idempotent():
    rng = random.Random(9)
    for _ in range(50):
        c = random_circuit(rng, rng.randrange(1, 9), rng.randrange(0, 12))
        repacked = Circuit(c.n, c.gates())
        assert repacked == c
        assert depth(repacked) == depth(c)


def test_parity_circuit_structure():
    s = BitVec.from_str("101")
    c = parity_circuit(s, noisy=False, pad=2)
    assert c.n == 3 + 1 + 2
    assert c.count("H") == 3
    assert c.count("CNOT") == 2
    assert c.count("T") == 0
    touched = {q for g in c.gates() for q in g.qubits}
    assert max(touched) == 3  # nothing on the pad wires
    noisy = parity_circuit(s, noisy=True)
    assert noisy.count("T") == 1
    assert noisy.count("H") == 5  # inputs plus the two gadget H's


def test_parity_circuit_zero_mask_has_no_cnots():
    c = parity_circuit(BitVec.zeros(4), noisy=False)
    assert c.count("CNOT") == 0


def test_parity_circuit_rejects_empty():
    with pytest.raises(ValueError):
        parity_circuit(BitVec.zeros(0), noisy=False)


def test_routing_fixed_point():
    c = Circuit(3, [Gate.h(0), Gate.cnot(0, 1), Gate.swap(1, 2), Gate.t(2)])
    assert c.is_nearest_neighbor()
    assert route_nearest_neighbor(c) is c


def test_routing_expands_distant_cnot():
    c = Circuit(4, [Gate.cnot(0, 3)])
    routed = route_nearest_neighbor(c)
    assert routed.is_nearest_neighbor()
    swaps = [g for g in routed.gates() if g.kind == "SWAP"]
    assert len(swaps) == 2 * (3 - 1)
    assert routed.count("CNOT") == 1


def test_routing_preserves_t_count():
    rng = random.Random(4)
    for _ in range(10):
        s = BitVec.random(rng, 6)
        routed = route_nearest_neighbor(parity_circuit(s, noisy=True))
        assert routed.count("T") == 1
        assert routed.is_nearest_neighbor()


def test_routing_orientation_kept():
    c = Circuit(4, [Gate.cnot(3, 0)])
    routed = route_nearest_neighbor(c)
    cnots = [g for g in routed.gates() if g.kind == "CNOT"]
    assert cnots == [Gate.cnot(3, 2)] or cnots == [Gate.cnot(1, 0)]


def test_text_format_roundtrip():
    rng = random.Random(30)
    for _ in range(30):
        c = random_circuit(rng, rng.randrange(1, 7), rng.randrange(0, 8), allow_t=True)
        assert parse_circuit(format_circuit(c)) == c


@st.composite
def circuits(draw, max_qubits=6, max_gates=40):
    """Any gate sequence, non-local two-qubit gates and repeated lines included."""
    n = draw(st.integers(0, max_qubits))
    kinds = [k for k, a in GATE_ARITY.items() if a <= n]
    gates = []
    for _ in range(draw(st.integers(0, max_gates if kinds else 0))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=GATE_ARITY[kind],
                               max_size=GATE_ARITY[kind], unique=True))
        gates.append(Gate(kind, tuple(qubits)))
    return Circuit(n, gates)


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_text_format_roundtrip_property(c):
    assert parse_circuit(format_circuit(c)) == c


@settings(max_examples=200, deadline=None)
@given(circuits(max_qubits=8))
def test_layers_are_the_greedy_packing_of_the_given_order(c):
    gs = c.given
    # Earliest fit: one layer past the last earlier gate that shares a qubit.
    level = []
    for i, g in enumerate(gs):
        level.append(max((level[j] + 1 for j in range(i)
                          if set(gs[j].qubits) & set(g.qubits)), default=0))
    expect = tuple(tuple(g for g, d in zip(gs, level) if d == k)
                   for k in range(max(level, default=-1) + 1))
    assert c.layers == expect
    assert format_circuit(c) == "".join(
        f"{line}\n" for line in [f"qubits {c.n}"]
        + [" ".join([g.kind, *map(str, g.qubits)]) for layer in expect for g in layer])
    again = Circuit(c.n, c.gates())  # the same layers, given in layer order
    assert again == c and hash(again) == hash(c)


def test_text_format_comments_and_blanks():
    text = """
# a comment
qubits 3

H 0   # trailing comment
CNOT 0 2
SWAP 1 2
T 1
"""
    c = parse_circuit(text)
    assert c.n == 3
    assert [g.kind for g in c.gates()] == ["H", "CNOT", "SWAP", "T"]


def test_text_format_errors():
    with pytest.raises(ValueError, match="header"):
        parse_circuit("H 0\n")
    with pytest.raises(ValueError, match="unknown gate"):
        parse_circuit("qubits 2\nX 0\n")
    with pytest.raises(ValueError, match="takes"):
        parse_circuit("qubits 2\nCNOT 0\n")
    with pytest.raises(ValueError, match="distinct"):
        parse_circuit("qubits 2\nCNOT 1 1\n")
    with pytest.raises(ValueError):
        parse_circuit("qubits 2\nH 5\n")
    with pytest.raises(ValueError, match="header"):
        parse_circuit("# only comments\n")


@pytest.mark.parametrize("text,message", [
    ("qubits 2\nH 0\nH 0\nCNOT 1 1\n", "line 4: two-qubit gate needs distinct qubits"),
    ("qubits 2\nH 0\nH 0\nfoo 1\n", "line 4: unknown gate 'foo'"),
    ("qubits 2\nH 0\nH 0 1\n", "line 3: H takes 1 qubit(s)"),
    ("qubits 2\nH 0\nH 0\nH x\n", "line 4: bad qubit index"),
    ("qubits 2\nH 1\nH -1\n", "line 3: negative qubit index"),
    ("qubits x\n", "line 1: bad qubit count 'x'"),
    # int() also takes "_", a sign and non-ASCII digits; the format writes none.
    ("qubits 1_0\nH 9\nCNOT +1 \u0663\n", "line 1: bad qubit count '1_0'"),
    ("qubits +2\nH 0\n", "line 1: bad qubit count '+2'"),
    ("qubits \u0663\nH 0\n", "line 1: bad qubit count '\u0663'"),
    ("qubits 10\nH 9\nH 9\nCNOT +1 3\n", "line 4: bad qubit index"),
    ("qubits 10\nH 0\nH 0\nH 1_0\n", "line 4: bad qubit index"),
    ("qubits 10\nH 0\nH 0\nCNOT 1 \u0663\n", "line 4: bad qubit index"),
    ("qubits 2\nH 0\nH 0\nCNOT 0 5\n", "qubit 5 out of range for 2-qubit circuit"),
])
def test_text_format_error_messages_with_repeated_lines(text, message):
    with pytest.raises(ValueError) as err:
        parse_circuit(text)
    assert str(err.value) == message


# A count of 10^20 once reached _pack and raised OverflowError from [0] * n.
@pytest.mark.parametrize("count", [MAX_TABLEAU_QUBITS + 1, 10 ** 20])
def test_qubit_count_over_the_cap_is_value_error(count):
    with pytest.raises(ValueError) as err:
        parse_circuit(f"qubits {count}\nH 0\n")
    assert str(err.value) == f"line 1: circuits limited to {MAX_TABLEAU_QUBITS} qubits"
    assert parse_circuit(f"qubits {MAX_TABLEAU_QUBITS}\nH 0\n").n == MAX_TABLEAU_QUBITS
    assert stabilizer.MAX_TABLEAU_QUBITS is MAX_TABLEAU_QUBITS


# Circuit(10**20) once raised OverflowError from _pack's [0] * n, and counts
# over the cap reached the constructor through the builders.
@pytest.mark.parametrize("n", [-1, MAX_TABLEAU_QUBITS + 1, 10 ** 20, True, 2.0, "3"])
def test_circuit_qubit_count_is_capped(n):
    message = f"qubit count must be an integer in 0..{MAX_TABLEAU_QUBITS}"
    with pytest.raises(ValueError, match=message):
        Circuit(n)
    if isinstance(n, int) and n > MAX_TABLEAU_QUBITS:
        with pytest.raises(ValueError, match=message):
            random_circuit(random.Random(0), n, 0)
        with pytest.raises(ValueError, match=message):
            parity_circuit(BitVec.from_str("1"), noisy=False, pad=n)
    assert Circuit(MAX_TABLEAU_QUBITS).n == MAX_TABLEAU_QUBITS


def test_pack_reports_first_out_of_range_qubit(monkeypatch):
    # The range check runs at construction; packing waits for the first .layers.
    def no_packing(*args):
        raise AssertionError("packed before .layers was read")

    monkeypatch.setattr("borncraft.circuit._pack", no_packing)
    Circuit(4, [Gate.h(0), Gate.cnot(3, 1)])
    with pytest.raises(ValueError, match="qubit 5 out of range for 4-qubit"):
        Circuit(4, [Gate.h(0), Gate.cnot(5, 7)])
    with pytest.raises(ValueError, match="qubit 7 out of range for 4-qubit"):
        Circuit(4, [Gate.cnot(1, 7)])


# --- the text parser against a frozen copy of the one it replaced -----------------

# Gate and parse_circuit as they stood before Gate was checked in a slotted
# __init__ and the parser split each line once: a generated __init__ plus
# __post_init__, and a line stripped, split and read with map(). Kept as written
# (less the per-process caches), so the live parser must match it token for token.
@dataclasses.dataclass(frozen=True)
class _FrozenGate:
    kind: str
    qubits: tuple

    def __post_init__(self):
        if type(self.kind) is not str or type(self.qubits) is not tuple:
            raise ValueError(f"a gate is a str kind and a tuple of qubits, got "
                             f"{self.kind!r}, {self.qubits!r}")
        arity = GATE_ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s)")
        for q in self.qubits:
            if type(q) is not int:
                raise ValueError(f"qubit indices must be ints, got {self.qubits!r}")
            if q < 0:
                raise ValueError("negative qubit index")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError("two-qubit gate needs distinct qubits")


def _frozen_read_int(field):
    if not (field.isascii() and field.lstrip("-").isdigit()):
        raise ValueError(f"{field!r} is not a decimal integer")
    return int(field)


def _frozen_parse_circuit(text):
    n = None
    gates = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = seen.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "qubits" or len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'qubits N' header")
            try:
                n = _frozen_read_int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad qubit count {parts[1]!r}") from None
            if n < 0:
                raise ValueError(f"line {lineno}: negative qubit count")
            if n > MAX_TABLEAU_QUBITS:
                raise ValueError(f"line {lineno}: circuits limited to {MAX_TABLEAU_QUBITS} qubits")
            continue
        kind = parts[0].upper()
        arity = GATE_ARITY.get(kind)
        if arity is None:
            raise ValueError(f"line {lineno}: unknown gate {parts[0]!r}")
        if len(parts) != 1 + arity:
            raise ValueError(f"line {lineno}: {kind} takes {arity} qubit(s)")
        try:
            qubits = tuple(map(_frozen_read_int, parts[1:]))
        except ValueError:
            raise ValueError(f"line {lineno}: bad qubit index") from None
        try:
            gate = seen[raw] = _FrozenGate(kind, qubits)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        gates.append(gate)
    if n is None:
        raise ValueError("missing 'qubits N' header")
    return Circuit(n, gates)


# Qubit fields in range under a 4-qubit header, and odd ones: out of range,
# negative, or taken by int() but never written by the format.
_GOOD_FIELDS = ["0", "1", "2", "3"]
_ODD_FIELDS = ["4", "5", "-1", "-0", "+1", "007", "1_0", "\u0663", "x", "--1"]
_KINDS = ["H", "h", "S", "t", "T", "CNOT", "cnot", "CNot", "SWAP", "swap"]


@st.composite
def circuit_texts(draw):
    """Texts near the format: a header (maybe repeated), gate lines of any
    arity, comments, blank and whitespace-only lines, and mixed line breaks."""
    space = st.sampled_from([" ", "\t", "  ", " \t"])
    pad = st.sampled_from(["", " ", "\t"])
    # Mostly qubits in range, so that some texts parse and others fail late,
    # and one odd field per text, so that each is drawn often.
    odd = draw(st.sampled_from(_ODD_FIELDS))
    field = st.sampled_from(_GOOD_FIELDS * 2 + [odd])

    def line(head, fields):
        seps = draw(st.lists(space, min_size=len(fields), max_size=len(fields)))
        body = head + "".join(s + f for s, f in zip(seps, fields))
        comment = draw(st.sampled_from(["", "#", " # note", "\t# H 0 1", "#qubits 2"]))
        return draw(pad) + body + draw(pad) + comment

    header = line("qubits", [draw(st.sampled_from(["4", "4", "3", odd]))])
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        shape = draw(st.sampled_from(["blank", "any"] + ["gate"] * 4))
        if shape == "blank":
            pool.append(draw(st.sampled_from(["", " ", "\t", "# comment", "   # H 0"])))
        elif shape == "any":
            kind = draw(st.sampled_from(_KINDS + ["X", "qubits", "QUBITS"]))
            pool.append(line(kind, draw(st.lists(field, max_size=3))))
        else:
            kind = draw(st.sampled_from(_KINDS))
            arity = GATE_ARITY[kind.upper()]
            pool.append(line(kind, draw(st.lists(field, min_size=arity, max_size=arity))))
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    # The header first in most texts, and again (or only) further on in some.
    if draw(st.integers(0, 3)):
        lines.insert(0, header)
    if not draw(st.integers(0, 3)):
        lines.insert(draw(st.integers(0, len(lines))), header)
    breaks = draw(st.lists(st.sampled_from(["\n", "\r\n", "\x0c", "\r"]),
                           min_size=len(lines), max_size=len(lines)))
    return "".join(l + b for l, b in zip(lines, breaks))


def _parse_outcome(parse, text):
    try:
        c = parse(text)
    except ValueError as e:
        return "error", str(e)
    return c.n, [(g.kind, g.qubits) for g in c.given]


# Each outcome once for certain; random texts reach the rarer ones seldom.
@settings(max_examples=500, deadline=None)
@given(circuit_texts())
@example("qubits 4\n\th 0 # c\r\nCNOT 1 3\x0cSWAP\t2 0\nH 0\n")
@example("qubits 4\nH 0\nqubits 4\n")
@example("Qubits 4\nH 0\n")
@example("# only a comment\n \t\n")
@example("qubits -1\nH 0\n")
@example("qubits 4\nH 0\ncnot 1\n")
@example("qubits 4\nH 0\nH -1\n")
@example("qubits 4\nH 0\nCNOT 1 x\n")
@example("qubits 4\r\nCNOT 2\t2 # c\n")
@example("qubits 3\x0ccnot 0\t3\n")
def test_parse_circuit_matches_the_frozen_parser(text):
    assert _parse_outcome(parse_circuit, text) == _parse_outcome(_frozen_parse_circuit, text)


# --- Gate as a value ---------------------------------------------------------------

@pytest.mark.parametrize("kind, qubits", [("H", (0,)), ("T", (7,)), ("CNOT", (2, 0)),
                                          ("SWAP", (1, 3))])
def test_gate_is_the_same_value_as_the_frozen_dataclass(kind, qubits):
    g, old = Gate(kind, qubits), _FrozenGate(kind, qubits)
    assert repr(g) == repr(old).replace("_FrozenGate", "Gate")
    assert repr(g) == f"Gate(kind={kind!r}, qubits={qubits!r})"
    assert hash(g) == hash(old) == hash((kind, qubits))
    assert g == Gate(kind, qubits) and g == Gate(qubits=qubits, kind=kind)
    assert g != (kind, qubits) and old != (kind, qubits)
    assert g != Gate("H", (9,)) and g != old
    assert dataclasses.astuple(g) == dataclasses.astuple(old) == (kind, qubits)


def test_gate_is_frozen_and_has_no_dict():
    g = Gate.cnot(0, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.kind = "SWAP"
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.qubits = (1, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del g.qubits
    assert not hasattr(g, "__dict__")
    assert (g.kind, g.qubits) == ("CNOT", (0, 1))
    # replace() goes through the same checks as construction.
    with pytest.raises(ValueError, match="distinct"):
        dataclasses.replace(g, qubits=(0, 0))
    assert dataclasses.replace(g, kind="SWAP") == Gate.swap(0, 1)


@pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)),
                                   copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_circuits_of_gates_survive_pickle_and_copy(clone):
    c = random_circuit(random.Random(4), 9, 6, allow_t=True)
    again = clone(c)
    assert again == c and hash(again) == hash(c)
    assert [repr(g) for g in again.given] == [repr(g) for g in c.given]
    assert all(type(g) is Gate and not hasattr(g, "__dict__") for g in again.given)
    assert format_circuit(again) == format_circuit(c)
