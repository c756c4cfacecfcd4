"""Fuzz tests: malformed input ends in exit code 2 or 3 with one error line,
and the library entry points raise only ValueError."""

import json
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from borncraft.circuit import GATE_ARITY, Circuit, Gate, parse_circuit
from borncraft.cli import MAX_INPUT_CHARS, main
from borncraft.dist import dist_from_json
from borncraft.harness import EXPERIMENTS, ExperimentSpec, run

NAMES = sorted(EXPERIMENTS)

# Sizes stay small, so a grid the table accepts runs in milliseconds; each
# large value lies beyond some cap, so it is refused before any work is done.
numbers = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([10 ** 6, -(10 ** 6), 10 ** 400, True, False]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.5, 2.0, 3.0, 5e-324, 1e-300]),
)
scalars = st.one_of(numbers, st.none(), st.text(max_size=3),
                    st.sampled_from(["nan", "1/8", "3", "ff", "1/0"]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=4,
)
small = st.integers(-1, 4) | st.lists(st.integers(-1, 4), max_size=3)
grid_values = st.one_of(small, small, small, numbers, st.lists(numbers, max_size=3), json_values)


@st.composite
def grids(draw, name):
    """Most of the experiment's own keys, now and then an unknown one. Keys with
    a float default get a value in [0, 1] half the time."""
    grid = {}
    for key, t in EXPERIMENTS[name].table.items():
        if draw(st.integers(0, 3)):
            real = isinstance(t.default, float)
            grid[key] = draw(st.floats(0, 1) | grid_values if real else grid_values)
    if draw(st.integers(0, 4)) == 0:
        grid[draw(st.text(max_size=3))] = draw(grid_values)
    return grid


# Every kind dist_from_json reads, and four it refuses as unknown.
dist_objects = st.fixed_dictionaries(
    {"schema": st.sampled_from(["dist_v1", "dist_v1", "dist_v0"]),
     "kind": st.sampled_from(["affine_uniform", "noisy_parity", "function",
                              "point_mass", "product", "dense", "other"])},
    optional={f: json_values for f in ["n", "dim", "basis_rows", "shift", "k", "s",
                                      "eta", "table", "value", "probs"]},
)
LIMIT = sys.getrecursionlimit()
# JSON text nested deeper than the interpreter's recursion limit (json.dumps
# itself would overflow the stack on such an object).
deep_json_texts = st.builds(lambda d, wrap: wrap[0] * d + "0" + wrap[1] * d,
                            st.integers(LIMIT, 3 * LIMIT),
                            st.sampled_from([("[", "]"), ('{"k": ', "}")]))
# Valid inputs one character over the input cap: a circuit and a t-noise grid.
TOO_LONG_CIRCUIT = "qubits 1\n" + "H 0\n" * ((MAX_INPUT_CHARS - 8) // 4)
TOO_LONG_GRID = '{"k": 1' + " " * (MAX_INPUT_CHARS - 7) + "}"
junk_lines = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
gate_lines = st.one_of(
    st.builds("{} {}".format, st.sampled_from(["H", "S", "T"]), st.integers(0, 3)),
    st.builds("{} {} {}".format, st.sampled_from(["CNOT", "SWAP"]), st.integers(0, 3),
              st.integers(0, 3)),
    st.builds(lambda g, qs: " ".join([g, *map(str, qs)]),
              st.sampled_from(["H", "CNOT", "X", "#"]), st.lists(st.integers(-1, 5), max_size=3)),
)
circuits = st.builds(
    lambda header, body: "\n".join([header, *body]),
    st.one_of(st.integers(0, 4).map("qubits {}".format), st.integers(0, 4).map("qubits {}".format),
              st.sampled_from(["qubits 21", "qubits 5000", "qubits -1", "qubits 1_0", ""]),
              junk_lines),
    st.lists(st.one_of(gate_lines, gate_lines, junk_lines), max_size=5),
)


@st.composite
def cli_argv(draw, path):
    """An argv, and whether it names a file longer than the input cap."""
    seed = str(draw(st.integers(-3, 3)))
    command = draw(st.sampled_from(["simulate", "learn", "experiment"]))
    if command in ("simulate", "learn"):
        text = draw(st.one_of(circuits, circuits, circuits, st.just(TOO_LONG_CIRCUIT)))
        path.write_text(text, encoding="utf-8")
    if command == "simulate":
        backend = draw(st.sampled_from(["stab", "sv"]))
        return ["simulate", str(path), "--backend", backend, "--samples",
                str(draw(st.integers(-1, 3))), "--seed", seed], text == TOO_LONG_CIRCUIT
    if command == "learn":
        delta = draw(st.floats(0, 1) | st.floats(allow_nan=True, allow_infinity=True)
                     | st.sampled_from([5e-324, 1e-300, 0.25]))
        return ["learn", "closure", "--circuit", str(path), "--delta", repr(delta),
                "--seed", seed], text == TOO_LONG_CIRCUIT
    name = draw(st.sampled_from(NAMES))
    grid = draw(st.one_of(grids(name), grids(name), dist_objects, json_values).map(json.dumps)
                | deep_json_texts | st.just(TOO_LONG_GRID))
    if grid == TOO_LONG_GRID or draw(st.integers(0, 3)) == 0:
        path.write_text(grid, encoding="utf-8")
        grid = "@" + str(path)
    trials = draw(st.sampled_from([1, 2, 3, 1, 0, -1, 10 ** 12]))
    return ["experiment", name, "--grid", grid, "--trials", str(trials),
            "--seed", seed], grid == "@" + str(path) and path.read_text() == TOO_LONG_GRID


def _no_constants(name):
    raise ValueError(f"{name} in output JSON")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_exits_0_2_or_3_with_one_error_line(tmp_path, capsys, data):
    argv, too_long = data.draw(cli_argv(tmp_path / "fuzz.qc"))
    try:
        code = main(argv)
    except SystemExit as e:  # argparse refusing an argument
        code = e.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv[:3], err)
    if too_long:  # refused, by the cap or by an argument checked before the file is read
        assert code == 2, argv[:3]
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
    if code != 0:
        assert out == "" and err.strip(), argv
    elif out.startswith("{"):
        json.loads(out, parse_constant=_no_constants)


qubit_lists = st.lists(numbers | st.integers(-1, 5) | st.text(max_size=2) | st.none(), max_size=3)
gate_args = st.tuples(st.sampled_from([*GATE_ARITY, "X"]),
                      qubit_lists.map(tuple) | qubit_lists | st.integers(-1, 5) | st.none())


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 10 ** 12]), circuits, dist_objects, gate_args)
def test_library_entry_points_raise_only_value_error(data, trials, text, obj, gate):
    name = data.draw(st.sampled_from(NAMES))
    grid = data.draw(grids(name) | dist_objects)
    for call in (lambda: run(ExperimentSpec(name, grid, trials, 0)),
                 lambda: parse_circuit(text),
                 lambda: dist_from_json(obj),
                 lambda: Circuit(6, [Gate(*gate)]),
                 lambda: Circuit(6, [gate])):
        try:
            call()
        except ValueError:
            pass
