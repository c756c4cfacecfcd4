"""The pure experiments give the same result bytes under other Python versions.

`recovery-curve`, `parity-tv` and `sq-vs-sample` compute with ints,
`Fraction`s and correctly rounded float arithmetic, and call no NumPy
function. The test runs them in subprocesses under each pyenv-installed
CPython 3.10, 3.12 and 3.13 that exists (it skips the missing ones), with a
stub `numpy` first on the path that holds only `sqrt` and `ndarray`, so any
other NumPy call fails. It requires the hashes of the running interpreter,
and the same `borncraft.__all__`, which is derived from the import block.
The same run parses a fixed circuit text and hashes its `format_circuit`,
the `repr` of each `Gate` and a pickle round trip, since `Gate` is a slotted
frozen dataclass, whose generated methods come from each version's
`dataclasses`.

Its limit: every float these grids sum is dyadic with a small denominator
(TVs of 0, 1/2, 3/4, ...; mean TV 0 for `sq-vs-sample`), so each sum is
exact in any order. The test cannot see a change in summation order, such
as `sum()`'s compensated float sums from Python 3.12.

A static check backs the "no libm call" half of the claim: every `math`
name the package reads is exact or correctly rounded.
"""

import ast
import functools
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import borncraft

# frexp, nextafter, inf and prod (of ints) are exact, and IEEE 754 requires
# sqrt to be correctly rounded; log, exp, sin and the rest come from libm.
EXACT_MATH = {"frexp", "inf", "nextafter", "prod", "sqrt"}

SPECS = [
    ["recovery-curve", {"n": 12, "m": [3, 6, 9], "k_offsets": [0, 2, 5]}, 200],
    ["parity-tv", {"k": [1, 2, 3, 4, 5]}, 1],
    ["sq-vs-sample", {"k": 10}, 50],
]

# Comments, blank lines, mixed case and a repeated line; the Gates are slotted
# frozen dataclasses, whose repr and pickling come from the running dataclasses.
CIRCUIT_TEXT = """# four wires
qubits 4
H 0   # the first layer
cnot 0 3
\tSWAP 1 2

t 3
H 0
CNOT 2 1  # again
H 0
"""

_SCRIPT = """
import hashlib, json, pickle, sys
import borncraft
from borncraft.circuit import format_circuit, parse_circuit
from borncraft.harness import ExperimentSpec, run
out = {"__all__": sorted(borncraft.__all__)}
for name, grid, trials in json.loads(sys.argv[1]):
    obj = run(ExperimentSpec(name, grid, trials, 1)).to_dict()
    del obj["generated_at"]
    out[name] = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
c = parse_circuit(sys.argv[2])
again = pickle.loads(pickle.dumps(c))
seen = [format_circuit(c), [repr(g) for g in c.given], again == c,
        format_circuit(again), [repr(g) for g in again.given]]
out["parse_circuit"] = hashlib.sha256(json.dumps(seen).encode()).hexdigest()
print(json.dumps(out))
"""

_NUMPY_STUB = '''"""Only what importing borncraft needs; any other attribute is an error."""
import math

sqrt = math.sqrt


class ndarray:
    pass


def __getattr__(name):
    raise AttributeError(f"numpy stub has no attribute {name!r}")
'''


def _interpreter(minor: int) -> str | None:
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    found = sorted(glob.glob(os.path.join(root, "versions", f"3.{minor}.*", "bin", "python3")))
    return found[-1] if found else None


@functools.cache
def _hashes(python: str, path_dirs: tuple[str, ...] = ()) -> dict:
    src = str(Path(borncraft.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*path_dirs, src]))
    proc = subprocess.run([python, "-c", _SCRIPT, json.dumps(SPECS), CIRCUIT_TEXT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.parametrize("minor", [10, 12, 13])
def test_pure_experiments_match_across_python_versions(minor, tmp_path):
    python = _interpreter(minor)
    if python is None:
        pytest.skip(f"no pyenv CPython 3.{minor} installed")
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(_NUMPY_STUB, encoding="utf-8")
    assert _hashes(python, (str(tmp_path),)) == _hashes(sys.executable)


def test_package_reads_only_exact_math_functions():
    read = set()
    for path in sorted(Path(borncraft.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "math"):
                read.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                read.update((path.name, alias.name) for alias in node.names)
    assert read, "the walk found no math name: the check would pass on anything"
    assert {entry for entry in read if entry[1] not in EXACT_MATH} == set()
