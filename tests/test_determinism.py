"""The statevector's output bytes do not depend on the BLAS kernel or on the
SIMD paths NumPy dispatches to.

The test runs this file as a script in subprocesses, each under another
OpenBLAS core type (OPENBLAS_CORETYPE) or with NumPy's dispatched CPU features
off (NPY_DISABLE_CPU_FEATURES), and requires one hash per output across all of
them. It covers one NumPy and one libm: another NumPy version, or another
platform's math library, is outside what it shows.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import borncraft
from borncraft.circuit import format_circuit, parity_circuit, random_circuit
from borncraft.cli import main
from borncraft.gf2 import BitVec
from borncraft.harness import ExperimentSpec, run
from borncraft.statevector import circuit_unitary, sv_distribution


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _result_bytes(spec: ExperimentSpec) -> bytes:
    obj = run(spec).to_dict()
    del obj["generated_at"]
    return json.dumps(obj, sort_keys=True).encode()


def kernel_hashes() -> dict:
    """SHA-256 of each float output of the statevector path, for fixed inputs."""
    rng = random.Random(2024)
    circuits = [parity_circuit(BitVec(k, 0xB5E3 & ((1 << k) - 1)), noisy=True) for k in range(1, 17)]
    circuits += [random_circuit(rng, rng.randrange(1, 12), rng.randrange(1, 10), allow_t=True)
                 for _ in range(100)]
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "circuit.qc")
        Path(path).write_text(format_circuit(random_circuit(rng, 10, 12, allow_t=True)))
        with contextlib.redirect_stdout(stdout):
            assert main(["simulate", path, "--backend", "sv"]) == 0
    return {
        "born tables": _sha(sv_distribution(c).probs.tobytes() for c in circuits),
        "unitaries": _sha(circuit_unitary(c).tobytes() for c in circuits if c.n <= 8),
        "t-noise": _sha([_result_bytes(ExperimentSpec("t-noise", {"k": list(range(1, 9))}, 1, 1))]),
        "opnorm-tv": _sha([_result_bytes(ExperimentSpec("opnorm-tv", {"n": list(range(1, 9))}, 40, 1))]),
        "simulate sv": _sha([stdout.getvalue().encode()]),
    }


def _dispatched_cpu_features() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def _openblas_config() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["openblas configuration"]
    except (TypeError, KeyError):  # NumPy < 1.26, or another BLAS
        return ""


# OpenBLAS core types and the /proc/cpuinfo flag each kernel set needs. A core
# type newer than the CPU can die with SIGILL, so only those the CPU runs are used.
_CORE_TYPES = {"Prescott": "pni", "Nehalem": "sse4_2", "Sandybridge": "avx"}


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {f for line in text.splitlines() if line.startswith("flags") for f in line.split()}


def _run_script(env_update: dict) -> tuple[dict, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    src = str(Path(borncraft.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_VERBOSE"] = "2"  # OpenBLAS names the core it picked on stderr
    env.update(env_update)
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, (env_update, proc.stderr[-2000:])
    return json.loads(proc.stdout), proc.stderr


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or "DYNAMIC_ARCH" not in _openblas_config(),
                    reason="needs NumPy on an x86-64 DYNAMIC_ARCH OpenBLAS")
def test_statevector_bytes_are_the_same_under_every_kernel():
    flags = _cpu_flags()
    cores = [core for core, flag in _CORE_TYPES.items() if flag in flags]
    if len(cores) < 3:
        pytest.skip(f"the CPU runs only the core types {cores}")
    features = _dispatched_cpu_features()
    if not features:
        pytest.skip("NumPy dispatches to no CPU feature here")
    settings = [{}] + [{"OPENBLAS_CORETYPE": core} for core in cores] + [
        {"NPY_DISABLE_CPU_FEATURES": " ".join(features)},
        {"NPY_DISABLE_CPU_FEATURES": " ".join(features), "OPENBLAS_CORETYPE": cores[0]},
    ]
    hashes, forced = [], set()
    for setting in settings:
        out, stderr = _run_script(setting)
        if "NPY_DISABLE_CPU_FEATURES" in setting:
            assert out["dispatched"] == []
        elif "OPENBLAS_CORETYPE" in setting:
            # the kernel set OpenBLAS ran, by its own name (Prescott's is Katmai)
            forced.add(re.search(r"Core: (\w+)", stderr).group(1))
        hashes.append(out["hashes"])
    assert len(forced) == len(cores)
    for key in hashes[0]:
        assert len({h[key] for h in hashes}) == 1, (key, settings, [h[key] for h in hashes])


if __name__ == "__main__":
    print(json.dumps({"hashes": kernel_hashes(), "dispatched": _dispatched_cpu_features()}))
