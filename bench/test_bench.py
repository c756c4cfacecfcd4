"""Smoke tests for the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Each workload runs one cycle at a tiny size; tracing must leave every output
byte-identical; the stored references must match the current sources; and
the launcher must refuse to run where the package sources are missing.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import borncraft  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "recovery": {"rounds": 1, "trials": 3,
                 "grid": {"n": 8, "m": [2, 5], "k_offsets": [0, 4]}},
    "clifford-learn": {"mix": [("rand", 8), ("half", 8), ("half", 12)], "layers": 4},
    "single-t": {"ks": [3, 7]},
}


def one_cycle(wl, tracer=None):
    """Fingerprints of one cycle of calls, and the phase totals."""
    ph = worker.Phase()
    with wl.session(), tracer or contextlib.nullcontext():
        worker.run_cycle(wl, ph, tracer)
        fps = [wl.check(i, call, wl.run(call), 0.0).fingerprint
               for i, call in enumerate(wl.calls)]
    return fps, ph


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_cycle_passes_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, str(tmp_path), TINY[name])
    _, ph = one_cycle(wl)
    assert ph.ops > 0 and ph.failed == 0
    assert len(ph.latencies) == ph.ops and ph.cycles == 1 and ph.calib_runs == len(wl.calls)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_keeps_outputs_byte_identical(name, tmp_path):
    wl = workloads.WORKLOADS[name](5, str(tmp_path), TINY[name])
    plain, _ = one_cycle(wl)
    tracer = spans.Tracer()
    traced, ph = one_cycle(wl, tracer)
    assert traced == plain and all(plain)
    assert ph.failed == 0
    assert sum(s[0] for s in tracer.stats.values()) > 0
    assert ph.unattributed <= worker.MAX_UNATTRIBUTED * ph.seconds
    # Every alias is restored once the tracer exits.
    assert borncraft.cli.simulate_clifford is borncraft.stabilizer.simulate_clifford
    assert not hasattr(borncraft.stabilizer.simulate_clifford, "__wrapped__")
    assert not hasattr(borncraft.gf2.AffineSubspace.random, "__wrapped__")


@pytest.mark.parametrize("name", ["recovery", "clifford-learn"])
def test_reference_seed_matches_and_mismatch_fails(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    wl.reference = wl.load_reference()
    assert wl.reference is not None
    call = wl.calls[0]
    with wl.session():
        res = wl.check(0, call, wl.run(call), 0.0)
        assert res.failed == 0 and res.fingerprint == wl.reference[0]
        wl.reference = ["0" * 16] * len(wl.calls)
        assert wl.check(0, call, wl.run(call), 0.0).failed == res.ops


def test_other_seeds_have_no_reference(tmp_path):
    wl = workloads.WORKLOADS["recovery"](10**6, str(tmp_path))
    assert wl.load_reference() is None


def test_single_t_check_rejects_wrong_parity(tmp_path):
    wl = workloads.WORKLOADS["single-t"](1, str(tmp_path), TINY["single-t"])
    task = wl.calls[0]
    found, *rest = wl.run(task)
    assert wl.check(0, task, (found, *rest), 0.0).failed == 0
    wrong = borncraft.gf2.BitVec(task.k, task.s ^ 1)
    assert wl.check(0, task, (wrong, *rest), 0.0).failed == 1


def test_launcher_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recovery", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
