"""The three benchmark workloads: seeded inputs, the timed calls, output checks.

Each workload turns ``--seed`` into one fixed *cycle* of calls. A call is what
the benchmark times; it runs one or more *ops* (the unit that ``ops_per_s``,
``op_p50_ms`` and ``op_p90_ms`` count). The program sees only the generated
inputs. All program functions are reached through their module attribute at
call time, so the tracer in ``spans.py`` can wrap them from outside.

Output checks come in two kinds. Semantic checks run for every seed. Byte
checks compare an output fingerprint with ``reference.json``, written from the
seed code by ``make_reference.py``, and run only for the seeds stored there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import time
from dataclasses import dataclass

import numpy as np

import borncraft.circuit
import borncraft.cli
import borncraft.dist
import borncraft.gf2
import borncraft.harness
import borncraft.learn
import borncraft.statevector

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# The benchmark's own copy of the single-T flip rate sin^2(pi/8).
ETA = math.sin(math.pi / 8) ** 2
OPNORM_T = 2 * math.sin(math.pi / 8)


def derive_seed(seed: int, *parts) -> int:
    """63-bit seed for one named input stream of a benchmark seed."""
    key = ":".join(map(str, (seed, *parts))).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class CallResult:
    """What one timed call produced, after its checks ran."""

    ops: int
    failed: int
    latencies_s: list[float]
    queries: int
    fingerprint: str = ""
    successes: int = 0  # successful recovery trials; 0 in other workloads


class Workload:
    name = ""
    # Whether end-to-end timings are put at the reference machine speed
    # measured by ``worker.calibrate()``.
    speed_normalised = True

    def __init__(self, seed: int, workdir: str, sizes: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.sizes = {**self.SIZES, **(sizes or {})}
        self.calls = self.make_calls()
        self.reference: list[str] | None = None

    def load_reference(self) -> list[str] | None:
        """Output fingerprints for this seed, or None when none are stored.

        Stored fingerprints are only valid for the inputs they were made
        from, so a changed input generator is an error, not a skipped check.
        """
        if self.sizes != self.SIZES or not os.path.exists(REFERENCE_PATH):
            return None
        with open(REFERENCE_PATH, encoding="utf-8") as f:
            entry = json.load(f).get(self.name, {}).get(str(self.seed))
        if entry is None:
            return None
        if entry["inputs"] != self.inputs_fingerprint():
            raise RuntimeError(f"{self.name}: reference.json was made from other inputs")
        return entry["outputs"]

    def session(self):
        """Context held around every run of this workload's calls."""
        return contextlib.nullcontext()

    def warm_up_calls(self) -> list:
        """The first call of each kind, run before timing starts."""
        first = {}
        for call in self.calls:
            first.setdefault(self.kind(call), call)
        return list(first.values())

    def kind(self, call):
        """Calls of one kind cost about the same."""
        return None

    def make_calls(self) -> list:
        raise NotImplementedError

    def inputs_fingerprint(self) -> str:
        raise NotImplementedError

    def run(self, call):
        """The timed part of one call."""
        raise NotImplementedError

    def check(self, index: int, call, out, elapsed: float) -> CallResult:
        """Semantic checks, plus the byte check when a reference exists."""
        raise NotImplementedError

    def _byte_ok(self, index: int, fp: str) -> bool:
        return self.reference is None or self.reference[index] == fp


# --- recovery -----------------------------------------------------------------

README_GRID = {"n": 16, "m": [4, 8, 12], "k_offsets": list(range(11))}


class Recovery(Workload):
    """``harness.run("recovery-curve")`` on the README grid; one op is one trial.

    A call is one ``harness.run`` over the whole grid with a per-call master
    seed. Per-trial latency runs from ``trial_rng`` entry to
    ``recovery_trial`` exit, taken by two thin wrappers that also hand each
    trial's result to the semantic check.
    """

    name = "recovery"
    SIZES = {"rounds": 4, "trials": 50, "grid": README_GRID}

    def make_calls(self):
        return [
            borncraft.harness.ExperimentSpec(
                "recovery-curve", self.sizes["grid"], self.sizes["trials"],
                derive_seed(self.seed, self.name, r),
            )
            for r in range(self.sizes["rounds"])
        ]

    def inputs_fingerprint(self):
        return fingerprint(repr([(s.grid, s.trials, s.master_seed) for s in self.calls]))

    @contextlib.contextmanager
    def session(self):
        """Install the per-trial wrappers for the duration of the block."""
        h = borncraft.harness
        orig_rng, orig_trial = h.trial_rng, h.recovery_trial
        clock = time.perf_counter
        trials = self._trials = []
        start = [0.0]

        def trial_rng(*args):
            start[0] = clock()
            return orig_rng(*args)

        def recovery_trial(n, m, k, rng):
            out = orig_trial(n, m, k, rng)
            trials.append((clock() - start[0], k, out))
            return out

        h.trial_rng, h.recovery_trial = trial_rng, recovery_trial
        try:
            yield
        finally:
            h.trial_rng, h.recovery_trial = orig_rng, orig_trial

    def run(self, spec):
        del self._trials[:]
        return borncraft.harness.run(spec)

    def check(self, index, spec, result, elapsed):
        trials = list(self._trials)
        text = re.sub(r'\n  "generated_at": [^\n]*', "", result.to_json())
        fp = fingerprint(text)
        failed = sum(not _trial_ok(k, out) for _, k, out in trials)
        points_ok = len(trials) == spec.trials * len(result.points) and all(
            _point_ok(p, trials[i * spec.trials:(i + 1) * spec.trials], spec.trials)
            for i, p in enumerate(result.points)
        )
        if not points_ok or not self._byte_ok(index, fp):
            failed = len(trials)
        return CallResult(
            ops=len(trials),
            failed=failed,
            latencies_s=[t for t, _, _ in trials],
            queries=sum(q for _, _, (_, _, q) in trials),
            fingerprint=fp,
            successes=sum(ok for _, _, (ok, _, _) in trials),
        )


def _trial_ok(k, out) -> bool:
    # The learned set is a subset of the truth, so a failed recovery has a
    # smaller dimension and TV at least 1/2.
    ok, dtv, q = out
    return q == k + 1 and (dtv == 0.0 if ok else dtv >= 0.5)


def _point_ok(point, trials, n_trials) -> bool:
    """The harness aggregates agree with the trials the wrappers saw."""
    k = point["params"]["k"]
    successes = sum(ok for _, _, (ok, _, _) in trials)
    tv_sum = 0.0
    for _, _, (_, dtv, _) in trials:
        tv_sum += dtv
    return (
        all(tk == k for _, tk, _ in trials)
        and point["success_rate"] == successes / n_trials
        and point["mean_tv"] == tv_sum / n_trials
        and point["queries"] == k + 1
        and point["ci_lo"] <= point["success_rate"] <= point["ci_hi"]
    )


# --- clifford-learn ---------------------------------------------------------


@dataclass
class CircuitFile:
    kind: str
    n: int
    path: str
    text: str
    argv: list[str]
    support_cols: list[int] | None  # known support for "half" circuits


class CliffordLearn(Workload):
    """``borncraft learn closure`` in-process on seeded Clifford circuit files.

    "rand" circuits are nearest-neighbour layers of H/S/CNOT/SWAP, whose
    support has near-full dimension. "half" circuits put H on n/2 qubits and
    then only CNOT/SWAP/S, so the support is a known n/2-dimensional subspace
    and ``support()`` meets a kernel of dimension n/2. The cycle mix puts
    ``op_p50_ms`` inside the rand-64 cluster and ``op_p90_ms`` inside the
    rand-128 cluster rather than on a boundary between two circuit kinds.
    """

    name = "clifford-learn"
    SIZES = {
        "mix": [("rand", 64), ("half", 64), ("rand", 128), ("rand", 64), ("half", 128)],
        "layers": 32,
    }
    # A failed recovery then has probability at most 2^-29 per op.
    DELTA = "1e-9"

    def make_calls(self):
        os.makedirs(self.workdir, exist_ok=True)
        calls = []
        for i, (kind, n) in enumerate(self.sizes["mix"]):
            rng = random.Random(derive_seed(self.seed, self.name, i))
            make = _rand_circuit if kind == "rand" else _half_circuit
            text, cols = make(rng, n, self.sizes["layers"])
            path = os.path.join(self.workdir, f"c{i}.qc")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            argv = ["learn", "closure", "--circuit", path,
                    "--delta", self.DELTA, "--seed", str(rng.getrandbits(32))]
            calls.append(CircuitFile(kind, n, path, text, argv, cols))
        return calls

    def kind(self, call):
        return call.kind, call.n

    def inputs_fingerprint(self):
        return fingerprint(repr([(c.text, c.argv[4:]) for c in self.calls]))

    def run(self, call):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = borncraft.cli.main(call.argv)
        return rc, buf.getvalue()

    def check(self, index, call, out, elapsed):
        rc, text = out
        fp = fingerprint(re.sub(r'\n  "wall_time_s": [^\n]*', "", text))
        queries = 0
        try:
            payload = json.loads(text)
            queries = payload["queries"]
            ok = rc == 0 and self._payload_ok(call, payload)
        except (ValueError, KeyError, TypeError):
            ok = False
        ok = ok and self._byte_ok(index, fp)
        return CallResult(1, int(not ok), [elapsed], queries, fp)

    def _payload_ok(self, call, payload) -> bool:
        expected = call.n + math.ceil(math.log2(1.0 / float(self.DELTA)))
        learned = payload["learned"]
        if not (
            payload["success"] is True
            and payload["tv_to_truth"] == 0.0
            and payload["queries"] == payload["samples_used"] == expected
            and learned["kind"] == "affine_uniform"
            and learned["n"] == call.n
            and len(learned["basis_rows"]) == call.n
        ):
            return False
        if call.support_cols is None:
            return True
        # Independent check of the learned set against the known support.
        rows = [int(r, 16) for r in learned["basis_rows"]]
        cols = [sum(((r >> j) & 1) << i for i, r in enumerate(rows))
                for j in range(learned["dim"])]
        shift = int(learned["shift"], 16)
        pivots = _span(call.support_cols)
        return (
            len(pivots) == len(call.support_cols) == learned["dim"]
            and len(_span(cols)) == learned["dim"]
            and all(_reduce(pivots, v) == 0 for v in cols + [shift])
        )


def _rand_circuit(rng, n, layers):
    lines = [f"qubits {n}"]
    for _ in range(layers):
        q = 0
        while q < n:
            if q + 1 < n and rng.random() < 0.4:
                a, b = (q, q + 1) if rng.random() < 0.5 else (q + 1, q)
                lines.append(f"{rng.choice(('CNOT', 'SWAP'))} {a} {b}")
                q += 2
            else:
                lines.append(f"{rng.choice(('H', 'S'))} {q}")
                q += 1
    return "\n".join(lines) + "\n", None


def _half_circuit(rng, n, layers):
    hs = sorted(rng.sample(range(n), n // 2))
    lines = [f"qubits {n}"] + [f"H {q}" for q in hs]
    cols = [1 << q for q in hs]
    for _ in range(layers):
        q = 0
        while q < n:
            if q + 1 < n and rng.random() < 0.5:
                a, b = (q, q + 1) if rng.random() < 0.5 else (q + 1, q)
                if rng.random() < 0.7:
                    lines.append(f"CNOT {a} {b}")
                    cols = [c ^ (((c >> a) & 1) << b) for c in cols]
                else:
                    lines.append(f"SWAP {a} {b}")
                    cols = [c ^ ((((c >> a) ^ (c >> b)) & 1) * ((1 << a) | (1 << b)))
                            for c in cols]
                q += 2
            else:
                if rng.random() < 0.5:
                    lines.append(f"S {q}")
                q += 1
    return "\n".join(lines) + "\n", cols


def _reduce(pivots: dict[int, int], v: int) -> int:
    while v:
        low = (v & -v).bit_length() - 1
        if low not in pivots:
            return v
        v ^= pivots[low]
    return 0


def _span(vs) -> dict[int, int]:
    pivots: dict[int, int] = {}
    for v in vs:
        w = _reduce(pivots, v)
        if w:
            pivots[(w & -w).bit_length() - 1] = w
    return pivots


# --- single-t -------------------------------------------------------------------


@dataclass
class ParityTask:
    k: int
    s: int
    sample_seed: int


class SingleT(Workload):
    """One hidden parity s per op: the single-T circuit, its exact Born table,
    S samples through ``SampleOracle(Dense(...))``, and ``lpn_brute_force``.
    Ops at k=7 also compare the noisy and noiseless unitaries.

    The cycle holds each k equally often, which puts ``op_p50_ms`` inside the
    k=7 cluster and ``op_p90_ms`` inside the k=16 cluster.
    """

    name = "single-t"
    # NumPy-bound: its speed follows the pure-Python calibration loop's only
    # in part, and over ten seeds its raw timings spread less than normalised
    # ones, so they are reported as measured.
    speed_normalised = False
    SIZES = {"ks": [16, 12, 7, 16, 12, 7]}
    SAMPLES = 200  # LPN at k=16 then fails with probability below 1e-10
    OPNORM_K = 7

    def make_calls(self):
        calls = []
        for i, k in enumerate(self.sizes["ks"]):
            rng = random.Random(derive_seed(self.seed, self.name, i))
            s = rng.getrandbits(k) or 1
            calls.append(ParityTask(k, s, rng.getrandbits(63)))
        return calls

    def kind(self, task):
        return task.k

    def inputs_fingerprint(self):
        return fingerprint(repr(self.calls))

    def run(self, task):
        bc = borncraft
        k = task.k
        s = bc.gf2.BitVec(k, task.s)
        noisy = bc.circuit.parity_circuit(s, noisy=True)
        dd = bc.statevector.sv_distribution(noisy)
        oracle = bc.dist.SampleOracle(bc.dist.Dense(dd), random.Random(task.sample_seed))
        draws = [oracle.draw() for _ in range(self.SAMPLES)]
        found = bc.learn.lpn_brute_force([(x.take(k), x[k]) for x in draws], k)
        opnorm = None
        if k == self.OPNORM_K:
            noiseless = bc.circuit.parity_circuit(s, noisy=False)
            opnorm = bc.statevector.opnorm_tv_check(noisy, noiseless)
        return found, draws, dd, oracle.queries, opnorm

    def check(self, index, task, out, elapsed):
        found, draws, dd, queries, opnorm = out
        k = task.k
        parity = np.bitwise_count(np.arange(1 << k) & task.s) & 1
        exact = np.concatenate([np.where(parity == y, 1 - ETA, ETA) for y in (0, 1)]) / (1 << k)
        ok = (
            found.n == k and found.bits == task.s
            and queries == len(draws) == self.SAMPLES
            and all(x.n == k + 1 and exact[x.bits] > 0 for x in draws)
            and float(np.abs(dd.probs - exact).max()) <= 1e-12
        )
        if opnorm is not None:
            on, tvd = opnorm
            ok = ok and abs(tvd - ETA) <= 1e-12 and abs(on - OPNORM_T) <= 1e-9
        fp = fingerprint(repr((found.bits, [x.bits for x in draws], opnorm)))
        return CallResult(1, int(not ok), [elapsed], queries, fp)


WORKLOADS = {w.name: w for w in (Recovery, CliffordLearn, SingleT)}
