"""Seeded experiment runner.

Every run is fully determined by (spec, master_seed): per-trial RNG streams
are MT19937 generators keyed by SHA-256 of "master:point:trial", so results
are independent of scheduling and bit-identical across machines. Result JSON
follows schema "result_v1"; the timestamp field is excluded from the
determinism contract.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .circuit import T_NOISE_RATE, parity_circuit, random_circuit, Gate, Circuit
from .dist import (
    AffineUniform,
    NoisyParity,
    SampleOracle,
    StatOracle,
    tv,
)
from .gf2 import AffineSubspace, BitVec
from .learn import closure_learn, recover_affine, sq_correlation_learner
from .statevector import MAX_UNITARY_QUBITS, opnorm_tv_check, sv_distribution

RESULT_SCHEMA = "result_v1"

WILSON_Z = 1.96


class InfeasibleGridError(ValueError):
    """Grid parameters exceed a simulator guard or enumeration budget."""


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    grid: dict
    trials: int
    master_seed: int


@dataclass
class ExperimentResult:
    experiment: str
    spec: dict
    seed: int
    points: list[dict]
    version: str = __version__
    generated_at: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def to_dict(self) -> dict:
        return {
            "schema": RESULT_SCHEMA,
            "experiment": self.experiment,
            "spec": self.spec,
            "seed": self.seed,
            "points": self.points,
            "version": self.version,
            "generated_at": self.generated_at,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        param_keys = sorted({k for p in self.points for k in p["params"]})
        metric_keys = ["success_rate", "ci_lo", "ci_hi", "mean_tv", "queries"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["experiment", *param_keys, *metric_keys])
        for p in self.points:
            row = [self.experiment]
            row += [p["params"].get(k, "") for k in param_keys]
            row += [p.get(k, "") for k in metric_keys]
            writer.writerow(row)
        return buf.getvalue()


def trial_rng(master_seed: int, point_index: int, trial_index: int) -> random.Random:
    """Independent, schedule-free RNG stream for one trial."""
    key = f"{master_seed}:{point_index}:{trial_index}".encode()
    seed = int.from_bytes(hashlib.sha256(key).digest()[:16], "big")
    return random.Random(seed)


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def wilson_sigma(successes: int, trials: int, z: float = WILSON_Z) -> float:
    """Half-width of the Wilson interval expressed per standard score."""
    lo, hi = wilson_interval(successes, trials, z)
    return (hi - lo) / (2 * z)


def _point(params: dict, successes: int, trials: int, mean_tv: float,
           queries: float, **metrics) -> dict:
    lo, hi = wilson_interval(successes, trials)
    out = {
        "params": params,
        "success_rate": successes / trials,
        "ci_lo": lo,
        "ci_hi": hi,
        "mean_tv": mean_tv,
        "queries": queries,
    }
    if metrics:
        out["metrics"] = metrics
    return out


# --- recovery-curve ---------------------------------------------------------


def recovery_trial(n: int, m: int, k: int, rng) -> tuple[bool, float, int]:
    """One subspace-recovery trial: a hidden random affine subspace, k span
    samples plus one extra draw seeding the shift, exact-recovery check.

    Returns (success, tv to truth, oracle draws). The extra draw keeps all k
    counted samples informative for the span, matching the k-sample coupon
    bound 1 - 2^(m-k)."""
    truth = AffineSubspace.random(rng, n, m)
    truth_dist = AffineUniform(truth)
    oracle = SampleOracle(truth_dist, rng)
    samples = [oracle.draw() for _ in range(k + 1)]
    learned = recover_affine(samples)
    success = learned.subspace.same_set(truth)
    dist_tv = float(tv(learned.dist(), truth_dist))
    return success, dist_tv, oracle.queries


def _grid_value(grid: dict, key: str):
    try:
        return grid[key]
    except KeyError:
        raise ValueError(f"grid is missing key {key!r}") from None


def _grid_list(grid: dict, key: str) -> list:
    v = _grid_value(grid, key)
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _run_recovery_curve(spec: ExperimentSpec) -> list[dict]:
    grid = spec.grid
    n = int(_grid_value(grid, "n"))
    ms = [int(m) for m in _grid_list(grid, "m")]
    if any(not 0 <= m <= n for m in ms):
        raise InfeasibleGridError("subspace dimension out of range")
    points = []
    point_index = 0
    for m in ms:
        if "k" in grid:
            ks = [int(k) for k in _grid_list(grid, "k")]
        else:
            ks = [m + int(off) for off in _grid_list(grid, "k_offsets")]
        for k in ks:
            if k < 0:
                raise InfeasibleGridError("negative sample count")
            successes = 0
            tv_sum = 0.0
            queries = 0
            for t in range(spec.trials):
                rng = trial_rng(spec.master_seed, point_index, t)
                ok, dtv, q = recovery_trial(n, m, k, rng)
                successes += ok
                tv_sum += dtv
                queries += q
            points.append(
                _point(
                    {"n": n, "m": m, "k": k},
                    successes,
                    spec.trials,
                    tv_sum / spec.trials,
                    queries / spec.trials,
                )
            )
            point_index += 1
    return points


# --- t-noise ----------------------------------------------------------------


def _run_t_noise(spec: ExperimentSpec) -> list[dict]:
    grid = spec.grid
    ks = [int(k) for k in _grid_list(grid, "k")]
    tol = float(grid.get("tol", 1e-12))
    points = []
    for k in ks:
        if k < 1 or k > 8:
            raise InfeasibleGridError("exhaustive parity sweep limited to k <= 8")
        passing = 0
        tv_sum = 0.0
        max_prob_err = 0.0
        max_eta_err = 0.0
        for s_bits in range(1 << k):
            s = BitVec(k, s_bits)
            dd = sv_distribution(parity_circuit(s, noisy=True))
            model = NoisyParity(s, T_NOISE_RATE)
            point_err = 0.0
            dist_tv = 0.0
            flip_mass = 0.0
            for idx in range(1 << (k + 1)):
                x = BitVec(k + 1, idx)
                diff = dd.eval(x) - float(model.eval(x))
                point_err = max(point_err, abs(diff))
                dist_tv += abs(diff)
                if x[k] != x.take(k).dot(s):
                    flip_mass += dd.eval(x)
            eta_err = abs(flip_mass - T_NOISE_RATE)
            max_prob_err = max(max_prob_err, point_err)
            max_eta_err = max(max_eta_err, eta_err)
            tv_sum += dist_tv / 2
            passing += point_err < tol
        points.append(
            _point(
                {"k": k, "eta": T_NOISE_RATE, "tol": tol},
                passing,
                1 << k,
                tv_sum / (1 << k),
                0,
                max_prob_err=max_prob_err,
                max_eta_err=max_eta_err,
            )
        )
    return points


# --- parity-tv --------------------------------------------------------------


def _run_parity_tv(spec: ExperimentSpec) -> list[dict]:
    grid = spec.grid
    ks = [int(k) for k in _grid_list(grid, "k")]
    points = []
    for k in ks:
        if k < 1 or k > 8:
            raise InfeasibleGridError("pairwise enumeration limited to k <= 8")
        dists = [NoisyParity(BitVec(k, s), 0) for s in range(1 << k)]
        exact_half = 0
        pairs = 0
        tv_sum = 0.0
        self_ok = all(tv(d, d) == 0 for d in dists)
        for i in range(len(dists)):
            for j in range(i + 1, len(dists)):
                d = tv(dists[i], dists[j])
                pairs += 1
                tv_sum += float(d)
                exact_half += d * 2 == 1
        points.append(
            _point(
                {"k": k},
                exact_half,
                pairs,
                tv_sum / pairs,
                0,
                self_tv_zero=self_ok,
            )
        )
    return points


# --- sq-vs-sample -----------------------------------------------------------


def _parity_subspace(s: BitVec) -> AffineSubspace:
    """The graph {(x, s.x)} as a k-dimensional subspace of F2^(k+1)."""
    k = s.n
    cols = tuple((1 << i) | (s[i] << k) for i in range(k))
    return AffineSubspace._from_cols(k + 1, cols, 0)


def sq_trial(k: int, tau: float, budget: int, rng) -> tuple[bool, int]:
    """Adversarial-oracle correlation search for a random hidden parity."""
    s = BitVec.random(rng, k)
    oracle = StatOracle(
        NoisyParity(s, 0), tau, "adversarial", adversary_seed=rng.getrandbits(64)
    )
    found = sq_correlation_learner(oracle, k, budget, rng)
    return found == s, oracle.queries


def closure_parity_trial(k: int, delta: float, rng) -> tuple[bool, int]:
    """Sample-oracle recovery of a random parity distribution (eta = 0)."""
    s = BitVec.random(rng, k)
    oracle = SampleOracle(NoisyParity(s, 0), rng)
    learned = closure_learn(oracle, k + 1, delta)
    return learned.subspace.same_set(_parity_subspace(s)), oracle.queries


def _run_sq_vs_sample(spec: ExperimentSpec) -> list[dict]:
    grid = spec.grid
    k = int(_grid_value(grid, "k"))
    tau = float(grid.get("tau", 0.1))
    budget = int(grid.get("budget", 1000))
    delta = float(grid.get("delta", 0.0625))
    if k < 1 or k > 30:
        raise InfeasibleGridError("k out of range")
    sq_successes = 0
    sq_queries = 0
    for t in range(spec.trials):
        ok, q = sq_trial(k, tau, budget, trial_rng(spec.master_seed, 0, t))
        sq_successes += ok
        sq_queries += q
    cl_successes = 0
    cl_queries = 0
    for t in range(spec.trials):
        ok, q = closure_parity_trial(k, delta, trial_rng(spec.master_seed, 1, t))
        cl_successes += ok
        cl_queries += q
    return [
        _point(
            {"k": k, "tau": tau, "budget": budget, "learner": "sq-correlation"},
            sq_successes,
            spec.trials,
            0.0,
            sq_queries / spec.trials,
        ),
        _point(
            {"k": k, "delta": delta, "learner": "closure"},
            cl_successes,
            spec.trials,
            0.0,
            cl_queries / spec.trials,
        ),
    ]


# --- opnorm-tv --------------------------------------------------------------


def _run_opnorm_tv(spec: ExperimentSpec) -> list[dict]:
    grid = spec.grid
    ns = [int(n) for n in _grid_list(grid, "n")]
    points = []
    for point_index, n in enumerate(ns):
        if n < 1 or n > MAX_UNITARY_QUBITS:
            raise InfeasibleGridError(
                f"unitary comparison limited to {MAX_UNITARY_QUBITS} qubits"
            )
        held = 0
        tv_sum = 0.0
        max_excess = -1.0
        for t in range(spec.trials):
            rng = trial_rng(spec.master_seed, point_index, t)
            base = random_circuit(rng, n, rng.randrange(1, 9), allow_t=True)
            extra = _random_gate(rng, n)
            perturbed = Circuit(n, list(base.gates()) + [extra])
            opnorm, tvd = opnorm_tv_check(base, perturbed)
            held += tvd <= opnorm
            tv_sum += tvd
            max_excess = max(max_excess, tvd - opnorm)
        points.append(
            _point(
                {"n": n},
                held,
                spec.trials,
                tv_sum / spec.trials,
                0,
                max_tv_minus_opnorm=max_excess,
            )
        )
    return points


def _random_gate(rng, n: int) -> Gate:
    kinds = ["H", "S", "T"] + (["CNOT", "SWAP"] if n > 1 else [])
    kind = kinds[rng.randrange(len(kinds))]
    if kind in ("CNOT", "SWAP"):
        q = rng.randrange(n - 1)
        return Gate(kind, (q, q + 1) if rng.getrandbits(1) else (q + 1, q))
    return Gate(kind, (rng.randrange(n),))


EXPERIMENTS = {
    "recovery-curve": _run_recovery_curve,
    "t-noise": _run_t_noise,
    "parity-tv": _run_parity_tv,
    "sq-vs-sample": _run_sq_vs_sample,
    "opnorm-tv": _run_opnorm_tv,
}


def run(spec: ExperimentSpec) -> ExperimentResult:
    """Execute a registered experiment; deterministic given (spec, seed)."""
    runner = EXPERIMENTS.get(spec.name)
    if runner is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {spec.name!r} (known: {known})")
    if spec.trials < 1:
        raise ValueError("trials must be positive")
    points = runner(spec)
    return ExperimentResult(
        experiment=spec.name,
        spec={"grid": spec.grid, "trials": spec.trials},
        seed=spec.master_seed,
        points=points,
    )
