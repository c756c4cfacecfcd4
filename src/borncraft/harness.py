"""Seeded experiment runner.

Every run is fully determined by (spec, master_seed): per-trial RNG streams
are MT19937 generators keyed by SHA-256 of "master:point:trial", so results
are independent of scheduling and byte-identical across re-runs, and across
machines as far as the README's "Reproducibility" section states. Result JSON
follows schema "result_v1"; the timestamp field is excluded from the
determinism contract.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import random
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .circuit import T_NOISE_RATE, parity_circuit, random_circuit, Gate, Circuit
from .dist import AffineUniform, NoisyParity, SampleOracle, StatOracle, _of_type, tv
from .gf2 import AffineSubspace, BitVec
from .learn import _recover, closure_learn, sq_correlation_learner
from .statevector import MAX_UNITARY_QUBITS, _xor_table, opnorm_tv_check, sv_distribution

RESULT_SCHEMA = "result_v1"

WILSON_Z = 1.96

# Caps on grid values and trials: one point at a cap (one trial, for the
# per-trial caps) runs in seconds and under about 100 MB (Python 3.11, 2-vCPU VM).
MAX_RECOVERY_BITS = 1024
MAX_RECOVERY_SAMPLES = 4096
# t-noise: 2^k Born tables of 2^(k+1) entries; 0.04 s at k = 7 and 0.1 s at k = 8.
MAX_T_NOISE_BITS = 8
# parity-tv: all pairs of 2^k parities; 0.3, 2.3-2.7, 20 and 160 s at k = 5, 6, 7, 8.
MAX_PARITY_TV_BITS = 6
# sq-vs-sample: a trial keeps min(budget, 2^k) slots and queries; 1.5 s, 85 MB at both caps.
MAX_SQ_BITS = 30
MAX_SQ_BUDGET = 500_000
# One README recovery-curve point (n = 16) takes 2.7-8.3 s at 10^5 trials.
MAX_TRIALS = 100_000
# A point's predicted seconds at the spec's trials, from the cost models in
# EXPERIMENTS: at most 16 s for each README recovery-curve point at MAX_TRIALS.
MAX_POINT_SECONDS = 30
# Points in one run: the product of the lengths of the grid's lists, checked
# before they are listed. The largest grid in README, tests and bench has 33;
# 1024 t-noise points at k = 8 take about a minute.
MAX_POINTS = 1024


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
        return {"schema": RESULT_SCHEMA, **asdict(self)}

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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if type(successes) is not int or type(trials) is not int:  # a bool is an int, not a count
        raise ValueError("successes and trials must be ints")
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in 0..trials")
    z = WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def wilson_sigma(successes: int, trials: int) -> float:
    """Half-width of the Wilson interval expressed per standard score."""
    lo, hi = wilson_interval(successes, trials)
    return (hi - lo) / (2 * WILSON_Z)


def _point(params: dict, successes: int, trials: int, mean_tv: float,
           queries: float, **metrics) -> dict:
    lo, hi = wilson_interval(successes, trials)
    out = {"params": params, "success_rate": successes / trials, "ci_lo": lo, "ci_hi": hi,
           "mean_tv": mean_tv, "queries": queries}
    if metrics:
        out["metrics"] = metrics
    return out


def _fold_trials(spec: ExperimentSpec, point_index: int, trial, folds=None) -> list:
    """Each column of trial(rng) over the point's trials, folded in trial order by
    its (op, start) in folds, or summed from 0 without folds. trial_rng is looked
    up on each call, so a wrapper set on the module sees every trial."""
    rows = [trial(trial_rng(spec.master_seed, point_index, t)) for t in range(spec.trials)]
    folds = folds or itertools.repeat((operator.add, 0))
    return [functools.reduce(op, column, start) for (op, start), column in zip(folds, zip(*rows))]


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
    learned = _recover(n, oracle.draw_bits(k + 1))
    # The exact TV between uniform affine sets is 0 exactly when they are
    # equal, and at least 1/2 otherwise.
    dist_tv = tv(learned, truth_dist)
    return dist_tv == 0, float(dist_tv), oracle.queries


def _recovery_points(grid: dict) -> list[dict]:
    n, ms, ks, offsets = grid["n"], grid["m"], grid["k"], grid["k_offsets"]
    if any(m > n for m in ms):
        raise InfeasibleGridError("grid key 'm' must not exceed 'n'")
    if ks is not None and offsets is not None:
        raise ValueError("grid keys 'k' and 'k_offsets' cannot both be given")
    if ks is None and offsets is None:
        raise ValueError("grid is missing key 'k' or 'k_offsets'")
    if ks is None and any(m + off < 0 for m in ms for off in offsets):
        raise InfeasibleGridError("grid key 'k_offsets' gives a negative sample count")
    return [{"n": n, "m": m, "k": k}
            for m in ms for k in (ks if ks is not None else [m + off for off in offsets])]


def _recovery_point(spec: ExperimentSpec, point_index: int, params: dict) -> dict:
    n, m, k = params["n"], params["m"], params["k"]
    # recovery_trial is looked up on each call, like trial_rng in _fold_trials.
    successes, tv_sum, queries = _fold_trials(
        spec, point_index, lambda rng: recovery_trial(n, m, k, rng))
    return _point(params, successes, spec.trials, tv_sum / spec.trials, queries / spec.trials)


# --- t-noise ----------------------------------------------------------------


def _t_noise_point(spec: ExperimentSpec, point_index: int, params: dict) -> dict:
    k = params["k"]
    passing = 0
    tv_sum = 0.0
    max_prob_err = 0.0
    max_eta_err = 0.0
    for s_bits in range(1 << k):
        # Index y·2^k + x holds a flipped label when (s, 1)·(x, y) = 1.
        flip = _xor_table([(s_bits | 1 << k) >> b & 1 for b in range(k + 1)]) == 1
        probs = sv_distribution(parity_circuit(BitVec(k, s_bits), noisy=True)).probs
        # NoisyParity(s, eta).eval as floats: a Fraction 2^-k times a float
        # is that float exactly scaled by 2^-k.
        err = np.abs(probs - np.where(flip, T_NOISE_RATE, 1 - T_NOISE_RATE) / (1 << k))
        point_err = float(err.max())
        # cumsum adds in index order, one rounding per term, as a loop would.
        flip_mass = float(np.cumsum(probs[flip])[-1])
        max_prob_err = max(max_prob_err, point_err)
        max_eta_err = max(max_eta_err, abs(flip_mass - T_NOISE_RATE))
        tv_sum += float(np.cumsum(err)[-1]) / 2
        passing += point_err < params["tol"]
    return _point(params, passing, 1 << k, tv_sum / (1 << k), 0,
                  max_prob_err=max_prob_err, max_eta_err=max_eta_err)


# --- parity-tv --------------------------------------------------------------


def _parity_tv_point(spec: ExperimentSpec, point_index: int, params: dict) -> dict:
    dists = [NoisyParity(BitVec(params["k"], s), 0) for s in range(1 << params["k"])]
    # An equal parity built anew: tv(d, d) returns 0 before enumerating.
    self_ok = all(tv(d, NoisyParity(d.s, 0)) == 0 for d in dists)
    tvs = [tv(p, q) for p, q in itertools.combinations(dists, 2)]
    # A left-to-right fold: sum() compensates float sums from Python 3.12.
    tv_sum = functools.reduce(operator.add, map(float, tvs), 0.0)
    return _point(params, sum(d * 2 == 1 for d in tvs), len(tvs), tv_sum / len(tvs), 0,
                  self_tv_zero=self_ok)


# --- sq-vs-sample -----------------------------------------------------------


def _parity_subspace(s: BitVec) -> AffineSubspace:
    """The graph {(x, s.x)} as a k-dimensional subspace of F2^(k+1)."""
    k = s.n
    cols = tuple((1 << i) | (s[i] << k) for i in range(k))
    return AffineSubspace._span(k + 1, cols, 0)


def sq_trial(k: int, tau: float, budget: int, rng) -> tuple[bool, int]:
    """Adversarial-oracle correlation search for a random hidden parity."""
    s = BitVec.random(rng, k)
    oracle = StatOracle(NoisyParity(s, 0), tau, "adversarial",
                        adversary_seed=rng.getrandbits(64))
    found = sq_correlation_learner(oracle, k, budget, rng)
    return found == s, oracle.queries


def closure_parity_trial(k: int, delta: float, rng) -> tuple[bool, int]:
    """Sample-oracle recovery of a random parity distribution (eta = 0)."""
    s = BitVec.random(rng, k)
    oracle = SampleOracle(NoisyParity(s, 0), rng)
    learned = closure_learn(oracle, k + 1, delta)
    return learned.subspace.same_set(_parity_subspace(s)), oracle.queries


def _sq_vs_sample_point(spec: ExperimentSpec, point_index: int, p: dict) -> dict:
    successes, queries = _fold_trials(spec, point_index, (
        lambda rng: closure_parity_trial(p["k"], p["delta"], rng)) if p["learner"] == "closure"
        else lambda rng: sq_trial(p["k"], p["tau"], p["budget"], rng))
    return _point(p, successes, spec.trials, 0.0, queries / spec.trials)


def _sq_vs_sample_seconds(p: dict, trials: int) -> float:
    # closure: k + 1 + ceil(log2(1/delta)) draws; 22-23, 105-108 and 1,680-1,750 µs
    # per trial at (k, delta) = (1, 1/16), (30, 1/16) and (30, 1e-300). sq: about
    # 3 µs per query, and the search stops at the hidden parity, uniform among 2^k
    # (with tau > 1/2, at the first parity that passes); 1,460, 80,900 and 1,280,000
    # µs per trial at (k, budget) = (10, 1000), (16, 100000) and (30, 500000).
    if p["learner"] == "closure":
        return trials * 1e-6 * (25 + (p["k"] + 2 - math.frexp(p["delta"])[1]) * (2 + p["k"] / 8))
    q = min(p["budget"], 2 if p["tau"] > 0.5 else 1 << p["k"])
    return trials * 1e-6 * (25 + 3 * (q - q * (q - 1) / (2 << p["k"])))


# --- opnorm-tv --------------------------------------------------------------


def _opnorm_tv_point(spec: ExperimentSpec, point_index: int, params: dict) -> dict:
    held, tv_sum, max_excess = _fold_trials(
        spec, point_index, lambda rng: _opnorm_tv_trial(params["n"], rng),
        [(operator.add, 0), (operator.add, 0), (max, -1.0)])
    return _point(params, held, spec.trials, tv_sum / spec.trials, 0,
                  max_tv_minus_opnorm=max_excess)


def _opnorm_tv_trial(n: int, rng) -> tuple[bool, float, float]:
    """A random circuit against itself plus one random gate: (TV <= opnorm, TV, TV - opnorm)."""
    base = random_circuit(rng, n, rng.randrange(1, 9), allow_t=True)
    kinds = ["H", "S", "T"] + (["CNOT", "SWAP"] if n > 1 else [])
    kind = kinds[rng.randrange(len(kinds))]
    if kind in ("CNOT", "SWAP"):
        q = rng.randrange(n - 1)
        extra = Gate(kind, (q, q + 1) if rng.getrandbits(1) else (q + 1, q))
    else:
        extra = Gate(kind, (rng.randrange(n),))
    opnorm, tvd = opnorm_tv_check(base, Circuit(n, list(base.gates()) + [extra]))
    return tvd <= opnorm, tvd, tvd - opnorm


# --- grid tables ------------------------------------------------------------


def _int(key: str, v) -> int:
    if _of_type(v, int):
        return v
    raise ValueError(f"grid key {key!r} must be an integer")


def _ints(key: str, v) -> list[int]:
    return [_int(key, x) for x in v] if isinstance(v, (list, tuple)) else [_int(key, v)]


def _real(key: str, v) -> float:
    # The comparison refuses NaN, infinities and ints too large for a float.
    if _of_type(v, (int, float)) and abs(v) <= sys.float_info.max:
        return float(v)
    raise ValueError(f"grid key {key!r} must be a finite number")


class _Key(NamedTuple):
    """A grid key's kind, the range [lo, hi] of its values, and its default (... if required)."""

    kind: Callable
    lo: float = -math.inf
    hi: float = math.inf
    default: object = ...


def _check_grid(name: str, grid, table: dict) -> dict:
    """The grid's values, typed and defaulted. A missing, unknown or wrong-typed
    key raises ValueError; after that, a value out of range InfeasibleGridError."""
    for key in grid:
        if key not in table:
            raise ValueError(f"grid key {key!r} is unknown to {name} (known: {', '.join(table)})")
    values = {}
    for key, t in table.items():
        if key not in grid and t.default is ...:
            raise ValueError(f"grid is missing key {key!r}")
        values[key] = t.kind(key, grid[key]) if key in grid else t.default
    for key, t in table.items():
        v = values[key]
        if v is not None and not all(t.lo <= x <= t.hi
                                     for x in (v if isinstance(v, list) else [v])):
            raise InfeasibleGridError(f"{name} grid key {key!r} must lie in [{t.lo}, {t.hi}]")
    return values


_BELOW_ONE = math.nextafter(1.0, 0.0)

# A grid table; the checked grid's points as params dicts in result order; one
# point's result from (spec, point_index, params); a point's seconds at a trial count.
Experiment = NamedTuple("Experiment", [("table", dict), ("points", Callable),
                                       ("evaluate", Callable), ("seconds", Callable)])

EXPERIMENTS = {
    # µs per trial, trial_rng included, at (n, m, k): (16, 4, 4) 24-27, (16, 12, 22)
    # 53-56, (64, 8, 1000) 670-970, (256, 16, 4096) 4,290-4,440, (1024, 0, 4096)
    # 770-830 and (1024, 1024, 4096) 325,000-362,000. The formula was fitted to
    # slower code and over-predicts these.
    "recovery-curve": Experiment({
        "n": _Key(_int, 0, MAX_RECOVERY_BITS),
        "m": _Key(_ints, 0, MAX_RECOVERY_BITS),
        "k": _Key(_ints, 0, MAX_RECOVERY_SAMPLES, default=None),
        "k_offsets": _Key(_ints, -MAX_RECOVERY_BITS, MAX_RECOVERY_SAMPLES, default=None),
    }, _recovery_points, _recovery_point, lambda p, trials: trials * 1e-6 * (
        25 + (p["k"] + 1) * (2 + p["m"] * (0.3 + p["n"] / 7000)))),
    # 0.24, 2.1, 10 and 54 ms per point at k = 1, 4, 6 and 8.
    "t-noise": Experiment({
        "k": _Key(_ints, 1, MAX_T_NOISE_BITS),
        "tol": _Key(_real, default=1e-12),
    }, lambda grid: [{"k": k, "eta": T_NOISE_RATE, "tol": grid["tol"]} for k in grid["k"]],
        _t_noise_point, lambda p, trials: 2e-4 * 2 ** p["k"]),
    # All pairs, each tv over 2^(k+1) strings: 0.1, 3.6, 27, 220, 2,400 ms at k = 1, 3-6.
    "parity-tv": Experiment(
        {"k": _Key(_ints, 1, MAX_PARITY_TV_BITS)}, lambda grid: [{"k": k} for k in grid["k"]],
        _parity_tv_point, lambda p, trials: 1e-4 + 1e-5 * 4 ** p["k"] * ((1 << p["k"]) - 1)),
    "sq-vs-sample": Experiment({
        "k": _Key(_int, 1, MAX_SQ_BITS),
        # tau and delta in (0, 1) as closed float ranges, with 1/delta finite.
        "tau": _Key(_real, math.nextafter(0.0, 1.0), _BELOW_ONE, default=0.1),
        "budget": _Key(_int, 0, MAX_SQ_BUDGET, default=1000),
        "delta": _Key(_real, math.nextafter(1 / sys.float_info.max, 1.0), _BELOW_ONE,
                      default=0.0625),
    }, lambda g: [dict(k=g["k"], tau=g["tau"], budget=g["budget"], learner="sq-correlation"),
                  dict(k=g["k"], delta=g["delta"], learner="closure")],
        _sq_vs_sample_point, _sq_vs_sample_seconds),
    # Two Born tables over 2^n states and a 2x2 or 4x4 SVD: 0.23, 0.47, 0.59, 0.87
    # and 1.23 ms per trial at n = 1, 2, 5, 8 and 10.
    "opnorm-tv": Experiment(
        {"n": _Key(_ints, 1, MAX_UNITARY_QUBITS)}, lambda grid: [{"n": n} for n in grid["n"]],
        _opnorm_tv_point, lambda p, trials: trials * 1e-3 * (0.25 + 0.1 * p["n"])),
}


def run(spec: ExperimentSpec) -> ExperimentResult:
    """Execute a registered experiment; deterministic given (spec, seed)."""
    if spec.name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {spec.name!r} (known: {known})")
    if not isinstance(spec.grid, dict):
        raise ValueError("grid must be a dict")
    for key in ("trials", "master_seed"):
        if not _of_type(getattr(spec, key), int):
            raise ValueError(f"{key} must be an int")
    if spec.trials < 1:
        raise ValueError("trials must be positive")
    if spec.trials > MAX_TRIALS:
        raise InfeasibleGridError(f"trials must be at most {MAX_TRIALS}")
    experiment = EXPERIMENTS[spec.name]
    grid = _check_grid(spec.name, spec.grid, experiment.table)
    if (count := math.prod(len(v) for v in grid.values() if isinstance(v, list))) > MAX_POINTS:
        raise InfeasibleGridError(f"{spec.name} grid has {count} points (at most {MAX_POINTS})")
    points = experiment.points(grid)
    for params in points:
        if (seconds := experiment.seconds(params, spec.trials)) > MAX_POINT_SECONDS:
            raise InfeasibleGridError(
                f"{spec.name} point {json.dumps(params, sort_keys=True)} would take about "
                f"{seconds:.3g} s at {spec.trials} trials (at most {MAX_POINT_SECONDS} s a point)")
    return ExperimentResult(
        experiment=spec.name,
        spec={"grid": spec.grid, "trials": spec.trials},
        seed=spec.master_seed,
        points=[experiment.evaluate(spec, i, params) for i, params in enumerate(points)],
    )
