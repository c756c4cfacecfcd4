"""Command-line interface: circuit simulation, closure learning, experiments.

Exit codes: 0 success, 2 bad arguments or inputs, 3 infeasible experiment grid.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time

from .dist import AffineUniform, SampleOracle, dist_to_json, tv
from .harness import EXPERIMENTS, ExperimentSpec, InfeasibleGridError, run
from .learn import closure_learn
from .stabilizer import simulate_clifford
from .statevector import sv_distribution
from .circuit import parse_circuit


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise ValueError(f"cannot read {what} file: {e}") from None


def _load_circuit(path: str):
    return parse_circuit(_read_text(path, "circuit"))


def _cmd_simulate(args) -> int:
    if args.samples < 0:
        raise ValueError("--samples must be nonnegative")
    circuit = _load_circuit(args.circuit_file)
    rng = random.Random(args.seed)
    if args.backend == "stab":
        tableau = simulate_clifford(circuit)
        if args.samples:
            for _ in range(args.samples):
                print(tableau.sample(rng).to_str())
            return 0
        payload = {
            "backend": "stab",
            "n": circuit.n,
            "distribution": dist_to_json(AffineUniform(tableau.support())),
        }
    else:
        dd = sv_distribution(circuit)
        if args.samples:
            for _ in range(args.samples):
                print(dd.sample(rng).to_str())
            return 0
        payload = {
            "backend": "sv",
            "n": circuit.n,
            "probabilities": [float(p) for p in dd.probs],
        }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_learn_closure(args) -> int:
    circuit = _load_circuit(args.circuit)
    rng = random.Random(args.seed)
    tableau = simulate_clifford(circuit)
    truth = AffineUniform(tableau.support())
    oracle = SampleOracle(truth, rng)
    start = time.perf_counter()
    learned = closure_learn(oracle, circuit.n, args.delta)
    elapsed = time.perf_counter() - start
    learned_dist = learned.dist()
    payload = {
        "learned": dist_to_json(learned_dist),
        "samples_used": learned.samples_used,
        "success": learned.subspace.same_set(truth.subspace),
        "tv_to_truth": float(tv(learned_dist, truth)),
        "queries": oracle.queries,
        "wall_time_s": elapsed,
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    raw = args.grid
    if raw.startswith("@"):
        raw = _read_text(raw[1:], "grid")
    try:
        grid = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValueError(f"bad grid JSON: {e}") from None
    if not isinstance(grid, dict):
        raise ValueError("grid must be a JSON object")
    spec = ExperimentSpec(args.name, grid, args.trials, args.seed)
    if not args.out:
        sys.stdout.write(_render(run(spec), args.format))
        return 0
    # Check --out before the run, so a bad path fails before any work. Append
    # mode truncates nothing, and a file this call created is removed again
    # if the run or the write fails.
    created = not os.path.exists(args.out)
    try:
        open(args.out, "a", encoding="utf-8").close()
    except OSError as e:
        raise ValueError(f"cannot write output file: {e}") from None
    try:
        text = _render(run(spec), args.format)
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    except BaseException as e:
        if created:
            os.remove(args.out)
        if isinstance(e, OSError):
            raise ValueError(f"cannot write output file: {e}") from None
        raise
    return 0


def _render(result, fmt: str) -> str:
    return result.to_csv() if fmt == "csv" else result.to_json()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borncraft",
        description="Simulate small circuits, learn their output distributions, "
        "and run the seeded experiment battery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a circuit file")
    p_sim.add_argument("circuit_file")
    p_sim.add_argument("--backend", choices=["stab", "sv"], default="stab")
    p_sim.add_argument("--samples", type=int, default=0,
                       help="emit this many samples instead of the distribution")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_learn = sub.add_parser("learn", help="run a learner")
    learn_sub = p_learn.add_subparsers(dest="learner", required=True)
    p_closure = learn_sub.add_parser("closure", help="affine-subspace recovery")
    p_closure.add_argument("--circuit", required=True)
    p_closure.add_argument("--delta", type=float, required=True)
    p_closure.add_argument("--seed", type=int, default=0)
    p_closure.set_defaults(func=_cmd_learn_closure)

    p_exp = sub.add_parser("experiment", help="run a registered experiment")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--grid", required=True,
                       help="JSON object, or @path to a JSON file")
    p_exp.add_argument("--trials", type=int, default=1000)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--format", choices=["json", "csv"], default="json")
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


# Parsing leaves the parser unchanged, so main builds it once per process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleGridError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
