"""Command-line interface: circuit simulation, closure learning, experiments.

Exit codes: 0 success, 2 bad arguments, inputs or output, 3 infeasible experiment grid.
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


# Longest circuit or grid file read, in characters: a 4 MiB random circuit of
# 0.5-0.6 M gates parses and simulates in 0.27-0.32 s at n = 128 and 1024, in
# 79-84 MB (16 MiB: 1.1 s and 250 MB at n = 128; Python 3.11, 2-vCPU VM).
MAX_INPUT_CHARS = 4 << 20

# Most samples `simulate --samples` prints, checked before the circuit file
# is read. The loop streams, so memory stays flat (85 MB at n = 4096) and
# only time grows: 10^5 samples of a 32-layer random circuit take 22-27 s and
# print 410 MB at n = 4096, the widest circuit, and 0.8-1.0 s at n = 128
# (Python 3.11, 2-vCPU VM).
MAX_SAMPLES = 100_000


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read(MAX_INPUT_CHARS + 1)
    except OSError as e:
        raise ValueError(f"cannot read {what} file: {e}") from None
    if len(text) > MAX_INPUT_CHARS:
        raise ValueError(f"{what} file is longer than {MAX_INPUT_CHARS} characters")
    return text


def _load_circuit(path: str):
    return parse_circuit(_read_text(path, "circuit"))


def _cmd_simulate(args) -> int:
    if not 0 <= args.samples <= MAX_SAMPLES:
        raise ValueError(f"--samples must lie in 0..{MAX_SAMPLES}")
    circuit = _load_circuit(args.circuit_file)
    rng = random.Random(args.seed)
    if args.backend == "stab":
        dist = AffineUniform(simulate_clifford(circuit).support())
    else:
        dist = sv_distribution(circuit)
    if args.samples:
        for _ in range(args.samples):
            print(dist.sample(rng).to_str())
        return 0
    payload = {"backend": args.backend, "n": circuit.n}
    if args.backend == "stab":
        payload["distribution"] = dist_to_json(dist)
    else:
        payload["probabilities"] = [float(p) for p in dist.probs]
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
    dist_tv = tv(learned, truth)  # 0 exactly when the learned set is the truth
    payload = {
        "learned": dist_to_json(learned),
        "samples_used": oracle.queries,
        "success": dist_tv == 0,
        "tv_to_truth": float(dist_tv),
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
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
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
        code = args.func(args)
        sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except InfeasibleGridError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # stdout: a closed pipe or a full disk
        # Whatever stdout still buffers goes to devnull at exit, not to the failed file.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
