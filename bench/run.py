"""Benchmark launcher.

    python3 bench/run.py --workload {recovery,clifford-learn,single-t} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each worker is a fresh closed-loop process
(one op at a time) with BLAS/OpenMP pools capped at the CPUs this process
may use. With ``--trace 0`` it reports the end-to-end metrics; set-up is
timed in several fresh processes and the median is reported. With
``--trace 1`` it reports per-layer metrics from a traced phase and the
tracing overhead against an untraced phase of the same process. The last
line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# Fresh processes whose set-up is timed per --trace 0 run (the measuring
# worker is one of them).
SETUP_RUNS = 5
# Whole-run limit; every worker gets what is left of it as its timeout.
DEADLINE_S = 170


def run_worker(cmd: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion; return its JSON plus its set-up time,
    raw and at the reference speed."""
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - launched))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_raw_s"] = out["ready_at"] - launched
    out["setup_s"] = out["setup_raw_s"] * out["setup_speed"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # Checked by the worker: this process must not import NumPy.
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "borncraft", "__init__.py")):
        print(f"error: no borncraft sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_worker(cmd + ["--setup-only"], env, deadline))
        res = run_worker(cmd, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(res)

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        res["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
        metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": res["env"], "raw": res["raw"],
            "samples": dict(res["samples"], setups=len(setups))}
    print(json.dumps(info))
    print(json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
