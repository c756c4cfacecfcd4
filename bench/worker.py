"""One benchmark process: set up a workload, time it, check its outputs.

Started by ``run.py``, which caps the BLAS/OpenMP thread pools before this
process imports NumPy. Prints one JSON line. With ``--setup-only`` it stops
once set-up (imports, input generation, warm-up) is done, so ``run.py`` can
time set-up several times per run.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import borncraft  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Tracing may leave at most this share of a traced call's wall time outside
# the spans' self times.
MAX_UNATTRIBUTED = 0.01

# Speed normalisation. On a shared host the speed of interpreter-bound code
# drifts by ±10-20% for seconds to minutes at a time, which is wider than a
# run's own spread. After every call, outside the call's timing, the worker
# runs a fixed pure-Python loop that uses none of the program's code; its
# rate over the run measures the machine's speed while the calls ran. Set-up
# time, and the timings of workloads with ``speed_normalised`` set, are
# reported at the reference speed of REF_CALIB_PER_S loops per second (about
# a 2-vCPU x86-64 VM with Python 3.11); the raw figures are printed alongside.
CALIB_ITERS = 20000
REF_CALIB_PER_S = 200.0
# Calibration loops run right after set-up, to put set-up time at the
# reference speed too.
SETUP_CALIB_RUNS = 20


def calibrate() -> float:
    """Run the calibration loop once; return its duration in seconds."""
    t0 = time.perf_counter()
    table = dict.fromkeys(range(256), 0)
    s = 0
    for i in range(CALIB_ITERS):
        table[i & 255] = s
        s = (s + i * 7) ^ (i >> 3)
        if s & 1:
            s += len(table)
    return time.perf_counter() - t0


class Phase:
    """Totals of whole cycles of calls."""

    def __init__(self):
        self.cycles = self.calib_runs = 0
        self.calib_seconds = 0.0
        # Compact storage, so peak RSS does not grow with the op count.
        self.latencies = array.array("d")
        self.ops = self.failed = self.queries = self.successes = 0
        self.seconds = 0.0
        self.unattributed = 0.0

    def rate(self) -> float:
        return self.ops / self.seconds

    def speed(self) -> float:
        """Machine speed during this phase, relative to the reference."""
        return self.calib_runs / self.calib_seconds / REF_CALIB_PER_S


def run_cycle(wl, ph: Phase, tracer=None) -> None:
    """Run one cycle of calls, adding its totals to ph."""
    for index, call in enumerate(wl.calls):
        before = tracer.total_self() if tracer else 0.0
        t0 = time.perf_counter()
        try:
            out = tracer.root(wl.run, call) if tracer else wl.run(call)
        except Exception:  # a failing op is counted, not fatal
            traceback.print_exc()
            out = None
        elapsed = time.perf_counter() - t0
        if tracer:
            if len(tracer._stack) != 1:
                raise RuntimeError("unbalanced spans after a traced call")
            ph.unattributed += elapsed - (tracer.total_self() - before)
        if out is None:
            res = workloads.CallResult(1, 1, [elapsed], 0)
        else:
            res = wl.check(index, call, out, elapsed)
        # Free this call's output now, not inside the next timed call.
        del out
        ph.ops += res.ops
        ph.failed += res.failed
        ph.queries += res.queries
        ph.successes += res.successes
        ph.latencies.extend(res.latencies_s)
        ph.seconds += elapsed
        ph.calib_seconds += calibrate()
        ph.calib_runs += 1
    ph.cycles += 1


def measure(wl, seconds: float) -> Phase:
    """Untraced cycles until `seconds` have passed (at least one)."""
    ph = Phase()
    gc.collect()
    start = time.perf_counter()
    while True:
        run_cycle(wl, ph)
        if time.perf_counter() - start >= seconds:
            return ph


def measure_traced(wl, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced cycles, so that drift in machine speed
    does not bias the tracing overhead."""
    untraced, traced = Phase(), Phase()
    gc.collect()
    start = time.perf_counter()
    while True:
        run_cycle(wl, untraced)
        with tracer:
            run_cycle(wl, traced, tracer)
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def end_to_end(ph: Phase, normalised: bool) -> tuple[dict, dict]:
    """Timing metrics, at the reference speed if `normalised`, and the raw
    figures."""
    raw = {
        "ops_per_s": ph.rate(),
        "op_p50_ms": percentile(ph.latencies, 0.5) * 1e3,
        "op_p90_ms": percentile(ph.latencies, 0.9) * 1e3,
    }
    speed = ph.speed()
    scale = speed if normalised else 1.0
    metrics = {
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_p90_ms": (raw["op_p90_ms"] * scale, "ms"),
    }
    return metrics, dict(raw, speed=speed)


def per_layer(untraced: Phase, traced: Phase, tracer) -> dict:
    ops = traced.ops
    out = {}
    for name, (calls, self_s, gates) in tracer.stats.items():
        out[f"{name}.calls_per_op"] = (calls / ops, "count")
        out[f"{name}.self_us_per_op"] = (self_s * 1e6 / ops, "us")
        if name in spans.PER_GATE:
            out[f"{name}.us_per_gate"] = (self_s * 1e6 / gates if gates else 0.0, "us")
    out["unwrapped.self_us_per_op"] = (tracer.root_self * 1e6 / ops, "us")
    out["dist.SampleOracle.queries_per_op"] = (traced.queries / ops, "count")
    out["harness.recovery.success_frac"] = (traced.successes / ops, "frac")
    out["trace.overhead_frac"] = (
        (untraced.rate() / untraced.speed()) / (traced.rate() / traced.speed()) - 1.0, "frac")
    out["trace.unattributed_frac"] = (traced.unattributed / traced.seconds, "frac")
    return out


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([src, os.path.abspath(borncraft.__file__)]) != src:
        print(f"error: borncraft imported from {borncraft.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.reference = wl.load_reference()
        with wl.session():
            for call in wl.warm_up_calls():
                wl.run(call)
            result = {"ready_at": time.monotonic()}
            calib_s = sum(calibrate() for _ in range(SETUP_CALIB_RUNS))
            result["setup_speed"] = SETUP_CALIB_RUNS / calib_s / REF_CALIB_PER_S
            if not args.setup_only:
                result.update(run_phases(wl, args.seconds, args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_phases(wl, seconds: float, trace: int) -> dict:
    if trace:
        tracer = spans.Tracer()
        untraced, traced = measure_traced(wl, seconds, tracer)
        if traced.unattributed > MAX_UNATTRIBUTED * traced.seconds:
            raise RuntimeError("span self times do not add up to traced wall time")
        phases = (untraced, traced)
    else:
        untraced = measure(wl, seconds)
        phases = (untraced,)
    # Read before the percentiles below allocate their sorted copies.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        metrics, raw = per_layer(untraced, traced, tracer), {}
    else:
        metrics, raw = end_to_end(untraced, wl.speed_normalised)
    return {
        "attempted": sum(p.ops for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
        "peak_rss_mb": rss_kb / 1024,
        "raw": raw,
        "samples": {"ops": untraced.ops, "cycles": untraced.cycles,
                    "calls_per_cycle": len(wl.calls)},
        "env": environment(),
    }


if __name__ == "__main__":
    sys.exit(main())
