"""Write reference.json: output fingerprints of the byte-checked workloads.

    python3 bench/make_reference.py

Run it only on the commit whose outputs every later commit must reproduce
byte for byte. For each reference seed it stores a fingerprint of the
generated inputs and one fingerprint per call of the workload's cycle:
``result_v1`` minus ``generated_at`` for recovery, the CLI JSON minus
``wall_time_s`` for clifford-learn.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

SEEDS = range(32)
BYTE_CHECKED = ("recovery", "clifford-learn")


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_work", f"reference-{os.getpid()}")
    ref = {}
    try:
        for name in BYTE_CHECKED:
            ref[name] = {}
            for seed in SEEDS:
                wl = workloads.WORKLOADS[name](seed, workdir)
                with wl.session():
                    results = [wl.check(i, call, wl.run(call), 0.0)
                               for i, call in enumerate(wl.calls)]
                if any(r.failed for r in results):
                    print(f"error: {name} seed {seed} fails its semantic checks",
                          file=sys.stderr)
                    return 1
                ref[name][str(seed)] = {
                    "inputs": wl.inputs_fingerprint(),
                    "outputs": [r.fingerprint for r in results],
                }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
