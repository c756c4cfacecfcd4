"""Span tracer that wraps borncraft functions from outside the package.

Each wrapped call is a span nested under the span that was open when it
started. A span's self time is its duration minus the durations of its
direct children, so the self times of every span opened inside a root span
add up to the root's duration. Spans are aggregated per function in memory
(calls, self seconds, gates simulated); nothing is written while timing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Functions traced, as "<module>.<qualname>" under the borncraft package.
TRACED = (
    "harness.trial_rng",
    "harness.recovery_trial",
    "gf2.AffineSubspace.random",
    "gf2.AffineSubspace.same_set",
    "gf2.AffineSubspace.intersection_dim",
    "gf2.max_independent_subset",
    "gf2.nullspace",
    "gf2.solve",
    "stabilizer.StabTableau.support",
    "stabilizer.simulate_clifford",
    "circuit.parse_circuit",
    "circuit.parity_circuit",
    "cli.main",
    "dist.dist_to_json",
    "dist.SampleOracle.draw",
    "dist.tv",
    "learn.closure_learn",
    "learn.recover_affine",
    "learn.lpn_brute_force",
    "statevector.sv_distribution",
    "statevector.DenseDist.sample",
    "statevector.circuit_unitary",
    "statevector.opnorm_tv_check",
)

# Functions whose first argument is a Circuit; their gates are counted.
PER_GATE = ("stabilizer.simulate_clifford", "statevector.sv_distribution")


class Tracer:
    """Install with ``with tracer:``; time calls under ``tracer.root()``."""

    def __init__(self):
        # name -> [calls, self seconds, gates]
        self.stats = {name: [0, 0.0, 0] for name in TRACED}
        self.root_self = 0.0
        self._stack = [0.0]  # child-time accumulator per open span
        self._undo: list = []

    def total_self(self) -> float:
        return self.root_self + sum(s[1] for s in self.stats.values())

    def root(self, fn, *args):
        """Call fn(*args) as a root span and return its result."""
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dur = time.perf_counter() - t0
            self.root_self += dur - stack.pop()

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        per_gate = name in PER_GATE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if per_gate:
                stat[2] += sum(map(len, args[0].layers))
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack[-2] += dur
                stat[1] += dur - stack.pop()
                stat[0] += 1

        return wrapper

    def __enter__(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "borncraft" or k.startswith("borncraft.")]
        for name in TRACED:
            mod_name, *path = name.split(".")
            owner = importlib.import_module(f"borncraft.{mod_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            attr = path[-1]
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._set(owner, attr, new)
            else:
                orig = getattr(owner, attr)
                new = self._wrap(name, orig)
                # Replace every alias, e.g. cli's imported simulate_clifford.
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, alias, new)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
