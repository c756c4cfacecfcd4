"""Input guards that no other test reaches: each row is one call and the
ValueError message it must raise."""

import random

import numpy as np
import pytest

from borncraft.circuit import Circuit, Gate, parity_circuit, parse_circuit, random_circuit
from borncraft.dist import (
    DenseDist,
    FunctionDist,
    NoisyParity,
    ParityCorrelation,
    Product,
    SampleOracle,
    StatOracle,
    dist_from_json,
    embed,
    marginalize,
    uniform,
)
from borncraft.gf2 import AffineSubspace, BitMatrix, BitVec, max_independent_subset, solve
from borncraft.harness import ExperimentSpec, run, wilson_interval
from borncraft.learn import (
    closure_learn,
    lpn_brute_force,
    recover_affine,
    sq_correlation_learner,
)
from borncraft.stabilizer import StabTableau
from borncraft.statevector import opnorm_tv_check


def _flat(n: int) -> AffineSubspace:
    return uniform(n).subspace


def _run(**kw):
    """A one-point t-noise run with one field of its spec replaced."""
    return run(ExperimentSpec(**{"name": "t-noise", "grid": {"k": [1]}, "trials": 1,
                                 "master_seed": 0, **kw}))


def _sq(k: int, budget: int):
    return sq_correlation_learner(StatOracle(uniform(2), 0.1), k, budget, random.Random(0))


def _draw_bits(k):
    return SampleOracle(uniform(3), random.Random(0)).draw_bits(k)


def _closure(n):
    return closure_learn(SampleOracle(uniform(1), random.Random(0)), n, 0.5)


_GUARDS = [
    # gf2
    ("BitVec-negative-n", lambda: BitVec(-1), "length must be nonnegative"),
    ("BitVec-from_str-bad-char", lambda: BitVec.from_str("012"), "invalid bit character '2'"),
    ("BitVec-dot-lengths", lambda: BitVec(2).dot(BitVec(3)), "length mismatch in dot product"),
    ("BitVec-take-range", lambda: BitVec(2).take(3), "take length out of range"),
    ("BitVec-drop-range", lambda: BitVec(2).drop(-1), "drop length out of range"),
    ("BitMatrix-negative-dims", lambda: BitMatrix(-1, 2, []), "dimensions must be nonnegative"),
    ("BitMatrix-row-count", lambda: BitMatrix(2, 2, [0]), "row count does not match data"),
    ("max_independent_subset-mixed", lambda: max_independent_subset([BitVec(2), BitVec(3)]),
     "vectors have mixed lengths"),
    ("solve-shape", lambda: solve(BitMatrix(2, 2, [0, 0]), BitVec(3)), "dimension mismatch"),
    ("AffineSubspace-shift", lambda: AffineSubspace(BitMatrix(2, 0, [0, 0]), BitVec(3)),
     "basis/shift dimension mismatch"),
    ("AffineSubspace-random-dim", lambda: AffineSubspace.random(random.Random(0), 2, 3),
     "dimension out of range"),
    ("AffineSubspace-random-float-m", lambda: AffineSubspace.random(random.Random(0), 4, 2.5),
     "n and m must be ints"),
    ("AffineSubspace-random-bool-n", lambda: AffineSubspace.random(random.Random(0), True, 0),
     "n and m must be ints"),
    # A float n ended in a TypeError from range, and uniform(True) ran as n = 1.
    ("AffineSubspace-full-float-n", lambda: AffineSubspace.full(2.5), "n must be an int"),
    ("AffineSubspace-full-bool-n", lambda: AffineSubspace.full(True), "n must be an int"),
    ("contains-n", lambda: _flat(2).contains(BitVec(3)), "dimension mismatch"),
    ("intersection_dim-n", lambda: _flat(2).intersection_dim(_flat(3)), "dimension mismatch"),
    # dist
    ("NoisyParity-eta", lambda: NoisyParity(BitVec(1), 1), r"eta must lie in \[0, 1\)"),
    ("uniform-bool-n", lambda: uniform(True), "n must be an int"),
    ("FunctionDist-base-width", lambda: FunctionDist([0, 0], uniform(21)),
     "truth tables supported up to 20 input bits"),
    ("FunctionDist-table-length", lambda: FunctionDist([0], uniform(1)),
     "truth table length must be 2"),
    ("FunctionDist-table-bits", lambda: FunctionDist([0, 2], uniform(1)),
     "truth table entries must be bits"),
    # Float entries constructed, then sample, support and tv raised TypeError.
    ("FunctionDist-float-entries", lambda: FunctionDist([0.0, 1.0], uniform(1)),
     "truth table entries must be bits"),
    ("Product-empty", lambda: Product([]), "at least one component"),
    ("DenseDist-shape", lambda: DenseDist(1, np.array([1.0])), "probability count must be 2"),
    # A float size ended in a TypeError, and a bool ran as a size of 1.
    ("DenseDist-float-n", lambda: DenseDist(2.5, [0.25] * 4), "n must be an int"),
    ("DenseDist-bool-n", lambda: DenseDist(True, [0.5, 0.5]), "n must be an int"),
    ("embed-float-n", lambda: embed(uniform(2), 2.5), "n must be an int"),
    ("marginalize-float-k", lambda: marginalize(uniform(3), 1.5), "k must be an int"),
    ("marginalize-bool-k", lambda: marginalize(uniform(3), True), "k must be an int"),
    # A negative k left queries negative, 2.5 raised TypeError and True drew one sample.
    ("SampleOracle-draw_bits-negative-k", lambda: _draw_bits(-3), "k must be a nonnegative int"),
    ("SampleOracle-draw_bits-float-k", lambda: _draw_bits(2.5), "k must be a nonnegative int"),
    ("SampleOracle-draw_bits-bool-k", lambda: _draw_bits(True), "k must be a nonnegative int"),
    ("ParityCorrelation-length", lambda: ParityCorrelation(BitVec(2))(BitVec(2)),
     r"input length must be len\(t\)\+1"),
    ("expectation-support-budget", lambda: StatOracle(uniform(23), 0.1).query(lambda x: 1),
     "support too large for an exact expectation"),
    ("dist_from_json-kind", lambda: dist_from_json({"schema": "dist_v1", "kind": "bogus"}),
     "unknown dist kind 'bogus'"),
    # harness
    ("run-grid-none", lambda: _run(grid=None), "grid must be a dict"),
    ("run-grid-int", lambda: _run(grid=5), "grid must be a dict"),
    ("run-grid-str", lambda: _run(grid="k"), "grid must be a dict"),
    ("run-trials-float", lambda: _run(trials=2.5), "trials must be an int"),
    ("run-trials-str", lambda: _run(trials="3"), "trials must be an int"),
    ("run-trials-bool", lambda: _run(trials=True), "trials must be an int"),
    ("run-master_seed-str", lambda: _run(master_seed="x"), "master_seed must be an int"),
    ("run-master_seed-none", lambda: _run(master_seed=None), "master_seed must be an int"),
    # learn
    # A float n ended in a TypeError from range, and n = True ran as n = 1.
    ("closure_learn-float-n", lambda: _closure(2.0), "n must be an int"),
    ("closure_learn-bool-n", lambda: _closure(True), "n must be an int"),
    ("recover_affine-empty", lambda: recover_affine([]), "need at least one sample"),
    ("sq_correlation_learner-k", lambda: _sq(0, 10), "k must be positive"),
    ("sq_correlation_learner-budget", lambda: _sq(1, -1), "budget must be nonnegative"),
    # A float k or budget ended in a TypeError, and True ran as 1.
    ("sq_correlation_learner-float-k", lambda: _sq(1.5, 3), "k and budget must be ints"),
    ("sq_correlation_learner-bool-k", lambda: _sq(True, 3), "k and budget must be ints"),
    ("sq_correlation_learner-float-budget", lambda: _sq(2, 1.5), "k and budget must be ints"),
    ("sq_correlation_learner-bool-budget", lambda: _sq(2, True), "k and budget must be ints"),
    ("lpn_brute_force-k", lambda: lpn_brute_force([], 0), "k must be positive"),
    ("lpn_brute_force-float-k", lambda: lpn_brute_force([], 1.5), "k must be an int"),
    ("lpn_brute_force-bool-k", lambda: lpn_brute_force([], True), "k must be an int"),
    ("lpn_brute_force-sample-length", lambda: lpn_brute_force([(BitVec(3), 0)], 2),
     "sample length does not match k"),
    # elsewhere
    ("opnorm_tv_check-n", lambda: opnorm_tv_check(Circuit(1), Circuit(2)),
     "different qubit counts"),
    ("opnorm_tv_check-cap", lambda: opnorm_tv_check(Circuit(11), Circuit(11)),
     "limited to 10 qubits"),
    ("random_circuit-n", lambda: random_circuit(random.Random(0), 0, 1), "at least one qubit"),
    # A float n or layer count ended in a TypeError from range.
    ("random_circuit-float-n", lambda: random_circuit(random.Random(0), 2.5, 1),
     "n and n_layers must be ints"),
    ("random_circuit-bool-n", lambda: random_circuit(random.Random(0), True, 1),
     "n and n_layers must be ints"),
    ("random_circuit-float-layers", lambda: random_circuit(random.Random(0), 3, 2.5),
     "n and n_layers must be ints"),
    ("parse_circuit-negative-n", lambda: parse_circuit("qubits -1\n"),
     "line 1: negative qubit count"),
    ("parity_circuit-pad", lambda: parity_circuit(BitVec(1, 1), False, pad=-1),
     "pad must be nonnegative"),
    ("StabTableau-bool-n", lambda: StabTableau(True), "qubit count must be an int"),
    ("StabTableau-float-n", lambda: StabTableau(2.0), "qubit count must be an int"),
    ("StabTableau-apply-T", lambda: StabTableau(1).apply_all((Gate("T", (0,)),)),
     "non-Clifford gate T"),
    ("wilson_interval-trials", lambda: wilson_interval(0, 0), "trials must be positive"),
    ("wilson_interval-successes-above", lambda: wilson_interval(5, 3),
     r"successes must lie in 0\.\.trials"),
    ("wilson_interval-successes-below", lambda: wilson_interval(-1, 3),
     r"successes must lie in 0\.\.trials"),
    # Each of these returned an interval.
    ("wilson_interval-float-successes", lambda: wilson_interval(1.5, 3),
     "successes and trials must be ints"),
    ("wilson_interval-float-trials", lambda: wilson_interval(1, 3.0),
     "successes and trials must be ints"),
    ("wilson_interval-bool-successes", lambda: wilson_interval(True, 3),
     "successes and trials must be ints"),
]


@pytest.mark.parametrize("call,match", [pytest.param(c, m, id=i) for i, c, m in _GUARDS])
def test_guard_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
