"""Acceptance battery: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them).

Every randomized criterion is pinned to a fixed master seed; per-trial RNG
streams come from borncraft.harness.trial_rng, so reruns are bit-identical.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from borncraft.circuit import (
    Circuit,
    Gate,
    T_NOISE_RATE,
    depth,
    parity_circuit,
    random_circuit,
    route_nearest_neighbor,
)
from borncraft.dist import (
    AffineUniform,
    FunctionDist,
    NoisyParity,
    PointMass,
    SampleOracle,
    embed,
    marginalize,
    tv,
    uniform,
)
from borncraft.gf2 import AffineSubspace, BitVec
from borncraft.harness import (
    ExperimentSpec,
    closure_parity_trial,
    recovery_trial,
    run,
    sq_trial,
    trial_rng,
    wilson_sigma,
)
from borncraft.learn import closure_learn, lpn_brute_force
from borncraft.stabilizer import simulate_clifford
from borncraft.statevector import opnorm_tv_check, sv_distribution


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_affine_recovery_curve():
    """n=16, m in {4,8,12}, k in m..m+10, 1e4 trials/point: success rate at
    least 1 - 2^(m-k) minus 3 Wilson sigma; TV to truth exactly 0 on every
    success and strictly positive on every failure."""
    n, trials = 16, 10_000
    seed = 1
    worst_margin = float("inf")
    point_index = 0
    ok = True
    for m in (4, 8, 12):
        for k in range(m, m + 11):
            successes = 0
            for t in range(trials):
                rng = trial_rng(seed, point_index, t)
                success, dist_tv, queries = recovery_trial(n, m, k, rng)
                assert success == (dist_tv == 0.0)
                successes += success
            rate = successes / trials
            bound = 1 - 2.0 ** (m - k)
            threshold = bound - 3 * wilson_sigma(successes, trials)
            worst_margin = min(worst_margin, rate - threshold)
            if rate < threshold:
                ok = False
            point_index += 1
    report("1 affine-recovery", ok, f"33 points, worst margin {worst_margin:+.4f}")
    assert ok


def test_criterion_2_clifford_end_to_end():
    """200 random nearest-neighbor Clifford circuits (n <= 12, depth <= 30):
    tableau support equals the dense distribution within 1e-12 everywhere;
    21-sample-free recovery at delta=0.01 is exact for >= 99% of circuits."""
    seed = 2
    max_err = 0.0
    failures = 0
    for t in range(200):
        rng = trial_rng(seed, 0, t)
        n = rng.randrange(2, 13)
        c = random_circuit(rng, n, rng.randrange(1, 31))
        assert c.is_nearest_neighbor() and depth(c) <= 30
        sub = simulate_clifford(c).support()
        dd = sv_distribution(c)
        expected = np.zeros(1 << n)
        for x in sub.elements():
            expected[x.bits] = 1.0 / sub.size
        max_err = max(max_err, float(np.abs(dd.probs - expected).max()))
        truth = AffineUniform(sub)
        learned = closure_learn(SampleOracle(truth, rng), n, 0.01)
        if learned.subspace.same_set(sub):
            assert tv(learned, truth) == 0
        else:
            failures += 1
    ok = max_err < 1e-12 and failures <= 2
    report(
        "2 clifford-end-to-end",
        ok,
        f"max |support - sv| = {max_err:.2e}, recovery {200 - failures}/200",
    )
    assert max_err < 1e-12
    assert failures <= 2


def test_criterion_3_single_t_noise_rate():
    """Every parity mask with k <= 6: the dense distribution of the single-T
    circuit equals the eta = sin^2(pi/8) noisy-parity model within 1e-12
    pointwise; a 1e6-draw Monte Carlo matches the flip rate within 4 sigma."""
    worst = 0.0
    for k in range(1, 7):
        for s_bits in range(1 << k):
            s = BitVec(k, s_bits)
            dd = sv_distribution(parity_circuit(s, noisy=True))
            model = NoisyParity(s, T_NOISE_RATE)
            for idx in range(1 << (k + 1)):
                x = BitVec(k + 1, idx)
                worst = max(worst, abs(dd.eval(x) - float(model.eval(x))))
    rng = trial_rng(3, 0, 0)
    s = BitVec.from_str("110101")
    dd = sv_distribution(parity_circuit(s, noisy=True))
    draws = 1_000_000
    flips = 0
    for _ in range(draws):
        x = dd.sample(rng)
        flips += x[6] != x.take(6).dot(s)
    sigma = math.sqrt(T_NOISE_RATE * (1 - T_NOISE_RATE) / draws)
    deviation = abs(flips / draws - T_NOISE_RATE)
    ok = worst < 1e-12 and deviation < 4 * sigma
    report(
        "3 single-t-noise",
        ok,
        f"126 circuits, worst pointwise {worst:.2e}; MC {deviation / sigma:.2f} sigma",
    )
    assert worst < 1e-12
    assert deviation < 4 * sigma


def test_criterion_4_lpn_construction():
    """Brute force on 2000 samples from the routed single-T circuit (k=8)
    recovers the hidden mask in >= 99% of 200 seeded trials."""
    k, successes = 8, 0
    for t in range(200):
        rng = trial_rng(4, 0, t)
        s = BitVec.random(rng, k)
        routed = route_nearest_neighbor(parity_circuit(s, noisy=True))
        assert routed.count("T") == 1 and routed.is_nearest_neighbor()
        dd = sv_distribution(routed)
        samples = []
        for _ in range(2000):
            draw = dd.sample(rng)
            samples.append((draw.take(k), draw[k]))
        successes += lpn_brute_force(samples, k) == s
    ok = successes >= 198
    report("4 lpn-construction", ok, f"{successes}/200 recoveries")
    assert successes >= 198


def test_criterion_5_parity_tv_separation():
    """k=5: all pairwise TVs between distinct parity distributions equal 1/2
    exactly (rational arithmetic); TV of each with itself is exactly 0."""
    k = 5
    dists = [NoisyParity(BitVec(k, s), 0) for s in range(1 << k)]
    pairs = 0
    ok = True
    for i in range(len(dists)):
        if tv(dists[i], dists[i]) != 0:
            ok = False
        for j in range(i + 1, len(dists)):
            d = tv(dists[i], dists[j])
            pairs += 1
            if not (isinstance(d, Fraction) and d == Fraction(1, 2)):
                ok = False
    report("5 parity-tv", ok, f"{pairs} pairs all exactly 1/2, self-TV 0")
    assert ok
    assert pairs == 32 * 31 // 2


def test_criterion_6_sq_query_wall():
    """Adversarial tau=0.1 oracle, 1000-query budget at k=16: the correlation
    learner succeeds in at most budget/2^k + 0.01 of 1000 trials."""
    k, budget, trials = 16, 1000, 1000
    successes = 0
    for t in range(trials):
        ok_trial, _ = sq_trial(k, 0.1, budget, trial_rng(6, 0, t))
        successes += ok_trial
    ceiling = budget / 2 ** k + 0.01
    rate = successes / trials
    ok = rate <= ceiling
    report("6a sq-query-wall", ok, f"rate {rate:.4f} <= {ceiling:.4f}")
    assert rate <= ceiling


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: with 21 samples the recovery succeeds iff "
    "the 20 shifted samples span a 16-dimensional space, probability "
    "~0.939 (even granting all 21 samples to the span: ~0.969); reaching "
    "99% needs 24 samples, which would break the 21-sample budget",
)
def test_criterion_6_closure_sample_contrast():
    """Counterpart clause: recovery from the noiseless parity distribution at
    k=16 with at most 21 samples succeeding in >= 99% of 1000 trials."""
    trials = 1000
    successes = 0
    for t in range(trials):
        ok_trial, queries = closure_parity_trial(16, 2 ** -4, trial_rng(6, 1, t))
        assert queries <= 21
        successes += ok_trial
    rate = successes / trials
    report("6b closure-contrast", rate >= 0.99, f"rate {rate:.3f} at 21 samples")
    assert rate >= 0.99


def test_criterion_7_opnorm_tv_bound():
    """200 random circuit pairs at n <= 6: measured TV never exceeds the
    measured operator norm of the unitary difference."""
    violations = 0
    max_excess = -float("inf")
    for t in range(200):
        rng = trial_rng(7, 0, t)
        n = rng.randrange(1, 7)
        base = random_circuit(rng, n, rng.randrange(1, 9), allow_t=True)
        kinds = ["H", "S", "T"] + (["CNOT", "SWAP"] if n > 1 else [])
        kind = kinds[rng.randrange(len(kinds))]
        if kind in ("CNOT", "SWAP"):
            q = rng.randrange(n - 1)
            extra = Gate(kind, (q, q + 1))
        else:
            extra = Gate(kind, (rng.randrange(n),))
        perturbed = Circuit(n, list(base.gates()) + [extra])
        opnorm, tvd = opnorm_tv_check(base, perturbed)
        violations += tvd > opnorm
        max_excess = max(max_excess, tvd - opnorm)
    ok = violations == 0
    report("7 opnorm-tv-bound", ok, f"0 violations, max tv-opnorm {max_excess:.3e}")
    assert violations == 0


def test_criterion_8_embedding_mechanics():
    """100 random structured distributions: marginalize(embed(d)) returns d
    itself; the embedded evaluator vanishes off the zero-padding slice; TV is
    preserved exactly by embedding."""
    rng = random.Random(8)
    checked = 0
    tv_pairs = 0
    while checked < 100:
        kind = checked % 4
        if kind == 0:
            n = rng.randrange(1, 7)
            d = AffineUniform(AffineSubspace.random(rng, n, rng.randrange(0, n + 1)))
            other = AffineUniform(AffineSubspace.random(rng, n, rng.randrange(0, n + 1)))
        elif kind == 1:
            d = PointMass(BitVec.random(rng, rng.randrange(1, 7)))
            other = PointMass(BitVec.random(rng, d.n))
        elif kind == 2:
            kbits = rng.randrange(1, 6)
            d = NoisyParity(BitVec.random(rng, kbits), rng.choice([0, Fraction(1, 4)]))
            other = NoisyParity(BitVec.random(rng, kbits), rng.choice([0, Fraction(1, 4)]))
        else:
            nb = rng.randrange(1, 4)
            table = [rng.getrandbits(1) for _ in range(1 << nb)]
            d = FunctionDist(table, uniform(nb))
            other = FunctionDist([rng.getrandbits(1) for _ in range(1 << nb)], uniform(nb))
        wide = d.n + rng.randrange(1, 5)
        e = embed(d, wide)
        assert marginalize(e, d.n) is d
        for _ in range(8):
            head = BitVec.random(rng, d.n)
            assert e.eval(head.concat(BitVec.zeros(wide - d.n))) == d.eval(head)
            bad_pad = BitVec(wide - d.n, rng.randrange(1, 1 << (wide - d.n)))
            assert e.eval(head.concat(bad_pad)) == 0
        assert tv(embed(d, wide), embed(other, wide)) == tv(d, other)
        tv_pairs += 1
        checked += 1
    report("8 embedding-mechanics", True, f"{checked} round trips, {tv_pairs} TV pairs exact")


def test_criterion_9_routing_soundness():
    """Routing 200 random circuits (n <= 8) changes the output distribution
    by less than 1e-10 in TV and never changes the T count."""
    worst_tv = 0.0
    for t in range(200):
        rng = trial_rng(9, 0, t)
        n = rng.randrange(2, 9)
        gates = list(random_circuit(rng, n, rng.randrange(1, 12), allow_t=True).gates())
        if n > 2:
            gates.append(Gate.cnot(rng.randrange(n // 2), n - 1))
        c = Circuit(n, gates)
        routed = route_nearest_neighbor(c)
        assert routed.is_nearest_neighbor()
        assert routed.count("T") == c.count("T")
        p = sv_distribution(c).probs
        q = sv_distribution(routed).probs
        worst_tv = max(worst_tv, 0.5 * float(np.abs(p - q).sum()))
    noisy_routed = route_nearest_neighbor(parity_circuit(BitVec.from_str("10011"), True))
    assert noisy_routed.count("T") == 1
    ok = worst_tv < 1e-10
    report("9 routing-soundness", ok, f"worst TV {worst_tv:.2e}, T count stable")
    assert worst_tv < 1e-10


def test_criterion_10_reproducibility():
    """Re-running any experiment with the same seed yields byte-identical
    result JSON once the timestamp field is removed."""

    def stripped(result):
        obj = result.to_dict()
        del obj["generated_at"]
        return json.dumps(obj, sort_keys=True).encode()

    specs = [
        ExperimentSpec("recovery-curve", {"n": 12, "m": [4], "k": [6, 9]}, 500, 10),
        ExperimentSpec("parity-tv", {"k": 4}, 1, 10),
        ExperimentSpec("sq-vs-sample", {"k": 10, "tau": 0.1, "budget": 50}, 100, 10),
        ExperimentSpec("opnorm-tv", {"n": 3}, 50, 10),
        ExperimentSpec("t-noise", {"k": 4}, 1, 10),
    ]
    ok = True
    for spec in specs:
        first = stripped(run(spec))
        second = stripped(run(spec))
        if first != second:
            ok = False
    report("10 reproducibility", ok, f"{len(specs)} experiments byte-stable")
    assert ok
