"""Learners: subspace recovery and its guarantee, the correlation-query
baseline, and the brute-force noisy-parity solver."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from borncraft.circuit import T_NOISE_RATE, parity_circuit, random_circuit
from borncraft.dist import AffineUniform, NoisyParity, SampleOracle, StatOracle, tv
from borncraft.gf2 import AffineSubspace, BitMatrix, BitVec, _build_pivots
from borncraft.harness import recovery_trial, trial_rng
from borncraft.learn import (
    closure_learn,
    lpn_brute_force,
    recover_affine,
    sq_correlation_learner,
)
from borncraft.stabilizer import simulate_clifford
from borncraft.statevector import sv_distribution


def span_probability(samples: int, dim: int) -> float:
    """Chance that `samples` uniform vectors span a dim-dimensional space."""
    p = 1.0
    for i in range(dim):
        p *= 1 - 2.0 ** (i - samples)
    return p


def test_recover_from_identical_samples():
    t = BitVec.from_str("0110")
    learned = recover_affine([t] * 6)
    assert learned.subspace.dim == 0
    assert learned.subspace.shift == t
    assert learned.eval(t) == 1
    assert learned.eval(BitVec.zeros(4)) == 0


def test_recover_learned_evaluator_normalized():
    rng = random.Random(4)
    sub = AffineSubspace.random(rng, 8, 3)
    samples = [sub.sample(rng) for _ in range(20)]
    learned = recover_affine(samples)
    total = sum(learned.eval(x) for x in learned.subspace.elements())
    assert total == Fraction(1)


def test_closure_learn_sample_count():
    rng = random.Random(1)
    sub = AffineSubspace.random(rng, 8, 4)
    oracle = SampleOracle(AffineUniform(sub), rng)
    closure_learn(oracle, 8, 2 ** -4)
    assert oracle.queries == 12


@pytest.mark.parametrize("delta,extra", [(0.5, 1), (0.25, 2), (0.01, 7), (0.0625, 4)])
def test_closure_learn_log2_budget(delta, extra):
    rng = random.Random(2)
    sub = AffineSubspace.random(rng, 5, 2)
    oracle = SampleOracle(AffineUniform(sub), rng)
    closure_learn(oracle, 5, delta)
    assert oracle.queries == 5 + extra


# The floats 2^-j and their two neighbours, where a float log2 of 1/delta
# can round across an integer.
_near_powers_of_two = st.integers(1, 1022).flatmap(lambda j: st.sampled_from(
    [2.0 ** -j, math.nextafter(2.0 ** -j, 0), math.nextafter(2.0 ** -j, 1)]))


@settings(max_examples=300, deadline=None)
@given(st.floats(0, 1, exclude_min=True, exclude_max=True) | _near_powers_of_two)
def test_closure_learn_count_is_exact(delta):
    # n + the least j with 2^j * delta >= 1, with delta taken exactly as a Fraction.
    assume(1.0 / delta != math.inf)  # refused: 1/delta must be finite
    j = (math.ceil(1 / Fraction(delta)) - 1).bit_length()
    rng = random.Random(3)
    oracle = SampleOracle(AffineUniform(AffineSubspace.random(rng, 4, 2)), rng)
    closure_learn(oracle, 4, delta)
    assert oracle.queries == 4 + j


def test_closure_learn_two_bit_example():
    # A = span{01} shifted by 00; recovery succeeds at the promised rate and
    # is exact (TV = 0) whenever it succeeds
    basis = BitMatrix(1, 2, [BitVec.from_str("01").bits]).transpose()
    sub = AffineSubspace(basis, BitVec.zeros(2))
    failures = 0
    for seed in range(200):
        rng = random.Random(seed)
        oracle = SampleOracle(AffineUniform(sub), rng)
        learned = closure_learn(oracle, 2, 0.01)
        if learned.subspace.same_set(sub):
            assert tv(learned, AffineUniform(sub)) == 0
        else:
            failures += 1
    # per-trial failure chance is ~2^(1-8); 200 trials leave wide 3-sigma room
    assert failures <= 6


def test_closure_learn_validation():
    rng = random.Random(3)
    oracle = SampleOracle(AffineUniform(AffineSubspace.full(3)), rng)
    with pytest.raises(ValueError):
        closure_learn(oracle, 0, 0.1)
    with pytest.raises(ValueError):
        closure_learn(oracle, 3, 0.0)
    with pytest.raises(ValueError):
        closure_learn(oracle, 3, 1.0)
    with pytest.raises(ValueError, match="does not match n"):
        closure_learn(oracle, 4, 0.1)
    # The length is read from the oracle's distribution, before any draw.
    assert oracle.queries == 0


def test_closure_learn_subnormal_delta_is_value_error():
    # 1/delta overflows to infinity, whose ceiling is no integer.
    oracle = SampleOracle(AffineUniform(AffineSubspace.full(3)), random.Random(3))
    with pytest.raises(ValueError, match="delta"):
        closure_learn(oracle, 3, 5e-324)


def test_closure_learn_deterministic_given_samples():
    rng = random.Random(10)
    sub = AffineSubspace.random(rng, 6, 3)
    a = closure_learn(SampleOracle(AffineUniform(sub), random.Random(777)), 6, 0.1)
    b = closure_learn(SampleOracle(AffineUniform(sub), random.Random(777)), 6, 0.1)
    assert a.subspace.basis == b.subspace.basis
    assert a.subspace.shift == b.subspace.shift


def test_recover_affine_mixed_lengths_is_value_error():
    with pytest.raises(ValueError):
        recover_affine([BitVec.zeros(3), BitVec.zeros(3), BitVec.ones(4)])


def test_success_iff_shifted_samples_span():
    rng = random.Random(12)
    hits = {True: 0, False: 0}
    while min(hits.values()) < 25:
        sub = AffineSubspace.random(rng, 5, 3)
        oracle = SampleOracle(AffineUniform(sub), rng)
        samples = [oracle.draw() for _ in range(5)]
        learned = recover_affine(samples)
        diffs = [x ^ samples[0] for x in samples[1:]]
        spanned = len(_build_pivots(x.bits for x in diffs)) == sub.dim
        success = learned.subspace.same_set(sub)
        assert success == spanned
        if not success:
            assert learned.subspace.dim < sub.dim
            # recovered set is always contained in the truth
            assert all(sub.contains(x) for x in learned.subspace.elements())
        hits[success] += 1


def test_recovery_failure_rate_tracks_span_bound():
    # sweep the span-sample count and compare against both the lemma-style
    # bound 2^(m-k) and the exact spanning probability
    n, m = 16, 8
    trials = 6000
    for k in range(m, m + 9):
        failures = 0
        for t in range(trials):
            rng = trial_rng(k, 0, t)
            ok, _, _ = recovery_trial(n, m, k, rng)
            failures += not ok
        rate = failures / trials
        bound = 2.0 ** (m - k)
        sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
        assert rate <= bound + 3 * sigma
        exact = 1 - span_probability(k, m)
        sigma_exact = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
        assert abs(rate - exact) < 4 * sigma_exact + 1e-12


def test_clifford_end_to_end_small():
    rng = random.Random(17)
    circuits = [random_circuit(rng, rng.randrange(2, 17), rng.randrange(1, 25))
                for _ in range(12)]
    for c in circuits:
        sub = simulate_clifford(c).support()
        truth = AffineUniform(sub)
        oracle = SampleOracle(truth, rng)
        learned = closure_learn(oracle, c.n, 0.001)
        if learned.subspace.same_set(sub):
            assert tv(learned, truth) == 0
        else:
            assert tv(learned, truth) > 0


# --- sq_correlation_learner -----------------------------------------------------


def test_sq_learner_full_enumeration_recovers():
    for s_bits in range(16):
        s = BitVec(4, s_bits)
        oracle = StatOracle(NoisyParity(s, 0), 0.1, "exact")
        rng = random.Random(s_bits)
        found = sq_correlation_learner(oracle, 4, 16, rng)
        assert found == s
        assert oracle.queries <= 16


def test_sq_learner_budget_zero_fails():
    oracle = StatOracle(NoisyParity(BitVec.from_str("11"), 0), 0.1, "exact")
    assert sq_correlation_learner(oracle, 2, 0, random.Random(0)) is None
    assert oracle.queries == 0


def test_sq_learner_adversarial_wall_small_budget():
    # with a tiny query budget over a 2^16 candidate space, hits are rare
    successes = 0
    trials = 120
    budget = 64
    for t in range(trials):
        rng = trial_rng(314, 0, t)
        s = BitVec.random(rng, 16)
        oracle = StatOracle(NoisyParity(s, 0), 0.1, "adversarial",
                            adversary_seed=rng.getrandbits(64))
        found = sq_correlation_learner(oracle, 16, budget, rng)
        if found is not None:
            assert found == s  # adversarial noise never fakes a hit at tau=0.1
            successes += 1
    assert successes / trials <= budget / 2 ** 16 + 0.05


def test_sq_learner_queries_counted():
    oracle = StatOracle(NoisyParity(BitVec.from_str("1010"), 0), 0.1, "exact")
    sq_correlation_learner(oracle, 4, 7, random.Random(5))
    assert 0 < oracle.queries <= 7


# --- lpn_brute_force --------------------------------------------------------------


def test_lpn_noiseless_recovery():
    rng = random.Random(23)
    for _ in range(20):
        k = rng.randrange(1, 10)
        s = BitVec.random(rng, k)
        samples = []
        xs = []
        for _ in range(2 * k):
            x = BitVec.random(rng, k)
            xs.append(x)
            samples.append((x, x.dot(s)))
        if len(_build_pivots(x.bits for x in xs)) < k:
            continue
        assert lpn_brute_force(samples, k) == s


def test_lpn_zero_samples_tie_break():
    assert lpn_brute_force([], 5) == BitVec.zeros(5)


def test_lpn_single_zero_sample_tie_break():
    # every candidate agrees; lexicographically smallest string wins
    samples = [(BitVec.zeros(3), 0)]
    assert lpn_brute_force(samples, 3) == BitVec.zeros(3)


def test_lpn_guard():
    with pytest.raises(ValueError, match="limited"):
        lpn_brute_force([], 21)


def test_lpn_recovers_from_noisy_circuit_samples():
    k = 8
    successes = 0
    trials = 20
    for t in range(trials):
        rng = trial_rng(2024, 0, t)
        s = BitVec.random(rng, k)
        dd = sv_distribution(parity_circuit(s, noisy=True))
        samples = []
        for _ in range(2000):
            draw = dd.sample(rng)
            samples.append((draw.take(k), draw[k]))
        successes += lpn_brute_force(samples, k) == s
    assert successes >= trials - 1


def test_lpn_noise_rate_sanity():
    # at eta ~ 0.146 and 2000 samples the signal is ~30 sigma clear
    sigma = math.sqrt(2000 * 0.25)
    gap = 2000 * (1 - T_NOISE_RATE) - 2000 * 0.5
    assert gap / sigma > 25


# Reference oracle: the direct agreement-matrix solver, which scores every
# candidate against every sample in chunks of 4096 candidates.
_PARITY8 = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.uint8)


def lpn_chunked_reference(samples, k):
    if not samples:
        return BitVec.zeros(k)
    xs = np.array([x.bits for x, _ in samples], dtype=np.uint32)
    ys = np.array([y & 1 for _, y in samples], dtype=np.uint8)
    best_count = -1
    best_vec = BitVec.zeros(k)
    total = 1 << k
    chunk = 4096
    for lo in range(0, total, chunk):
        cands = np.arange(lo, min(lo + chunk, total), dtype=np.uint32)
        anded = cands[:, None] & xs[None, :]
        folded = anded ^ (anded >> np.uint32(16))
        folded ^= folded >> np.uint32(8)
        pred = _PARITY8[folded & np.uint32(0xFF)]
        agree = (pred == ys[None, :]).sum(axis=1)
        top = int(agree.max())
        if top < best_count:
            continue
        ties = cands[agree == top]
        cand = min((BitVec(k, int(c)) for c in ties), key=BitVec.to_str)
        if top > best_count or cand.to_str() < best_vec.to_str():
            best_count, best_vec = top, cand
    return best_vec


@st.composite
def lpn_instances(draw, bits=st.integers(1, 12), max_samples=64):
    """Small LPN sample sets with repeated x, the all-zero x, and labels that
    are not 0/1 (only y & 1 counts)."""
    k = draw(bits)
    any_x = st.integers(0, (1 << k) - 1)
    pool = draw(st.lists(any_x, min_size=1, max_size=4)) + [0]
    xs = draw(st.lists(st.one_of(st.sampled_from(pool), any_x), max_size=max_samples))
    ys = draw(st.lists(st.integers(-3, 3), min_size=len(xs), max_size=len(xs)))
    return k, [(BitVec(k, x), y) for x, y in zip(xs, ys)]


@settings(max_examples=300, deadline=None)
@given(lpn_instances())
def test_lpn_matches_chunked_reference(instance):
    k, samples = instance
    assert lpn_brute_force(samples, k) == lpn_chunked_reference(samples, k)


# The transform swaps its two buffers once per stage, so odd and even k end
# in different buffers; k = 16 is the size the single-T benchmark solves.
@pytest.mark.parametrize("k", [13, 14, 15, 16])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lpn_matches_chunked_reference_at_large_k(k, data):
    k, samples = data.draw(lpn_instances(bits=st.just(k)))
    assert lpn_brute_force(samples, k) == lpn_chunked_reference(samples, k)


def test_lpn_all_tie_at_k16_is_fast():
    # one sample at x = 0 ties all 2^16 candidates; the zero vector wins
    start = time.perf_counter()
    assert lpn_brute_force([(BitVec.zeros(16), 0)], 16) == BitVec.zeros(16)
    assert time.perf_counter() - start < 1.0


def test_lpn_noisy_recovery_at_k20():
    k = 20
    rng = random.Random(2020)
    s = BitVec.random(rng, k)
    samples = []
    for _ in range(400):
        x = BitVec.random(rng, k)
        samples.append((x, x.dot(s) ^ (rng.random() < T_NOISE_RATE)))
    assert lpn_brute_force(samples, k) == s
