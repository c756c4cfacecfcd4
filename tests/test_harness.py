"""Experiment runner: registry, determinism, schedule independence, schemas."""

import csv
import io
import json
import time
from fractions import Fraction

import pytest

from borncraft import harness
from borncraft.circuit import T_NOISE_RATE, parity_circuit
from borncraft.dist import AffineUniform, NoisyParity, SampleOracle, tv
from borncraft.gf2 import AffineSubspace, BitVec
from borncraft.harness import (
    EXPERIMENTS,
    MAX_PARITY_TV_BITS,
    MAX_POINT_SECONDS,
    MAX_POINTS,
    MAX_TRIALS,
    ExperimentSpec,
    InfeasibleGridError,
    recovery_trial,
    run,
    trial_rng,
    wilson_interval,
    wilson_sigma,
)
from borncraft.learn import recover_affine
from borncraft.statevector import sv_distribution


def result_bytes_without_timestamp(result):
    obj = result.to_dict()
    del obj["generated_at"]
    return json.dumps(obj, sort_keys=True).encode()


def test_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        run(ExperimentSpec("no-such-thing", {}, 10, 0))


def test_infeasible_grids():
    with pytest.raises(InfeasibleGridError):
        run(ExperimentSpec("recovery-curve", {"n": 8, "m": 9, "k": 4}, 5, 0))
    with pytest.raises(InfeasibleGridError):
        run(ExperimentSpec("t-noise", {"k": 12}, 1, 0))
    with pytest.raises(InfeasibleGridError):
        run(ExperimentSpec("parity-tv", {"k": 11}, 1, 0))
    with pytest.raises(InfeasibleGridError):
        run(ExperimentSpec("opnorm-tv", {"n": 11}, 5, 0))


def test_missing_grid_keys_are_value_errors():
    cases = [
        ("recovery-curve", {}),
        ("recovery-curve", {"n": 6, "m": 2}),
        ("t-noise", {}),
        ("parity-tv", {}),
        ("sq-vs-sample", {}),
        ("opnorm-tv", {}),
    ]
    for name, grid in cases:
        with pytest.raises(ValueError, match="missing key") as exc:
            run(ExperimentSpec(name, grid, 1, 0))
        assert not isinstance(exc.value, InfeasibleGridError)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.404, abs=0.005)
    assert hi == pytest.approx(0.596, abs=0.005)
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0, abs=1e-12) and lo < 1
    assert wilson_sigma(9999, 10000) > 0


def test_recovery_curve_small_grid():
    spec = ExperimentSpec(
        "recovery-curve", {"n": 10, "m": [3], "k_offsets": [0, 2, 5]}, 400, 7
    )
    result = run(spec)
    assert [p["params"]["k"] for p in result.points] == [3, 5, 8]
    for p in result.points:
        m, k = p["params"]["m"], p["params"]["k"]
        bound = 1 - 2.0 ** (m - k)
        sigma = wilson_sigma(round(p["success_rate"] * 400), 400)
        assert p["success_rate"] >= bound - 3 * sigma
        assert p["queries"] == k + 1
        assert 0 <= p["ci_lo"] <= p["success_rate"] <= p["ci_hi"] <= 1


def test_recovery_curve_absolute_k():
    spec = ExperimentSpec("recovery-curve", {"n": 6, "m": 2, "k": [2, 4]}, 50, 3)
    result = run(spec)
    assert [p["params"]["k"] for p in result.points] == [2, 4]


def test_t_noise_experiment():
    result = run(ExperimentSpec("t-noise", {"k": [1, 3]}, 1, 11))
    for p in result.points:
        assert p["success_rate"] == 1.0
        assert p["metrics"]["max_prob_err"] < 1e-12
        assert p["metrics"]["max_eta_err"] < 1e-12
        assert p["mean_tv"] < 1e-12


def test_parity_tv_experiment():
    result = run(ExperimentSpec("parity-tv", {"k": 3}, 1, 0))
    (point,) = result.points
    assert point["success_rate"] == 1.0
    assert point["mean_tv"] == pytest.approx(0.5, abs=1e-15)
    assert point["metrics"]["self_tv_zero"] is True


def test_sq_vs_sample_experiment_small():
    spec = ExperimentSpec(
        "sq-vs-sample", {"k": 10, "tau": 0.1, "budget": 30, "delta": 0.0625}, 100, 5
    )
    result = run(spec)
    by_learner = {p["params"]["learner"]: p for p in result.points}
    sq = by_learner["sq-correlation"]
    cl = by_learner["closure"]
    assert sq["success_rate"] <= 30 / 2 ** 10 + 0.1
    assert cl["success_rate"] >= 0.8
    assert cl["queries"] == 10 + 1 + 4  # n + ceil(log2(1/delta))


def test_opnorm_tv_experiment():
    result = run(ExperimentSpec("opnorm-tv", {"n": [2, 4]}, 60, 9))
    for p in result.points:
        assert p["success_rate"] == 1.0
        assert p["metrics"]["max_tv_minus_opnorm"] <= 0


def test_reproducibility_same_seed():
    spec = ExperimentSpec("recovery-curve", {"n": 8, "m": [2], "k": [4]}, 200, 42)
    a = run(spec)
    b = run(spec)
    assert result_bytes_without_timestamp(a) == result_bytes_without_timestamp(b)


def test_different_seed_changes_results():
    grid = {"n": 8, "m": [4], "k": [5]}
    a = run(ExperimentSpec("recovery-curve", grid, 300, 1))
    b = run(ExperimentSpec("recovery-curve", grid, 300, 2))
    assert result_bytes_without_timestamp(a) != result_bytes_without_timestamp(b)


def test_trials_independent_of_schedule():
    # per-trial streams are keyed, so running trials in any order agrees
    forward = [recovery_trial(8, 3, 5, trial_rng(5, 0, t)) for t in range(100)]
    backward = [recovery_trial(8, 3, 5, trial_rng(5, 0, t)) for t in reversed(range(100))]
    assert forward == list(reversed(backward))


def test_trial_rng_streams_differ():
    a = trial_rng(1, 0, 0).getrandbits(64)
    b = trial_rng(1, 0, 1).getrandbits(64)
    c = trial_rng(1, 1, 0).getrandbits(64)
    d = trial_rng(2, 0, 0).getrandbits(64)
    assert len({a, b, c, d}) == 4
    assert trial_rng(1, 0, 0).getrandbits(64) == a


def test_result_schema_fields():
    result = run(ExperimentSpec("parity-tv", {"k": 2}, 1, 0))
    obj = json.loads(result.to_json())
    assert obj["schema"] == "result_v1"
    assert set(obj) == {
        "schema", "experiment", "spec", "seed", "points", "version", "generated_at",
    }
    for p in obj["points"]:
        assert {"params", "success_rate", "ci_lo", "ci_hi", "mean_tv", "queries"} <= set(p)


def test_csv_output():
    result = run(ExperimentSpec("recovery-curve", {"n": 6, "m": 2, "k": [3, 4]}, 40, 0))
    rows = list(csv.reader(io.StringIO(result.to_csv())))
    header, *data = rows
    assert header[0] == "experiment"
    assert "success_rate" in header
    assert len(data) == 2
    k_idx = header.index("k")
    assert [r[k_idx] for r in data] == ["3", "4"]


def test_bad_trials():
    with pytest.raises(ValueError):
        run(ExperimentSpec("parity-tv", {"k": 2}, 0, 0))


def test_registry_names():
    assert set(EXPERIMENTS) == {
        "recovery-curve", "t-noise", "parity-tv", "sq-vs-sample", "opnorm-tv",
    }


def test_recovery_trial_builds_no_basis_matrix(monkeypatch):
    # The trial works on packed columns only; the row-major basis matrix is
    # built on demand, by the basis property or for serialization, and both
    # transpose the columns through _transpose.
    from borncraft import dist, gf2

    def fail(*args, **kwargs):
        raise AssertionError("a basis matrix was built")

    monkeypatch.setattr(gf2, "_transpose", fail)
    monkeypatch.setattr(dist, "_transpose", fail)
    for m, k in ((0, 0), (4, 6), (8, 8), (12, 20)):
        ok, _, queries = recovery_trial(16, m, k, trial_rng(0, m, k))
        assert queries == k + 1


def test_recovery_trial_builds_no_bit_vector_per_sample(monkeypatch):
    # Samples go from the oracle to the learner as ints, so a trial builds
    # as many BitVecs at k = 22 as at k = 4.
    init = BitVec.__init__
    built = [0]

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(BitVec, "__init__", counting_init)
    counts = []
    for k in (4, 22):
        built[0] = 0
        recovery_trial(16, 8, k, trial_rng(0, 8, k))
        counts.append(built[0])
    assert counts[0] == counts[1]


def test_recovery_trial_never_checks_set_equality(monkeypatch):
    # Success is read from the exact TV, so the trial needs no same_set.
    def fail(*args, **kwargs):
        raise AssertionError("same_set was called")

    monkeypatch.setattr(AffineSubspace, "same_set", fail)
    outcomes = set()
    for m, k in ((0, 0), (4, 2), (4, 6), (8, 8), (12, 20)):
        ok, dist_tv, _ = recovery_trial(16, m, k, trial_rng(0, m, k))
        assert ok == (dist_tv == 0.0)
        outcomes.add(ok)
    assert outcomes == {False, True}


def _recovery_trial_with_same_set(n, m, k, rng):
    """recovery_trial as it was when success came from a separate same_set
    check next to the exact TV."""
    truth = AffineSubspace.random(rng, n, m)
    truth_dist = AffineUniform(truth)
    oracle = SampleOracle(truth_dist, rng)
    samples = [oracle.draw() for _ in range(k + 1)]
    learned = recover_affine(samples)
    success = learned.subspace.same_set(truth)
    dist_tv = float(tv(learned, truth_dist))
    return success, dist_tv, oracle.queries


@pytest.mark.parametrize("n", [0, 1, 2, 7, 16, 64, 130])
def test_recovery_trial_matches_a_separate_same_set_check(n):
    outcomes = set()
    for m in sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1))):
        for k in sorted({0, max(m - 1, 0), m, m + 1, m + 4}):
            for seed in range(6):
                got = recovery_trial(n, m, k, trial_rng(seed, m, k))
                want = _recovery_trial_with_same_set(n, m, k, trial_rng(seed, m, k))
                assert got == want
                assert [type(x) for x in got] == [bool, float, int]
                outcomes.add(got[0])
    # F2^0 has one point, so every trial there succeeds.
    assert outcomes == ({True} if n == 0 else {False, True})


# Grids the table refuses before any trial runs: (experiment, grid, the key
# the message must name). Each ran, or ended in a TypeError, before the table.
_MALFORMED_GRIDS = [
    ("sq-vs-sample", {"k": 3, "tau": 0.1, "budget": [1]}, "budget"),
    ("parity-tv", {"k": {"a": 1}}, "k"),
    ("recovery-curve", {"n": 1e9, "m": [4], "k_offsets": [0]}, "n"),
    ("opnorm-tv", {"n": [True]}, "n"),
    ("opnorm-tv", {"n": [2.7]}, "n"),
    ("opnorm-tv", {"n": 16.0}, "n"),
    ("opnorm-tv", {"n": [2], "bogus": 1}, "bogus"),
    ("t-noise", {"k": 2, "tol": "nan"}, "tol"),
    ("t-noise", {"k": 2, "tol": float("nan")}, "tol"),
    ("t-noise", {"k": 2, "tol": float("inf")}, "tol"),
    ("t-noise", {"k": 2, "tol": 10 ** 400}, "tol"),
    ("t-noise", {"k": "3"}, "k"),
    ("recovery-curve", {"n": "abc", "m": 2, "k": [3]}, "n"),
    ("sq-vs-sample", {"k": 3, "delta": None}, "delta"),
]


@pytest.mark.parametrize("name,grid,key", _MALFORMED_GRIDS)
def test_malformed_grid_is_value_error_naming_key(name, grid, key):
    with pytest.raises(ValueError, match=f"'{key}'") as exc:
        run(ExperimentSpec(name, grid, 1, 0))
    assert not isinstance(exc.value, InfeasibleGridError)


def test_k_and_k_offsets_together_are_refused():
    grid = {"n": 6, "m": [2], "k": [3], "k_offsets": [0]}
    with pytest.raises(ValueError, match="'k' and 'k_offsets'") as exc:
        run(ExperimentSpec("recovery-curve", grid, 1, 0))
    assert not isinstance(exc.value, InfeasibleGridError)


@pytest.mark.parametrize("name,grid,trials", [
    ("recovery-curve", {"n": 10 ** 9, "m": [4], "k_offsets": [0]}, 1),
    ("recovery-curve", {"n": 16, "m": [4], "k": [10 ** 9]}, 1),
    ("recovery-curve", {"n": 16, "m": [4], "k_offsets": [-5]}, 1),
    ("recovery-curve", {"n": 16, "m": [4], "k": [3]}, 10 ** 11),
    ("parity-tv", {"k": [2, MAX_PARITY_TV_BITS + 1]}, 1),
    ("sq-vs-sample", {"k": 30, "budget": 10 ** 12}, 1),
    # each key and the trial count lie within their caps; at n = 10 the point's
    # predicted seconds exceed MAX_POINT_SECONDS, at n = 1 they do not
    ("opnorm-tv", {"n": [1, 10]}, 30_000),
    # tau and delta in (0, 1) with 1/delta finite, budget >= 0: refused before
    # the sq trials run, not by closure_learn or the oracle inside them
    ("sq-vs-sample", {"k": 16, "budget": 500_000, "delta": 0}, 5),
    ("sq-vs-sample", {"k": 16, "budget": 500_000, "delta": 1}, 5),
    ("sq-vs-sample", {"k": 16, "budget": 500_000, "delta": 5e-324}, 5),
    ("sq-vs-sample", {"k": 16, "budget": 500_000, "tau": 0}, 5),
    ("sq-vs-sample", {"k": 16, "budget": 500_000, "tau": 1.0}, 5),
    ("sq-vs-sample", {"k": 16, "budget": -1}, 5),
    # every key within its cap, but one trial takes seconds: days at 10^5 trials
    ("recovery-curve", {"n": 1024, "m": [1024], "k": [4096]}, 100_000),
    ("sq-vs-sample", {"k": 30, "budget": 500_000}, 100_000),
])
def test_caps_refuse_before_any_trial(name, grid, trials):
    start = time.perf_counter()
    with pytest.raises(InfeasibleGridError):
        run(ExperimentSpec(name, grid, trials, 0))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name,grid", [
    ("t-noise", {"k": [1] * MAX_POINTS}),
    ("recovery-curve", {"n": 2, "m": [0] * 32, "k": [0] * (MAX_POINTS // 32)}),
    ("recovery-curve", {"n": 2, "m": [0] * (MAX_POINTS // 16), "k_offsets": [0] * 16}),
])
def test_point_cap_admits_grids_up_to_it(name, grid):
    # The count is the product of the lengths of the grid's lists; one more
    # value in any list is refused before a point is listed.
    assert len(run(ExperimentSpec(name, grid, 1, 0)).points) == MAX_POINTS
    for key, values in grid.items():
        if isinstance(values, list):
            over = dict(grid, **{key: values + values[:1]})
            count = MAX_POINTS // len(values) * (len(values) + 1)
            with pytest.raises(InfeasibleGridError,
                               match=f"^{name} grid has {count} points \\(at most {MAX_POINTS}\\)$"):
                run(ExperimentSpec(name, over, 1, 0))


def test_opnorm_tv_trial_caps_admit_points_up_to_them(monkeypatch):
    # The most trials whose predicted seconds stay within MAX_POINT_SECONDS run;
    # one more is refused, naming the point. The trial itself is stubbed out.
    monkeypatch.setattr(harness, "_opnorm_tv_trial", lambda n, rng: (True, 0.0, -1.0))
    seconds = EXPERIMENTS["opnorm-tv"].seconds
    for n in (1, 7, 10):
        trials = max(t for t in range(1, MAX_TRIALS + 1)
                     if seconds({"n": n}, t) <= MAX_POINT_SECONDS)
        assert trials < MAX_TRIALS
        assert len(run(ExperimentSpec("opnorm-tv", {"n": n}, trials, 0)).points) == 1
        with pytest.raises(InfeasibleGridError,
                           match=f'opnorm-tv point {{"n": {n}}} would take .* {trials + 1} trials'):
            run(ExperimentSpec("opnorm-tv", {"n": [n, 1]}, trials + 1, 0))


def test_shared_trial_loop_sums_in_trial_order(monkeypatch):
    # Each trial's stream comes from trial_rng right before the trial, and the
    # result's sums are those of the trials it saw.
    import borncraft.harness as h

    calls = []
    orig_rng, orig_trial = h.trial_rng, h.recovery_trial

    def trial_rng(*args):
        calls.append(("rng", args))
        return orig_rng(*args)

    def recovery_trial(n, m, k, rng):
        out = orig_trial(n, m, k, rng)
        calls.append(("trial", out))
        return out

    monkeypatch.setattr(h, "trial_rng", trial_rng)
    monkeypatch.setattr(h, "recovery_trial", recovery_trial)
    result = run(ExperimentSpec("recovery-curve", {"n": 6, "m": [2], "k": [2, 3]}, 4, 9))
    assert [kind for kind, _ in calls] == ["rng", "trial"] * 8
    assert [args for kind, args in calls if kind == "rng"] == [
        (9, p, t) for p in range(2) for t in range(4)
    ]
    outs = [out for kind, out in calls if kind == "trial"]
    for i, p in enumerate(result.points):
        mine = outs[4 * i:4 * i + 4]
        assert p["success_rate"] == sum(ok for ok, _, _ in mine) / 4
        assert p["queries"] == sum(q for _, _, q in mine) / 4


# --- exhaustive runners against their per-index references -------------------


def t_noise_per_index_reference(spec, grid):
    """The t-noise runner as one BitVec and one NoisyParity.eval per index."""
    points = []
    for k in grid["k"]:
        passing = 0
        tv_sum = 0.0
        max_prob_err = 0.0
        max_eta_err = 0.0
        for s_bits in range(1 << k):
            s = BitVec(k, s_bits)
            dd = sv_distribution(parity_circuit(s, noisy=True))
            model = NoisyParity(s, T_NOISE_RATE)
            point_err = 0.0
            dist_tv = 0.0
            flip_mass = 0.0
            for idx in range(1 << (k + 1)):
                x = BitVec(k + 1, idx)
                diff = dd.eval(x) - float(model.eval(x))
                point_err = max(point_err, abs(diff))
                dist_tv += abs(diff)
                if x[k] != x.take(k).dot(s):
                    flip_mass += dd.eval(x)
            eta_err = abs(flip_mass - T_NOISE_RATE)
            max_prob_err = max(max_prob_err, point_err)
            max_eta_err = max(max_eta_err, eta_err)
            tv_sum += dist_tv / 2
            passing += point_err < grid["tol"]
        points.append(harness._point({"k": k, "eta": T_NOISE_RATE, "tol": grid["tol"]},
                                     passing, 1 << k, tv_sum / (1 << k), 0,
                                     max_prob_err=max_prob_err, max_eta_err=max_eta_err))
    return points


def parity_tv_pairwise_reference(spec, grid):
    """The parity-tv runner as a double loop over the pairs, with tv(d, d) as its
    self check (which returns 0 before it enumerates)."""
    points = []
    for k in grid["k"]:
        dists = [NoisyParity(BitVec(k, s), 0) for s in range(1 << k)]
        exact_half = 0
        pairs = 0
        tv_sum = 0.0
        self_ok = all(tv(d, d) == 0 for d in dists)
        for i in range(len(dists)):
            for j in range(i + 1, len(dists)):
                d = tv(dists[i], dists[j])
                pairs += 1
                tv_sum += float(d)
                exact_half += d * 2 == 1
        points.append(harness._point({"k": k}, exact_half, pairs, tv_sum / pairs, 0,
                                     self_tv_zero=self_ok))
    return points


@pytest.mark.parametrize("name,grid,reference", [
    *[("t-noise", {"k": list(range(1, 7)), "tol": tol}, t_noise_per_index_reference)
      for tol in (0.0, 1e-16, 1e-12, 1e-3)],
    ("parity-tv", {"k": list(range(1, 6))}, parity_tv_pairwise_reference),
])
def test_exhaustive_runner_bytes_match_reference(name, grid, reference):
    spec = ExperimentSpec(name, grid, 1, 1)
    got = json.dumps(run(spec).points, sort_keys=True).encode()
    assert got == json.dumps(reference(spec, grid), sort_keys=True).encode()


def test_parity_tv_self_tv_zero_enumerates_equal_parities(monkeypatch):
    # tv(d, d) returns 0 before it enumerates anything, so the metric compares
    # each parity with an equal one built anew. A tv that adds the common
    # support twice must turn it false.
    def tv_counting_common_support_twice(p, q):
        if p is q:
            return Fraction(0)
        total = sum(abs(p.eval(x) - q.eval(x)) for x in p.support())
        return (total + sum(q.eval(x) for x in q.support())) / 2

    monkeypatch.setattr(harness, "tv", tv_counting_common_support_twice)
    (point,) = run(ExperimentSpec("parity-tv", {"k": 2}, 1, 0)).points
    assert point["metrics"]["self_tv_zero"] is False
