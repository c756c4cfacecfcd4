"""Distribution families: exact evaluators, generators, TV, embedding,
serialization, and the sample/statistical-query oracles."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borncraft.circuit import T_NOISE_RATE, depth, parity_circuit
from borncraft.dist import (
    AffineUniform,
    Dense,
    FunctionDist,
    NoisyParity,
    ParityCorrelation,
    PointMass,
    Product,
    SampleOracle,
    StatOracle,
    dist_from_json,
    dist_to_json,
    embed,
    marginalize,
    tv,
    uniform,
)
from borncraft.gf2 import AffineSubspace, BitVec
from borncraft.stabilizer import simulate_clifford, support
from borncraft.statevector import DenseDist, sv_distribution


def random_structured(rng, max_bits=8):
    """A random instance of one of the structured families."""
    kind = rng.randrange(5)
    if kind == 0:
        n = rng.randrange(1, max_bits + 1)
        return AffineUniform(AffineSubspace.random(rng, n, rng.randrange(0, n + 1)))
    if kind == 1:
        return PointMass(BitVec.random(rng, rng.randrange(1, max_bits + 1)))
    if kind == 2:
        k = rng.randrange(1, max_bits)
        eta = rng.choice([0, Fraction(1, 4), T_NOISE_RATE])
        return NoisyParity(BitVec.random(rng, k), eta)
    if kind == 3:
        n = rng.randrange(1, 5)
        table = [rng.getrandbits(1) for _ in range(1 << n)]
        return FunctionDist(table, uniform(n))
    parts = [PointMass(BitVec.random(rng, 2)), uniform(rng.randrange(1, 3))]
    return Product(parts)


# --- evaluators ---------------------------------------------------------------


def test_affine_uniform_eval():
    rng = random.Random(1)
    sub = AffineSubspace.random(rng, 6, 3)
    d = AffineUniform(sub)
    members = {x.bits for x in sub.elements()}
    for idx in range(64):
        x = BitVec(6, idx)
        expected = Fraction(1, 8) if idx in members else Fraction(0)
        assert d.eval(x) == expected
    assert sum(d.eval(BitVec(6, i)) for i in range(64)) == 1


def test_noisy_parity_eval_exact_values():
    s = BitVec.from_str("101")
    eta = Fraction(1, 7)
    d = NoisyParity(s, eta)
    for idx in range(16):
        x = BitVec(4, idx)
        expected = Fraction(1, 8) * (1 - eta) if x[3] == (x[0] ^ x[2]) else Fraction(1, 8) * eta
        assert d.eval(x) == expected
    assert sum(d.eval(BitVec(4, i)) for i in range(16)) == 1


def test_noisy_parity_eta_zero_matches_function_dist():
    s = BitVec.from_str("110")
    parity_table = [ (bin(x & s.bits).count("1") & 1) for x in range(8) ]
    np_dist = NoisyParity(s, 0)
    fd = FunctionDist(parity_table, uniform(3))
    for idx in range(16):
        x = BitVec(4, idx)
        assert np_dist.eval(x) == fd.eval(x)
    assert np_dist.eval(BitVec(4, 0)) == Fraction(1, 8)


def test_structured_eval_sums_to_one_exactly():
    rng = random.Random(7)
    for _ in range(40):
        d = random_structured(rng)
        total = sum(d.eval(x) for x in d.support())
        if isinstance(total, Fraction):
            assert total == 1
        else:
            # irrational noise rate forces floats; stays within 1e-12
            assert abs(total - 1) < 1e-12


def test_eval_length_mismatch():
    d = PointMass(BitVec.zeros(3))
    with pytest.raises(ValueError):
        d.eval(BitVec.zeros(4))


# --- generators ---------------------------------------------------------------


def test_point_mass_sampling():
    d = PointMass(BitVec.from_str("101"))
    rng = random.Random(0)
    assert all(d.sample(rng) == BitVec.from_str("101") for _ in range(10))


def test_noisy_parity_flip_rate_one_million():
    d = NoisyParity(BitVec.from_str("1"), T_NOISE_RATE)
    rng = random.Random(42)
    draws = 1_000_000
    flips = 0
    for _ in range(draws):
        x = d.sample(rng)
        flips += x[1] != x[0]
    sigma = math.sqrt(T_NOISE_RATE * (1 - T_NOISE_RATE) / draws)
    assert abs(flips / draws - 0.14645) < 3 * sigma + 1e-5


def test_generator_evaluator_consistency():
    rng = random.Random(123)
    for _ in range(5):
        d = random_structured(rng, max_bits=6)
        draws = 200_000
        counts: dict[int, int] = {}
        for _ in range(draws):
            x = d.sample(rng)
            counts[x.bits] = counts.get(x.bits, 0) + 1
        for x in d.support():
            p = float(d.eval(x))
            got = counts.get(x.bits, 0)
            sigma = math.sqrt(draws * p * (1 - p)) or 1.0
            assert abs(got - draws * p) < 4 * sigma + 1e-9
        assert sum(counts.values()) == draws
        support_bits = {x.bits for x in d.support()}
        assert set(counts) <= support_bits


def test_affine_uniform_chi_square():
    rng = random.Random(9)
    sub = AffineSubspace.random(rng, 7, 3)
    d = AffineUniform(sub)
    draws = 100_000
    counts: dict[int, int] = {}
    for _ in range(draws):
        x = d.sample(rng)
        counts[x.bits] = counts.get(x.bits, 0) + 1
    # accumulate over the 8 support points
    expected = draws / 8
    chi2 = sum((counts.get(x.bits, 0) - expected) ** 2 / expected for x in sub.elements())
    assert chi2 < 24.322  # 99.9% quantile, df = 7


# --- tv -------------------------------------------------------------------------


def test_tv_self_is_zero():
    rng = random.Random(3)
    for _ in range(10):
        d = random_structured(rng)
        assert tv(d, d) == 0


def test_tv_parity_pair_exactly_half():
    s = BitVec.from_str("10110")
    t = BitVec.from_str("01011")
    d = tv(NoisyParity(s, 0), NoisyParity(t, 0))
    assert isinstance(d, Fraction)
    assert d == Fraction(1, 2)


def test_tv_disjoint_point_masses():
    assert tv(PointMass(BitVec.from_str("00")), PointMass(BitVec.from_str("11"))) == 1


def test_tv_affine_fast_path_matches_enumeration():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randrange(1, 7)
        a = AffineUniform(AffineSubspace.random(rng, n, rng.randrange(0, n + 1)))
        b = AffineUniform(AffineSubspace.random(rng, n, rng.randrange(0, n + 1)))
        fast = tv(a, b)
        brute = sum(abs(a.eval(BitVec(n, i)) - b.eval(BitVec(n, i))) for i in range(1 << n))
        assert fast == brute / 2


@st.composite
def affine_triples(draw):
    """Three uniform distributions on affine subspaces of F2^n: dimensions
    drawn independently, and each later one sometimes a translate of the
    first (the same set, or a disjoint coset)."""
    n = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    first = AffineSubspace.random(rng, n, draw(st.integers(0, n)))
    subs = [first]
    for _ in range(2):
        if draw(st.booleans()):
            t = draw(st.integers(0, (1 << n) - 1))
            subs.append(AffineSubspace._from_cols(n, first._cols, first.shift.bits ^ t))
        else:
            subs.append(AffineSubspace.random(rng, n, draw(st.integers(0, n))))
    return [AffineUniform(s) for s in subs]


def _tv_by_enumeration(a: AffineUniform, b: AffineUniform) -> Fraction:
    sa = {x.bits for x in a.subspace.elements()}
    sb = {x.bits for x in b.subspace.elements()}
    pa, pb = Fraction(1, len(sa)), Fraction(1, len(sb))
    return sum(abs(pa * (x in sa) - pb * (x in sb)) for x in sa | sb) / 2


@settings(max_examples=300, deadline=None)
@given(affine_triples())
def test_tv_affine_properties(triple):
    a, b, c = triple
    ab = tv(a, b)
    assert isinstance(ab, Fraction)
    assert ab == _tv_by_enumeration(a, b)
    assert tv(b, a) == ab
    assert tv(a, c) <= ab + tv(b, c)
    assert tv(b, c) <= ab + tv(a, c)
    assert (ab == 1) == (a.subspace.intersection_dim(b.subspace) is None)


@st.composite
def exact_dists(draw, n):
    """A distribution on n bits from a family with exact rational masses."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["affine", "point", "parity", "product"]))
    if kind == "affine":
        return AffineUniform(AffineSubspace.random(rng, n, draw(st.integers(0, n))))
    if kind == "parity" and n > 1:
        eta = draw(st.fractions(0, 1, max_denominator=16).filter(lambda f: f < 1))
        return NoisyParity(BitVec.random(rng, n - 1), eta)
    if kind == "product" and n > 1:
        k = draw(st.integers(1, n - 1))
        return Product([uniform(k), PointMass(BitVec.random(rng, n - k))])
    return PointMass(BitVec.random(rng, n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[exact_dists(n)] * 3)))
def test_tv_symmetric_and_triangle_across_families(triple):
    a, b, c = triple
    assert tv(a, b) == tv(b, a)
    assert tv(a, c) <= tv(a, b) + tv(b, c)
    assert 0 <= tv(a, b) <= 1


def test_tv_mixed_structured_dense():
    c = parity_circuit(BitVec.from_str("11"), noisy=True)
    dense = Dense(sv_distribution(c))
    model = NoisyParity(BitVec.from_str("11"), T_NOISE_RATE)
    assert float(tv(dense, model)) < 1e-12
    assert float(tv(model, dense)) < 1e-12


def test_tv_length_mismatch():
    with pytest.raises(ValueError):
        tv(uniform(2), uniform(3))


# --- embed / marginalize --------------------------------------------------------


def test_embed_eval_formula():
    rng = random.Random(14)
    for _ in range(30):
        d = random_structured(rng, max_bits=5)
        n = d.n + rng.randrange(1, 4)
        e = embed(d, n)
        for _ in range(10):
            x = BitVec.random(rng, d.n)
            pad_zero = x.concat(BitVec.zeros(n - d.n))
            assert e.eval(pad_zero) == d.eval(x)
            pad_bits = rng.randrange(1, 1 << (n - d.n))
            padded = x.concat(BitVec(n - d.n, pad_bits))
            assert e.eval(padded) == 0


def test_marginalize_inverts_embed():
    rng = random.Random(15)
    for _ in range(100):
        d = random_structured(rng, max_bits=5)
        n = d.n + rng.randrange(0, 4)
        e = embed(d, n)
        back = marginalize(e, d.n)
        assert back is d


def test_embed_preserves_tv_exactly():
    rng = random.Random(16)
    for _ in range(30):
        n_bits = rng.randrange(1, 5)
        a = NoisyParity(BitVec.random(rng, n_bits), 0)
        b = NoisyParity(BitVec.random(rng, n_bits), Fraction(1, 4))
        n = a.n + rng.randrange(1, 4)
        assert tv(embed(a, n), embed(b, n)) == tv(a, b)


def test_marginalize_affine_matches_enumeration():
    rng = random.Random(18)
    for _ in range(50):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n)
        d = AffineUniform(AffineSubspace.random(rng, n, rng.randrange(0, n + 1)))
        marg = marginalize(d, k)
        brute = {}
        for x in d.support():
            brute[x.bits & ((1 << k) - 1)] = brute.get(x.bits & ((1 << k) - 1), 0) + d.eval(x)
        for idx in range(1 << k):
            assert marg.eval(BitVec(k, idx)) == brute.get(idx, 0)


def test_marginalize_dense():
    dd = Dense(DenseDist(2, np.array([0.1, 0.2, 0.3, 0.4])))
    marg = marginalize(dd, 1)
    assert marg.eval(BitVec(1, 0)) == pytest.approx(0.4)
    assert marg.eval(BitVec(1, 1)) == pytest.approx(0.6)


def test_marginalize_bounds():
    with pytest.raises(ValueError):
        marginalize(uniform(3), 4)
    with pytest.raises(ValueError):
        embed(uniform(3), 2)


def test_padding_keeps_depth_while_widening():
    # widening a circuit with idle wires embeds its distribution without
    # spending any extra depth
    s = BitVec.from_str("110")
    base = parity_circuit(s, noisy=False)
    k = base.n
    for pad in (1, 4, k * k - k):
        wide = parity_circuit(s, noisy=False, pad=pad)
        assert depth(wide) == depth(base)
        assert wide.n == k + pad
        sub_wide = support(simulate_clifford(wide))
        model = embed(AffineUniform(support(simulate_clifford(base))), wide.n)
        for x in sub_wide.elements():
            assert model.eval(x) == Fraction(1, sub_wide.size)


# --- serialization ---------------------------------------------------------------


def test_json_roundtrip_all_kinds():
    rng = random.Random(77)
    dists = [random_structured(rng) for _ in range(20)]
    dists.append(Dense(DenseDist(2, np.array([0.25, 0.25, 0.25, 0.25]))))
    dists.append(NoisyParity(BitVec.from_str("101"), T_NOISE_RATE))
    for d in dists:
        blob = json.dumps(dist_to_json(d), sort_keys=True)
        back = dist_from_json(json.loads(blob))
        assert type(back) is type(d)
        assert back.n == d.n
        for _ in range(20):
            x = BitVec.random(rng, d.n)
            assert float(back.eval(x)) == pytest.approx(float(d.eval(x)), abs=1e-15)
        assert json.dumps(dist_to_json(back), sort_keys=True) == blob


def test_json_schema_tag():
    obj = dist_to_json(uniform(2))
    assert obj["schema"] == "dist_v1"
    with pytest.raises(ValueError, match="schema"):
        dist_from_json({"schema": "bogus", "kind": "point_mass"})


def test_json_eta_zero_stays_exact():
    d = NoisyParity(BitVec.from_str("11"), 0)
    back = dist_from_json(dist_to_json(d))
    assert back.eval(BitVec(3, 0)) == Fraction(1, 4)
    assert isinstance(back.eval(BitVec(3, 0)), Fraction)


@pytest.mark.parametrize("obj,field", [
    ({"kind": "affine_uniform"}, "n"),
    ({"kind": "affine_uniform", "n": 2, "dim": 0, "basis_rows": ["0", "0"]}, "shift"),
    ({"kind": "noisy_parity", "k": 2, "s": "1"}, "eta"),
    ({"kind": "function", "table": "1"}, "base"),
    ({"kind": "point_mass", "value": "1"}, "n"),
    ({"kind": "product"}, "parts"),
    ({"kind": "dense", "n": 1}, "probs"),
    ({}, "kind"),
])
def test_json_missing_field_names_it(obj, field):
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        dist_from_json({"schema": "dist_v1", **obj})


@st.composite
def serializable_dists(draw, depth=2):
    """Every kind dist_to_json writes; function bases and product parts nest."""
    kinds = ["affine_uniform", "noisy_parity", "point_mass", "dense"]
    if depth:
        kinds += ["function", "product"]
    kind = draw(st.sampled_from(kinds))
    if kind == "affine_uniform":
        n = draw(st.integers(1, 6))
        rng = draw(st.randoms(use_true_random=False))
        return AffineUniform(AffineSubspace.random(rng, n, draw(st.integers(0, n))))
    if kind == "noisy_parity":
        k = draw(st.integers(1, 5))
        eta = draw(st.one_of(
            st.just(0),
            st.fractions(0, 1, max_denominator=64).filter(lambda f: f < 1),
            st.floats(0, 1, exclude_max=True),
        ))
        return NoisyParity(BitVec(k, draw(st.integers(0, (1 << k) - 1))), eta)
    if kind == "point_mass":
        n = draw(st.integers(1, 6))
        return PointMass(BitVec(n, draw(st.integers(0, (1 << n) - 1))))
    if kind == "dense":
        n = draw(st.integers(1, 4))
        weights = draw(st.lists(st.floats(0, 10), min_size=1 << n, max_size=1 << n)
                       .filter(lambda w: sum(w) > 0))
        return Dense(DenseDist(n, np.array(weights) / sum(weights)))
    if kind == "function":
        base = draw(serializable_dists(depth=0))
        table = draw(st.lists(st.integers(0, 1), min_size=1 << base.n, max_size=1 << base.n))
        return FunctionDist(table, base)
    parts = draw(st.lists(serializable_dists(depth=depth - 1), min_size=1, max_size=3))
    return Product(parts)


@settings(max_examples=200, deadline=None)
@given(serializable_dists(), st.randoms(use_true_random=False))
def test_json_roundtrip_property(d, rng):
    blob = json.dumps(dist_to_json(d), sort_keys=True)
    back = dist_from_json(json.loads(blob))
    assert type(back) is type(d)
    assert back.n == d.n
    assert json.dumps(dist_to_json(back), sort_keys=True) == blob
    for _ in range(8):
        x = BitVec.random(rng, d.n)
        assert back.eval(x) == d.eval(x)


# The JSON types each dist_v1 field accepts; bool and float count apart from int.
_FIELD_TYPES = {
    "schema": {str}, "kind": {str}, "n": {int}, "dim": {int}, "k": {int},
    "basis_rows": {list}, "shift": {str}, "s": {str}, "eta": {int, float, str},
    "table": {str}, "base": {dict}, "value": {str}, "parts": {list}, "probs": {list},
}
_ITEM_TYPES = {"basis_rows": {str}, "parts": {dict}, "probs": {int, float}}
_JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-3, 3),
    float: st.floats(-2, 2),
    str: st.sampled_from(["", "3", "x", "1/2"]),
    list: st.lists(st.integers(0, 3), max_size=2),
    dict: st.just({}),
}


@settings(max_examples=300, deadline=None)
@given(serializable_dists(), st.data())
def test_json_wrong_typed_field_names_it(d, data):
    obj = json.loads(json.dumps(dist_to_json(d)))
    field = data.draw(st.sampled_from(sorted(obj)), label="field")
    allowed = _FIELD_TYPES[field]
    if field in _ITEM_TYPES and data.draw(st.booleans(), label="swap an item"):
        items, allowed = list(obj[field]), _ITEM_TYPES[field]
        i = data.draw(st.integers(0, len(items) - 1), label="item")
        wrong = data.draw(st.sampled_from([t for t in _JSON_VALUES if t not in allowed]))
        items[i] = data.draw(_JSON_VALUES[wrong], label="value")
        obj[field] = items
    else:
        wrong = data.draw(st.sampled_from([t for t in _JSON_VALUES if t not in allowed]))
        obj[field] = data.draw(_JSON_VALUES[wrong], label="value")
    with pytest.raises(ValueError, match=field):
        dist_from_json(obj)


def test_json_wrong_typed_point_mass_n():
    with pytest.raises(ValueError, match="field 'n'"):
        dist_from_json({"schema": "dist_v1", "kind": "point_mass", "n": "3", "value": "1"})
    with pytest.raises(ValueError, match="must be a JSON object"):
        dist_from_json(["dist_v1"])


@pytest.mark.parametrize("eta", ["1/0", "0/0", "-3/0", "1", "a/2", "1/2/3"])
def test_json_bad_eta_fraction_names_it(eta):
    with pytest.raises(ValueError, match="field 'eta'"):
        dist_from_json({"schema": "dist_v1", "kind": "noisy_parity", "k": 2, "s": "1", "eta": eta})


# int() on each side reads every one of these as 1/8
@pytest.mark.parametrize("eta", [" 1_0/8_0 ", "-1/-8", "+1/8", "1/ 8"])
def test_json_eta_is_digits_over_digits(eta):
    dist_from_json({"schema": "dist_v1", "kind": "noisy_parity", "k": 2, "s": "1", "eta": "1/8"})
    with pytest.raises(ValueError, match="field 'eta'"):
        dist_from_json({"schema": "dist_v1", "kind": "noisy_parity", "k": 2, "s": "1", "eta": eta})


@pytest.mark.parametrize("n,probs,match", [
    (1, [math.nan, math.nan], "finite"),
    (1, [math.nan, 1.0], "finite"),
    (-1, [1.0], "up to 20 bits"),
    (21, [1.0], "up to 20 bits"),
])
def test_json_dense_rejects_nan_and_n_out_of_range(n, probs, match):
    with pytest.raises(ValueError, match=match):
        dist_from_json({"schema": "dist_v1", "kind": "dense", "n": n, "probs": probs})


# Every hex field, with a good value and a dist_v1 object around it; each is 3
# bits wide except the table, which is 1 << 1 bits wide.
_HEX_FIELDS = {
    "value": ("2", lambda v: {"kind": "point_mass", "n": 3, "value": v}),
    "s": ("5", lambda v: {"kind": "noisy_parity", "k": 3, "s": v, "eta": "1/8"}),
    "shift": ("6", lambda v: {"kind": "affine_uniform", "n": 3, "dim": 1,
                              "basis_rows": ["1", "0", "1"], "shift": v}),
    "basis_rows": ("2", lambda v: {"kind": "affine_uniform", "n": 3, "dim": 3,
                                   "basis_rows": ["1", v, "4"], "shift": "0"}),
    "table": ("2", lambda v: {"kind": "function", "table": v,
                              "base": {"schema": "dist_v1", "kind": "point_mass", "n": 1, "value": "1"}}),
}


@pytest.mark.parametrize("field", sorted(_HEX_FIELDS))
@pytest.mark.parametrize("bad", ["-1", "0x_f", " 1", "1_0", "8", "1/0", ""])
def test_json_hex_fields_are_strict(field, bad):
    good, make = _HEX_FIELDS[field]
    dist_from_json({"schema": "dist_v1", **make(good)})
    with pytest.raises(ValueError, match=f"field '{field}'"):
        dist_from_json({"schema": "dist_v1", **make(bad)})


def test_from_hex_reads_either_case_and_checks_width():
    assert BitVec.from_hex(8, "aB") == BitVec(8, 0xAB)
    assert BitVec.from_hex(0, "0") == BitVec(0)
    with pytest.raises(ValueError, match="at or above 7"):
        BitVec.from_hex(7, "80")


def test_json_function_base_over_cap_fails_before_unpacking():
    # the table would be 2^64 bits wide
    base = {"schema": "dist_v1", "kind": "point_mass", "n": 64, "value": "0"}
    with pytest.raises(ValueError, match="truth tables supported up to"):
        dist_from_json({"schema": "dist_v1", "kind": "function", "table": "0", "base": base})


# --- oracles ---------------------------------------------------------------------


def test_sample_oracle_counts():
    rng = random.Random(5)
    oracle = SampleOracle(uniform(4), rng)
    for i in range(25):
        assert oracle.queries == i
        oracle.draw()
    assert oracle.queries == 25


def test_stat_oracle_constant_query():
    oracle = StatOracle(uniform(3), 0.1, "exact")
    assert oracle.query(lambda x: 1.0) == 1.0
    assert oracle.queries == 1


def test_correlation_expectation_matches_brute_force():
    rng = random.Random(8)
    for _ in range(30):
        k = rng.randrange(1, 9)
        s = BitVec.random(rng, k)
        eta = rng.choice([0, Fraction(1, 8), T_NOISE_RATE])
        d = NoisyParity(s, eta)
        t = s if rng.getrandbits(1) else BitVec.random(rng, k)
        phi = ParityCorrelation(t)
        brute = sum(d.eval(BitVec(k + 1, idx)) * phi(BitVec(k + 1, idx))
                    for idx in range(1 << (k + 1)))
        oracle = StatOracle(d, 0.05, "exact")
        got = oracle.query(phi)
        assert float(got) == pytest.approx(float(brute), abs=1e-12)
        if t == s:
            assert float(got) == pytest.approx(float(1 - 2 * eta), abs=1e-12)
        else:
            assert float(got) == pytest.approx(0.0, abs=1e-12)


def test_adversarial_mode_perturbs_by_exactly_tau():
    d = NoisyParity(BitVec.from_str("10"), 0)
    tau = 0.07
    oracle = StatOracle(d, tau, "adversarial", adversary_seed=99)
    signs = set()
    for _ in range(50):
        v = oracle.query(ParityCorrelation(BitVec.from_str("10")))
        assert abs(v - 1.0) == pytest.approx(tau, abs=1e-15)
        signs.add(v > 1.0)
    assert signs == {True, False}
    # reproducible given the seed
    again = StatOracle(d, tau, "adversarial", adversary_seed=99)
    replay = [again.query(ParityCorrelation(BitVec.from_str("10"))) for _ in range(50)]
    fresh = StatOracle(d, tau, "adversarial", adversary_seed=99)
    assert replay == [fresh.query(ParityCorrelation(BitVec.from_str("10"))) for _ in range(50)]


def test_empirical_mode_sample_count_formula():
    rng = random.Random(11)
    tau, failure, budget = 0.2, 0.02, 10
    oracle = StatOracle.empirical(uniform(3), tau, rng, failure_prob=failure,
                                  query_budget=budget)
    expected = math.ceil(math.log(2.0 / (failure / budget)) / (2 * tau * tau))
    assert oracle.samples_per_query == expected
    v = oracle.query(lambda x: 1.0)
    assert v == 1.0
    # mean of a +-1 query lands near its expectation
    d = NoisyParity(BitVec.from_str("110"), 0)
    oracle2 = StatOracle.empirical(d, 0.1, rng, failure_prob=0.01, query_budget=5)
    got = oracle2.query(ParityCorrelation(BitVec.from_str("110")))
    assert got == pytest.approx(1.0, abs=0.2)


def test_empirical_rejects_bad_tau_before_dividing():
    for tau in (0, 0.0, -0.1, 1.0):
        with pytest.raises(ValueError, match="tau"):
            StatOracle.empirical(uniform(2), tau, random.Random(0),
                                 failure_prob=0.01, query_budget=5)


def test_boolean_function_query_correspondence():
    # querying the paired distribution equals averaging phi(x, f(x)) over the base
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(1, 5)
        table = [rng.getrandbits(1) for _ in range(1 << n)]
        d = FunctionDist(table, uniform(n))
        oracle = StatOracle(d, 0.1, "exact")

        def phi(xy, _n=n):
            return (-1.0) ** (xy[_n] + xy[0])

        direct = sum(
            Fraction(1, 1 << n) * phi(BitVec(n + 1, x | (table[x] << n)))
            for x in range(1 << n)
        )
        assert float(oracle.query(phi)) == pytest.approx(float(direct), abs=1e-12)


def test_stat_oracle_validation():
    with pytest.raises(ValueError):
        StatOracle(uniform(2), 0.0)
    with pytest.raises(ValueError):
        StatOracle(uniform(2), 1.0)
    with pytest.raises(ValueError):
        StatOracle(uniform(2), 0.1, "bogus")
    with pytest.raises(ValueError):
        StatOracle(uniform(2), 0.1, "empirical")
