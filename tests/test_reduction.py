import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tamagawa import reduction
from tamagawa.arith import factor, is_prime, valuation
from tamagawa.curves import (
    CurveAnalysis,
    SingularCurveError,
    Transformation,
    WeierstrassCurve,
    apply_transformation,
    change_coordinates,
    invariants,
    minimal_model,
)
from tamagawa.families import FAMILIES, ThreeTorsionNormalForm, two_six_curve
from tamagawa.reduction import (
    ADDITIVE,
    GOOD,
    NONSPLIT,
    SPLIT,
    KodairaType,
    UnsupportedDomainError,
    _cubic_rational_root_count,
    _is_square,
    _quadratic,
    bad_primes,
    c_infinity,
    conductor,
    conductor_exponent,
    global_root_number_semistable,
    global_tamagawa,
    local_data,
    local_root_number,
    semistable_root_number,
    tate,
)
from tamagawa.verify import ingest_fixtures

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures.json"


def test_observation_one_example():
    # ord_3(a1) = 0, every other coefficient positive valuation: split I_n
    E = WeierstrassCurve(1, -3, -3, 0, 0)
    d = tate(E, 3)
    assert d.kodaira.symbol == "I4"
    assert d.tamagawa == 4
    assert d.reduction_class == SPLIT
    assert d.v_delta_min == 4


def test_good_prime():
    E = WeierstrassCurve(1, -3, -3, 0, 0)  # disc 3969 = 3^4 7^2
    d = tate(E, 5)
    assert d.kodaira.symbol == "I0" and d.tamagawa == 1 and d.reduction_class == GOOD


def test_type_iv_at_five():
    d = tate(WeierstrassCurve(5, 0, 5, 0, 0), 5)
    assert d.kodaira.symbol == "IV" and d.tamagawa == 3


def test_two_six_deep_three_gives_In_star():
    # ord_3(t) <= -2 forces I_n* (n >= 1) at 3 with even Tamagawa number
    for t in (Fraction(1, 9), Fraction(2, 9), Fraction(1, 18), Fraction(4, 45)):
        E = two_six_curve(t)
        d = tate(E, 3)
        assert d.kodaira.is_In_star and d.kodaira.n >= 1, (t, d)
        assert d.tamagawa % 2 == 0
    # deeper 3-adic parameters walk the I_n* ladder: t = 1/3^k gives I_{2k-2}*
    for k in (2, 3, 4, 5):
        d = tate(two_six_curve(Fraction(1, 3**k)), 3)
        assert d.kodaira.symbol == f"I{2 * k - 2}*", (k, d)
        assert d.tamagawa == 4


def test_two_six_negative_two_valuation_even_tamagawa():
    # ord_p(t) < 0 at p != 3 gives multiplicative reduction with even c_p
    for k in (2, 3, 4, 5):
        d = tate(two_six_curve(Fraction(1, 2**k)), 2)
        assert d.kodaira.symbol == f"I{2 * k}", (k, d)
        assert d.tamagawa % 2 == 0


def test_two_six_small_parameter_primes_give_split_I6m():
    # v_p(t) = m > 0 forces split I_{6m} with c = 6m; likewise for t-1 and t+1
    # at odd p (at p = 2 the factors t-1 and t+1 are even together and the
    # rule does not apply to them)
    from tamagawa.arith import is_prime, valuation

    for t in (Fraction(2), Fraction(4), Fraction(9, 5), Fraction(25, 4), Fraction(7, 2)):
        E = two_six_curve(t)
        a, b = t.numerator, t.denominator
        for factor_value, odd_only in ((a, False), (a - b, True), (a + b, True)):
            for p in (2, 3, 5, 7, 11, 13):
                if odd_only and p == 2:
                    continue
                m = valuation(factor_value, p) if factor_value else 0
                if m > 0 and b % p != 0:
                    d = tate(E, p)
                    assert d.kodaira.symbol == f"I{6 * m}", (t, p, d)
                    assert d.reduction_class == SPLIT
                    assert d.tamagawa == 6 * m


def test_four_torsion_s_divisors_give_split_I4m():
    # a prime p | s is split multiplicative of type I_{4 v_p(s)}, so 4 | c_p
    from tamagawa.arith import is_prime, valuation
    from tamagawa.families import four_torsion_curve

    for s, t in [(2, 1), (4, -3), (6, 5), (9, 2), (10, -7)]:
        E = four_torsion_curve(s, t)
        for p in (2, 3, 5):
            m = valuation(s, p)
            if m > 0:
                d = tate(E, p)
                assert d.kodaira.symbol == f"I{4 * m}", (s, t, p, d)
                assert d.reduction_class == SPLIT
                assert d.tamagawa == 4 * m


def test_c_infinity():
    assert c_infinity(WeierstrassCurve(1, -3, -3, 0, 0)) == 2  # disc 3969 > 0
    assert c_infinity(WeierstrassCurve(2, 0, 1, 0, 0)) == 1  # disc -19 < 0


def test_c_infinity_transformation_invariant():
    E = WeierstrassCurve(1, -3, -3, 0, 0)
    E2 = apply_transformation(E, Transformation(Fraction(1, 3), 1, 2, -1))
    assert c_infinity(E2) == c_infinity(E)


def test_global_tamagawa_examples():
    assert global_tamagawa(WeierstrassCurve(2, 0, 1, 0, 0)).value == 1
    f = global_tamagawa(two_six_curve(2))
    assert f.value % 12 == 0
    # all-c_p-one curve: empty factorization represents 1
    assert global_tamagawa(WeierstrassCurve(1, 1, 1, 0, 0)).factors == ()


def test_observation_one_property():
    # fabricate models with ord_p(a1) = 0 < ord_p of the rest
    rng = random.Random(7)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7, 11])
        a1 = rng.choice([1, 2, 3, 4, 5])
        if a1 % p == 0:
            a1 += 1
        ai = (
            a1,
            p * rng.randint(-4, 4),
            p * rng.randint(-4, 4),
            p * rng.randint(-4, 4),
            p * rng.randint(-4, 4),
        )
        try:
            E = WeierstrassCurve(*ai)
        except Exception:
            continue
        n = valuation(E.disc, p)
        if n == 0:
            continue
        d = tate(E, p)
        assert d.kodaira.symbol == f"I{n}"
        assert d.reduction_class == SPLIT
        assert d.tamagawa == n


def test_observation_two_property():
    # nonsplit multiplicative: c_p = 2 iff ord_p(disc_min) even else 1
    rng = random.Random(11)
    seen = 0
    for _ in range(400):
        ai = tuple(rng.randint(-6, 6) for _ in range(5))
        try:
            E = WeierstrassCurve(*ai)
        except Exception:
            continue
        try:
            data = local_data(E)
        except Exception:
            continue
        for d in data:
            if d.reduction_class == NONSPLIT:
                seen += 1
                expected = 2 if d.v_delta_min % 2 == 0 else 1
                assert d.tamagawa == expected
    assert seen > 20


def test_isomorphism_invariance():
    rng = random.Random(13)
    for _ in range(25):
        ai = tuple(rng.randint(-5, 5) for _ in range(5))
        try:
            E = WeierstrassCurve(*ai)
        except Exception:
            continue
        u0 = rng.choice([1, 2, 3, 6])
        tr = Transformation(
            Fraction(1, u0),
            Fraction(rng.randint(-4, 4)),
            Fraction(rng.randint(-4, 4)),
            Fraction(rng.randint(-4, 4)),
        )
        E2 = apply_transformation(E, tr)
        for p in set(bad_primes(E)) | set(bad_primes(E2)):
            assert tate(E, p) == tate(E2, p)


def test_two_torsion_odd_additive_prime_even_tamagawa():
    # rational 2-torsion point plus an odd additive prime forces 2 | c_p
    cases = [
        (WeierstrassCurve(0, 3, 0, 9, 0), 3),
        (WeierstrassCurve(0, 5, 0, 25, 0), 5),
        (WeierstrassCurve(0, 0, 0, -49, 0), 7),
        (WeierstrassCurve(0, 7, 0, 49, 0), 7),
    ]
    for E, p in cases:
        d = tate(E, p)
        assert d.reduction_class == ADDITIVE, (E, d)
        assert d.tamagawa % 2 == 0, (E, d)


def test_three_torsion_split_small_prime_tamagawa():
    # rational 3-torsion plus split multiplicative reduction at p in {2, 3}
    cases = [
        (ThreeTorsionNormalForm(1, 3).curve, 3),
        (ThreeTorsionNormalForm(1, 2).curve, 2),
        (ThreeTorsionNormalForm(5, 6).curve, 2),
        (ThreeTorsionNormalForm(5, 6).curve, 3),
    ]
    for E, p in cases:
        d = tate(E, p)
        if d.reduction_class == SPLIT:
            assert d.tamagawa % 3 == 0, (E.ai(), p, d)


def test_root_numbers():
    E = WeierstrassCurve(0, 1, 1, -9, -15)  # split I3 at 19, good elsewhere
    assert local_root_number(E, "infinity").value == -1
    assert local_root_number(E, 19).value == -1
    assert local_root_number(E, 7).value == 1
    E2 = WeierstrassCurve(1, -3, -3, 0, 0)  # nonsplit at 7
    assert local_root_number(E2, 7).value == 1
    E3 = WeierstrassCurve(0, -1, 0, 1, 0)  # additive at 2
    assert local_root_number(E3, 2).value == "unsupported"
    with pytest.raises(UnsupportedDomainError):
        local_root_number(WeierstrassCurve(0, 0, 1, 0, 0), 3)  # j = 0


@pytest.mark.parametrize("place", ["inf", "oo", "Infinity", "19", None])
def test_local_root_number_takes_an_int_place_or_infinity(place):
    # the places "inf" and "oo" are not aliases of "infinity"
    with pytest.raises(TypeError):
        local_root_number(WeierstrassCurve(0, 1, 1, -9, -15), place)


@pytest.mark.parametrize(
    "ai", [(0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, -1, 0), (0, 0, 0, 4, 0)]
)
def test_root_numbers_refuse_j_0_and_1728_without_building_j(ai, monkeypatch):
    # j = 0 is c4 = 0 and j = 1728 is c6 = 0, read without the Fraction j
    curve = WeierstrassCurve(*ai)
    assert curve.j in (0, 1728)

    def no_j(self):
        raise AssertionError("j was built")

    monkeypatch.setattr(WeierstrassCurve, "j", property(no_j))
    with pytest.raises(UnsupportedDomainError):
        local_root_number(curve, 5)
    with pytest.raises(UnsupportedDomainError):
        global_root_number_semistable(curve)
    assert local_root_number(curve, "infinity").value == -1


def test_global_root_number_semistable():
    # one split place: w = +1; two split places: -1; zero split places: -1
    assert global_root_number_semistable(WeierstrassCurve(0, 1, 1, -9, -15)) == 1
    E = WeierstrassCurve(1, -1, 1, -3002, 63929)  # 2,5 split but additive at 3
    with pytest.raises(UnsupportedDomainError):
        global_root_number_semistable(E)
    E2 = WeierstrassCurve(1, 0, 1, -19, 26)  # split at 3 only
    assert global_root_number_semistable(E2) == 1
    E3 = two_six_curve(2)  # split at 2, 3, 5 and nonsplit at 7
    w = global_root_number_semistable(E3)
    split_count = sum(1 for d in local_data(E3) if d.reduction_class == SPLIT)
    assert w == (-1) ** (1 + split_count)


def test_semistable_root_number_is_the_product_of_local_root_numbers():
    """The rule of the local data alone: -1 at infinity and at each split
    place, so -1 exactly when the split places are even in number, and None
    with an additive place; each local factor is local_root_number's."""
    semistable = 0
    for rec in ingest_fixtures(FIXTURES).records:
        curve = CurveAnalysis.of(rec.curve).minimal
        if curve.c4 == 0 or curve.c6 == 0:
            continue
        data = local_data(curve)
        w = semistable_root_number(data)
        if any(d.reduction_class == ADDITIVE for d in data):
            assert w is None, rec.label
            continue
        semistable += 1
        assert w == global_root_number_semistable(curve), rec.label
        assert w == math.prod(local_root_number(curve, p).value for p in ["infinity", *bad_primes(curve)])
    assert semistable >= 5
    assert semistable_root_number([]) == -1


def test_conductors():
    assert conductor(WeierstrassCurve(0, 1, 1, -9, -15)) == 19
    assert conductor(WeierstrassCurve(0, -1, 0, 1, 0)) == 24
    assert conductor(WeierstrassCurve(1, 0, 0, 1, 0)) == 21
    assert conductor(WeierstrassCurve(0, 0, 1, 0, 0)) == 27
    assert conductor(WeierstrassCurve(0, 0, 0, -1, 0)) == 32


def test_conductor_is_the_fixture_label_prefix():
    # a Cremona label starts with the conductor: by Ogg's formula this checks
    # v(disc_min) and the component count at every bad prime, 2 and 3 included
    records = ingest_fixtures(FIXTURES).records
    assert len(records) == 24
    for rec in records:
        assert conductor(rec.curve) == int(re.match(r"\d+", rec.label).group()), rec.label


def test_conductor_exponent_is_0_at_good_primes():
    # the good branch of Ogg's formula, at each small prime not dividing the
    # conductor that the fixture's label starts with
    good = 0
    for rec in ingest_fixtures(FIXTURES).records:
        n = int(re.match(r"\d+", rec.label).group())
        for p in (2, 3, 5, 7, 11, 13):
            if n % p:
                d = tate(rec.curve, p)
                assert d.kodaira.is_good and conductor_exponent(d) == 0, (rec.label, p)
                good += 1
    assert good == 110  # of the 24 fixtures × 6 primes


def test_additive_type_coverage():
    # short-model valuation patterns hitting every additive branch
    cases = [
        (WeierstrassCurve(0, 0, 0, -25, 0), 5, "I0*", 4),
        (WeierstrassCurve(0, 0, 0, -50, 125), 5, "I1*", 4),
        (WeierstrassCurve(0, 0, 0, 0, 25), 5, "IV", 3),
        (WeierstrassCurve(0, 0, 0, 0, 625), 5, "IV*", 3),
        (WeierstrassCurve(0, 0, 0, 125, 0), 5, "III*", 2),
        (WeierstrassCurve(0, 0, 0, 0, 3125), 5, "II*", 1),
        (WeierstrassCurve(0, 0, 0, -27, 0), 3, "III*", 2),
        (WeierstrassCurve(0, 0, 0, 0, 32), 2, "II*", 1),
        (WeierstrassCurve(0, 0, 0, 8, 0), 2, "III*", 2),
        (WeierstrassCurve(0, 1, 0, -1, 0), 2, "IV", 3),
        (WeierstrassCurve(0, 1, 0, 4, 4), 2, "IV*", 3),
    ]
    for E, p, symbol, cp in cases:
        d = tate(E, p)
        assert d.kodaira.symbol == symbol, (E.ai(), p, d)
        assert d.tamagawa == cp, (E.ai(), p, d)
        assert d.reduction_class == ADDITIVE


def test_kodaira_type_validation():
    assert KodairaType("I0").is_good
    assert KodairaType("I12").n == 12
    assert KodairaType("I0*").components == 5
    assert KodairaType("IV*").components == 7
    # symbol: n, is_good, is_In, is_In_star, components
    expected = {
        "I0": (0, True, False, False, 1),
        "I1": (1, False, True, False, 1),
        "I7": (7, False, True, False, 7),
        "II": (None, False, False, False, 1),
        "III": (None, False, False, False, 2),
        "IV": (None, False, False, False, 3),
        "I0*": (0, False, False, True, 5),
        "I3*": (3, False, False, True, 8),
        "IV*": (None, False, False, False, 7),
        "III*": (None, False, False, False, 8),
        "II*": (None, False, False, False, 9),
    }
    for symbol, row in expected.items():
        k = KodairaType(symbol)
        assert (k.n, k.is_good, k.is_In, k.is_In_star, k.components) == row, symbol
    with pytest.raises(ValueError):
        KodairaType("V")
    with pytest.raises(ValueError):
        KodairaType("I-1")
    # n is written without leading zeros, as Tate's algorithm prints it
    for symbol in ("I01", "I00*", "I00", "I007*"):
        with pytest.raises(ValueError):
            KodairaType(symbol)


def test_local_datum_json():
    d = tate(WeierstrassCurve(1, -3, -3, 0, 0), 3)
    assert d.to_json() == {
        "p": "3",
        "kodaira": "I4",
        "cp": 4,
        "class": "split",
        "vdelta": 4,
    }


def test_tate_rejects_composite():
    # 9991 = 97 * 103 and 10001 = 73 * 137 sit on either side of the sieve bound 10^4
    for p in (6, 1, 9991, 10001, -5, 0):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            tate(WeierstrassCurve(1, -3, -3, 0, 0), p)


def test_tate_minimizes_internally():
    E = WeierstrassCurve(0, 1, 1, -9, -15)
    blown = apply_transformation(E, Transformation(Fraction(1, 19), 0, 0, 0))
    assert tate(blown, 19) == tate(E, 19)
    # scaling by a good prime leaves it good
    blown2 = apply_transformation(E, Transformation(Fraction(1, 7), 0, 0, 0))
    assert tate(blown2, 7).reduction_class == GOOD


def _reference_node_split(curve, p):
    """Split multiplicative reduction at p, decided by moving the node.

    The way `tate` decided it before it read -c6: translate the node of the
    reduction to (0, 0), then look for a root in F_p of the tangent quadratic
    T^2 + a1 T - a2 (by search below 100, by Euler's criterion on its
    discriminant above).  Needs p | disc and p not dividing c4.
    """
    a1, a2, a3, a4, a6 = curve.ai()
    b2, b4, c4, c6 = curve.b2, curve.b4, curve.c4, curve.c6
    if p == 2:
        r, t = a3 % 2, (a3 + a4) % 2
    elif p == 3:
        r = (-b2 * b4) % 3
        t = (a1 * r + a3) % 3
    else:
        r = (-(c6 + b2 * c4) * pow(12 * c4, -1, p)) % p
        t = (-(a1 * r + a3) * pow(2, -1, p)) % p
    a1, a2, a3, a4, a6 = change_coordinates(curve.ai(), r, 0, t)
    assert a3 % p == a4 % p == a6 % p == 0, "the node is not at (0, 0)"
    if p < 100:
        return any((T * T + a1 * T - a2) % p == 0 for T in range(p))
    d = (a1 * a1 + 4 * a2) % p
    assert d, "the tangent quadratic at a node is separable"
    return pow(d, (p - 1) // 2, p) == 1


def _reference_multiplicative(curve, p):
    """(symbol, c_p, class, v(disc)) of a model that is multiplicative at p."""
    n = valuation(curve.disc, p)
    if _reference_node_split(curve, p):
        return f"I{n}", n, SPLIT, n
    return f"I{n}", 2 if n % 2 == 0 else 1, NONSPLIT, n


def _summary(datum):
    return datum.kodaira.symbol, datum.tamagawa, datum.reduction_class, datum.v_delta_min


def _scaled(ai, u):
    """The model with coefficients a_i u^i: the same curve, not minimal at u's primes."""
    return WeierstrassCurve(*(a * u**e for a, e in zip(ai, (1, 2, 3, 4, 6))))


_small = st.integers(-40, 40)
_large_primes = st.sampled_from([1000003, 2**31 - 1, 2**61 - 1])


@given(_small, _small, _small, _small, _small, st.sampled_from([2, 3, 5, 7]), _small, _small, _small)
@settings(max_examples=400, deadline=None)
@example(0, -1, 16, 8, -20, 2, 0, 0, 0)  # not minimal at 2: 2 | c4, yet I2 after scaling by 2
def test_split_matches_moved_node_on_moved_curves(a1, a2, a3, a4, a6, p, r, s, t):
    try:
        E = WeierstrassCurve(*change_coordinates((a1, a2, a3, a4, a6), r, s, t))
    except SingularCurveError:
        return
    d = tate(E, p)
    # a drawn model may be non-minimal at p (then p | c4 on it even when the
    # reduction is multiplicative): the reference reads the minimal model
    M, _ = minimal_model(E)
    if M.disc % p == 0 and M.c4 % p:
        assert _summary(d) == _reference_multiplicative(M, p), (E.ai(), p, d)
    else:
        assert d.reduction_class in (GOOD, ADDITIVE), (E.ai(), p, d)


@given(
    _small, _small, _small, _small, _small,
    st.one_of(st.sampled_from([2, 3, 5, 7]), _large_primes),
    _small, _small, _small,
)
@settings(max_examples=400, deadline=None)
def test_split_matches_moved_node_at_built_nodes(a1, a2, x3, x4, x6, p, r, s, t):
    """A node at (0, 0) mod p (p | a3, a4, a6 and p not dividing c4), moved by (r, s, t)."""
    assume((a1 * a1 + 4 * a2) % p)  # c4 = b2^2 (mod p) when p | a3, a4, a6
    try:
        E = WeierstrassCurve(*change_coordinates((a1, a2, p * x3, p * x4, p * x6), r, s, t))
    except SingularCurveError:
        return
    assert E.disc % p == 0 and E.c4 % p
    assert _summary(tate(E, p)) == _reference_multiplicative(E, p), (E.ai(), p)


@given(
    _small, _small, _small, _small, _small,
    st.one_of(st.sampled_from([2, 3, 5, 7]), _large_primes),
    st.integers(1, 2),
)
@settings(max_examples=200, deadline=None)
def test_split_matches_moved_node_after_restart(a1, a2, x3, x4, x6, p, k):
    """Scaled by u = p^k the model is not minimal and p | c4: the I_n shortcut
    is reached only after `tate` scales it back by `curves.minimal_exponent`."""
    assume((a1 * a1 + 4 * a2) % p)
    try:
        E = WeierstrassCurve(a1, a2, p * x3, p * x4, p * x6)
    except SingularCurveError:
        return
    blown = _scaled(E.ai(), p**k)
    assert blown.c4 % p == 0
    assert _summary(tate(blown, p)) == _reference_multiplicative(E, p), (E.ai(), p, k)


def test_split_at_a_node_decided_by_both_signs_of_c6():
    # 3, 7, 11 and 1000003 are 3 mod 4, where -1 is not a square: reading +c6
    # would swap split and nonsplit there
    for p in (3, 7, 11, 1000003):
        seen = set()
        for a2 in range(p if p < 100 else 4):
            E = WeierstrassCurve(1, a2, 0, 0, p)
            if E.c4 % p:
                d = tate(E, p)
                assert _summary(d) == _reference_multiplicative(E, p), (a2, p)
                seen.add(d.reduction_class)
        assert seen == {SPLIT, NONSPLIT}, p
    # at 2 (a1 odd) the parity of a2 + a3 decides: split, nonsplit, split, nonsplit
    cases = [(1, 0, 0, 0, 2), (1, 1, 0, 0, 2), (3, 1, 1, 0, 3), (3, 0, 1, 1, 2)]
    for ai, cls in zip(cases, [SPLIT, NONSPLIT] * 2):
        E = WeierstrassCurve(*ai)
        d = tate(E, 2)
        assert _summary(d) == _reference_multiplicative(E, 2), ai
        assert d.reduction_class == cls, ai


def test_kodaira_type_constructors_build_each_type_once():
    assert KodairaType.multiplicative(5) is KodairaType.multiplicative(5)
    assert KodairaType.multiplicative(5) == KodairaType("I5")
    assert KodairaType.star(3) is KodairaType.star(3)
    assert KodairaType.star(3) == KodairaType("I3*")
    assert tate(WeierstrassCurve(1, -3, -3, 0, 0), 3).kodaira is KodairaType.multiplicative(4)
    # a failed call is not remembered: n < 0 raises every time
    for _ in range(3):
        with pytest.raises(ValueError):
            KodairaType.multiplicative(-1)
        with pytest.raises(ValueError):
            KodairaType.star(-2)
    # nor does a cached I1 answer for an argument that only compares equal to 1
    KodairaType.multiplicative(1)
    KodairaType.star(1)
    for bad in (1.0, True):
        with pytest.raises(ValueError):
            KodairaType.multiplicative(bad)
        with pytest.raises(ValueError):
            KodairaType.star(bad)


def _brute_root_count(b, c, d, p):
    return sum(1 for t in range(p) if (((t + b) * t + c) * t + d) % p == 0)


_PRIMES_101_TO_1000 = [p for p in range(101, 1000) if is_prime(p)]


@given(st.sampled_from(_PRIMES_101_TO_1000), st.tuples(*[st.integers(-(10**6), 10**6)] * 3))
@settings(max_examples=300, deadline=None)
# at p = 103, 3 mod 4, -1 is a non-square, so only the sign of the
# discriminant tells one root (T^3 - 6T - 5) from none (T^3 - 6T - 6)
@example(103, (0, -6, -5))
@example(103, (0, -6, -6))
@example(103, (0, -5, -4))
def test_cubic_root_count_matches_brute_force_above_100(p, bcd):
    b, c, d = bcd
    disc = b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d
    assume(disc % p)
    assert _cubic_rational_root_count(b, c, d, disc, p) == _brute_root_count(b, c, d, p)


@pytest.mark.parametrize(
    "p, a, b, cp",
    [
        (103, -6, -6, 1),
        (103, -6, -5, 2),
        (103, -5, -4, 4),
        (1009, -6, -6, 1),
        (1009, -6, -3, 2),
        (1009, -6, -5, 4),
    ],
)
def test_tate_counts_I0_star_components_above_100(p, a, b, cp):
    """y^2 = x^3 + p^2 a x + p^3 b is I0* at p, with c_p one more than the
    number of roots of T^3 + a T + b mod p."""
    d = tate(WeierstrassCurve(0, 0, 0, p * p * a, p**3 * b), p)
    assert (d.kodaira.symbol, d.tamagawa, d.v_delta_min) == ("I0*", cp, 6)
    assert cp == 1 + _brute_root_count(0, a, b, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_quadratic_matches_a_search_of_F_p(p):
    # the double root is the t with f(t) = f'(t) = 0; arguments need not be reduced mod p
    for A in range(1, p):
        for B in range(p):
            for C in range(p):
                roots = [t for t in range(p) if (A * t * t + B * t + C) % p == 0]
                double = [t for t in roots if (2 * A * t + B) % p == 0]
                expected = (bool(roots), double[0] if double else None)
                assert _quadratic(A, B, C, p) == expected, (A, B, C, p)
                assert _quadratic(A - 3 * p, B + 5 * p, C - 7 * p, p) == expected, (A, B, C, p)


_BIG_P = 1000003  # prime, 3 mod 4: -1 is not a square, so A (T^2 + r^2) has no root


@given(st.integers(1, _BIG_P - 1), st.integers(0, _BIG_P - 1), st.integers(0, _BIG_P - 1))
@settings(max_examples=200, deadline=None)
def test_quadratic_at_a_large_prime_from_its_factors(A, r, s):
    p = _BIG_P
    assert _quadratic(A, -2 * A * r, A * r * r, p) == (True, r)
    if r != s:
        assert _quadratic(A, -A * (r + s), A * r * s, p) == (True, None)
    if r:
        assert _quadratic(A, 0, A * r * r, p) == (False, None)


def _ord(n, p):
    """ord_p(n) by repeated division, and inf at n = 0, where the steps below
    compare it: the reference's own valuation, sharing no code with `tate`."""
    if n == 0:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _reference_tate(curve, p):
    """(symbol, c_p, class, v(disc_min)) by Tate's steps, at any prime.

    The way `tate` ran at every prime before it read p >= 5 off c4, c6 and
    disc: move the cusp to (0, 0), normalize, read the step-6 cubic, walk the
    I_m* loop, and restart on the model scaled by u = p when step 11 finds it
    not minimal.  The inverses of 12, 2 and 3 mod p serve only p >= 5.  `tate`
    does the restarts' work once, with `curves.minimal_exponent`, before any
    step runs.
    """
    while True:
        n = _ord(curve.disc, p)
        if n == 0:
            return "I0", 1, GOOD, 0
        if curve.c4 % p:
            split = (curve.a2 + curve.a3) % 2 == 0 if p == 2 else _is_square(-curve.c6, p)
            if split:
                return f"I{n}", n, SPLIT, n
            return f"I{n}", 2 if n % 2 == 0 else 1, NONSPLIT, n

        a1, a2, a3, a4, a6 = curve.ai()
        if p == 2:
            r = a4 % 2
            t = (r * (1 + a2 + a4) + a6) % 2
        elif p == 3:
            r = (-curve.b6) % 3
            t = (a1 * r + a3) % 3
        else:
            r = (-curve.b2 * pow(12, -1, p)) % p
            t = (-(a1 * r + a3) * pow(2, -1, p)) % p
        ai = change_coordinates(curve.ai(), r, 0, t)
        a1, a2, a3, a4, a6 = ai
        assert a3 % p == a4 % p == a6 % p == 0, "singular point translation failed"
        if _ord(a6, p) < 2:
            return "II", 1, ADDITIVE, n
        _, _, b6t, b8t, _, _, _ = invariants(ai)
        if _ord(b8t, p) < 3:
            return "III", 2, ADDITIVE, n
        if _ord(b6t, p) < 3:
            has_root, root = _quadratic(1, a3 // p, -(a6 // p**2), p)
            assert root is None, "type IV quadratic is inseparable"
            return "IV", 3 if has_root else 1, ADDITIVE, n

        if p == 2:
            s, t6 = a2 % 2, 2 * ((a6 // 4) % 2)
        else:
            s, t6 = (-a1 * pow(2, -1, p)) % p, (-a3 * pow(2, -1, p * p)) % (p * p)
        ai = change_coordinates(ai, 0, s, t6)
        a1, a2, a3, a4, a6 = ai
        assert a1 % p == a2 % p == a3 % p**2 == a4 % p**2 == a6 % p**3 == 0, "step 6"

        b, c, d = (a2 // p) % p, (a4 // p**2) % p, (a6 // p**3) % p
        w = (27 * d * d - b * b * c * c + 4 * b**3 * d - 18 * b * c * d + 4 * c**3) % p
        x = (3 * c - b * b) % p
        if w:
            return "I0*", 1 + _cubic_rational_root_count(b, c, d, -w, p), ADDITIVE, n

        if x:
            t0 = (d if b % 2 else c) if p == 2 else ((b * c - 9 * d) * pow(2 * x, -1, p)) % p
            ai = change_coordinates(ai, p * t0, 0, 0)
            a1, a2, a3, a4, a6 = ai
            assert a2 % p == a3 % p**2 == a4 % p**3 == a6 % p**4 == 0 != a2 % p**2, "double root"
            for m in range(1, n + 1):
                mxe, mye = 2 + (m - 1) // 2, 2 + m // 2
                if m % 2 == 1:
                    A, B, C = 1, a3 // p**mye, -(a6 // p ** (mxe + mye))
                else:
                    A, B, C = a2 // p, a4 // p ** (mxe + 1), a6 // p ** (mxe + mye)
                has_root, root = _quadratic(A, B, C, p)
                if root is None:
                    return f"I{m}*", 4 if has_root else 2, ADDITIVE, n
                r, t = (0, p**mye * root) if m % 2 == 1 else (p**mxe * root, 0)
                ai = change_coordinates(ai, r, 0, t)
                a1, a2, a3, a4, a6 = ai
            raise AssertionError("In* loop exceeded v(delta)")

        t0 = -d % p if p <= 3 else (-b * pow(3, -1, p)) % p
        ai = change_coordinates(ai, p * t0, 0, 0)
        a1, a2, a3, a4, a6 = ai
        assert a2 % p**2 == a4 % p**3 == a6 % p**4 == 0, "triple-root translation failed"
        has_root, root = _quadratic(1, a3 // p**2, -(a6 // p**4), p)
        if root is None:
            return "IV*", 3 if has_root else 1, ADDITIVE, n
        ai = change_coordinates(ai, 0, 0, p * p * root)
        a1, a2, a3, a4, a6 = ai
        if _ord(a4, p) < 4:
            return "III*", 2, ADDITIVE, n
        if _ord(a6, p) < 6:
            return "II*", 1, ADDITIVE, n
        assert a1 % p == a2 % p**2 == a3 % p**3 == a4 % p**4 == a6 % p**6 == 0, "rescale"
        curve = WeierstrassCurve(a1 // p, a2 // p**2, a3 // p**3, a4 // p**4, a6 // p**6)


_ABOVE_3 = st.sampled_from([5, 7, 11, 13, 101, 1000003, 2**61 - 1])
_exponents = st.tuples(*[st.integers(0, 3)] * 5)


def _twist_by(curve, p):
    """y^2 = x^3 - 27 c4 p^2 x - 54 c6 p^3: the quadratic twist by p, I_m at p becoming I_m*."""
    return WeierstrassCurve(0, 0, 0, -27 * curve.c4 * p**2, -54 * curve.c6 * p**3)


@given(st.tuples(*[_small] * 5), _exponents, _ABOVE_3, _small, _small, _small, st.integers(0, 2))
@settings(max_examples=400, deadline=None)
def test_tate_above_3_matches_the_steps_on_moved_and_scaled_models(ai, es, p, r, s, t, k):
    """a_i p^e_i moved by (r, s, t), then scaled by p^k, so not minimal at p when k > 0."""
    try:
        E = WeierstrassCurve(*change_coordinates([a * p**e for a, e in zip(ai, es)], r, s, t))
    except SingularCurveError:
        return
    E = _scaled(E.ai(), p**k)
    assert _summary(tate(E, p)) == _reference_tate(E, p), (E.ai(), p)


@given(st.tuples(*[_small] * 5), st.integers(1, 6), _ABOVE_3, _small, _small, _small)
@settings(max_examples=300, deadline=None)
def test_tate_above_3_matches_the_steps_on_twists_by_p(ai, k, p, r, s, t):
    """(a1, a2, p^k a3, p^k a4, p^k a6) is singular at (0, 0) mod p, mostly a node of
    type I_m; twisted by p it is I_m*, and m reaches past 1."""
    a1, a2, a3, a4, a6 = ai
    try:
        E = _twist_by(WeierstrassCurve(a1, a2, p**k * a3, p**k * a4, p**k * a6), p)
    except SingularCurveError:
        return
    E = WeierstrassCurve(*change_coordinates(E.ai(), r, s, t))
    assert _summary(tate(E, p)) == _reference_tate(E, p), (E.ai(), p)


@given(_small.filter(bool), st.integers(0, 13), st.booleans(), _ABOVE_3, _small, _small, _small)
@settings(max_examples=300, deadline=None)
def test_tate_above_3_matches_the_steps_at_j_0_and_1728(c, k, j1728, p, r, s, t):
    """y^2 = x^3 + c p^k x has c6 = 0, y^2 = x^3 + c p^k has c4 = 0: a valuation is infinite."""
    ai = (0, 0, 0, c * p**k, 0) if j1728 else (0, 0, 0, 0, c * p**k)
    E = WeierstrassCurve(*change_coordinates(ai, r, s, t))
    assert _summary(tate(E, p)) == _reference_tate(E, p), (E.ai(), p)


def _drawn_model(rng, p):
    """A model of one of the kinds the hypothesis tests above draw, kind chosen by rng."""
    kind = rng.randrange(4)
    a = [rng.randint(-20, 20) for _ in range(5)]
    if kind == 0:
        ai = [x * p ** rng.choice((0, 0, 1, 2, 3)) for x in a]
    elif kind == 1:
        ai = _scaled([x * p ** rng.choice((0, 1, 2)) for x in a], p).ai()
    elif kind == 2:
        k = rng.randint(1, 6)
        ai = _twist_by(WeierstrassCurve(*a[:2], *(p**k * x for x in a[2:])), p).ai()
    else:
        c = (a[0] or 1) * p ** rng.randint(0, 13)
        ai = (0, 0, 0, c, 0) if rng.random() < 0.5 else (0, 0, 0, 0, c)
    r, s, t = (rng.randint(-9, 9) for _ in range(3))
    return WeierstrassCurve(*change_coordinates(ai, r, s, t))


def test_tate_above_3_reaches_every_kodaira_type_and_every_c_p():
    rng = random.Random(3)
    seen = Counter()
    for _ in range(3000):
        p = rng.choice((5, 7, 11, 13))
        try:
            E = _drawn_model(rng, p)
        except SingularCurveError:
            continue
        d = tate(E, p)
        assert _summary(d) == _reference_tate(E, p), (E.ai(), p)
        k = d.kodaira
        if k.is_In:
            seen["In", d.reduction_class] += 1
        elif k.is_In_star and k.n:
            seen["odd m" if k.n % 2 else "even m", d.tamagawa] += 1
            if k.n >= 3:
                seen["I_m*, m >= 3"] += 1
        else:
            seen[k.symbol, d.tamagawa] += 1
    expected = {
        ("I0", 1), ("In", SPLIT), ("In", NONSPLIT), ("II", 1), ("III", 2), ("IV", 1), ("IV", 3),
        ("I0*", 1), ("I0*", 2), ("I0*", 4), ("odd m", 2), ("odd m", 4), ("even m", 2),
        ("even m", 4), "I_m*, m >= 3", ("IV*", 1), ("IV*", 3), ("III*", 2), ("II*", 1),
    }
    assert expected - set(seen) == set(), seen


def test_tate_above_3_moves_no_coordinates(monkeypatch):
    """At p >= 5 `tate` reads c4, c6 and disc: Tate's steps, which move coordinates, stay unused."""

    def refuse(*args):
        raise RuntimeError("Tate's steps ran at p >= 5")

    monkeypatch.setattr(reduction, "change_coordinates", refuse)
    places = 0
    for rec in ingest_fixtures(FIXTURES).records:
        expected = {int(loc["p"]): loc for loc in rec.local}
        for p in bad_primes(rec.curve):
            if p >= 5:
                d = tate(rec.curve, p)
                loc = expected[p]
                assert (d.kodaira.symbol, d.tamagawa, d.reduction_class) == (
                    loc["kodaira"], loc["cp"], loc["class"],
                ), (rec.label, p)
                places += 1
    assert places == 19
    # y^2 = x^3 + p x^2 + p^(m+3) is I_m*: disc / 16 = -4 p^(m+6) - 27 p^(2m+6)
    for p in (5, 7):
        cases = [
            ((0, 0, 0, 0, p), "II"),
            ((0, 0, 0, p, 0), "III"),
            ((0, 0, 0, 0, p**2), "IV"),
            ((0, 0, 0, 0, p**3), "I0*"),
            ((0, p, 0, 0, p**4), "I1*"),
            ((0, p, 0, 0, p**5), "I2*"),
            ((0, 0, 0, 0, p**4), "IV*"),
            ((0, 0, 0, p**3, 0), "III*"),
            ((0, 0, 0, 0, p**5), "II*"),
        ]
        for ai, symbol in cases:
            E = WeierstrassCurve(*ai)
            for model in (E, _scaled(ai, p)):
                d = tate(model, p)
                assert d.kodaira.symbol == symbol, (ai, p, d)
                assert _summary(d) == _reference_tate(E, p), (ai, p, d)


_AT_2_AND_3 = st.sampled_from([2, 3])


@given(st.tuples(*[_small] * 5), _exponents, _AT_2_AND_3, _small, _small, _small, st.integers(0, 3))
@settings(max_examples=400, deadline=None)
def test_tate_at_2_and_3_matches_the_restarting_steps(ai, es, p, r, s, t, k):
    """a_i p^e_i moved by (r, s, t), then scaled by p^k: `tate` minimizes once, the
    reference restarts k times or more."""
    try:
        E = WeierstrassCurve(*change_coordinates([a * p**e for a, e in zip(ai, es)], r, s, t))
    except SingularCurveError:
        return
    E = _scaled(E.ai(), p**k)
    assert _summary(tate(E, p)) == _reference_tate(E, p), (E.ai(), p)


def test_tate_at_2_and_3_reaches_every_kodaira_type_through_the_scaling():
    """Every type at 2 and at 3 on models scaled by p^k, k >= 1, so that `tate` scales them back."""
    rng = random.Random(19)
    seen = set()
    for _ in range(4000):
        p = rng.choice((2, 3))
        ai = [rng.randint(-30, 30) * p ** rng.choice((0, 0, 1, 2, 3)) for _ in range(5)]
        r, s, t = (rng.randint(-9, 9) for _ in range(3))
        try:
            E = WeierstrassCurve(*change_coordinates(ai, r, s, t))
        except SingularCurveError:
            continue
        E = _scaled(E.ai(), p ** rng.randint(1, 2))
        d = tate(E, p)
        assert _summary(d) == _reference_tate(E, p), (E.ai(), p)
        k = d.kodaira
        kind = d.reduction_class if k.is_In else "I_m*" if k.is_In_star and k.n else k.symbol
        seen.add((p, kind))
    kinds = {"I0", SPLIT, NONSPLIT, "II", "III", "IV", "I0*", "I_m*", "IV*", "III*", "II*"}
    assert {(p, kind) for p in (2, 3) for kind in kinds} - seen == set()


@pytest.mark.parametrize("p, ai", [(2, (0, 0, 0, 2, 0)), (3, (0, 0, 0, 3, 0)), (2, (0, 0, 0, 0, 4))])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_tate_steps_run_once_on_a_scaled_model(p, ai, k, monkeypatch):
    """y^2 = x^3 + p x and y^2 = x^3 + 4 scaled by p^k: one pass of Tate's steps, not k + 1."""
    calls = []
    real = reduction._singular_point_mod_p

    def counting(curve, q):
        calls.append(curve.ai())
        return real(curve, q)

    monkeypatch.setattr(reduction, "_singular_point_mod_p", counting)
    E = WeierstrassCurve(*ai)
    d = tate(_scaled(ai, p**k), p)
    assert d.reduction_class == ADDITIVE
    assert _summary(d) == _reference_tate(E, p)
    assert len(calls) == 1, calls


# --- tate on a (p, ord_p(disc)) pair of a factored discriminant ------------------


def _assert_trusting_tate_agrees(curve, disc=None):
    """tate(curve, p, e) == tate(curve, p) at every (p, e) of the factored discriminant.

    local_data(curve, disc=disc) gives the same list as local_data at disc's primes.
    """
    disc = factor(curve.disc) if disc is None else disc
    for p, e in disc.factors:
        assert tate(curve, p, e) == tate(curve, p), (curve.ai(), p, e)
    assert local_data(curve, disc=disc) == local_data(curve, disc.primes())


def test_trusting_tate_agrees_on_the_fixtures_and_their_minimal_models():
    for rec in ingest_fixtures(FIXTURES).records:
        analysis = CurveAnalysis.of(rec.curve)
        _assert_trusting_tate_agrees(rec.curve)
        _assert_trusting_tate_agrees(analysis.minimal, analysis.disc_min)


def _seeded_family_curves(seed, draws):
    """(curve, family disc) of four-torsion, two-six and two-torsion curves at seeded parameters."""
    rng = random.Random(seed)
    for _ in range(draws):
        # coprime x, y with |x| <= 10^4 and 0 < y <= 10^4
        x, y = rng.randint(-10**4, 10**4), rng.randint(1, 10**4)
        g = math.gcd(x, y)
        x, y = x // g, y // g
        params_of = {
            "four-torsion": {"s": y, "t": x},
            "two-six": {"t": str(Fraction(x, y))},
            "two-torsion": {"a": x, "b": y if x % 2 else -y},
        }
        for name, params in params_of.items():
            family = FAMILIES[name]
            try:
                curve = family.curve(params)
            except (ValueError, SingularCurveError):
                continue
            yield curve, family.disc(params)


def test_trusting_tate_agrees_on_seeded_family_curves():
    for curve, disc in _seeded_family_curves(24, 30):
        _assert_trusting_tate_agrees(curve, disc)


# three-torsion normal forms with an exponent >= 12 at 2, at 3 and at primes above 3:
# b = p^k with p prime to a, and (11, 201) with a^3 - 27 b = -2^12
_DEEP_THREE_TORSION = [(1, 16), (3, 32), (1, 81), (2, 243), (1, 625), (2, 2401), (11, 201)]


def test_trusting_tate_agrees_where_minimal_exponent_runs(monkeypatch):
    seen = []
    real = reduction.minimal_exponent

    def recording(c4, c6, e, p):
        seen.append(p)
        return real(c4, c6, e, p)

    monkeypatch.setattr(reduction, "minimal_exponent", recording)
    family = FAMILIES["three-torsion"]
    for a, b in _DEEP_THREE_TORSION:
        form = ThreeTorsionNormalForm(a, b)
        _assert_trusting_tate_agrees(form.curve, family.disc({"a": a, "b": b}))
        # scaled by u the model is not minimal at u's primes, so tate divides by u^12 first
        for u in (2, 3, 5):
            _assert_trusting_tate_agrees(_scaled(form.curve.ai(), u))
    assert {2, 3} <= set(seen) and max(seen) >= 5


@given(_small, _small, _small, _small, _small, st.sampled_from([1, 2, 3, 5, 6]))
@settings(max_examples=150, deadline=None)
def test_trusting_tate_agrees_on_random_models(a1, a2, a3, a4, a6, u):
    try:
        curve = _scaled((a1, a2, a3, a4, a6), u)
    except SingularCurveError:
        assume(False)
    _assert_trusting_tate_agrees(curve)


def _global_data(curve):
    """local_data, conductor, global_tamagawa and the semi-stable root number of curve."""
    try:
        w = global_root_number_semistable(curve)
    except UnsupportedDomainError as e:
        w = str(e)
    return local_data(curve), conductor(curve), global_tamagawa(curve), w


def test_global_data_prove_no_prime_again(monkeypatch):
    """Without primes or disc, local_data reads the (p, e) pairs CurveAnalysis.of factored."""
    curves = [rec.curve for rec in ingest_fixtures(FIXTURES).records]
    curves += [curve for curve, _ in _seeded_family_curves(25, 20)]
    assert len(curves) > 60
    expected = [_global_data(curve) for curve in curves]
    # the data at the bad primes, each proved prime by tate's guard
    assert [e[0] for e in expected] == [local_data(c, bad_primes(c)) for c in curves]

    def refuse(n):
        raise AssertionError(f"is_prime({n}) called from reduction")

    monkeypatch.setattr(reduction, "is_prime", refuse)
    assert [_global_data(curve) for curve in curves] == expected


def test_local_data_rejects_a_factorization_of_another_discriminant():
    curve = _scaled((1, -3, -3, 0, 0), 2)
    analysis = CurveAnalysis.of(curve)
    assert analysis.minimal != curve
    with pytest.raises(ValueError, match="is not the discriminant of"):
        local_data(curve, disc=analysis.disc_min)
    with pytest.raises(ValueError, match="primes or disc, not both"):
        local_data(curve, [2, 3], disc=factor(curve.disc))
    assert local_data(analysis.minimal, disc=analysis.disc_min) == local_data(curve)
