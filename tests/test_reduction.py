import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tamagawa.arith import valuation
from tamagawa.curves import (
    SingularCurveError,
    Transformation,
    WeierstrassCurve,
    apply_transformation,
    change_coordinates,
    minimal_model,
)
from tamagawa.families import ThreeTorsionNormalForm, two_six_curve
from tamagawa.reduction import (
    ADDITIVE,
    GOOD,
    NONSPLIT,
    SPLIT,
    KodairaType,
    UnsupportedDomainError,
    bad_primes,
    c_infinity,
    conductor,
    global_root_number_semistable,
    global_tamagawa,
    local_data,
    local_root_number,
    tate,
)


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
    from tamagawa.arith import valuation

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
    from tamagawa.arith import valuation
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


def test_conductors():
    assert conductor(WeierstrassCurve(0, 1, 1, -9, -15)) == 19
    assert conductor(WeierstrassCurve(0, -1, 0, 1, 0)) == 24
    assert conductor(WeierstrassCurve(1, 0, 0, 1, 0)) == 21
    assert conductor(WeierstrassCurve(0, 0, 1, 0, 0)) == 27
    assert conductor(WeierstrassCurve(0, 0, 0, -1, 0)) == 32


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
    with pytest.raises(ValueError):
        tate(WeierstrassCurve(1, -3, -3, 0, 0), 6)


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
    is reached only after the restart of step 11."""
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
