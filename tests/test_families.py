import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamagawa.curves import SingularCurveError, WeierstrassCurve, minimal_model, transform_coefficients
from tamagawa.families import (
    ThreeTorsionNormalForm,
    four_torsion_curve,
    hadano_quotient,
    quotient_split_prime,
    three_torsion_disc,
    three_torsion_normalize,
    two_six_curve,
    two_torsion_curve,
)
from tamagawa.reduction import SPLIT, local_data, tate
from tamagawa.torsion import Point, point_order


def test_four_torsion_examples():
    E = four_torsion_curve(1, 1)
    assert E.ai() == (1, -1, -1, 0, 0)
    assert E.disc == 17
    E2 = four_torsion_curve(3, 1)
    assert E2.disc == 3**4 * 49
    d = tate(E2, 3)
    assert d.kodaira.symbol == "I4" and d.reduction_class == SPLIT
    with pytest.raises(SingularCurveError):
        four_torsion_curve(1, -16)
    with pytest.raises(ValueError):
        four_torsion_curve(2, 4)
    with pytest.raises(ValueError):
        four_torsion_curve(-1, 3)


def test_four_torsion_has_order_four_point():
    for s, t in [(1, 1), (3, 1), (1, -4), (2, 5)]:
        E = four_torsion_curve(s, t)
        assert point_order(E, Point(0, 0)) == 4


def test_four_torsion_is_scaled_lambda_model():
    # the integral model is the lambda-model pushed through (1/t, 0, 0, 0)
    for s, t in [(1, 2), (3, 5), (2, -7), (5, 4)]:
        lam = Fraction(s, t)
        raw = transform_coefficients(
            (1, -lam, -lam, 0, 0), Fraction(1, t), Fraction(0), Fraction(0), Fraction(0)
        )
        assert tuple(int(c) for c in raw) == four_torsion_curve(s, t).ai()
        assert four_torsion_curve(s, t).disc == s**4 * t**7 * (16 * s + t)


def test_two_six_examples():
    E = two_six_curve(2)
    assert E.disc == 2**6 * 3**6 * 5**2 * 7**2
    with pytest.raises(SingularCurveError) as ei:
        two_six_curve(1)
    assert "t-1" in str(ei.value)
    with pytest.raises(SingularCurveError) as ei:
        two_six_curve(Fraction(-1, 3))
    assert "3t+1" in str(ei.value)
    # mu-model at t = 1/2: coefficients from the mu = 1/t substitution
    E2 = two_six_curve(Fraction(1, 2))
    mu = 2
    assert E2.ai() == (
        mu * mu + 4 * mu - 1,
        -(1 - mu) * (1 + mu) ** 2,
        -mu * (1 - mu) * (1 + mu) ** 2 * (3 + mu),
        0,
        0,
    )
    assert E2.c4 == (3 + mu**2) * (3 + 75 * mu**2 - 15 * mu**4 + mu**6)


def test_two_six_discriminant_formula():
    # b^2 a^6 (a-b)^6 (a+b)^6 (3a-b)^2 (3a+b)^2 for t = a/b
    for t in [Fraction(2), Fraction(1, 2), Fraction(7, 3), Fraction(-4, 5)]:
        a, b = t.numerator, t.denominator
        E = two_six_curve(t)
        expected = (
            b**2 * a**6 * (a - b) ** 6 * (a + b) ** 6 * (3 * a - b) ** 2 * (3 * a + b) ** 2
        )
        assert E.disc == expected


def test_two_torsion_examples():
    E = two_torsion_curve(1, 4)
    assert E.disc == 16 * 16 * (1 - 16)
    with pytest.raises(SingularCurveError):
        two_torsion_curve(2, 1)
    E2 = two_torsion_curve(0, 1)
    assert E2.disc == -64
    from tamagawa.reduction import c_infinity

    assert c_infinity(E2) == 1
    assert point_order(E2, Point(0, 0)) == 2
    with pytest.raises(ValueError):
        two_torsion_curve(2, 4)


def test_normalize_examples():
    assert (lambda f: (f.a, f.b))(three_torsion_normalize(4, 8)) == (2, 1)
    assert (lambda f: (f.a, f.b))(three_torsion_normalize(2, -1)) == (-2, 1)
    assert (lambda f: (f.a, f.b))(three_torsion_normalize(3, 5)) == (3, 5)
    # rational input: clear denominators with the cube-aware exponent
    f = three_torsion_normalize(Fraction(1, 2), Fraction(3, 4))
    assert f.b > 0
    with pytest.raises(SingularCurveError):
        three_torsion_normalize(3, 1)
    with pytest.raises(SingularCurveError):
        three_torsion_normalize(1, 0)


def test_normalize_preserves_isomorphism_class():
    for c, d in [(4, 8), (2, -1), (Fraction(5, 3), Fraction(7, 27)), (12, 216)]:
        f = three_torsion_normalize(c, d)
        # clear denominators directly for comparison
        c0, d0 = Fraction(c), Fraction(d)
        u = c0.denominator * d0.denominator
        E = WeierstrassCurve(int(c0 * u), 0, int(d0 * u**3), 0, 0)
        m1, _ = minimal_model(E)
        m2, _ = minimal_model(f.curve)
        assert (m1.c4, m1.c6) == (m2.c4, m2.c6)


def test_normal_form_validation():
    with pytest.raises(ValueError):
        ThreeTorsionNormalForm(2, 8)  # 2 | a and 2^3 | b
    with pytest.raises(ValueError):
        ThreeTorsionNormalForm(1, -1)
    f = ThreeTorsionNormalForm(1, 2)
    assert f.curve.disc == f.b**3 * f.d_value


def test_three_torsion_point():
    for a, b in [(2, 1), (4, 1), (1, 3), (5, 7)]:
        E = ThreeTorsionNormalForm(a, b).curve
        assert point_order(E, Point(0, 0)) == 3


def test_hadano_quotient_examples():
    pair = hadano_quotient(ThreeTorsionNormalForm(2, 1))
    assert pair.quotient.ai() == (8, 0, 19, 0, 0)
    assert pair.quotient.disc == (-19) ** 3
    assert quotient_split_prime(pair) == 19
    pair0 = hadano_quotient(ThreeTorsionNormalForm(0, 1))
    assert pair0.quotient.ai() == (6, 0, 9, 0, 0)
    assert quotient_split_prime(pair0) is None
    assert quotient_split_prime(hadano_quotient(ThreeTorsionNormalForm(1, 1))) == 13
    assert quotient_split_prime(hadano_quotient(ThreeTorsionNormalForm(-6, 1))) is None
    with pytest.raises(ValueError):
        hadano_quotient(ThreeTorsionNormalForm(1, 2))


def test_hadano_identities_range():
    for a in range(-20, 21):
        if a == 3:
            continue
        pair = hadano_quotient(ThreeTorsionNormalForm(a, 1))
        assert pair.quotient.disc == (a**3 - 27) ** 3
        assert pair.quotient.c4 == a * (a**3 + 216)


def test_ledger_split_rule():
    # at p != 3 the ord_3 ratio is 1 exactly at split primes of the source
    for a in (2, 4, 5, -2, 10):
        pair = hadano_quotient(ThreeTorsionNormalForm(a, 1))
        for p, e in pair.ledger:
            if p == 3:
                continue
            cls = tate(pair.source.curve, p).reduction_class
            assert e == (1 if cls == SPLIT else 0), (a, p, e, cls)


def test_ledger_example_split_entry():
    pair = hadano_quotient(ThreeTorsionNormalForm(2, 1))
    assert pair.ledger == ((19, 1),)
    assert pair.ratio_ord3 == 1


def test_isogeny_pair_keeps_local_data_at_every_bad_prime():
    pair = hadano_quotient(ThreeTorsionNormalForm(10, 1))
    assert [src.prime for src, _ in pair.local] == [7, 139]  # 10^3 - 27 = 7 * 139
    for src, quo in pair.local:
        assert src == tate(pair.source.curve, src.prime)
        assert quo == tate(pair.quotient, src.prime)


@given(st.integers(-300, 300), st.integers(2, 300))
@settings(max_examples=60, deadline=None)
def test_nonunit_b_tamagawa_from_the_family_discriminant(a, b):
    # the three-torsion-nonunit-b scan reads c(E) this way, without a minimal model
    try:
        curve = ThreeTorsionNormalForm(a, b).curve
    except ValueError:  # not normalized, or singular
        assume(False)
    c = math.prod(tate(curve, p).tamagawa for p in three_torsion_disc(a, b).primes())
    assert c == math.prod(d.tamagawa for d in local_data(curve))
    assert c % 3 == 0
