from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamagawa.curves import (
    SingularCurveError,
    Transformation,
    WeierstrassCurve,
    apply_transformation,
    curve_from_c4c6,
    minimal_model,
    transform_coefficients,
)

small_int = st.integers(min_value=-8, max_value=8)


def curves(draw_limit=200):
    return st.builds(
        lambda a1, a2, a3, a4, a6: (a1, a2, a3, a4, a6),
        small_int, small_int, small_int, small_int, small_int,
    ).filter(_nonsingular).map(lambda ai: WeierstrassCurve(*ai))


def _nonsingular(ai):
    try:
        WeierstrassCurve(*ai)
        return True
    except SingularCurveError:
        return False


def test_invariants_examples():
    # order-4 family at lambda = 3; oracle is the family's closed form
    lam = 3
    E = WeierstrassCurve(1, -lam, -lam, 0, 0)
    assert E.disc == lam**4 * (16 * lam + 1) == 3969
    # unit-b three-torsion curve at a = 2; oracle a^3 - 27
    E2 = WeierstrassCurve(2, 0, 1, 0, 0)
    assert E2.disc == 2**3 - 27 == -19
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, 0, 0)


def test_invariant_relations():
    for E in [
        WeierstrassCurve(1, -3, -3, 0, 0),
        WeierstrassCurve(0, 1, 1, -9, -15),
        WeierstrassCurve(5, 0, 5, 0, 0),
        WeierstrassCurve(1, -1, 1, -3002, 63929),
    ]:
        assert 4 * E.b8 == E.b2 * E.b6 - E.b4**2
        assert 1728 * E.disc == E.c4**3 - E.c6**2
        assert E.j == Fraction(E.c4**3, E.disc)


@given(curves())
@settings(max_examples=60)
def test_invariant_relations_random(E):
    assert 4 * E.b8 == E.b2 * E.b6 - E.b4**2
    assert 1728 * E.disc == E.c4**3 - E.c6**2


def test_apply_identity():
    E = WeierstrassCurve(1, -3, -3, 0, 0)
    assert apply_transformation(E, Transformation.identity()) == E


def test_denominator_clearing_matches_family():
    # lambda = 1/2 model scaled by u = 1/2 gives the integral (s,t) = (1,2) form
    lam = Fraction(1, 2)
    raw = transform_coefficients(
        (1, -lam, -lam, 0, 0), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)
    )
    assert tuple(int(c) for c in raw) == (2, -2, -4, 0, 0)
    E = WeierstrassCurve(2, -2, -4, 0, 0)
    s, t = 1, 2
    assert E.disc == s**4 * t**7 * (16 * s + t)


@given(curves(), st.integers(min_value=1, max_value=4), small_int, small_int, small_int)
@settings(max_examples=40)
def test_j_invariance_and_disc_scaling(E, u0, r, s, t):
    tr = Transformation(Fraction(1, u0), Fraction(r), Fraction(s), Fraction(t))
    E2 = apply_transformation(E, tr)
    assert E2.j == E.j
    assert E2.disc == E.disc * u0**12
    assert E2.c4 == E.c4 * u0**4


@given(curves(), small_int, small_int, small_int, small_int, small_int, small_int)
@settings(max_examples=30)
def test_composition(E, r1, s1, t1, r2, s2, t2):
    T1 = Transformation(Fraction(1), Fraction(r1), Fraction(s1), Fraction(t1))
    T2 = Transformation(Fraction(1, 2), Fraction(r2), Fraction(s2), Fraction(t2))
    once = apply_transformation(apply_transformation(E, T1), T2)
    combined = apply_transformation(E, T1.compose(T2))
    assert once == combined


def test_transformation_inverse():
    T = Transformation(Fraction(2, 3), Fraction(1, 4), Fraction(-2), Fraction(5))
    assert T.compose(T.inverse()).is_identity()
    assert T.inverse().compose(T).is_identity()


def test_minimal_model_two_torsion_family_example():
    # y^2 = x^3 + x^2 + 4x is already minimal: no 12th power can leave (Kraus at 2)
    E = WeierstrassCurve(0, 1, 0, 4, 0)
    m, tr = minimal_model(E)
    assert m.disc == -3840  # = -2^8 * 3 * 5
    # odd-part oracle: valuations of the minimal discriminant away from 2
    assert abs(m.disc) % 3 == 0 and abs(m.disc) % 5 == 0


def test_minimal_model_odd_prime_oracle():
    # for coprime (a, b), the model y^2 = x^3+ax^2+bx is minimal outside 2:
    # v_p(disc_min) = v_p(b^2 (a^2-4b)) at every odd p
    from tamagawa.arith import valuation

    for a, b in [(1, 4), (-7, 16), (5, 16), (3, -5), (-1, 12), (9, 2)]:
        E = WeierstrassCurve(0, a, 0, b, 0)
        m, _ = minimal_model(E)
        target = b * b * (a * a - 4 * b)
        for p in (3, 5, 7, 11, 13):
            assert valuation(m.disc, p) == valuation(target, p)


def test_minimal_model_already_minimal_identity():
    E = WeierstrassCurve(0, 1, 1, -9, -15)
    m, tr = minimal_model(E)
    assert m == E
    assert tr.is_identity()


def test_minimal_model_round_trip():
    E = WeierstrassCurve(0, 1, 1, -9, -15)
    blown = apply_transformation(E, Transformation(Fraction(1, 5), 0, 0, 0))
    assert blown.disc == E.disc * 5**12
    m, tr = minimal_model(blown)
    assert (m.c4, m.c6) == (E.c4, E.c6)
    assert m == E
    # idempotent
    m2, tr2 = minimal_model(m)
    assert m2 == m and tr2.is_identity()


@given(curves(), st.integers(min_value=2, max_value=5), small_int, small_int, small_int)
@settings(max_examples=60, deadline=None)
def test_minimal_model_recovers_after_scaling(E, u0, r, s, t):
    m0, _ = minimal_model(E)
    # scaled by u0 and moved by (r, s, t): still integral, no longer reduced
    blown = apply_transformation(E, Transformation(Fraction(1, u0), r, s, t))
    m1, tr = minimal_model(blown)
    assert (m1.c4, m1.c6) == (m0.c4, m0.c6)
    assert m1.disc == m0.disc
    # the transformation is exact
    raw = transform_coefficients(blown.ai(), tr.u, tr.r, tr.s, tr.t)
    assert tuple(int(c) for c in raw) == m1.ai()


def test_minimal_model_vanishing_invariants():
    # c4 = 0 (j = 0) and c6 = 0 (j = 1728) need the single-invariant paths
    m, tr = minimal_model(WeierstrassCurve(0, 0, 8, 0, 0))
    assert m.ai() == (0, 0, 1, 0, 0) and tr.u == 2
    m, _ = minimal_model(WeierstrassCurve(0, 0, 0, 64, 0))
    assert m.ai() == (0, 0, 0, 4, 0)


def test_curve_from_c4c6_roundtrip():
    for ai in [(0, 1, 1, -9, -15), (1, -1, 1, -1, 0), (1, 0, 0, 1, 0), (0, -1, 0, 1, 0)]:
        E = WeierstrassCurve(*ai)
        assert curve_from_c4c6(E.c4, E.c6) == E
    with pytest.raises(ValueError):
        curve_from_c4c6(1, 1)  # c4^3 = c6^2 forces disc 0
    with pytest.raises(ValueError):
        curve_from_c4c6(17, 161)  # fails Kraus at 2 (c6 = 1 mod 4, c4 odd)
