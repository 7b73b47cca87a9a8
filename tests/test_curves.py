import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamagawa.curves import (
    CurveAnalysis,
    SingularCurveError,
    Transformation,
    WeierstrassCurve,
    apply_transformation,
    curve_from_c4c6,
    minimal_exponent,
    minimal_model,
    minimal_transformation,
    transform_coefficients,
)

from tamagawa.arith import _int_valuation, factor
from tamagawa.verify import ingest_fixtures

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures.json"
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


def test_apply_transformation_refuses_a_non_integral_model():
    E = WeierstrassCurve(0, 1, 1, -9, -15)
    with pytest.raises(ValueError, match="is not integral"):
        apply_transformation(E, Transformation(2, 0, 0, 0))


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
    assert T.compose(T.inverse()) == Transformation.identity()
    assert T.inverse().compose(T) == Transformation.identity()


# a Transformation field: an int, or a Fraction with a small denominator
_field = st.one_of(
    small_int,
    st.builds(Fraction, small_int, st.integers(min_value=1, max_value=6)),
)
_unit_field = _field.filter(lambda v: v != 0)


def _no_float(tr):
    return all(isinstance(v, (int, Fraction)) for v in (tr.u, tr.r, tr.s, tr.t))


@given(_unit_field, _field, _field, _field, _unit_field, _field, _field, _field, _field, _field)
@settings(max_examples=200)
def test_transformation_fields_stay_exact(u1, r1, s1, t1, u2, r2, s2, t2, xp, yp):
    T1, T2 = Transformation(u1, r1, s1, t1), Transformation(u2, r2, s2, t2)
    # ints and Fractions are kept as given
    assert (T1.u, T1.r, T1.s, T1.t) == (u1, r1, s1, t1)
    assert [type(v) for v in (T1.u, T1.r, T1.s, T1.t)] == [type(v) for v in (u1, r1, s1, t1)]
    for tr in (T1.compose(T2), T1.inverse(), T2.inverse().compose(T1)):
        assert _no_float(tr)
    assert T1.compose(T1.inverse()) == Transformation.identity()
    assert T1.inverse().compose(T1) == Transformation.identity()
    x, y = T1.unmap_point(xp, yp)
    assert isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction))
    # T1 carries the point T1.inverse() brings back
    assert T1.inverse().unmap_point(x, y) == (xp, yp)


def test_int_and_fraction_transformations_are_equal():
    ints = Transformation(2, 0, 0, 0)
    fractions = Transformation(Fraction(2), Fraction(0), Fraction(0), Fraction(0))
    assert ints == fractions and hash(ints) == hash(fractions)
    assert Transformation.identity() == Transformation(Fraction(1), 0, 0, 0)
    assert hash(Transformation.identity()) == hash(Transformation(Fraction(1), 0, 0, 0))
    assert ints.inverse() == Transformation(Fraction(1, 2), 0, 0, 0)
    assert Transformation("1/2", 0, 0, 0).u == Fraction(1, 2)
    with pytest.raises(TypeError):
        Transformation(0.5, 0, 0, 0)


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
    m, tr = minimal_transformation(E)
    assert m == E
    assert tr == Transformation.identity()


def test_minimal_model_round_trip():
    E = WeierstrassCurve(0, 1, 1, -9, -15)
    blown = apply_transformation(E, Transformation(Fraction(1, 5), 0, 0, 0))
    assert blown.disc == E.disc * 5**12
    m, tr = minimal_transformation(blown)
    assert (m.c4, m.c6) == (E.c4, E.c6)
    assert m == E
    # idempotent
    m2, tr2 = minimal_transformation(m)
    assert m2 == m and tr2 == Transformation.identity()


@given(curves(), st.integers(min_value=2, max_value=5), small_int, small_int, small_int)
@settings(max_examples=60, deadline=None)
def test_minimal_model_recovers_after_scaling(E, u0, r, s, t):
    m0, _ = minimal_model(E)
    # scaled by u0 and moved by (r, s, t): still integral, no longer reduced
    blown = apply_transformation(E, Transformation(Fraction(1, u0), r, s, t))
    m1, tr = minimal_transformation(blown)
    assert (m1.c4, m1.c6) == (m0.c4, m0.c6)
    assert m1.disc == m0.disc
    # the transformation is exact
    raw = transform_coefficients(blown.ai(), tr.u, tr.r, tr.s, tr.t)
    assert tuple(int(c) for c in raw) == m1.ai()


def test_minimal_model_vanishing_invariants():
    # c4 = 0 (j = 0) and c6 = 0 (j = 1728) need the single-invariant paths
    m, u = minimal_model(WeierstrassCurve(0, 0, 8, 0, 0))
    assert m.ai() == (0, 0, 1, 0, 0) and u == 2
    m, _ = minimal_model(WeierstrassCurve(0, 0, 0, 64, 0))
    assert m.ai() == (0, 0, 0, 4, 0)


def _assert_minimal_model_contract(curve):
    """minimal_model's (minimal, u), with and without the factored discriminant:
    u > 0 scales c4, c6 and disc exactly, and the transformation and the
    analysis reach the same model."""
    disc = factor(curve.disc)
    minimal, u = minimal_model(curve)
    assert minimal_model(curve, disc) == (minimal, u)
    assert u > 0
    assert curve.c4 == u**4 * minimal.c4
    assert curve.c6 == u**6 * minimal.c6
    assert curve.disc == u**12 * minimal.disc
    assert minimal_transformation(curve)[0] == minimal
    assert CurveAnalysis.of(curve).disc_min == factor(minimal.disc)
    assert CurveAnalysis.of(curve, disc).disc_min == factor(minimal.disc)
    return minimal, u


def test_minimal_model_contract_on_the_fixtures():
    records = ingest_fixtures(FIXTURES).records
    assert len(records) == 24
    for rec in records:
        _assert_minimal_model_contract(rec.curve)


@given(curves(), st.sampled_from((2, 3, 6, 10)), small_int, small_int, small_int)
@settings(max_examples=60, deadline=None)
def test_minimal_model_contract_on_moved_models(E, u0, r, s, t):
    m0, u_E = _assert_minimal_model_contract(E)
    # scaled by u0 and moved by (r, s, t): the same minimal model, u0 times further away
    blown = apply_transformation(E, Transformation(Fraction(1, u0), r, s, t))
    assert _assert_minimal_model_contract(blown) == (m0, u0 * u_E)


def test_curve_from_c4c6_roundtrip():
    for ai in [(0, 1, 1, -9, -15), (1, -1, 1, -1, 0), (1, 0, 0, 1, 0), (0, -1, 0, 1, 0)]:
        E = WeierstrassCurve(*ai)
        assert curve_from_c4c6(E.c4, E.c6) == E
    with pytest.raises(ValueError):
        curve_from_c4c6(1, 1)  # c4^3 = c6^2 forces disc 0
    with pytest.raises(ValueError):
        curve_from_c4c6(17, 161)  # fails Kraus at 2 (c6 = 1 mod 4, c4 odd)


def test_curve_from_c4c6_refuses_the_singular_pair_0_0():
    # (0, 0) passes every congruence and builds [0,0,0,0,0], whose
    # discriminant is 0: the SingularCurveError is raised as the invalid pair
    with pytest.raises(ValueError, match=r"invalid invariant pair \(0, 0\)") as excinfo:
        curve_from_c4c6(0, 0)
    assert isinstance(excinfo.value.__context__, SingularCurveError)


def test_curve_from_c4c6_against_every_reduced_model_in_a_box():
    """Each pair with |c4| <= 60 and |c6| <= 600 gives the reduced model listed for it,
    or is refused.  A reduced model has |b2| <= 5, so one in the box has |b4| <= 3 and
    |b6| <= 5, hence |a4| <= 2 and |a6| <= 1: the list below holds every one of them."""
    listed = {}
    for ai in itertools.product((0, 1), (-1, 0, 1), (0, 1), range(-3, 4), range(-3, 4)):
        try:
            E = WeierstrassCurve(*ai)
        except SingularCurveError:
            continue
        assert (E.c4, E.c6) not in listed  # the reduced model is unique
        listed[E.c4, E.c6] = E
    valid = 0
    for c4 in range(-60, 61):
        for c6 in range(-600, 601):
            try:
                got = curve_from_c4c6(c4, c6)
            except ValueError as e:
                got = str(e)
            assert got == listed.get((c4, c6), f"invalid invariant pair ({c4}, {c6})")
            valid += (c4, c6) in listed
    assert valid == 26


def _largest_integral_scaling(c4, c6, e, p):
    """The largest d for which some integral model has invariants c4 / p^(4d), c6 / p^(6d)."""
    best = 0
    for d in range(1, e // 12 + 1):
        if c4 % p ** (4 * d) == 0 and c6 % p ** (6 * d) == 0:
            try:
                curve_from_c4c6(c4 // p ** (4 * d), c6 // p ** (6 * d))
                best = d
            except ValueError:
                pass
    return best


def test_minimal_exponent_is_the_scaling_of_minimal_model():
    """On the fixtures and their models scaled by 2^k, 3^k, 5^k: ord_p(u) of
    minimal_model's u, and the largest d that curve_from_c4c6 can build."""
    checked = 0
    for rec in ingest_fixtures(FIXTURES).records:
        for q in (1, 2, 3, 5):
            for k in (1, 2) if q > 1 else (0,):
                ai = [a * q ** (k * w) for a, w in zip(rec.curve.ai(), (1, 2, 3, 4, 6))]
                E = WeierstrassCurve(*ai)
                u = minimal_model(E)[1]
                for p in factor(E.disc).primes():
                    e = _int_valuation(E.disc, p)
                    d = minimal_exponent(E.c4, E.c6, e, p)
                    assert d == _int_valuation(u, p), (rec.label, q, k, p)
                    assert d == _largest_integral_scaling(E.c4, E.c6, e, p), (rec.label, q, k, p)
                    checked += 1
    assert checked > 24 * 7


def test_minimal_exponent_steps_back_where_kraus_fails():
    """Drawn models a_i p^e_i scaled by p^k at 2 and 3: where p^4 | c4, p^6 | c6 and
    p^12 | disc allow one more step than Kraus's congruence, the rule takes one fewer."""
    rng = random.Random(5)
    steps_back = set()
    for _ in range(1500):
        p = rng.choice((2, 3))
        ai = [rng.randint(-9, 9) * p ** rng.choice((0, 1, 2, 3, 4)) for _ in range(5)]
        k = rng.randint(0, 2)
        try:
            E = WeierstrassCurve(*(a * p ** (k * w) for a, w in zip(ai, (1, 2, 3, 4, 6))))
        except SingularCurveError:
            continue
        e = _int_valuation(E.disc, p)
        d = minimal_exponent(E.c4, E.c6, e, p)
        assert d == _int_valuation(minimal_model(E)[1], p), (E.ai(), p)
        assert d == _largest_integral_scaling(E.c4, E.c6, e, p), (E.ai(), p)
        divisible = min(e // 12, *(_int_valuation(c, p) // w for c, w in ((E.c4, 4), (E.c6, 6)) if c))
        if d < divisible:
            steps_back.add(p)
    assert steps_back == {2, 3}
