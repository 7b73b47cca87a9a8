"""CurveAnalysis: one minimal model and one factored minimal discriminant per curve.

Each family's discriminant factorization, built from its small parameters,
is checked against factoring the discriminant outright, and the analysis it
gives against the generic path (minimal_model on gcd(c4, c6), then factoring
the minimal discriminant).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamagawa.arith import Factorization, factor
from tamagawa.curves import (
    CurveAnalysis,
    Transformation,
    WeierstrassCurve,
    apply_transformation,
    minimal_model,
)
from tamagawa.families import (
    ThreeTorsionNormalForm,
    four_torsion_curve,
    four_torsion_disc,
    three_torsion_disc,
    two_six_curve,
    two_six_disc,
    two_torsion_curve,
    two_torsion_disc,
)
from tamagawa.torsion import torsion_subgroup


def _agrees_with_generic_path(curve: WeierstrassCurve, disc: Factorization):
    assert disc == factor(curve.disc)
    analysis = CurveAnalysis.of(curve, disc)
    m, tr = minimal_model(curve)
    assert analysis.minimal.ai() == m.ai()
    assert analysis.transformation == tr
    assert analysis.disc_min == factor(m.disc)
    assert analysis.key == (m.c4, m.c6)


@given(st.integers(1, 10**5), st.integers(-(10**5), 10**5))
@settings(max_examples=40, deadline=None)
def test_four_torsion_disc_factorization(s, t):
    assume(t != 0 and 16 * s + t != 0 and math.gcd(s, t) == 1)
    _agrees_with_generic_path(four_torsion_curve(s, t), four_torsion_disc(s, t))


@given(st.integers(-200, 200), st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_two_six_disc_factorization(a, b):
    assume(math.gcd(a, b) == 1 and a not in (0, b, -b) and 3 * a not in (b, -b))
    t = Fraction(a, b)
    _agrees_with_generic_path(two_six_curve(t), two_six_disc(t))


@given(st.integers(-500, 500), st.integers(-500, 500))
@settings(max_examples=40, deadline=None)
def test_two_torsion_disc_factorization(a, b):
    assume(b != 0 and math.gcd(a, b) == 1 and a * a != 4 * b)
    _agrees_with_generic_path(two_torsion_curve(a, b), two_torsion_disc(a, b))


@given(st.integers(-500, 500), st.integers(1, 500))
@settings(max_examples=40, deadline=None)
def test_three_torsion_disc_factorization(a, b):
    try:
        form = ThreeTorsionNormalForm(a, b)
    except ValueError:
        assume(False)
    _agrees_with_generic_path(form.curve, three_torsion_disc(a, b))


def test_non_minimal_family_members():
    # u = 10 at (s, t) = (1, -300) and u = 4 at t = -29
    for curve, disc in [
        (four_torsion_curve(1, -300), four_torsion_disc(1, -300)),
        (two_six_curve(-29), two_six_disc(-29)),
    ]:
        _agrees_with_generic_path(curve, disc)
        analysis = CurveAnalysis.of(curve, disc)
        assert analysis.transformation.u > 1
        assert analysis.disc_min.value == analysis.minimal.disc


def test_wrong_exponent_is_rejected():
    curve = four_torsion_curve(3, 1)
    disc = four_torsion_disc(3, 1)
    assert disc == Factorization(1, ((3, 4), (7, 2)))
    off = Factorization(1, ((3, 5), (7, 2)))
    with pytest.raises(ValueError, match="not the discriminant"):
        CurveAnalysis.of(curve, off)
    with pytest.raises(ValueError, match="not the discriminant"):
        CurveAnalysis.of(curve, Factorization(-1, disc.factors))


def test_scaled_model_drops_twelve_per_power_of_u():
    E = WeierstrassCurve(0, 1, 1, -9, -15)
    blown = apply_transformation(E, Transformation(Fraction(1, 5), 0, 0, 0))
    analysis = CurveAnalysis.of(blown)
    assert analysis.minimal == E
    assert analysis.transformation.u == 5
    assert analysis.disc_min == factor(E.disc)
    assert analysis.bad_primes == (19,)


def test_torsion_reads_a_supplied_analysis():
    curve = four_torsion_curve(1, -300)
    analysis = CurveAnalysis.of(curve, four_torsion_disc(1, -300))
    on_curve = torsion_subgroup(curve, analysis=analysis)
    on_minimal = torsion_subgroup(analysis.minimal, analysis=analysis)
    assert on_curve == torsion_subgroup(curve)
    assert on_minimal.order == on_curve.order == 4
    with pytest.raises(ValueError):
        torsion_subgroup(four_torsion_curve(1, 1), analysis=analysis)
