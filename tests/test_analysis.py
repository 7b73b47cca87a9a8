"""CurveAnalysis: one minimal model and one factored minimal discriminant per curve.

Each family's discriminant factorization, built from its small parameters,
is checked against factoring the discriminant outright, and the analysis it
gives against the generic path (minimal_model on gcd(c4, c6), then factoring
the minimal discriminant).  No analysis solves for a coordinate change.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamagawa import arith, curves, reduction
from tamagawa.arith import Factorization, factor
from tamagawa.curves import (
    CurveAnalysis,
    Transformation,
    WeierstrassCurve,
    apply_transformation,
    minimal_model,
    minimal_transformation,
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
from tamagawa.reduction import local_data
from tamagawa.verify import check_divisibility, ingest_fixtures, scan_four_torsion

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures.json"


def _agrees_with_generic_path(curve: WeierstrassCurve, disc: Factorization):
    assert disc == factor(curve.disc)
    analysis = CurveAnalysis.of(curve, disc)
    m, _ = minimal_model(curve)
    assert analysis.minimal.ai() == m.ai()
    assert apply_transformation(curve, minimal_transformation(curve)[1]) == analysis.minimal
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
        assert minimal_model(curve)[1] > 1
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


def test_every_entry_point_refuses_a_factorization_of_another_discriminant():
    # 37a1 scaled by 5, disc = 5^12 * 37: trusted, factor(37) would leave it unminimized at 5
    curve = WeierstrassCurve(0, 0, 125, -625, 0)
    assert curve.disc == 5**12 * 37
    assert minimal_model(curve) == (WeierstrassCurve(0, 0, 1, -1, 0), 5)
    calls = {
        "minimal_model": lambda disc: minimal_model(curve, disc),
        "CurveAnalysis.of": lambda disc: CurveAnalysis.of(curve, disc),
        "local_data": lambda disc: local_data(curve, disc=disc),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="not the discriminant"):
            call(factor(37))
        assert call(factor(curve.disc)), name


def test_a_minimal_model_keeps_the_given_factorization():
    # u = 1: disc_min is the very factorization given, not an equal copy
    curve, disc = four_torsion_curve(3, 1), four_torsion_disc(3, 1)
    assert minimal_model(curve, disc)[1] == 1
    assert CurveAnalysis.of(curve, disc).disc_min is disc
    curve, disc = four_torsion_curve(1, -300), four_torsion_disc(1, -300)
    assert minimal_model(curve, disc)[1] == 10
    assert CurveAnalysis.of(curve, disc).disc_min == factor(curve.disc // 10**12)


def test_scaled_model_drops_twelve_per_power_of_u():
    E = WeierstrassCurve(0, 1, 1, -9, -15)
    blown = apply_transformation(E, Transformation(Fraction(1, 5), 0, 0, 0))
    analysis = CurveAnalysis.of(blown)
    assert analysis.minimal == E
    assert minimal_model(blown)[1] == 5
    assert analysis.disc_min == factor(E.disc)
    assert analysis.bad_primes == (19,)


def _family_grid_curves():
    """Every curve of the four families' small-parameter grids: three-torsion
    |a|, b <= 12, two-torsion and four-torsion entries up to 10, two-six t = a/b
    with |a|, b <= 5."""
    out = []
    for a in range(-12, 13):
        for b in range(1, 13):
            try:
                out.append(ThreeTorsionNormalForm(a, b).curve)
            except ValueError:
                pass
    for a in range(-10, 11):
        for b in range(-10, 11):
            if b != 0 and math.gcd(a, b) == 1 and a * a != 4 * b:
                out.append(two_torsion_curve(a, b))
    for s in range(1, 11):
        for t in range(-10, 11):
            if t != 0 and 16 * s + t != 0 and math.gcd(s, t) == 1:
                out.append(four_torsion_curve(s, t))
    for b in range(1, 6):
        for a in range(-5, 6):
            if math.gcd(a, b) == 1 and a not in (0, b, -b) and 3 * a not in (b, -b):
                out.append(two_six_curve(Fraction(a, b)))
    return out


def test_no_analysis_builds_a_transformation(monkeypatch):
    """With Transformation refusing, the analyses of the fixtures and the
    family grids, the fixture checks and a scan of the order-4 family at large
    coprime (s, t) come out the same."""
    fixtures = ingest_fixtures(FIXTURES)
    assert len(fixtures.records) == 24
    models = [rec.curve for rec in fixtures.records] + _family_grid_curves()
    assert len(models) > 600
    rng = random.Random(1)
    pairs = []
    while len(pairs) < 300:
        s, t = rng.randint(1, 10**6), rng.randint(-(10**6), 10**6)
        if t != 0 and 16 * s + t != 0 and math.gcd(s, t) == 1:
            pairs.append((s, t))

    def run():
        analyses = [CurveAnalysis.of(curve) for curve in models]
        checks = [check_divisibility(rec.curve, fixtures).to_json() for rec in fixtures.records]
        scan = scan_four_torsion(pairs, fixtures)
        exceptions = {key: cls.to_json() for key, cls in scan.exceptions.items()}
        return analyses, checks, [r.to_json() for r in scan.reports], exceptions, scan.mismatches

    expected = run()
    assert len(expected[2]) == 300

    def refuse(*args, **kwargs):
        raise AssertionError("a Transformation was built")

    monkeypatch.setattr(curves, "Transformation", refuse)
    assert run() == expected


def _local_data_models() -> list[WeierstrassCurve]:
    """The fixtures, the family grids and four curves with c4 = 0 (j = 0) or c6 = 0 (j = 1728)."""
    zero_invariant = [(0, 0, 0, 0, 1), (0, 0, 1, 0, 0), (0, 0, 0, -1, 0), (0, 0, 0, 4, 0)]
    models = [rec.curve for rec in ingest_fixtures(FIXTURES).records] + _family_grid_curves()
    models += [WeierstrassCurve(*ai) for ai in zero_invariant]
    assert sum(m.c4 == 0 or m.c6 == 0 for m in models) > len(zero_invariant)
    return models


def _refuse_valuations(monkeypatch, refuse) -> None:
    """Make `_int_valuation` in `curves` and `reduction` raise wherever refuse(n) is true."""
    valuation = arith._int_valuation

    def guarded(n, p):
        if refuse(n):
            raise AssertionError(f"ord_{p}({n}) was taken")
        return valuation(n, p)

    for module in (curves, reduction):
        monkeypatch.setattr(module, "_int_valuation", guarded)


def test_local_data_never_takes_the_valuation_of_zero(monkeypatch):
    """Tate's steps and the p-minimality rule ask only whether p^k divides a
    coefficient, so they never take ord_p(0) and their answers stand."""
    models = _local_data_models()

    def run():
        return [(CurveAnalysis.of(m), local_data(m)) for m in models]

    expected = run()
    _refuse_valuations(monkeypatch, lambda n: n == 0)
    assert run() == expected


def test_tate_given_its_exponent_counts_no_valuation(monkeypatch):
    """tate(curve, p, e), with minimal_exponent and the closed form above 3,
    takes no valuation at all; on the models as given, so that tate minimizes
    at each p with p^12 | disc."""
    models = _local_data_models()
    discs = [factor(m.disc) for m in models]

    def run():
        return [local_data(m, disc=disc) for m, disc in zip(models, discs)]

    expected = run()
    assert any(e >= 12 for disc in discs for _, e in disc.factors)
    _refuse_valuations(monkeypatch, lambda n: True)
    assert run() == expected
