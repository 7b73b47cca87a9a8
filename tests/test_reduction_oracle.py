"""Independent cross-checks of the local classification.

The reduction class is validated against a direct point count of the
reduced curve modulo p: the smooth locus of a p-minimal model has p - 1
points for split multiplicative, p + 1 for nonsplit, p for additive
reduction; the tame conductor exponent at p >= 5 must be exactly 2 for
additive and 1 for multiplicative reduction.

c_p at 2 and 3 is checked against a p-adic point count, with no tables:
on a model minimal at p, the affine solutions E(Z/p^N) of the equation
mod p^N satisfy #E(Z/p^N)/p^N + 1/p = c_p * #E_ns(F_p)/p once N is large
enough.  This is the volume of E(Q_p) for the Neron differential; 1/p is
the volume of the points with v(x) < 0, and #E_ns(F_p) is p for additive,
p - 1 for split and p + 1 for nonsplit reduction.
"""

import math
import random
from collections import Counter
from pathlib import Path

from tamagawa.arith import valuation
from tamagawa.curves import SingularCurveError, WeierstrassCurve, minimal_model
from tamagawa.families import (
    ThreeTorsionNormalForm,
    four_torsion_curve,
    two_six_curve,
    two_torsion_curve,
)
from tamagawa.reduction import (
    ADDITIVE,
    GOOD,
    NONSPLIT,
    SPLIT,
    bad_primes,
    conductor_exponent,
    tate,
)
from tamagawa.verify import ingest_fixtures

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures.json"


def point_count(m: WeierstrassCurve, p: int) -> int:
    """#E(F_p) of the reduction of a p-minimal model, singular point included."""
    a1, a2, a3, a4, a6 = (c % p for c in m.ai())
    affine = 0
    if p == 2:
        for x in range(2):
            for y in range(2):
                if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                    affine += 1
    else:
        for x in range(p):
            g = (((4 * x + m.b2) * x + 2 * m.b4) * x + m.b6) % p
            if g == 0:
                affine += 1
            elif pow(g, (p - 1) // 2, p) == 1:
                affine += 2
    return affine + 1  # plus the point at infinity


def assert_class_matches_count(E: WeierstrassCurve, p: int):
    m, _ = minimal_model(E)
    d = tate(m, p)
    total = point_count(m, p)
    if d.reduction_class == GOOD:
        # Hasse bound only
        assert (total - (p + 1)) ** 2 <= 4 * p, (E.ai(), p, d, total)
        return
    smooth = total - 1  # remove the unique singular point
    expected = {SPLIT: p - 1, NONSPLIT: p + 1, ADDITIVE: p}[d.reduction_class]
    assert smooth == expected, (E.ai(), p, d, smooth)


def test_reduction_class_point_count_oracle_families():
    curves = [
        WeierstrassCurve(1, -3, -3, 0, 0),
        WeierstrassCurve(0, 1, 1, -9, -15),
        WeierstrassCurve(0, -1, 0, 1, 0),
        WeierstrassCurve(1, 0, 0, 1, 0),
        WeierstrassCurve(0, 1, 0, -1, 0),
        WeierstrassCurve(1, -1, 1, -3002, 63929),
        two_six_curve(2),
        four_torsion_curve(5, 4),
        ThreeTorsionNormalForm(5, 6).curve,
        ThreeTorsionNormalForm(-6, 1).curve,
    ]
    for E in curves:
        for p in bad_primes(E):
            if p <= 200:
                assert_class_matches_count(E, p)


def test_reduction_class_point_count_oracle_random():
    rng = random.Random(424242)
    checked = 0
    while checked < 120:
        ai = tuple(rng.randint(-9, 9) for _ in range(5))
        try:
            E = WeierstrassCurve(*ai)
        except Exception:
            continue
        for p in bad_primes(E):
            if p <= 500:
                assert_class_matches_count(E, p)
        checked += 1


def _torsion_family_grid():
    """Two-, three- and four-torsion family curves on small parameter grids.

    Most are multiplicative at 2 or 3; b = 16k gives two-torsion curves
    that are multiplicative at 2 (the other small b are additive there).
    """
    for a in range(-20, 21):
        for b in sorted({*range(-20, 21), *range(-320, 321, 16)}):
            if b and math.gcd(a, b) == 1 and a * a != 4 * b:
                yield two_torsion_curve(a, b)
    for a in range(-20, 21):
        for b in range(1, 21):
            try:
                form = ThreeTorsionNormalForm(a, b)
            except ValueError:  # singular, or not in normal form
                continue
            yield form.curve
    for s in range(1, 21):
        for t in range(-20, 21):
            if t and math.gcd(s, t) == 1 and 16 * s + t:
                yield four_torsion_curve(s, t)


def test_reduction_class_point_count_oracle_torsion_families_at_2_and_3():
    # p - 1 smooth points for split I_n, p + 1 for nonsplit, at the hard primes
    seen = Counter()
    for E in _torsion_family_grid():
        m, _ = minimal_model(E)
        for p in (2, 3):
            d = tate(m, p)
            smooth = point_count(m, p) - 1
            if d.reduction_class == SPLIT:
                assert smooth == p - 1, (E.ai(), p, d, smooth)
            elif d.reduction_class == NONSPLIT:
                assert smooth == p + 1, (E.ai(), p, d, smooth)
            seen[p, d.reduction_class] += 1
    for p in (2, 3):
        for cls in (SPLIT, NONSPLIT):
            assert seen[p, cls] >= 200, (p, cls, seen)


def test_tame_conductor_exponent():
    # for p >= 5 the conductor exponent is 0, 1 or exactly 2
    rng = random.Random(5)
    checked = 0
    while checked < 120:
        ai = tuple(rng.randint(-9, 9) for _ in range(5))
        try:
            E = WeierstrassCurve(*ai)
        except Exception:
            continue
        m, _ = minimal_model(E)
        for p in bad_primes(m):
            d = tate(m, p)
            f = conductor_exponent(d)
            if d.reduction_class == ADDITIVE:
                if p >= 5:
                    assert f == 2, (m.ai(), p, d, f)
                else:
                    assert 2 <= f <= (8 if p == 2 else 5), (m.ai(), p, d, f)
            else:
                assert f == 1, (m.ai(), p, d, f)
        checked += 1


def affine_counts(m: WeierstrassCurve, p: int, top: int) -> list[int]:
    """#E(Z/p^k) for k = 1..top: each level's solutions are the p^2 lifts of the last's that solve."""
    a1, a2, a3, a4, a6 = m.ai()

    def f(x, y):
        return y * y + a1 * x * y + a3 * y - ((x + a2) * x + a4) * x - a6

    sols = [(x, y) for x in range(p) for y in range(p) if f(x, y) % p == 0]
    counts = [len(sols)]
    q = p
    for _ in range(top - 1):
        sols = [
            (x + i * q, y + j * q)
            for x, y in sols
            for i in range(p)
            for j in range(p)
            if f(x + i * q, y + j * q) % (q * p) == 0
        ]
        counts.append(len(sols))
        q *= p
    return counts


def assert_count_settles_on_cp(m: WeierstrassCurve, p: int, top: int, cp: int, cls: str):
    """#E(Z/p^N) + p^(N-1) = c_p #E_ns(F_p) p^(N-1) at the last two levels N = top - 1, top."""
    ns = {ADDITIVE: p, SPLIT: p - 1, NONSPLIT: p + 1}[cls]
    counts = affine_counts(m, p, top)
    for N in (top - 1, top):
        assert counts[N - 1] + p ** (N - 1) == cp * ns * p ** (N - 1), (m.ai(), p, cp, cls, counts)


def test_cp_at_2_and_3_from_point_counts_at_additive_fixture_places():
    places = 0
    for rec in ingest_fixtures(FIXTURES).records:
        m, _ = minimal_model(rec.curve)
        for loc in rec.local:
            p = int(loc["p"])
            if p > 3 or loc["class"] != ADDITIVE:
                continue
            v = valuation(m.disc, p)
            top = v + 4 if p == 2 else min(v + 4, 9)
            assert_count_settles_on_cp(m, p, top, loc["cp"], ADDITIVE)
            assert tate(m, p).tamagawa == loc["cp"], (rec.label, p)
            places += 1
    assert places == 8


def test_cp_at_2_and_3_from_point_counts_on_random_curves():
    # curves with p | disc_min and v(disc_min) <= 9 at 2, <= 6 at 3, to keep p^N small
    rng = random.Random(1)
    seen = Counter()
    for p, v_max, margin in ((2, 9, 4), (3, 6, 3)):
        drawn = 0
        while drawn < 60:
            ai = [rng.randint(-9, 9) * p ** rng.choice((0, 0, 1, 2)) for _ in range(5)]
            try:
                m, _ = minimal_model(WeierstrassCurve(*ai))
            except SingularCurveError:
                continue
            v = valuation(m.disc, p)
            if not 0 < v <= v_max:
                continue
            d = tate(m, p)
            assert_count_settles_on_cp(m, p, v + margin, d.tamagawa, d.reduction_class)
            seen[p, d.kodaira.symbol] += 1
            drawn += 1
    # the steps that end at IV, I_m* and IV* are reached, not only II and III
    for p, symbol in ((2, "IV"), (2, "I0*"), (2, "I1*"), (2, "IV*"), (3, "IV"), (3, "I0*")):
        assert seen[p, symbol], (p, symbol, seen)
