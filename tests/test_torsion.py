import collections
import itertools
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamagawa import arith, curves, torsion, verify
from tamagawa.arith import Factorization, is_prime
from tamagawa.curves import (
    CurveAnalysis,
    SingularCurveError,
    Transformation,
    WeierstrassCurve,
    apply_transformation,
    minimal_transformation,
)
from tamagawa.families import (
    ThreeTorsionNormalForm,
    four_torsion_curve,
    two_six_curve,
    two_torsion_curve,
)
from tamagawa.torsion import (
    Point,
    _division_value,
    _lift_modulus,
    _lift_seeds,
    _lifted_x,
    _point_count,
    _root_bound,
    _scaled_multiples,
    _scaled_points_mod_p,
    _square_roots,
    _torsion_points,
    _torsion_sieve,
    _unscaled,
    group_law_add,
    on_curve,
    point_order,
    torsion_subgroup,
)
from tamagawa.verify import check_divisibility, ingest_fixtures

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures.json"

E4 = WeierstrassCurve(1, -3, -3, 0, 0)  # order-4 family at lambda = 3
E3 = WeierstrassCurve(2, 0, 1, 0, 0)  # unit-b three-torsion curve, a = 2


# The Fraction group law, kept here as the reference the integer one in
# tamagawa.torsion is compared against.


def negate(curve, point):
    if point.infinity:
        return point
    return Point(point.x, -point.y - curve.a1 * point.x - curve.a3)


def multiply(curve, n, point):
    if n < 0:
        return multiply(curve, -n, negate(curve, point))
    result = Point.at_infinity()
    addend = point
    while n:
        if n & 1:
            result = group_law_add(curve, result, addend)
        addend = group_law_add(curve, addend, addend)
        n >>= 1
    return result


def _reference_point_order(curve, point):
    """Order (at most 12 over Q), or None for infinite order, by repeated Fraction addition."""
    if not on_curve(curve, point):
        raise ValueError(f"point {point} is not on {curve}")
    if point.infinity:
        return 1
    current = point
    for k in range(1, 13):
        # current == k * point at this check
        if current.infinity:
            return k
        current = group_law_add(curve, current, point)
    return None


def _scaled_order(X, Y, A, B):
    """The order _scaled_multiples certifies for (X, Y), or None for infinite order."""
    multiples = _scaled_multiples(X, Y, A, B)
    return None if multiples is None else len(multiples) + 1


def test_identity_and_inverse():
    P = Point(0, 0)
    O = Point.at_infinity()
    assert group_law_add(E4, P, O) == P
    assert group_law_add(E4, O, P) == P
    assert group_law_add(E4, P, negate(E4, P)).infinity


def test_three_torsion_doubling():
    P = Point(0, 0)
    Q = group_law_add(E3, P, P)
    assert not Q.infinity
    assert negate(E3, Q) == P  # 2P = -P for a point of order 3
    assert group_law_add(E3, Q, P).infinity


def test_point_orders():
    assert point_order(E4, Point(0, 0)) == 4
    assert point_order(E3, Point(0, 0)) == 3
    assert point_order(E4, Point.at_infinity()) == 1
    # (0, 0) on y^2 + y = x^3 - x generates a rank-one group
    E = WeierstrassCurve(0, 0, 1, -1, 0)
    assert point_order(E, Point(0, 0)) is None


def test_off_curve_rejected():
    with pytest.raises(ValueError):
        group_law_add(E4, Point(1, 1), Point(0, 0))
    with pytest.raises(ValueError):
        point_order(E4, Point(2, 2))


def test_group_law_commutes_and_associates():
    pts = sorted(torsion_subgroup(E4).points, key=str)
    for P in pts:
        for Q in pts:
            assert group_law_add(E4, P, Q) == group_law_add(E4, Q, P)
    rng = random.Random(3)
    for _ in range(20):
        P, Q, R = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        left = group_law_add(E4, group_law_add(E4, P, Q), R)
        right = group_law_add(E4, P, group_law_add(E4, Q, R))
        assert left == right


def test_torsion_structures_known():
    cases = [
        (WeierstrassCurve(0, -1, 1, 0, 0), "Z/5", 5),
        (WeierstrassCurve(2, 0, 1, 0, 0), "Z/3", 3),
        (WeierstrassCurve(1, 1, 1, 0, 0), "Z/4", 4),
        (WeierstrassCurve(1, -3, -3, 0, 0), "Z/2xZ/4", 8),
        (WeierstrassCurve(1, 0, 1, -19, 26), "Z/2xZ/6", 12),
        (WeierstrassCurve(1, 1, 1, -5, 2), "Z/2xZ/4", 8),
        (WeierstrassCurve(1, -1, 1, -6, -4), "Z/2xZ/2", 4),
        (WeierstrassCurve(1, 1, 1, 35, -28), "Z/8", 8),
        (WeierstrassCurve(1, 0, 1, -1, 0), "Z/6", 6),
        (WeierstrassCurve(0, 0, 1, -1, 0), "Z/1", 1),
        (WeierstrassCurve(0, 0, 0, -1, 0), "Z/2xZ/2", 4),
    ]
    for E, shape, order in cases:
        t = torsion_subgroup(E)
        assert t.shape == shape, (E.ai(), t.shape)
        assert t.order == order
        assert len(t.points) == order
        for g in t.generators:
            assert on_curve(E, g)


def test_generator_orders_certified():
    t = torsion_subgroup(WeierstrassCurve(1, 0, 1, -19, 26))  # Z/2 x Z/6
    orders = sorted(point_order(WeierstrassCurve(1, 0, 1, -19, 26), g) for g in t.generators)
    assert orders == [2, 6]
    t2 = torsion_subgroup(E4)
    assert sorted(point_order(E4, g) for g in t2.generators) == [2, 4]
    E = WeierstrassCurve(1, 1, 1, 0, 0)
    t3 = torsion_subgroup(E)
    assert [point_order(E, g) for g in t3.generators] == [4]


def test_torsion_order_divides_reduction_counts():
    for E in [E4, E3, WeierstrassCurve(1, 1, 1, -5, 2), WeierstrassCurve(1, 0, 1, -1, 0)]:
        t = torsion_subgroup(E)
        disc = E.disc
        checked = 0
        p = 5
        while checked < 2:
            if disc % p != 0:
                assert _count(E, p) % t.order == 0
                checked += 1
            p += 2
            while any(p % q == 0 for q in (2, 3, 5, 7) if q < p):
                p += 2


def test_structure_invariant_under_transformation():
    for E in [E4, WeierstrassCurve(1, 1, 1, -5, 2)]:
        tr = Transformation(Fraction(1, 2), Fraction(3), Fraction(-1), Fraction(2))
        E2 = apply_transformation(E, tr)
        t1, t2 = torsion_subgroup(E), torsion_subgroup(E2)
        assert t1.shape == t2.shape and t1.order == t2.order
        for g in t2.generators:
            assert on_curve(E2, g)


def test_multiply_matches_repeated_addition():
    P = Point(0, 0)
    acc = Point.at_infinity()
    for n in range(1, 5):
        acc = group_law_add(E4, acc, P)
        assert multiply(E4, n, P) == acc
    assert multiply(E4, -1, P) == negate(E4, P)


def test_two_torsion_with_non_integral_coordinates():
    # 2-torsion on a minimal model can have denominator 4 at p = 2; the
    # scaled-model search must still find it
    E = WeierstrassCurve(1, 0, 0, 4, 1)
    t = torsion_subgroup(E)
    assert t.shape == "Z/2"
    assert Point(Fraction(-1, 4), Fraction(1, 8)) in t.points


def test_torsion_json():
    t = torsion_subgroup(E3)
    j = t.to_json()
    assert j["shape"] == "Z/3" and j["order"] == 3
    assert j["generators"] in ([["0", "0"]], [["0", "-1"]])
    assert Point(0, 0) in t.points


def _count(curve, p):
    """#E(F_p), counted on the scaled model."""
    return _point_count(-27 * curve.c4 % p, -54 * curve.c6 % p, p)


def _reference_count_mod_p(curve, p):
    """#E(F_p) for p > 3 by a quadratic character sum on 4x^3+b2x^2+2b4x+b6."""
    b2, b4, b6 = curve.b2 % p, curve.b4 % p, curve.b6 % p
    total = p + 1
    for x in range(p):
        g = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        if g:
            total += 1 if pow(g, (p - 1) // 2, p) == 1 else -1
    return total


# The square-divisor search that listed Y candidates before the lift, kept
# here as the reference the lift is compared against.
_SIX_TO_12 = Factorization(1, ((2, 12), (3, 12)))


def _square_divisors(f):
    """All y > 0 with y^2 dividing the factored integer."""
    ys = [1]
    for p, e in f.factors:
        ys = [y * p**k for y in ys for k in range(e // 2 + 1)]
    return ys


def _reference_torsion_points(curve, disc):
    """The unsieved Lutz-Nagell search: every Y = 0 or +-y with y^2 | 6^12 disc,
    kept when bound * point = O for the gcd bound of point counts."""
    bound, used, p = 0, 0, 5
    while used < 2 or (bound > 16 and used < 6):
        while curve.disc % p == 0 or not is_prime(p):
            p += 2
        bound = math.gcd(bound, _reference_count_mod_p(curve, p))
        used += 1
        p += 2
    points = {Point.at_infinity()}
    if bound == 1:
        return frozenset(points)
    c4, c6, b2 = curve.c4, curve.c6, curve.b2
    y_candidates = {0}
    for yy in _square_divisors(_SIX_TO_12 * disc):
        y_candidates.update((yy, -yy))
    for Y in y_candidates:
        for X in _reference_cubic_roots(-27 * c4, -54 * c6 - Y * Y):
            x = Fraction(X - 3 * b2, 36)
            pt = Point(x, (Fraction(Y, 108) - curve.a1 * x - curve.a3) / 2)
            if on_curve(curve, pt) and multiply(curve, bound, pt).infinity:
                points.add(pt)
    return frozenset(points)


def _lutz_nagell_candidates(m, disc):
    """Every (X, Y) the unsieved search tries, with its point on the minimal model m."""
    y_candidates = {0}
    for yy in _square_divisors(_SIX_TO_12 * disc):
        y_candidates.update((yy, -yy))
    for Y in sorted(y_candidates):
        for X in _reference_cubic_roots(-27 * m.c4, -54 * m.c6 - Y * Y):
            x = Fraction(X - 3 * m.b2, 36)
            yield X, Y, Point(x, (Fraction(Y, 108) - m.a1 * x - m.a3) / 2)


def _reference_torsion_dict(m, disc):
    """_torsion_points by the square-divisor search: every Lutz-Nagell
    candidate whose order _scaled_multiples certifies."""
    A, B = -27 * m.c4, -54 * m.c6
    found = {}
    for X, Y, _ in _lutz_nagell_candidates(m, disc):
        multiples = _scaled_multiples(X, Y, A, B)
        if multiples is not None:
            found[X, Y] = multiples
    return found


def _assert_sieve_agrees_with_reference(curve):
    analysis = CurveAnalysis.of(curve)
    m, disc = analysis.minimal, analysis.disc_min
    expected = _reference_torsion_points(m, disc)
    found = _torsion_points(m)
    assert frozenset([Point.at_infinity()] + [_unscaled(m, *q) for q in found]) == expected, curve.ai()
    assert found == _reference_torsion_dict(m, disc), curve.ai()
    bound, reduced = _torsion_sieve(m)
    assert len(reduced) == torsion._SIEVE_PRIMES and sum(1 for _, _, p in reduced if bound % p == 0) <= 1
    for _, _, p in reduced:
        assert _count(m, p) == _reference_count_mod_p(m, p)
        assert _count(m, p) % len(expected) == 0
    orders = set()
    for X, Y, pt in _lutz_nagell_candidates(m, disc):
        n = _scaled_order(X, Y, -27 * m.c4, -54 * m.c6)
        assert n == _reference_point_order(m, pt), (m.ai(), X, Y)
        orders.add(n)
    return orders


def test_sieve_matches_unsieved_search_on_fixtures():
    for rec in ingest_fixtures(FIXTURES).records:
        _assert_sieve_agrees_with_reference(rec.curve)


TWO_SIX_GRID = [
    Fraction(a, b)
    for b in range(1, 6)
    for a in range(-5, 6)
    if math.gcd(a, b) == 1 and a not in (0, b, -b) and 3 * a not in (b, -b)
]


def test_sieve_matches_unsieved_search_on_two_six_grid():
    assert len(TWO_SIX_GRID) == 34
    orders = set()
    for t in TWO_SIX_GRID:
        orders |= _assert_sieve_agrees_with_reference(two_six_curve(t))
    assert None in orders  # candidates of infinite order are compared too


def test_torsion_sieve_same_on_cold_and_warm_cache():
    """The memoized point counts are keyed by everything they depend on: each
    curve's sieve, computed alone on a cleared cache, comes out the same when
    the curves share the cache in shuffled order."""
    curves = [rec.curve for rec in ingest_fixtures(FIXTURES).records]
    curves += [two_six_curve(t) for t in TWO_SIX_GRID]
    minimal = [CurveAnalysis.of(c).minimal for c in curves]
    cold = []
    for m in minimal:
        _point_count.cache_clear()
        _square_roots.cache_clear()
        cold.append(_torsion_sieve(m))
    _point_count.cache_clear()
    _square_roots.cache_clear()
    order = list(range(len(minimal)))
    random.Random(10).shuffle(order)
    for i in order:
        assert _torsion_sieve(minimal[i]) == cold[i], minimal[i].ai()
    assert _point_count.cache_info().hits > 0


def _primes_of(n):
    return [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]


def test_lift_seeds_same_on_cold_and_warm_cache():
    """The memoized seed tables are keyed by everything they depend on: each
    curve's seeds, computed alone on a cleared cache, come out the same when
    the curves share the cache in shuffled order.  Each table lists roots of
    f_m mod q, in non-increasing order of m, m a prime power dividing the bound."""
    curves = _fixture_and_two_six_curves() + [E for _, E in _kubert_curves()]
    keys = []
    for curve in curves:
        bound, reduced = _torsion_sieve(CurveAnalysis.of(curve).minimal)
        a, b, q = next(key for key in reduced if bound % key[2])
        keys.append((a, b, q, bound))
    cold = []
    for key in keys:
        _lift_seeds.cache_clear()
        _square_roots.cache_clear()
        cold.append(_lift_seeds(*key))
    _lift_seeds.cache_clear()
    _square_roots.cache_clear()
    order = list(range(len(keys)))
    random.Random(31).shuffle(order)
    for i in order:
        assert _lift_seeds(*keys[i]) == cold[i], keys[i]
    assert _lift_seeds.cache_info().hits > 0
    for (a, b, q, bound), seeds in zip(keys, cold):
        assert isinstance(seeds, tuple)
        ms = [m for _, m in seeds]
        assert ms == sorted(ms, reverse=True)
        for x, m in seeds:
            assert bound % m == 0 and len(_primes_of(m)) == 1
            assert _division_value(m, x, a, b, q)[0] == 0
    assert {m for seeds in cold for _, m in seeds} == set(torsion._LIFTED_ORDERS)


def _seeds_from_division_polynomials(a, b, q, bound):
    """_lift_seeds by another route: x has order 2 when it is a root of f_2, and
    otherwise order m when f_m(x) = 0 and X^3 + aX + b is a square at x, with the
    points of order 4 taken out of f_8's roots and those of order 3 out of f_9's."""
    orders = [m for m in torsion._LIFTED_ORDERS if bound % m == 0]
    squares = {y * y % q for y in range(1, q)}
    seeds = []
    for x in range(q):
        rhs = (x * x * x + a * x + b) % q
        if rhs == 0:
            seeds += [(x, 2) for m in orders if m == 2]
        elif rhs in squares:
            seeds += [
                (x, m)
                for m in orders
                if m > 2
                and _division_value(m, x, a, b, q)[0] == 0
                and not (m == 8 and _division_value(4, x, a, b, q)[0] == 0)
                and not (m == 9 and _division_value(3, x, a, b, q)[0] == 0)
            ]
    return tuple(sorted(seeds, key=lambda seed: -seed[1]))


def test_lift_seeds_are_the_points_of_each_lifted_order():
    """On every key with 5 <= q <= 31: a nonsingular (a, b) mod q and a bound that
    divides #E'(F_q) and is prime to q, _lift_seeds lists exactly the x of each
    lifted order, and no x of another order."""
    keys = 0
    for q in (p for p in range(5, 32) if is_prime(p)):
        for a, b in itertools.product(range(q), repeat=2):
            if (4 * a**3 + 27 * b * b) % q == 0:
                continue
            count = _point_count(a, b, q)
            for bound in range(1, count + 1):
                if count % bound == 0 and bound % q:
                    expected = _seeds_from_division_polynomials(a, b, q, bound)
                    assert _lift_seeds(a, b, q, bound) == expected, (a, b, q, bound)
                    keys += 1
    assert keys == 16190


@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
def test_point_count_matches_the_listed_points(p):
    """The count from the table of square-root counts is one more than the
    listed affine points, for every residue pair, singular ones included."""
    for a, b in itertools.product(range(p), repeat=2):
        assert _point_count(a, b, p) == 1 + len(_scaled_points_mod_p(a, b, p)), (a, b)


@given(st.integers(-60, 60), st.integers(-60, 60))
@settings(max_examples=20, deadline=None)
def test_sieve_matches_unsieved_search_on_two_torsion(a, b):
    assume(b != 0 and math.gcd(a, b) == 1 and a * a != 4 * b)
    _assert_sieve_agrees_with_reference(two_torsion_curve(a, b))


@given(st.integers(-60, 60), st.integers(1, 60))
@settings(max_examples=20, deadline=None)
def test_sieve_matches_unsieved_search_on_three_torsion(a, b):
    try:
        form = ThreeTorsionNormalForm(a, b)
    except ValueError:
        assume(False)
    _assert_sieve_agrees_with_reference(form.curve)


@given(st.integers(1, 60), st.integers(-60, 60))
@settings(max_examples=20, deadline=None)
def test_sieve_matches_unsieved_search_on_four_torsion(s, t):
    assume(t != 0 and 16 * s + t != 0 and math.gcd(s, t) == 1)
    _assert_sieve_agrees_with_reference(four_torsion_curve(s, t))


def _tate_normal_form(b, c):
    """y^2 + (1-c)xy - by = x^3 - bx^2, scaled by u to integral coefficients.

    (0, 0) has order N when (b, c) is Kubert's parametrization for N; the
    scaling (x, y) -> (u^2 x, u^3 y) keeps it at (0, 0).
    """
    b, c = Fraction(b), Fraction(c)
    u = math.lcm(b.denominator, c.denominator)
    ai = ((1 - c) * u, -b * u**2, -b * u**3, 0, 0)
    assert all(a.denominator == 1 for a in ai)
    return WeierstrassCurve(*(int(a) for a in ai))


def _kubert(n, t):
    """Kubert's (b, c) with (0, 0) of order n on the Tate normal form."""
    t = Fraction(t)
    if n == 4:
        return t, 0
    if n == 5:
        return t, t
    if n == 6:
        return t + t * t, t
    if n == 7:
        return t**3 - t**2, t**2 - t
    if n == 8:
        b = (2 * t - 1) * (t - 1)
        return b, b / t
    if n == 9:
        c = t**2 * (t - 1)
        return c * (t**2 - t + 1), c
    if n == 10:
        d = t**2 - 3 * t + 1
        return t**3 * (t - 1) * (2 * t - 1) / d**2, -t * (t - 1) * (2 * t - 1) / d
    if n == 12:
        m = (3 * t * t - 3 * t + 1) * t * (2 * t - 1)
        return m * (2 * t * t - 2 * t + 1) / (t - 1) ** 4, -m / (t - 1) ** 3
    raise ValueError(n)


@pytest.mark.parametrize(
    "n, t, shape, order",
    [
        (7, 2, "Z/7", 7),
        (9, 2, "Z/9", 9),
        (10, 2, "Z/10", 10),
        (12, 2, "Z/12", 12),
        # at t = 3 the order-8 form also has full two-torsion
        (8, 3, "Z/2xZ/8", 16),
    ],
)
def test_kubert_tate_normal_forms_reach_the_remaining_mazur_shapes(n, t, shape, order):
    E = _tate_normal_form(*_kubert(n, t))
    assert point_order(E, Point(0, 0)) == n
    tors = torsion_subgroup(E)
    assert tors.shape == shape and tors.order == order
    assert len(tors.points) == order
    expected_orders = [n, 2] if shape.startswith("Z/2x") else [n]
    assert [point_order(E, g) for g in tors.generators] == expected_orders


def _kubert_curves():
    """(n, E) for the Tate normal form E of Kubert's order n >= 4 at t = a/b,
    |a| <= 12, 1 <= b <= 4, leaving out each t that is a pole of (b, c) or
    makes E singular."""
    curves = []
    for n in (4, 5, 6, 7, 8, 9, 10, 12):
        for den in range(1, 5):
            for num in range(-12, 13):
                if math.gcd(num, den) != 1:
                    continue
                try:
                    curves.append((n, _tate_normal_form(*_kubert(n, Fraction(num, den)))))
                except (ZeroDivisionError, SingularCurveError):
                    continue
    return curves


def _span(curve, generators):
    """The subgroup the points of finite order generate, by the Fraction law."""
    span, frontier = {Point.at_infinity()}, [Point.at_infinity()]
    while frontier:
        point = frontier.pop()
        for g in generators:
            q = group_law_add(curve, point, g)
            if q not in span:
                assert len(span) < 16, "not a rational torsion subgroup"
                span.add(q)
                frontier.append(q)
    return span


def _six_prime_bound(curve):
    """The gcd of #E(F_p) over the first six primes p >= 5 of good reduction,
    counted by _reference_count_mod_p: a multiple of the torsion order that
    does not depend on how many primes the sieve reduces."""
    bound, used, p = 0, 0, 5
    while used < 6:
        if curve.disc % p and is_prime(p):
            bound = math.gcd(bound, _reference_count_mod_p(curve, p))
            used += 1
        p += 2
    return bound


def test_lift_matches_kubert_tate_normal_forms_of_every_order():
    """On Tate normal forms of every order n >= 4, Z/2 x Z/2N included, the
    lift finds the group that (0, 0), of order n, and the rational points of
    order 2 generate by the Fraction law: all the torsion when its order
    reaches a six-prime bound.  Elsewhere it matches the square-divisor search."""
    curves = _kubert_curves()
    assert len(curves) == 503
    shapes = set()
    for n, E in curves:
        analysis = CurveAnalysis.of(E)
        m = analysis.minimal
        A, B = -27 * m.c4, -54 * m.c6
        origin = _carry(minimal_transformation(E)[1], Point(0, 0))
        assert _reference_point_order(m, origin) == n
        group = _span(m, [origin] + [_unscaled(m, X, 0) for X in _reference_cubic_roots(A, B)])
        if len(group) == _six_prime_bound(m):
            keys = [_scaled(m, q)[:2] for q in group if not q.infinity]
            expected = {(int(X), int(Y)): _scaled_multiples(int(X), int(Y), A, B) for X, Y in keys}
        else:
            expected = _reference_torsion_dict(m, analysis.disc_min)
        found = _torsion_points(m)
        assert found == expected, E.ai()
        shapes.add(torsion._MAZUR[len(found) + 1, sum(1 for _, Y in found if Y == 0)])
    assert shapes == set(torsion.MAZUR_SHAPES) - {"Z/1", "Z/2", "Z/3", "Z/2xZ/2"}


@given(st.tuples(*[st.integers(-12, 12)] * 5))
@settings(max_examples=80, deadline=None)
def test_sieve_matches_unsieved_search_on_small_models(ai):
    try:
        curve = WeierstrassCurve(*ai)
    except SingularCurveError:
        assume(False)
    _assert_sieve_agrees_with_reference(curve)


LIFT_CASES = [(4, 3), (5, 2), (6, 2), (7, 2), (8, 3), (9, 2), (10, 2), (12, 2), (12, Fraction(-10, 3))]
LIFT_IDS = [f"{n}-{t}" for n, t in LIFT_CASES]


def _lifted_points(n, t):
    """(A, B, q, [(X, order)]) for the points of order above 2 that (0, 0)
    generates on a Tate normal form, by the Fraction law, and for each
    rational point of order 2, taken to the scaled minimal model; q is the
    sieve prime the lift works at."""
    curve = _tate_normal_form(*_kubert(n, t))
    m = CurveAnalysis.of(curve).minimal
    A, B = -27 * m.c4, -54 * m.c6
    bound, reduced = _torsion_sieve(m)
    q = next(p for _, _, p in reduced if bound % p)
    group = _span(m, [_carry(minimal_transformation(curve)[1], Point(0, 0))])
    points = [(int(_scaled(m, P)[0]), _reference_point_order(m, P)) for P in group if not P.infinity]
    two = _reference_cubic_roots(A, B)
    assert {X for X, order in points if order == 2} <= set(two)
    points = [(X, order) for X, order in points if order > 2]
    assert len(points) == n - 1 - (n % 2 == 0)
    return A, B, q, points + [(X, 2) for X in two]


@pytest.mark.parametrize("n, t", LIFT_CASES, ids=LIFT_IDS)
def test_lift_recovers_x_at_the_least_precision(n, t):
    """Each X of a rational point lies below the proven X_max, and the lift
    from X mod q recovers it at the least precision q^N above 2|X|."""
    A, B, q, points = _lifted_points(n, t)
    x_max = _root_bound(A, abs(B) + abs(4 * A**3 + 27 * B * B))
    for X, order in points:
        assert abs(X) < x_max
        assert _lifted_x(X % q, order, A, B, q, _lift_modulus(q, abs(X))) == X


def test_lift_modulus_is_the_least_power_above_twice_the_bound():
    for q in (5, 7, 11, 13):
        for bound in [*range(200), 10**20, 3**50]:
            modulus, power = _lift_modulus(q, bound), q
            while power < modulus:
                power *= q
            assert power == modulus > 2 * bound
            assert modulus == q or modulus // q <= 2 * bound


# a Mersenne prime: a nonzero division value is a nonzero residue
_M521 = 2**521 - 1


@pytest.mark.parametrize("n, t", LIFT_CASES, ids=LIFT_IDS)
def test_division_values_vanish_at_the_points_whose_order_divides(n, t):
    """f_m(X) = 0 for a point of order d >= 3 exactly when d divides m, and
    f_2 = X^3 + A X + B vanishes at each point of order 2."""
    A, B, _, points = _lifted_points(n, t)
    assert any(order == 2 for _, order in points) == (n % 2 == 0)
    for X, order in points:
        if order == 2:
            assert _division_value(2, X, A, B, _M521)[0] == 0, X
            continue
        for m in torsion._LIFTED_ORDERS:
            assert (_division_value(m, X, A, B, _M521)[0] == 0) == (m % order == 0), (X, order, m)


@given(
    st.sampled_from(torsion._LIFTED_ORDERS),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6),
)
@settings(max_examples=60, deadline=None)
def test_division_value_slope_is_the_derivative(m, A, B, x):
    """f(x + h) = f(x) + h f'(x) mod h^2 for an integer polynomial f."""
    h = 1009**3
    value, slope = _division_value(m, x, A, B, h * h)
    shifted, _ = _division_value(m, x + h, A, B, h * h)
    assert (shifted - value - h * slope) % (h * h) == 0


def _scaled(curve, point):
    """(X, Y, A, B): point on the scaled model Y^2 = X^3 + A X + B of curve."""
    X = 36 * point.x + 3 * curve.b2
    Y = 108 * (2 * point.y + curve.a1 * point.x + curve.a3)
    return X, Y, -27 * curve.c4, -54 * curve.c6


@pytest.mark.parametrize("n, t", [(7, 2), (9, 2), (10, 2), (12, 2), (8, 3)])
def test_scaled_order_on_kubert_tate_normal_forms(n, t):
    E = _tate_normal_form(*_kubert(n, t))
    X, Y, A, B = _scaled(E, Point(0, 0))
    assert _scaled_order(int(X), int(Y), A, B) == n


def test_scaled_order_stops_at_the_first_non_integral_multiple():
    E = WeierstrassCurve(0, 0, 1, -1, 0)
    P = Point(0, 0)
    X, Y, A, B = _scaled(E, P)
    assert _scaled_order(int(X), int(Y), A, B) is None
    # 5P = (1/4, -5/8) is already non-integral on E, but on the scaled model
    # 8P is the first multiple that is not integral
    for k in range(1, 9):
        Xk, Yk, _, _ = _scaled(E, multiply(E, k, P))
        assert (Xk.denominator == Yk.denominator == 1) == (k < 8)
    with pytest.raises(ValueError):
        _scaled_order(1, 1, A, B)


def _coprime(bound_a, bound_b, ok):
    pairs = st.tuples(st.integers(*bound_a), st.integers(*bound_b))
    return pairs.filter(lambda p: math.gcd(*p) == 1 and ok(*p))


_ON_CURVE_CURVES = st.one_of(
    st.sampled_from([rec.curve for rec in ingest_fixtures(FIXTURES).records]),
    # (-1/4, 1/8) is 2-torsion on the first; the second has rank one
    st.sampled_from([WeierstrassCurve(1, 0, 0, 4, 1), WeierstrassCurve(0, 0, 1, -1, 0)]),
    _coprime((-30, 30), (-30, 30), lambda a, b: b != 0 and a * a != 4 * b).map(
        lambda p: two_torsion_curve(*p)
    ),
    _coprime((1, 30), (-30, 30), lambda s, t: t != 0 and 16 * s + t != 0).map(
        lambda p: four_torsion_curve(*p)
    ),
    st.sampled_from([ThreeTorsionNormalForm(a, 1).curve for a in (-5, -2, 1, 2, 4, 7)]),
)


def _fraction_equation(curve, point):
    a1, a2, a3, a4, a6 = (Fraction(a) for a in curve.ai())
    x, y = point.x, point.y
    return y * y + a1 * x * y + a3 * y == x**3 + a2 * x * x + a4 * x + a6


@given(
    _ON_CURVE_CURVES,
    st.data(),
    st.fractions(max_denominator=12),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_on_curve_matches_the_fraction_equation(curve, data, shift, shift_y):
    """Lutz-Nagell candidates (torsion or not) and small multiples, carried to
    the drawn model, are on it; shifting a coordinate by a fraction gives the
    nearby points, on the curve or off it as the Fraction equation says."""
    analysis = CurveAnalysis.of(curve)
    m = analysis.minimal
    candidates = [pt for _, _, pt in _lutz_nagell_candidates(m, analysis.disc_min)]
    base = data.draw(st.sampled_from(candidates))
    k = data.draw(st.integers(1, 3))
    q = multiply(m, k, base)
    assume(not q.infinity)
    if curve != m:
        q = Point(*minimal_transformation(curve)[1].unmap_point(q.x, q.y))
    assert on_curve(curve, q) and _fraction_equation(curve, q)
    near = Point(q.x, q.y + shift) if shift_y else Point(q.x + shift, q.y)
    assert on_curve(curve, near) == _fraction_equation(curve, near)


def _carry(tr, point):
    """point on the source curve of tr, carried to the transformed curve."""
    if point.infinity:
        return point
    return Point(*tr.inverse().unmap_point(point.x, point.y))


@given(
    _ON_CURVE_CURVES,
    st.data(),
    st.sampled_from([1, 2, 3]),
    st.tuples(*[st.integers(-8, 8)] * 3),
)
@settings(max_examples=60, deadline=None)
def test_integer_order_matches_point_order_on_integral_models(curve, data, u, rst):
    """Torsion points, Lutz-Nagell candidates of infinite order and their
    multiples, carried to an integral model scaled by u: the integer order
    equals the Fraction one."""
    analysis = CurveAnalysis.of(curve)
    m = analysis.minimal
    points = sorted(torsion_subgroup(m).points, key=str)
    points += [pt for _, _, pt in _lutz_nagell_candidates(m, analysis.disc_min)]
    point = multiply(m, data.draw(st.integers(1, 3)), data.draw(st.sampled_from(points)))
    tr = Transformation(Fraction(1, u), *rst)
    model = apply_transformation(m, tr)
    q = _carry(tr, point)
    assert on_curve(model, q)
    assert point_order(model, q) == _reference_point_order(model, q)


# (1/36, 649/216) is on y^2 = x^3 + 325x, as 325 * 1296 + 1 = 649^2: carried
# by u = 1, 2, 3, 6 its x has denominator 36, 9, 4 and 1
E325 = WeierstrassCurve(0, 0, 0, 325, 0)
P325 = Point(Fraction(1, 36), Fraction(649, 216))
# 8P = (21/25, -69/125) for P = (0, 0) here, a denominator prime to 36
E37 = WeierstrassCurve(0, 0, 1, -1, 0)


def _assert_integer_image_matches(model, point):
    """_multiples hands _scaled_multiples the Fraction image when it is
    integral, and stops at None when it is not; the order is the Fraction one."""
    if not point.infinity:
        X, Y, A, B = _scaled(model, point)
        with mock.patch.object(torsion, "_scaled_multiples", lambda *image: image):
            image = torsion._multiples(model, point)
        assert image == ((X, Y, A, B) if X.denominator == Y.denominator == 1 else None)
    assert point_order(model, point) == _reference_point_order(model, point)


@given(
    st.one_of(_ON_CURVE_CURVES, st.sampled_from([E325, E37])),
    st.data(),
    st.sampled_from([1, 2, 3, 6]),
    st.tuples(*[st.integers(-9, 9)] * 3),
)
@settings(max_examples=100, deadline=None)
def test_integer_image_matches_the_fraction_image(curve, data, u, rst):
    """Torsion points, Lutz-Nagell candidates of infinite order, P325 and
    small multiples, carried by u and (r, s, t): the image from numerators and
    denominators is the Fraction one, and so is the order."""
    analysis = CurveAnalysis.of(curve)
    m = analysis.minimal
    assert m == curve or curve not in (E325, E37)
    points = sorted(torsion_subgroup(m).points, key=str)
    points += [pt for _, _, pt in _lutz_nagell_candidates(m, analysis.disc_min)]
    if m == E325:
        points.append(P325)
    point = multiply(m, data.draw(st.integers(1, 3)), data.draw(st.sampled_from(points)))
    tr = Transformation(Fraction(1, u), *rst)
    model = apply_transformation(m, tr)
    _assert_integer_image_matches(model, _carry(tr, point))


def test_integer_image_reaches_denominators_in_and_out_of_36():
    """x denominators 1, 4, 9, 36 (the image is integral and the integer law
    proves infinite order) and 25 and others (the image is not integral)."""
    seen = set()
    pairs = [(E325, P325), (E325, multiply(E325, 2, P325)), (E37, multiply(E37, 8, Point(0, 0)))]
    for u, rst in itertools.product([1, 2, 3, 6], [(0, 0, 0), (-9, 4, 7), (5, -9, 9)]):
        tr = Transformation(Fraction(1, u), *rst)
        for curve, point in pairs:
            q = _carry(tr, point)
            model = apply_transformation(curve, tr)
            _assert_integer_image_matches(model, q)
            assert point_order(model, q) is None
            seen.add(q.x.denominator)
    assert {1, 4, 9, 25, 36} <= seen


def test_integer_order_of_non_torsion_points():
    E = WeierstrassCurve(0, 0, 1, -1, 0)  # rank one, trivial torsion
    for k in range(1, 10):
        assert point_order(E, multiply(E, k, Point(0, 0))) is None
    assert point_order(E, Point.at_infinity()) == 1


@given(_ON_CURVE_CURVES, st.data())
@settings(max_examples=60, deadline=None)
def test_scaled_multiples_match_the_fraction_law(curve, data):
    """For torsion points and Lutz-Nagell candidates of the minimal model, the
    k-th integer multiple, mapped back, is k * P by the Fraction law for every
    k below the order, and the order is the Fraction one."""
    analysis = CurveAnalysis.of(curve)
    m = analysis.minimal
    points = sorted((q for q in torsion_subgroup(m).points if not q.infinity), key=str)
    points += [pt for _, _, pt in _lutz_nagell_candidates(m, analysis.disc_min)]
    P = data.draw(st.sampled_from(points))
    X, Y, A, B = _scaled(m, P)
    multiples = _scaled_multiples(int(X), int(Y), A, B)
    n = _reference_point_order(m, P)
    assert (multiples is None) == (n is None)
    if multiples is not None:
        assert len(multiples) == n - 1
        for k, q in enumerate(multiples, 1):
            assert _unscaled(m, *q) == multiply(m, k, P)


def _fixture_and_two_six_curves():
    curves = [rec.curve for rec in ingest_fixtures(FIXTURES).records]
    return curves + [two_six_curve(t) for t in TWO_SIX_GRID]


def _record_lifts(monkeypatch):
    """A list that gets (X, m) for each X that torsion._lifted_x returns for f_m."""
    lift, lifted = torsion._lifted_x, []

    def recorded(x, m, A, B, q, modulus):
        X = lift(x, m, A, B, q, modulus)
        lifted.append((X, m))
        return X

    monkeypatch.setattr(torsion, "_lifted_x", recorded)
    return lifted


def _primary_factor_count(shape):
    """The number of cyclic factors in the primary decomposition of a Mazur
    shape "Z/N" or "Z/2xZ/2N": one for each prime of each cyclic factor."""
    return sum(len(_primes_of(int(n))) for n in shape.replace("Z/", "").split("x"))


def test_lifts_run_at_prime_power_orders_once_per_cyclic_factor(monkeypatch):
    """No lift evaluates f_m at m = 6, 10 or 12, and the lifts that yield a
    point, those whose X a found point has, are one per cyclic factor of the
    group's primary decomposition: the subgroup step builds the rest, and
    the skip rule lifts no point already found."""
    assert {s: _primary_factor_count(s) for s in ("Z/1", "Z/2xZ/6", "Z/12", "Z/8")} == {
        "Z/1": 0,
        "Z/2xZ/6": 3,
        "Z/12": 2,
        "Z/8": 1,
    }
    lifted = _record_lifts(monkeypatch)
    shapes = collections.Counter()
    for curve in _fixture_and_two_six_curves() + [E for _, E in _kubert_curves()]:
        lifted.clear()
        found = _torsion_points(CurveAnalysis.of(curve).minimal)
        assert not {m for _, m in lifted} & {6, 10, 12}, (curve.ai(), lifted)
        shape = torsion._MAZUR[len(found) + 1, sum(1 for _, Y in found if Y == 0)]
        xs = {X for X, _ in found}
        kept = sum(1 for X, _ in lifted if X in xs)
        assert kept == _primary_factor_count(shape), (curve.ai(), shape, lifted)
        shapes[shape] += 1
    assert shapes["Z/2xZ/6"] and shapes["Z/12"] and shapes["Z/8"]


def _family_grid_curves():
    """The family curves of small parameters: normalized three-torsion
    (|a|, b <= 12), two-torsion (|a|, |b| <= 10) and four-torsion
    (s, |t| <= 10), each model as the family builds it."""
    curves = []
    for a, b in itertools.product(range(-12, 13), range(1, 13)):
        try:
            curves.append(ThreeTorsionNormalForm(a, b).curve)
        except ValueError:
            continue
    for a, b in itertools.product(range(-10, 11), range(-10, 11)):
        if b and math.gcd(a, b) == 1 and a * a != 4 * b:
            curves.append(two_torsion_curve(a, b))
    for s, t in itertools.product(range(1, 11), range(-10, 11)):
        if t and 16 * s + t and math.gcd(s, t) == 1:
            curves.append(four_torsion_curve(s, t))
    return curves


def test_no_lift_runs_once_the_group_fills_the_sieve_bound(monkeypatch):
    """The points found form a subgroup of the torsion group T, and |T|
    divides the sieve's bound, so once they and O number the bound they are
    T: no seed is lifted after that, on the fixtures and the family grids."""
    lift, extend, events = torsion._lifted_x, torsion._extend, []

    def lifted(*args):
        events.append("lift")
        return lift(*args)

    def extended(found, *args):
        extend(found, *args)
        events.append(len(found) + 1)

    monkeypatch.setattr(torsion, "_lifted_x", lifted)
    monkeypatch.setattr(torsion, "_extend", extended)
    filled = 0
    for curve in _fixture_and_two_six_curves() + _family_grid_curves():
        events.clear()
        found = _torsion_points(curve)
        bound = _torsion_sieve(curve)[0]
        order = 1
        for event in events:
            if event == "lift":
                assert order < bound, (curve.ai(), events)
            else:
                order = event
        assert order == len(found) + 1
        filled += order == bound > 1
    assert filled > 100


def test_point_of_order_refuses_an_order_that_does_not_divide():
    curve = WeierstrassCurve(1, 0, 1, -19, 26)
    point = Point(1, 2)
    assert point_order(curve, point) == 6
    assert torsion._point_of_order(curve, point, 3) == Point(4, 2)
    with pytest.raises(ValueError, match="has no multiple of order 5"):
        torsion._point_of_order(curve, point, 5)


@pytest.mark.parametrize(
    "A, B, point, match",
    [
        # (2, 0) + (-2, 2) has slope -1/2 on Y^2 = X^3 - 5X + 2
        (-5, 2, (-2, 2), "non-integral slope"),
        # (-2, 0) + (1, 3) = (2, -4) on Y^2 = X^3 + 8, of infinite order
        (0, 8, (1, 3), "infinite order"),
    ],
)
def test_subgroup_step_refuses_a_sum_that_is_not_torsion(A, B, point, match):
    """A found set holding a point of infinite order is an arithmetic bug:
    the subgroup step raises rather than drop the sum."""
    X = next(X for X in range(-5, 6) if (X * X + A) * X + B == 0)
    assert _scaled_multiples(*point, A, B) is None
    with pytest.raises(RuntimeError, match=match):
        torsion._extend({point: None}, _scaled_multiples(X, 0, A, B), A, B)


def test_a_root_of_the_cubic_mod_q_without_a_rational_point_is_rejected(monkeypatch):
    """On the first two-torsion curve, in a search, whose X^3 + A X + B has
    three roots mod the lift's prime q but one integer root, each root mod q
    is lifted and only the integer one is kept as a point."""

    def searched():
        for a, b in itertools.product(range(-30, 31), range(1, 31)):
            if math.gcd(a, b) != 1 or a * a == 4 * b:
                continue
            m = CurveAnalysis.of(two_torsion_curve(a, b)).minimal
            A, B = -27 * m.c4, -54 * m.c6
            bound, reduced = _torsion_sieve(m)
            q = next(p for _, _, p in reduced if bound % p)
            roots_mod_q = sum((x**3 + A * x + B) % q == 0 for x in range(q))
            if roots_mod_q == 3 and len(_reference_cubic_roots(A, B)) == 1:
                return m, A, B
        raise AssertionError("no such curve in the search range")

    m, A, B = searched()
    lifted = _record_lifts(monkeypatch)
    found = _torsion_points(m)
    assert sum(1 for _, k in lifted if k == 2) == 3
    assert [key for key in found if key[1] == 0] == [(_reference_cubic_roots(A, B)[0], 0)]


def test_torsion_never_factors(monkeypatch):
    """Torsion is found on the model it is given, so with factor refusing, the
    fixtures, models they are carried to and the two-six grid give the same
    structures and point sets."""
    fixtures = [rec.curve for rec in ingest_fixtures(FIXTURES).records]
    transformations = [
        Transformation(Fraction(1, 2), 3, -1, 2),
        Transformation(Fraction(-1, 3), -2, 1, 4),
        Transformation(1, 5, 2, -7),
    ]
    models = _fixture_and_two_six_curves()
    models += [apply_transformation(c, tr) for c, tr in itertools.product(fixtures, transformations)]

    def run():
        return [(tors.to_json(), tors.points) for tors in map(torsion_subgroup, models)]

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("factor was called")

    monkeypatch.setattr(arith, "factor", refuse)
    monkeypatch.setattr(curves, "factor", refuse)
    assert run() == expected


def test_scaled_coordinate_order_is_rational_coordinate_order():
    """Generators are the first points of their order in (X, Y) order; that is
    the (x, y) order of the points on the minimal model."""
    for curve in _fixture_and_two_six_curves():
        analysis = CurveAnalysis.of(curve)
        m = analysis.minimal
        keys = set(_torsion_points(m))
        keys |= {(X, Y) for X, Y, _ in _lutz_nagell_candidates(m, analysis.disc_min)}
        pts = [_unscaled(m, *q) for q in sorted(keys)]
        assert pts == sorted(pts, key=lambda q: (q.x, q.y)), m.ai()


@pytest.mark.parametrize(
    "E",
    [
        WeierstrassCurve(1, 1, 1, -5, 2),
        WeierstrassCurve(1, 0, 1, -19, 26),
        WeierstrassCurve(1, -1, 1, -3002, 63929),
        _tate_normal_form(*_kubert(8, 3)),
    ],
    ids=["15a3", "30a2", "90c6", "kubert-8-3"],
)
def test_second_generator_is_not_in_the_first_ones_group(E):
    """On Z/2 x Z/4, Z/2 x Z/6 and Z/2 x Z/8, g2 is not N * g1, and the
    generators give every torsion point, all by the Fraction law."""
    tors = torsion_subgroup(E)
    assert tors.shape.startswith("Z/2xZ/")
    g1, g2 = tors.generators
    n1 = _reference_point_order(E, g1)
    assert (n1, _reference_point_order(E, g2)) == (tors.order // 2, 2)
    assert multiply(E, n1 // 2, g1) != g2
    span = {group_law_add(E, multiply(E, i, g1), multiply(E, j, g2)) for i in range(n1) for j in range(2)}
    assert span == tors.points


def test_no_fraction_group_law_in_checks(monkeypatch):
    """Orders, generators and multiples all come from the integer law: with
    group_law_add raising, every check gives the same report."""
    fixtures = ingest_fixtures(FIXTURES)
    curves = _fixture_and_two_six_curves()
    expected = [check_divisibility(c, fixtures=fixtures).to_json() for c in curves]

    def refuse(*args):
        raise AssertionError("the Fraction group law was called")

    monkeypatch.setattr(torsion, "group_law_add", refuse)
    assert [check_divisibility(c, fixtures=fixtures).to_json() for c in curves] == expected


def test_checks_build_only_the_points_they_output(monkeypatch):
    """A check builds each generator and each point of order 3 it classifies
    by, and no other torsion point: report.torsion.points is never read."""
    fixtures = ingest_fixtures(FIXTURES)
    unscaled, point_of_order = torsion._unscaled, verify._point_of_order
    calls = {"unscaled": 0, "point_of_order": 0}

    def counted_unscaled(curve, X, Y):
        calls["unscaled"] += 1
        return unscaled(curve, X, Y)

    def counted_point_of_order(curve, point, d):
        calls["point_of_order"] += 1
        return point_of_order(curve, point, d)

    monkeypatch.setattr(torsion, "_unscaled", counted_unscaled)
    monkeypatch.setattr(verify, "_point_of_order", counted_point_of_order)
    classified = 0
    for curve in _fixture_and_two_six_curves():
        calls.update(unscaled=0, point_of_order=0)
        report = check_divisibility(curve, fixtures=fixtures)
        assert "points" not in report.torsion.__dict__, curve.ai()
        assert calls["unscaled"] == len(report.torsion.generators) + calls["point_of_order"], curve.ai()
        classified += calls["point_of_order"]
    assert classified > 0


def test_torsion_structures_pickle_and_compare_whether_or_not_points_were_read():
    """Equality and hash read shape, order and generators alone; a structure
    pickled before or after its points are read gives the same points."""
    tr = Transformation(Fraction(1, 2), 3, -1, 2)
    curves = _fixture_and_two_six_curves()
    for curve in curves + [apply_transformation(c, tr) for c in curves]:
        tors, unread = torsion_subgroup(curve), torsion_subgroup(curve)
        pickled_unread = pickle.loads(pickle.dumps(tors))
        assert "points" not in pickled_unread.__dict__
        points = tors.points
        assert "points" in tors.__dict__ and "points" not in unread.__dict__
        assert tors == unread and hash(tors) == hash(unread)
        assert pickled_unread == tors and hash(pickled_unread) == hash(tors)
        pickled_read = pickle.loads(pickle.dumps(tors))
        assert "points" in pickled_read.__dict__
        assert pickled_read.points == points == pickled_unread.points == unread.points
        assert len(points) == tors.order and set(tors.generators) <= points


def test_points_are_checked_on_the_curve_when_read(monkeypatch):
    E2 = apply_transformation(E4, Transformation(Fraction(1, 2), 3, -1, 2))
    tors = torsion_subgroup(E2)
    off = Point(0, 1)
    assert not on_curve(E2, off)
    monkeypatch.setattr(torsion, "_unscaled", lambda curve, X, Y: off)
    with pytest.raises(ValueError, match="is not on"):
        tors.points


def test_point_keeps_a_given_fraction():
    x, y = Fraction(-1, 4), Fraction(1, 8)
    point = Point(x, y)
    assert point.x is x and point.y is y
    assert Point(0, 1).x == Fraction(0) and type(Point(0, 1).y) is Fraction
    assert Point(x, y) == Point(Fraction(-2, 8), Fraction(2, 16)) and str(point) == "(-1/4, 1/8)"


def test_transport_check_catches_a_wrong_map(monkeypatch):
    E2 = apply_transformation(E4, Transformation(Fraction(1, 2), 3, -1, 2))
    analysis = CurveAnalysis.of(E2)
    assert analysis.minimal != E2
    two = next(q for q in torsion_subgroup(E2).points if point_order(E2, q) == 2)
    # every point is built as one point of order 2: on E2, but the order-4
    # generator's order changes
    monkeypatch.setattr(torsion, "_unscaled", lambda curve, X, Y: two)
    with pytest.raises(RuntimeError, match="generator order changed under coordinate transport"):
        torsion_subgroup(E2)


def test_points_built_on_the_model_match_carrying_minimal_points_back():
    """The torsion of every fixture curve, on models it was carried to, equals
    the minimal model's torsion carried back by Transformation.unmap_point."""
    records = ingest_fixtures(FIXTURES).records
    assert len(records) == 24
    transformations = [
        Transformation(Fraction(1, 2), 3, -1, 2),
        Transformation(Fraction(-1, 3), -2, 1, 4),
        Transformation(1, 5, 2, -7),
    ]
    for rec, tr in itertools.product(records, transformations):
        model = apply_transformation(rec.curve, tr)
        analysis = CurveAnalysis.of(model)
        back = minimal_transformation(model)[1]
        assert back != Transformation.identity()
        minimal = torsion_subgroup(analysis.minimal)
        carried = {p: p if p.infinity else Point(*back.unmap_point(p.x, p.y)) for p in minimal.points}
        tors = torsion_subgroup(model)
        assert tors.points == frozenset(carried.values())
        assert tors.generators == tuple(carried[g] for g in minimal.generators)
        assert (tors.shape, tors.order) == (minimal.shape, minimal.order)


def _reference_cubic_roots(P, Q):
    """Integer roots of X^3 + P X + Q within the old bound |X| <= 2 + max(|P|, |Q|).

    f is monotone between the integers next to its critical points
    +-sqrt(-P/3); a run whose ends are on one side of 0 has no root, and on
    each other run a binary search finds the first x with f(x) on the far
    side of 0, and the roots are the zeros from there on.
    """

    def f(x):
        return (x * x + P) * x + Q

    bound = 2 + max(abs(P), abs(Q))
    cuts = {-bound, bound}
    if P < 0:
        r = math.isqrt(-P // 3)
        cuts.update(c for c in (-r - 1, -r, r, r + 1) if -bound < c < bound)
    cuts = sorted(cuts)
    roots = set()
    for lo, hi in zip(cuts, cuts[1:]):
        sign = 1 if f(hi) >= f(lo) else -1
        if sign * f(lo) > 0 or sign * f(hi) < 0:
            continue
        a, b = lo, hi
        while a < b:
            mid = (a + b) // 2
            if sign * f(mid) >= 0:
                b = mid
            else:
                a = mid + 1
        while a <= hi and f(a) == 0:
            roots.add(a)
            a += 1
    return sorted(roots)


def _bit_edges(kmax):
    edges = [0]
    for k in range(kmax + 1):
        edges += [2**k, 2**k - 1, -(2**k), -(2**k - 1)]
    return sorted(set(edges))


def _roots_within_root_bound(P, Q):
    """_reference_cubic_roots(P, Q), after checking each is a root below
    _root_bound(P, Q), the bound that sets the lift's precision."""
    roots = _reference_cubic_roots(P, Q)
    for X in roots:
        assert X**3 + P * X + Q == 0 and abs(X) < _root_bound(P, Q), (P, Q, X)
    return roots


def test_cubic_roots_at_bit_length_edges():
    edges = _bit_edges(20)
    for P in edges:
        for Q in edges:
            _roots_within_root_bound(P, Q)
    for v in _bit_edges(90):
        for P, Q in ((v, 0), (0, v), (-abs(v), 0), (v, v)):
            _roots_within_root_bound(P, Q)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 1000, 2**20 + 1, 3**40, 10**30, 2**100 - 1])
def test_cubic_roots_of_chosen_cubics(k):
    cases = {
        (-3 * k * k, 2 * k**3): [-2 * k, k],  # roots k, k, -2k
        (-3 * k * k, -2 * k**3): [-k, 2 * k],  # roots -k, -k, 2k
        (-k * k, 0): [-k, 0, k],  # roots k, -k, 0
    }
    for (P, Q), roots in cases.items():
        assert _roots_within_root_bound(P, Q) == roots


@pytest.mark.parametrize("j", [8, 20, 41, 64])
@pytest.mark.parametrize("tenths", [11, 12, 13])
def test_cubic_roots_with_one_real_root_beyond_both_radicals(j, tenths):
    """A root r = 1.1 to 1.3 times 2^j with P = -(4^j - 1): r is larger than
    both 2^ceil(bits(P)/2) and 2^ceil(bits(Q)/3), so the bound needs its factor 2."""
    r, P = tenths * 2**j // 10, -(4**j - 1)
    Q = -(r**3 + P * r)
    assert r > 2 + max(1 << -(-P.bit_length() // 2), 1 << -(-Q.bit_length() // 3))
    assert _roots_within_root_bound(P, Q) == [r]


@given(st.integers(-(2**80), 2**80), st.integers(-(2**80), 2**80))
@settings(max_examples=200, deadline=None)
def test_cubic_roots_match_reference_on_draws(P, Q):
    _roots_within_root_bound(P, Q)


@given(st.integers(-(2**40), 2**40), st.integers(-(2**80), 2**80))
@settings(max_examples=200, deadline=None)
def test_cubic_roots_match_reference_with_a_root(r, P):
    Q = -(r**3 + P * r)
    assert r in _roots_within_root_bound(P, Q)


def test_cubic_roots_match_a_scan_of_every_integer():
    """Every |P|, |Q| <= 100 against a plain scan of every X with |X| <= 101,
    Cauchy's bound 1 + max(|P|, |Q|) on the roots: an oracle that shares
    neither the reference's cut at the critical points nor its root bound."""
    for P in range(-100, 101):
        expected = {Q: [] for Q in range(-100, 101)}
        for X in range(-101, 102):
            Q = -(X**3 + P * X)
            if Q in expected:
                expected[Q].append(X)
        for Q, roots in expected.items():
            assert _reference_cubic_roots(P, Q) == roots, (P, Q)
