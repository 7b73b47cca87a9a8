import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamagawa.arith import is_prime
from tamagawa.curves import (
    CurveAnalysis,
    Transformation,
    WeierstrassCurve,
    apply_transformation,
)
from tamagawa.families import (
    ThreeTorsionNormalForm,
    four_torsion_curve,
    two_six_curve,
    two_torsion_curve,
)
from tamagawa.torsion import (
    _SIX_TO_12,
    Point,
    _depressed_cubic_integer_roots,
    _integer_order,
    _point_count,
    _residue_set,
    _scaled_order,
    _square_divisors,
    _torsion_points,
    _torsion_sieve,
    group_law_add,
    multiply,
    negate,
    on_curve,
    point_order,
    torsion_subgroup,
)
from tamagawa.verify import ingest_fixtures

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures.json"

E4 = WeierstrassCurve(1, -3, -3, 0, 0)  # order-4 family at lambda = 3
E3 = WeierstrassCurve(2, 0, 1, 0, 0)  # unit-b three-torsion curve, a = 2


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
    assert point_order(E, Point(0, 0)) == math.inf


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
        for X in _depressed_cubic_integer_roots(-27 * c4, -54 * c6 - Y * Y):
            x = Fraction(X - 3 * b2, 36)
            pt = Point(x, (Fraction(Y, 108) - curve.a1 * x - curve.a3) / 2)
            if on_curve(curve, pt) and multiply(curve, bound, pt).infinity:
                points.add(pt)
    return frozenset(points)


def _assert_sieve_agrees_with_reference(curve):
    analysis = CurveAnalysis.of(curve)
    m, disc = analysis.minimal, analysis.disc_min
    expected = _reference_torsion_points(m, disc)
    assert frozenset(_torsion_points(m, disc)) == expected, curve.ai()
    _, residues = _torsion_sieve(m)
    for p, _ in residues:
        assert _count(m, p) == _reference_count_mod_p(m, p)
    for q in expected:
        if q.infinity:
            continue
        Y = 108 * (2 * q.y + m.a1 * q.x + m.a3)  # the scaled model's Y
        assert Y.denominator == 1
        for p, ys in residues:
            assert Y.numerator % p in ys, (curve.ai(), q, p)
    orders = set()
    for X, Y, pt in _lutz_nagell_candidates(m, disc):
        n = _scaled_order(X, Y, -27 * m.c4, -54 * m.c6)
        assert n == point_order(m, pt), (m.ai(), X, Y)
        orders.add(n)
    return orders


def _lutz_nagell_candidates(m, disc):
    """Every (X, Y) the unsieved search tries, with its point on the minimal model m."""
    y_candidates = {0}
    for yy in _square_divisors(_SIX_TO_12 * disc):
        y_candidates.update((yy, -yy))
    for Y in sorted(y_candidates):
        for X in _depressed_cubic_integer_roots(-27 * m.c4, -54 * m.c6 - Y * Y):
            x = Fraction(X - 3 * m.b2, 36)
            yield X, Y, Point(x, (Fraction(Y, 108) - m.a1 * x - m.a3) / 2)


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
    assert math.inf in orders  # candidates of infinite order are compared too


def test_torsion_sieve_same_on_cold_and_warm_cache():
    """The memoized point counts and residue sets are keyed by everything they
    depend on: each curve's sieve, computed alone on cleared caches, comes out
    the same when the curves share the caches in shuffled order."""
    curves = [rec.curve for rec in ingest_fixtures(FIXTURES).records]
    curves += [two_six_curve(t) for t in TWO_SIX_GRID]
    minimal = [CurveAnalysis.of(c).minimal for c in curves]
    cold = []
    for m in minimal:
        _point_count.cache_clear()
        _residue_set.cache_clear()
        cold.append(_torsion_sieve(m))
    _point_count.cache_clear()
    _residue_set.cache_clear()
    order = list(range(len(minimal)))
    random.Random(10).shuffle(order)
    for i in order:
        assert _torsion_sieve(minimal[i]) == cold[i], minimal[i].ai()
    assert _residue_set.cache_info().hits > 0


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
    assert _scaled_order(int(X), int(Y), A, B) == math.inf
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
        q = Point(*analysis.transformation.unmap_point(q.x, q.y))
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
    points = sorted(torsion_subgroup(m, analysis=analysis).points, key=str)
    points += [pt for _, _, pt in _lutz_nagell_candidates(m, analysis.disc_min)]
    point = multiply(m, data.draw(st.integers(1, 3)), data.draw(st.sampled_from(points)))
    tr = Transformation(Fraction(1, u), *rst)
    model = apply_transformation(m, tr)
    q = _carry(tr, point)
    assert on_curve(model, q)
    assert _integer_order(model, q) == point_order(model, q)


def test_integer_order_of_non_torsion_points():
    E = WeierstrassCurve(0, 0, 1, -1, 0)  # rank one, trivial torsion
    for k in range(1, 10):
        assert _integer_order(E, multiply(E, k, Point(0, 0))) == math.inf
    assert _integer_order(E, Point.at_infinity()) == 1


def test_transport_check_catches_a_wrong_map(monkeypatch):
    E2 = apply_transformation(E4, Transformation(Fraction(1, 2), 3, -1, 2))
    analysis = CurveAnalysis.of(E2)
    assert not analysis.transformation.is_identity()
    m = analysis.minimal
    two = next(q for q in torsion_subgroup(m).points if point_order(m, q) == 2)
    true_unmap = Transformation.unmap_point
    # every point goes to the image of one point of order 2: on E2, but the
    # order-4 generator's order changes
    monkeypatch.setattr(Transformation, "unmap_point", lambda tr, x, y: true_unmap(tr, two.x, two.y))
    with pytest.raises(RuntimeError, match="generator order changed under coordinate transport"):
        torsion_subgroup(E2, analysis=analysis)


def test_identity_transport_matches_carrying_points_back(monkeypatch):
    """On minimal models the points are their own images; carrying them through
    the identity transformation, as for any other model, gives the same structure."""
    analyses = [CurveAnalysis.of(CurveAnalysis.of(rec.curve).minimal) for rec in ingest_fixtures(FIXTURES).records]
    assert len(analyses) == 24
    assert all(a.transformation.is_identity() for a in analyses)
    direct = [torsion_subgroup(a.curve, analysis=a) for a in analyses]
    monkeypatch.setattr(Transformation, "is_identity", lambda tr: False)
    assert [torsion_subgroup(a.curve, analysis=a) for a in analyses] == direct


def _reference_cubic_roots(P, Q):
    """Integer roots of X^3 + P X + Q within the old bound |X| <= 2 + max(|P|, |Q|).

    f is monotone between the integers next to its critical points
    +-sqrt(-P/3); on each such run a binary search finds the first x with
    f(x) on the far side of 0, and the roots are the zeros from there on.
    """

    def f(x):
        return x**3 + P * x + Q

    bound = 2 + max(abs(P), abs(Q))
    cuts = {-bound, bound}
    if P < 0:
        r = math.isqrt(-P // 3)
        cuts.update(c for c in (-r - 1, -r, r, r + 1) if -bound < c < bound)
    cuts = sorted(cuts)
    roots = set()
    for lo, hi in zip(cuts, cuts[1:]):
        sign = 1 if f(hi) >= f(lo) else -1
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


def test_cubic_roots_at_bit_length_edges():
    edges = _bit_edges(20)
    for P in edges:
        for Q in edges:
            assert _depressed_cubic_integer_roots(P, Q) == _reference_cubic_roots(P, Q), (P, Q)
    for v in _bit_edges(90):
        for P, Q in ((v, 0), (0, v), (-abs(v), 0), (v, v)):
            assert _depressed_cubic_integer_roots(P, Q) == _reference_cubic_roots(P, Q), (P, Q)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 1000, 2**20 + 1, 3**40, 10**30, 2**100 - 1])
def test_cubic_roots_of_chosen_cubics(k):
    cases = {
        (-3 * k * k, 2 * k**3): [-2 * k, k],  # roots k, k, -2k
        (-3 * k * k, -2 * k**3): [-k, 2 * k],  # roots -k, -k, 2k
        (-k * k, 0): [-k, 0, k],  # roots k, -k, 0
    }
    for (P, Q), roots in cases.items():
        assert _depressed_cubic_integer_roots(P, Q) == roots
        assert _reference_cubic_roots(P, Q) == roots


@pytest.mark.parametrize("j", [8, 20, 41, 64])
@pytest.mark.parametrize("tenths", [11, 12, 13])
def test_cubic_roots_with_one_real_root_beyond_both_radicals(j, tenths):
    """A root r = 1.1 to 1.3 times 2^j with P = -(4^j - 1): r is larger than
    both 2^ceil(bits(P)/2) and 2^ceil(bits(Q)/3), so the bound needs its factor 2."""
    r, P = tenths * 2**j // 10, -(4**j - 1)
    Q = -(r**3 + P * r)
    assert r > 2 + max(1 << -(-P.bit_length() // 2), 1 << -(-Q.bit_length() // 3))
    assert _depressed_cubic_integer_roots(P, Q) == [r] == _reference_cubic_roots(P, Q)


@given(st.integers(-(2**80), 2**80), st.integers(-(2**80), 2**80))
@settings(max_examples=200, deadline=None)
def test_cubic_roots_match_reference_on_draws(P, Q):
    assert _depressed_cubic_integer_roots(P, Q) == _reference_cubic_roots(P, Q)


@given(st.integers(-(2**40), 2**40), st.integers(-(2**80), 2**80))
@settings(max_examples=200, deadline=None)
def test_cubic_roots_match_reference_with_a_root(r, P):
    Q = -(r**3 + P * r)
    roots = _depressed_cubic_integer_roots(P, Q)
    assert r in roots
    assert roots == _reference_cubic_roots(P, Q)
