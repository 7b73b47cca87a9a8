"""Rational torsion subgroups with certified structure.

Candidate points come from Lutz-Nagell on the scaled short model
Y^2 = X^3 - 27c4 X - 54c6, where every rational torsion point is integral and
Y = 0 or Y^2 | 6^12 disc.  A few good primes p >= 5 are reduced once: the
point counts #E(F_p) bound the torsion order by their gcd B, and since
reduction mod p is injective on torsion, the Y residue of every rational
torsion point lies among those of E'(F_p)[B].  A point count and a residue
set depend only on (-27c4 mod p, -54c6 mod p, p) and B, so each is computed
once per process.  Square divisors missing from any residue set are dropped,
one filter pass per prime, before the cubic-root search.  Each surviving
point's order is certified once, in integers on the scaled model: its
multiples come from the chord-tangent law with exact integer slopes (at
most 12 additions, each addend checked on the curve), and a slope that does
not divide out proves infinite order, since every multiple of a torsion
point is torsion and so integral.  The shape and the generators read those
orders, and the transport check re-certifies each generator the same way on
the scaled model of the model that was asked about; points are carried back
only when that model is not the minimal one.  on_curve compares integers,
with denominators cleared.  No floating point: integer roots of the
depressed cubic are found by exact monotone search within a bound of about
twice max(sqrt|P|, cbrt|Q|).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .arith import Factorization, is_prime
from .curves import CurveAnalysis, Transformation, WeierstrassCurve

_MAZUR_CYCLIC = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}
_MAZUR_PRODUCT = {4: 1, 8: 2, 12: 3, 16: 4}  # order -> N for Z/2 x Z/2N
_SIX_TO_12 = Factorization(1, ((2, 12), (3, 12)))
# good primes reduced per curve: each adds a point count to the bound and a
# residue set to the sieve; six leave few false candidates on every family
_SIEVE_PRIMES = 6


@dataclass(frozen=True)
class Point:
    """Affine rational point or the point at infinity."""

    x: Optional[Fraction] = None
    y: Optional[Fraction] = None
    infinity: bool = False

    def __post_init__(self):
        if self.infinity:
            if self.x is not None or self.y is not None:
                raise ValueError("the point at infinity has no coordinates")
        else:
            object.__setattr__(self, "x", Fraction(self.x))
            object.__setattr__(self, "y", Fraction(self.y))

    @staticmethod
    def at_infinity() -> "Point":
        return Point(infinity=True)

    def __str__(self) -> str:
        return "O" if self.infinity else f"({self.x}, {self.y})"


@dataclass(frozen=True)
class TorsionStructure:
    """One of the fifteen possible group shapes, with certified generators."""

    shape: str  # "Z/N" or "Z/2xZ/2N"
    order: int
    generators: tuple[Point, ...]
    points: frozenset[Point]

    def to_json(self) -> dict:
        return {
            "shape": self.shape,
            "order": self.order,
            "generators": [[str(g.x), str(g.y)] for g in self.generators],
        }


def on_curve(curve: WeierstrassCurve, point: Point) -> bool:
    if point.infinity:
        return True
    # the Weierstrass equation times xd^3 yd^2, for x = xn/xd and y = yn/yd
    xn, xd = point.x.numerator, point.x.denominator
    yn, yd = point.y.numerator, point.y.denominator
    lhs = yn * xd * xd * (yn * xd + (curve.a1 * xn + curve.a3 * xd) * yd)
    rhs = yd * yd * (((xn + curve.a2 * xd) * xn + curve.a4 * xd * xd) * xn + curve.a6 * xd**3)
    return lhs == rhs


def _require_on_curve(curve: WeierstrassCurve, point: Point):
    if not on_curve(curve, point):
        raise ValueError(f"point {point} is not on {curve}")


def negate(curve: WeierstrassCurve, point: Point) -> Point:
    if point.infinity:
        return point
    return Point(point.x, -point.y - curve.a1 * point.x - curve.a3)


def group_law_add(curve: WeierstrassCurve, p1: Point, p2: Point) -> Point:
    """Chord-tangent sum with exact rational coordinates."""
    _require_on_curve(curve, p1)
    _require_on_curve(curve, p2)
    if p1.infinity:
        return p2
    if p2.infinity:
        return p1
    a1, a2, a3, a4, a6 = curve.ai()
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return Point.at_infinity()
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
        nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return Point(x3, y3)


def multiply(curve: WeierstrassCurve, n: int, point: Point) -> Point:
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


def point_order(curve: WeierstrassCurve, point: Point) -> Union[int, float]:
    """Exact order (at most 12 over Q) or math.inf for non-torsion points."""
    _require_on_curve(curve, point)
    if point.infinity:
        return 1
    current = point
    for k in range(1, 13):
        # current == k * point at this check
        if current.infinity:
            return k
        current = group_law_add(curve, current, point)
    return math.inf


def _scaled_order(X: int, Y: int, A: int, B: int) -> Union[int, float]:
    """Order of (X, Y) on Y^2 = X^3 + A X + B, or math.inf, all in integers.

    Every multiple of a torsion point on this integral model is torsion and
    so integral (Lutz-Nagell), and an integral sum of integral points has an
    integral slope: a slope that leaves a remainder proves infinite order.
    So does an affine 12P, as no rational point has finite order above 12.
    """
    x, y = X, Y
    for k in range(2, 13):
        # (x, y) == (k - 1) * (X, Y), the addend of this step
        if y * y != (x * x + A) * x + B:
            raise ValueError(f"({x}, {y}) is not on Y^2 = X^3 + {A} X + {B}")
        if x == X:
            if y == -Y:
                return k
            num, den = 3 * x * x + A, 2 * y
        else:
            num, den = y - Y, x - X
        lam, rem = divmod(num, den)
        if rem:
            return math.inf
        x3 = lam * lam - x - X
        x, y = x3, lam * (x - x3) - y
    return math.inf


def _integer_order(curve: WeierstrassCurve, point: Point) -> Union[int, float]:
    """point_order of a point on curve, certified in integers on curve's scaled model.

    The image (36x + 3b2, 108(2y + a1 x + a3)) lies on Y^2 = X^3 - 27c4 X - 54c6,
    an integral model, where every torsion point is integral: a non-integral
    image has infinite order.
    """
    if point.infinity:
        return 1
    X = 36 * point.x + 3 * curve.b2
    Y = 108 * (2 * point.y + curve.a1 * point.x + curve.a3)
    if X.denominator != 1 or Y.denominator != 1:
        return math.inf
    return _scaled_order(X.numerator, Y.numerator, -27 * curve.c4, -54 * curve.c6)


def _scaled_points_mod_p(a: int, b: int, p: int) -> list[tuple[int, int]]:
    """Affine points of Y^2 = X^3 + aX + b over F_p, for p > 3."""
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    return [(x, y) for x in range(p) for y in roots.get((x * x * x + a * x + b) % p, ())]


@functools.cache
def _point_count(a: int, b: int, p: int) -> int:
    """#E'(F_p) for E': Y^2 = X^3 + aX + b; keys are residues mod a small prime."""
    return 1 + len(_scaled_points_mod_p(a, b, p))


def _add_mod_p(p1, p2, a: int, p: int):
    """Sum on Y^2 = X^3 + aX + b over F_p; None is the point at infinity."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _killed_by(n: int, point: tuple[int, int], a: int, p: int) -> bool:
    """Whether n * point is the point at infinity, by double-and-add over F_p."""
    result, addend = None, point
    while n:
        if n & 1:
            result = _add_mod_p(result, addend, a, p)
        addend = _add_mod_p(addend, addend, a, p)
        n >>= 1
    return result is None


@functools.cache
def _residue_set(a: int, b: int, p: int, bound: int) -> frozenset[int]:
    """The Y residues of the affine points of E'(F_p)[bound], E' as in _point_count."""
    return frozenset(y for x, y in _scaled_points_mod_p(a, b, p) if _killed_by(bound, (x, y), a, p))


def _torsion_sieve(curve: WeierstrassCurve) -> tuple[int, list[tuple[int, frozenset[int]]]]:
    """The torsion bound B and, per sieve prime p, the Y residues of E'(F_p)[B].

    B is the gcd of #E(F_p) over the first _SIEVE_PRIMES primes p >= 5 of
    good reduction, a multiple of the torsion order.  Reduction mod such p
    maps rational torsion injectively and homomorphically into E'(F_p)[B],
    so the Y of every affine rational torsion point reduces into each set.
    """
    disc = curve.disc
    reduced = []
    p = 5
    while len(reduced) < _SIEVE_PRIMES:
        if disc % p and is_prime(p):
            reduced.append((-27 * curve.c4 % p, -54 * curve.c6 % p, p))
        p += 2
    bound = 0
    for key in reduced:
        bound = math.gcd(bound, _point_count(*key))
    return bound, [(p, _residue_set(a, b, p, bound)) for a, b, p in reduced]


def _depressed_cubic_integer_roots(P: int, Q: int) -> list[int]:
    """All integer roots of f(X) = X^3 + P X + Q, by exact monotone search.

    The integer sequence f(n) is nondecreasing except where the difference
    d(n) = f(n+1) - f(n) = 3n^2 + 3n + 1 + P is negative, which happens on a
    single integer interval; splitting there gives monotone segments that a
    plain bisection handles exactly.  No floating point.

    Every root lies within 2 + 2 max(2^ceil(bits(P)/2), 2^ceil(bits(Q)/3)),
    which exceeds 2 max(sqrt|P|, cbrt|Q|) since |P| < 2^bits(P): for
    |X| > 2 max(sqrt|P|, cbrt|Q|), X^2 > 4|P| and |X|^3 > 8|Q|, so
    |X|^3 > 2|P X| + 4|Q| >= |P X + Q| (strictly, as X != 0), and f(X) != 0.
    """

    def f(x: int) -> int:
        return x**3 + P * x + Q

    def d(n: int) -> int:
        return 3 * n * n + 3 * n + 1 + P

    bound = 2 + 2 * max(1 << -(-P.bit_length() // 2), 1 << -(-Q.bit_length() // 3))
    segments: list[tuple[int, int, bool]] = []
    disc = -12 * P - 3
    if P >= 0 or disc <= 0:
        segments.append((-bound, bound, True))
    else:
        sq = math.isqrt(disc)
        k = (-3 - sq) // 6
        while d(k) < 0:
            k -= 1
        window = (-3 + sq) // 6 + 3
        while d(k) >= 0 and k <= window:
            k += 1
        if d(k) >= 0:
            segments.append((-bound, bound, True))
        else:
            nlo = k
            k = (-3 + sq) // 6 + 1
            while d(k) < 0:
                k += 1
            while d(k) >= 0 and k >= nlo:
                k -= 1
            nhi = k
            segments.append((-bound, nlo, True))
            segments.append((nlo, nhi + 1, False))
            segments.append((nhi + 1, bound, True))

    roots: set[int] = set()

    def note(x: int):
        if f(x) == 0:
            roots.add(x)
            step = 1
            while f(x + step) == 0:
                roots.add(x + step)
                step += 1
            step = -1
            while f(x + step) == 0:
                roots.add(x + step)
                step -= 1

    for lo, hi, inc in segments:
        lo, hi = max(lo, -bound), min(hi, bound)
        if lo > hi:
            continue
        note(lo)
        note(hi)
        flo, fhi = f(lo), f(hi)
        small, large = (flo, fhi) if inc else (fhi, flo)
        if small > 0 or large < 0:
            continue
        a, b = lo, hi
        while b - a > 1:
            mid = (a + b) // 2
            v = f(mid)
            if v == 0:
                note(mid)
                break
            if (v < 0) == inc:
                a = mid
            else:
                b = mid
    return sorted(roots)


def _square_divisors(f) -> list[int]:
    """All y > 0 with y^2 dividing the factored integer."""
    ys = [1]
    for p, e in f.factors:
        ys = [y * p**k for y in ys for k in range(e // 2 + 1)]
    return ys


def _torsion_points(curve: WeierstrassCurve, disc: Factorization) -> dict[Point, int]:
    """Each rational torsion point of a minimal model, mapped to its order."""
    bound, residues = _torsion_sieve(curve)
    orders = {Point.at_infinity(): 1}
    if bound == 1:
        return orders
    A, B, b2 = -27 * curve.c4, -54 * curve.c6, curve.b2
    a1, a3 = curve.a1, curve.a3
    candidates = [0] + _square_divisors(_SIX_TO_12 * disc)
    # each residue set is closed under Y -> -Y, so one test serves both signs
    for p, ys in residues:
        candidates = [yy for yy in candidates if yy % p in ys]
    for yy in candidates:
        for Y in {yy, -yy}:
            for X in _depressed_cubic_integer_roots(A, B - Y * Y):
                x = Fraction(X - 3 * b2, 36)
                y = (Fraction(Y, 108) - a1 * x - a3) / 2
                pt = Point(x, y)
                if not on_curve(curve, pt):
                    continue
                n = _scaled_order(X, Y, A, B)
                if n != math.inf:
                    orders[pt] = n
    return orders


def torsion_subgroup(
    curve: WeierstrassCurve,
    budget: int = 2_000_000,
    analysis: Optional[CurveAnalysis] = None,
) -> TorsionStructure:
    """Certified torsion structure with generators on the given model.

    A supplied analysis must be of curve or have curve as its minimal model;
    without one the curve is analysed here within the factoring budget.
    """
    if analysis is None:
        analysis = CurveAnalysis.of(curve, budget=budget)
    m = analysis.minimal
    if curve == analysis.curve:
        tr = analysis.transformation
    elif curve == m:
        tr = Transformation.identity()
    else:
        raise ValueError(f"the analysis is of {analysis.curve}, not of {curve}")
    orders = _torsion_points(m, analysis.disc_min)
    order = len(orders)
    two_torsion = sum(1 for n in orders.values() if n == 2)
    if two_torsion == 3 and order in _MAZUR_PRODUCT:
        n2 = _MAZUR_PRODUCT[order]
        shape = f"Z/2xZ/{2 * n2}"
        max_order = 2 * n2
    elif two_torsion in (0, 1) and order in _MAZUR_CYCLIC:
        shape = f"Z/{order}"
        max_order = order
    else:
        raise RuntimeError(
            f"torsion order {order} with {two_torsion} involutions is outside "
            "the possible rational group shapes; arithmetic bug"
        )

    # deterministic generator choice: scan points in coordinate order
    ordered = sorted((q for q in orders if not q.infinity), key=lambda q: (q.x, q.y))
    generators_min: list[Point] = []
    if order > 1:
        g1 = next(q for q in ordered if orders[q] == max_order)
        generators_min.append(g1)
        if two_torsion == 3:
            half = multiply(m, max_order // 2, g1)
            g2 = next(q for q in ordered if orders[q] == 2 and q != half)
            generators_min.append(g2)

    # carry points back to the model that was asked about
    if tr.is_identity():
        generators, points = tuple(generators_min), frozenset(orders)
    else:

        def back(q: Point) -> Point:
            if q.infinity:
                return q
            x, y = tr.unmap_point(q.x, q.y)
            return Point(x, y)

        generators = tuple(back(g) for g in generators_min)
        points = frozenset(back(q) for q in orders)
    for g, gm in zip(generators, generators_min):
        _require_on_curve(curve, g)
        if _integer_order(curve, g) != orders[gm]:
            raise RuntimeError("generator order changed under coordinate transport")
    return TorsionStructure(shape, order, generators, points)
