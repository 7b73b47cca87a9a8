"""Rational torsion subgroups with certified structure.

Torsion is found on the scaled short model Y^2 = X^3 + A X + B, A = -27c4,
B = -54c6, where every rational torsion point is integral with Y = 0 or
Y^2 | 4A^3 + 27B^2 (Lutz-Nagell).  Four good primes q >= 5 are reduced once:
their point counts bound the torsion order by their gcd, the bound, and a
point count depends only on (A mod q, B mod q, q), so each is computed once
per process, as a sum over X of the number of square roots of X^3 + A X + B,
read from a table made once per q.  One sieve prime q prime to the bound is
taken; one always exists, by Hasse's bound.

Only points of prime-power order are lifted.  They generate the torsion
group T, which is the sum of its l-primary parts, as the l-primary part of a
torsion point P is a multiple of P, so rational, of prime-power order.
Reduction mod a good q >= 3 is injective on torsion, so a rational point P
of order m >= 2 reduces to a point of order m of E'(F_q)[bound], whose x is
a root of f_m: X^3 + A X + B for m = 2, else the m-th division polynomial
(divided by 2Y for even m).  That root is simple, as q divides neither m nor
the discriminant, so Newton's method lifts it to the one root mod q^N over
it, and X(P) is that root's residue of least absolute value once
q^N > 2 X_max, X_max an integer bound on |X| over the integer roots of
X^3 + A X + B - Y^2 for every Y^2 the bound allows.  A lifted X is kept only
when X^3 + A X + B is a square Y^2 and the order of (X, Y) is certified.
The points found always form a subgroup G (without O).  Seeds go in
non-increasing order of m, and one whose x is X mod q for a point of G is
skipped: by injectivity the rational point over it, if any, is +- that
point.  Each kept lift P extends G to the group G and P generate, every
g + kP, so T costs one lift per cyclic factor of its primary decomposition.
Lifting stops once G has the bound's order: |T| divides the bound and G is
a subgroup of T, so that G is T, and no seed left can add a point.

One integer group law serves orders, generators, multiples and that
subgroup step: the chord-tangent law on the scaled model with exact integer
slopes (_scaled_sum, one step; _scaled_multiples, at most 12 of them, each
addend checked on the curve).  A slope that does not divide out proves
infinite order, since every multiple of a torsion point is torsion and so
integral; in a sum of two torsion points it is an arithmetic bug.  Each
found point's multiples are computed once; its order is their count plus
one, and the point of order 2 under a generator of Z/2 x Z/2N is one of
them.  The group is found on the scaled model of the curve asked about, as
Lutz-Nagell holds on that of any integral model: no discriminant is
factored and no model minimized.  Generators are the first points of their
order in (X, Y) order, which is (x, y) order on the curve.  Only the
generators are built as rational points when the group is found;
point_order checks each on the curve and re-certifies its order there,
taking the scaled image from the point's numerators and denominators.
TorsionStructure.points is built the same way on first read, each point
checked on the curve there.  on_curve compares integers, with denominators
cleared.  No floating point.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

from .arith import as_fraction, is_prime
from .curves import WeierstrassCurve
from .record import Record

# (order, points of order 2) -> shape, for Mazur's fifteen groups; a cyclic
# group has one point of order 2 exactly when its order is even
_MAZUR = {
    **{(n, 1 - n % 2): f"Z/{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)},
    **{(4 * n, 3): f"Z/2xZ/{2 * n}" for n in (1, 2, 3, 4)},
}
MAZUR_SHAPES = frozenset(_MAZUR.values())
# the prime-power orders of rational points, whose x the lift looks for: the
# points of these orders generate every rational torsion group (see
# _torsion_points); the x of a point of order 2 is a root of X^3 + A X + B,
# simple mod every good q >= 5
_LIFTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)
# good primes reduced per curve, each adding a point count to the bound; at
# most one of them divides the bound, as holds for any count of at least 2
# (see _torsion_points).  Four measured fastest of 3 to 6 (ROADMAP item 8):
# a fifth or sixth point count costs more than the lifts its tighter bound
# saves, and a third alone leaves the bound loose enough to lift more.
_SIEVE_PRIMES = 4


class Point(Record):
    """Affine rational point or the point at infinity.

    Coordinates are made Fractions from ints, Fractions or strs such as
    "7/3"; a float raises TypeError.
    """

    _fields = ("x", "y", "infinity")

    def __init__(
        self, x: Optional[Fraction] = None, y: Optional[Fraction] = None, infinity: bool = False
    ):
        if infinity:
            if x is not None or y is not None:
                raise ValueError("the point at infinity has no coordinates")
        else:
            if type(x) is not Fraction:
                x = as_fraction(x)
            if type(y) is not Fraction:
                y = as_fraction(y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "infinity", infinity)

    @staticmethod
    def at_infinity() -> "Point":
        return Point(infinity=True)

    def __str__(self) -> str:
        return "O" if self.infinity else f"({self.x}, {self.y})"


class TorsionStructure(Record):
    """One of the fifteen possible group shapes, with certified generators.

    shape ("Z/N" or "Z/2xZ/2N"), order and generators determine the point
    set, so they alone are compared, hashed and shown.  The points are built
    on first read from plain data (so a structure pickles): the curve asked
    about and the affine points' (X, Y) on its scaled model.
    """

    _fields = ("shape", "order", "generators")

    def __init__(
        self,
        shape: str,
        order: int,
        generators: tuple[Point, ...],
        _curve: WeierstrassCurve,
        _keys: tuple[tuple[int, int], ...],
    ):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_curve", _curve)
        object.__setattr__(self, "_keys", _keys)

    @functools.cached_property
    def points(self) -> frozenset[Point]:
        """Every torsion point on the curve asked about, each checked on it."""
        curve = self._curve
        points = [Point.at_infinity()]
        for X, Y in self._keys:
            point = _unscaled(curve, X, Y)
            _require_on_curve(curve, point)
            points.append(point)
        return frozenset(points)

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


def _scaled_sum(x1: int, y1: int, x2: int, y2: int, A: int) -> Optional[tuple[int, int]]:
    """(x1, y1) + (x2, y2) on Y^2 = X^3 + A X + B, in integers, for affine
    points whose sum is affine; None when the chord or tangent slope is not
    an integer, which a sum of torsion points never has (see _scaled_multiples)."""
    if x1 == x2:
        num, den = 3 * x1 * x1 + A, 2 * y1
    else:
        num, den = y2 - y1, x2 - x1
    lam, rem = divmod(num, den)
    if rem:
        return None
    x3 = lam * lam - x1 - x2
    return x3, lam * (x1 - x3) - y1


def _scaled_multiples(X: int, Y: int, A: int, B: int) -> Optional[list[tuple[int, int]]]:
    """[P, 2P, ..., (n-1)P] for P = (X, Y) of order n on Y^2 = X^3 + A X + B,
    or None when P has infinite order, all in integers.

    Every multiple of a torsion point on this integral model is torsion and
    so integral (Lutz-Nagell), and an integral sum of integral points has an
    integral slope: a slope that leaves a remainder proves infinite order.
    So does an affine 12P, as no rational point has finite order above 12.
    """
    multiples = [(X, Y)]
    x, y = X, Y
    for _ in range(11):
        # (x, y) == multiples[-1], the addend of this step
        if y * y != (x * x + A) * x + B:
            raise ValueError(f"({x}, {y}) is not on Y^2 = X^3 + {A} X + {B}")
        if x == X and y == -Y:
            return multiples
        point = _scaled_sum(x, y, X, Y, A)
        if point is None:
            return None
        x, y = point
        multiples.append(point)
    return None


def _unscaled(curve: WeierstrassCurve, X: int, Y: int) -> Point:
    """The point of curve whose image on the scaled model is (X, Y):
    x = (X - 3b2)/36 and y = (Y/108 - a1 x - a3)/2 = (Y - 3a1 (X - 3b2) - 108a3)/216."""
    X0 = X - 3 * curve.b2
    return Point(Fraction(X0, 36), Fraction(Y - 3 * curve.a1 * X0 - 108 * curve.a3, 216))


def _multiples(curve: WeierstrassCurve, point: Point) -> Optional[list[tuple[int, int]]]:
    """_scaled_multiples of an affine point's image (36x + 3b2, 108(2y + a1 x + a3))
    on curve's scaled model Y^2 = X^3 - 27c4 X - 54c6, or None when that image
    is not integral, which proves infinite order.

    For x = xn/xd and y = yn/yd the image is X = (36 xn + 3 b2 xd)/xd and
    Y = 108 (2 yn xd + (a1 xn + a3 xd) yd)/(xd yd).  For a point on curve an
    integral X makes Y integral too, as Y^2 = X^3 + A X + B is then an integer.
    """
    xn, xd = point.x.numerator, point.x.denominator
    yn, yd = point.y.numerator, point.y.denominator
    X, rem = divmod(36 * xn + 3 * curve.b2 * xd, xd)
    if rem:
        return None
    Y = 108 * (2 * yn * xd + (curve.a1 * xn + curve.a3 * xd) * yd) // (xd * yd)
    return _scaled_multiples(X, Y, -27 * curve.c4, -54 * curve.c6)


def point_order(curve: WeierstrassCurve, point: Point) -> Optional[int]:
    """Exact order (at most 12 over Q), or None for a point of infinite order.

    Certified in integers on curve's scaled model Y^2 = X^3 - 27c4 X - 54c6,
    an integral model where every torsion point and all its multiples are
    integral: a non-integral image, or a multiple with a non-integral slope,
    proves infinite order.
    """
    _require_on_curve(curve, point)
    if point.infinity:
        return 1
    multiples = _multiples(curve, point)
    return None if multiples is None else len(multiples) + 1


def _point_of_order(curve: WeierstrassCurve, point: Point, d: int) -> Point:
    """(n/d) * point, a point of order d, for an affine point of finite order n with d | n."""
    multiples = _multiples(curve, point)
    if multiples is None or (len(multiples) + 1) % d:
        raise ValueError(f"{point} has no multiple of order {d} on {curve}")
    return _unscaled(curve, *multiples[(len(multiples) + 1) // d - 1])


@functools.cache
def _square_roots(p: int) -> tuple[tuple[int, ...], ...]:
    """The square roots mod p of each residue mod p, in ascending order."""
    roots: list[list[int]] = [[] for _ in range(p)]
    for y in range(p):
        roots[y * y % p].append(y)
    return tuple(map(tuple, roots))


def _scaled_points_mod_p(a: int, b: int, p: int) -> list[tuple[int, int]]:
    """Affine points of Y^2 = X^3 + aX + b over F_p, for p > 3."""
    roots = _square_roots(p)
    return [(x, y) for x in range(p) for y in roots[(x * x * x + a * x + b) % p]]


@functools.cache
def _point_count(a: int, b: int, p: int) -> int:
    """#E'(F_p) for E': Y^2 = X^3 + aX + b; keys are residues mod a small prime."""
    roots = _square_roots(p)
    return 1 + sum(len(roots[(x * x * x + a * x + b) % p]) for x in range(p))


def _add_mod_p(p1, p2, a: int, p: int):
    """Sum of two affine points on Y^2 = X^3 + aX + b over F_p; None if it is
    the point at infinity."""
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _torsion_sieve(curve: WeierstrassCurve) -> tuple[int, list[tuple[int, int, int]]]:
    """The torsion bound B and the sieve's reductions (-27c4 mod p, -54c6 mod p, p).

    B is the gcd of #E(F_p) over the first _SIEVE_PRIMES (four) primes
    p >= 5 of good reduction, a multiple of the torsion order, since
    reduction mod such p maps rational torsion injectively and
    homomorphically into E'(F_p).  At most one of them divides B (see
    _torsion_points), so the lift has a prime q to work at.
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
    return bound, reduced


def _root_bound(P: int, Q: int) -> int:
    """2 + 2 max(2^ceil(bits(P)/2), 2^ceil(bits(Q)/3)), above |X| for every
    integer root X of X^3 + P X + Q', for every Q' with |Q'| <= |Q|; it sets
    the lift's precision (see _torsion_points).

    It exceeds 2 max(sqrt|P|, cbrt|Q|) since |P| < 2^bits(P): for
    |X| > 2 max(sqrt|P|, cbrt|Q|), X^2 > 4|P| and |X|^3 > 8|Q|, so
    |X|^3 > 2|P X| + 4|Q| >= |P X + Q'| (strictly, as X != 0), and X is no
    root.  Exact: no floating point.
    """
    return 2 + 2 * max(1 << -(-P.bit_length() // 2), 1 << -(-Q.bit_length() // 3))


@functools.cache
def _lift_seeds(a: int, b: int, q: int, bound: int) -> tuple[tuple[int, int], ...]:
    """(x, m) for one of each pair +-P of affine points of E'(F_q)[bound],
    E' as in _point_count, whose order m is a prime power in _LIFTED_ORDERS,
    in non-increasing order of m: a point with y = 0 is its own pair, of
    order 2.  Keys are residues mod a small prime, as for _point_count."""
    orders = [m for m in _LIFTED_ORDERS if bound % m == 0]
    if not orders:
        return ()
    top = max(orders)
    seeds = []
    for x, y in _scaled_points_mod_p(a, b, q):
        # y and q - y are the pair +-P, one point when y = 0
        if y <= q - y:
            multiple, m = (x, y), 1
            while multiple is not None and m < top:
                multiple, m = _add_mod_p(multiple, (x, y), a, q), m + 1
            if multiple is None and m in orders:
                seeds.append((x, m))
    return tuple(sorted(seeds, key=lambda seed: -seed[1]))


def _division_value(m: int, x: int, A: int, B: int, modulus: int) -> tuple[int, int]:
    """(f_m(x), f_m'(x)) mod modulus, for m >= 2; f_2 = X^3 + A X + B, whose
    roots are the x of E'[2] outside O, and for m >= 3 f_m is the m-th
    division polynomial psi_m of Y^2 = X^3 + A X + B for odd m and
    psi_m / (2Y) for even m: a polynomial in X alone.

    Evaluated on dual numbers v + d e, e^2 = 0, at x + e.  f_3 and f_4 are
    closed forms, returned as they are for m = 3 and 4.  Above 4, with
    F = (2Y)^2 = 4(X^3 + A X + B), f_1 = 1 and f_2 read as
    psi_2 / (2Y) = 1, the recurrences for psi_n become, for k >= 2,
        f_{2k+1} = F^2 f_{k+2} f_k^3 - f_{k-1} f_{k+1}^3   (k even),
        f_{2k+1} = f_{k+2} f_k^3 - F^2 f_{k-1} f_{k+1}^3   (k odd),
        f_{2k}   = f_k (f_{k+2} f_{k-1}^2 - f_{k-2} f_{k+1}^2)   (k >= 3),
    as the two odd-indexed factors of psi_{2k}'s recurrence that meet a
    2Y each carry F, and its division by 2Y is then exact.
    """

    def mul(u, v):
        return u[0] * v[0] % modulus, (u[0] * v[1] + u[1] * v[0]) % modulus

    def sub(u, v):
        return (u[0] - v[0]) % modulus, (u[1] - v[1]) % modulus

    x2, x3 = x * x, x * x * x
    if m == 2:
        return (x3 + A * x + B) % modulus, (3 * x2 + A) % modulus
    f3 = (
        (3 * x2 * x2 + 6 * A * x2 + 12 * B * x - A * A) % modulus,
        12 * (x3 + A * x + B) % modulus,
    )
    if m == 3:
        return f3
    f4 = (
        2 * (x3 * x3 + 5 * A * x2 * x2 + 20 * B * x3 - 5 * A * A * x2 - 4 * A * B * x - 8 * B * B - A**3) % modulus,
        2 * (6 * x2 * x3 + 20 * A * x3 + 60 * B * x2 - 10 * A * A * x - 4 * A * B) % modulus,
    )
    if m == 4:
        return f4
    one = (1, 0)
    F = (4 * (x3 + A * x + B), 4 * (3 * x2 + A))
    F2 = mul(F, F)
    f = [(0, 0), one, one, f3, f4]
    for n in range(5, m + 1):
        k = n // 2
        if n % 2:
            left = mul(f[k + 2], mul(f[k], mul(f[k], f[k])))
            right = mul(f[k - 1], mul(f[k + 1], mul(f[k + 1], f[k + 1])))
            if k % 2:
                right = mul(F2, right)
            else:
                left = mul(F2, left)
            f.append(sub(left, right))
        else:
            inner = sub(
                mul(f[k + 2], mul(f[k - 1], f[k - 1])), mul(f[k - 2], mul(f[k + 1], f[k + 1]))
            )
            f.append(mul(f[k], inner))
    return f[m]


def _lift_modulus(q: int, bound: int) -> int:
    """q^N for the least N >= 1 with q^N > 2 bound."""
    modulus = q
    while modulus <= 2 * bound:
        modulus *= q
    return modulus


def _lifted_x(x: int, m: int, A: int, B: int, q: int, modulus: int) -> int:
    """The root of f_m mod modulus (a power of q) over x, a simple root of f_m
    mod q, as its residue of least absolute value; Newton's step doubles the
    q-adic precision each time."""
    precision = q
    while precision < modulus:
        precision = min(precision * precision, modulus)
        value, slope = _division_value(m, x, A, B, precision)
        x = (x - value * pow(slope, -1, precision)) % precision
    return x - modulus if 2 * x > modulus else x


def _torsion_points(curve: WeierstrassCurve) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Each affine rational torsion point of an integral model, as (X, Y) on its
    scaled model Y^2 = X^3 + A X + B, mapped to its _scaled_multiples.

    - Some sieve prime q does not divide the bound.  The bound divides
      #E(F_q1) <= q1 + 1 + 2 sqrt(q1) < q1^2 (Hasse), q1 >= 5 the first sieve
      prime, while two sieve primes q1 <= q < q' dividing it would make it at
      least q q' > q1^2.  So at most one of the _SIEVE_PRIMES (four, and
      two would do) divides it.
    - The rational points of prime-power order generate the torsion group T:
      T is the sum of its l-primary parts T[l^inf], and the l-primary part of
      a torsion point P is a multiple of P, so it is rational, of order a
      power of l.  Those orders are _LIFTED_ORDERS, by Mazur.
    - Reduction mod a good q >= 3 is injective on torsion, so a rational point
      P of prime-power order m reduces to a point of order m of
      E'(F_q)[bound]: one of the pair +-P~ that _lift_seeds lists (m = 2
      when P = (X, 0), as 2 then divides the bound).
    - For m = 2, x(P~) is a root of X^3 + A X + B mod q, which is separable
      as q does not divide its discriminant -(4A^3 + 27B^2).  For m >= 3,
      f_m mod q has (m^2 - 1)/2 (odd m) or (m^2 - 4)/2 (even m) distinct
      roots over the algebraic closure, the x of the points of E'[m] outside
      E'[2], as many as its degree, since its leading coefficient m or m/2
      is prime to q as m divides the bound.  So x(P~) is a simple root, and
      X(P), a root of f_m over it, is its one lift mod q^N (Hensel).
    - Y^2 = 0 or Y^2 | 4A^3 + 27B^2 (Lutz-Nagell), so X is a root of
      X^3 + A X + Q' with |Q'| <= |B| + |4A^3 + 27B^2|, and |X| < X_max, its
      _root_bound.  With q^N > 2 X_max the residue of least absolute value
      mod q^N is X(P).
    - A lift from a root mod q that no rational point reduces to is kept
      only if X^3 + A X + B is a square Y^2 and _scaled_multiples certifies
      (X, Y) as torsion, as it certifies every point kept; (X, -Y) is then
      torsion too.
    - found is always a subgroup G (O left out).  A seed (x, m) with
      x = X mod q for some (X, Y) in G is skipped: a rational point over it
      shares its reduction's x with (X, Y), so by injectivity it is
      +-(X, Y), already in G.  Otherwise a kept lift P extends G to the
      group G and P generate (_extend).  Seeds go in non-increasing order of
      m, so a point of order 4 or 8 comes before the point of order 2 under
      it, and T costs one kept lift per cyclic factor of its primary
      decomposition: Z/2 x Z/6 = Z/2 x Z/2 x Z/3 costs three.
    - Lifting stops once len(found) + 1 equals the bound.  G is a subgroup
      of T, whose order divides the bound, so a G of the bound's order is
      T: no seed left can add a point.
    """
    bound, reduced = _torsion_sieve(curve)
    a, b, q = next(key for key in reduced if bound % key[2])
    seeds = _lift_seeds(a, b, q, bound)
    found: dict[tuple[int, int], list[tuple[int, int]]] = {}
    if not seeds:
        return found
    A, B = -27 * curve.c4, -54 * curve.c6
    # Lutz-Nagell: Y = 0 or Y^2 divides 4A^3 + 27B^2, so X is a root of
    # X^3 + A X + B - Y^2
    modulus = _lift_modulus(q, _root_bound(A, abs(B) + abs(4 * A**3 + 27 * B * B)))
    for x, m in seeds:
        if len(found) + 1 == bound:
            break
        if any((x - X) % q == 0 for X, _ in found):
            continue
        X = _lifted_x(x, m, A, B, q, modulus)
        yy = (X * X + A) * X + B
        Y = math.isqrt(max(yy, 0))
        if Y * Y == yy:
            # (X, -Y) is torsion exactly when (X, Y) is, and then -P is in the extension
            multiples = _scaled_multiples(X, Y, A, B)
            if multiples is not None:
                _extend(found, multiples, A, B)
    return found


def _extend(
    found: dict[tuple[int, int], list[tuple[int, int]]], multiples: list[tuple[int, int]], A: int, B: int
):
    """Extend found, the affine points of a subgroup G, each mapped to its
    _scaled_multiples, to those of the group G and P generate, P = multiples[0]
    a torsion point outside G: every g + kP, 0 < k < order of P, with g in G
    or O.  The coset G + kP is new exactly when kP is not yet found; then no
    g in G is +-kP, so each sum is a chord, and none is O.  A sum of torsion
    points is torsion, so integral: a slope that does not divide, or a sum
    _scaled_multiples does not certify, is an arithmetic bug."""
    group = list(found)
    for kP in multiples:
        if kP in found:
            continue
        coset = [kP]
        for g in group:
            point = _scaled_sum(*g, *kP, A)
            if point is None:
                raise RuntimeError(f"{g} + {kP} has a non-integral slope; arithmetic bug")
            coset.append(point)
        for point in coset:
            point_multiples = multiples if point == multiples[0] else _scaled_multiples(*point, A, B)
            if point_multiples is None:
                raise RuntimeError(f"{point}, a sum of torsion points, has infinite order; arithmetic bug")
            found[point] = point_multiples


def torsion_subgroup(curve: WeierstrassCurve) -> TorsionStructure:
    """Certified torsion structure with generators on the given model.

    Found on curve's own scaled model, where every torsion point is integral
    (Lutz-Nagell), so it never factors the discriminant: the generators are
    built when the group is found, the other points when
    TorsionStructure.points is first read.
    """
    found = _torsion_points(curve)
    order = len(found) + 1
    two_torsion = sum(1 for multiples in found.values() if len(multiples) == 1)
    shape = _MAZUR.get((order, two_torsion))
    if shape is None:
        raise RuntimeError(
            f"torsion order {order} with {two_torsion} involutions is outside "
            "the possible rational group shapes; arithmetic bug"
        )
    max_order = order // 2 if two_torsion == 3 else order

    # deterministic generator choice: scan points in (X, Y) order, which is
    # (x, y) order, as x grows with X and, at one x, y grows with Y
    ordered = sorted(found)
    keys: list[tuple[int, int]] = []
    if order > 1:
        g1 = next(q for q in ordered if len(found[q]) + 1 == max_order)
        keys.append(g1)
        if two_torsion == 3:
            half = found[g1][max_order // 2 - 1]
            keys.append(next(q for q in ordered if len(found[q]) == 1 and q != half))

    # point_order checks each generator on curve and re-certifies its order
    generators = tuple(_unscaled(curve, X, Y) for X, Y in keys)
    for g, q in zip(generators, keys):
        if point_order(curve, g) != len(found[q]) + 1:
            raise RuntimeError("generator order changed under coordinate transport")
    return TorsionStructure(shape, order, generators, curve, tuple(ordered))
