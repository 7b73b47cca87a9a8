"""Parametrized torsion families and the 3-isogeny quotient construction.

Constructors return the exact literature models (not minimal ones) so that
valuation arguments can be tested verbatim; minimization happens downstream
in the local analysis.  ``FAMILIES`` holds one ``Family`` record per family,
read by the scans and the CLI.  The 3-isogeny is represented by its
source/quotient pair and discriminant identities only; the rational maps are
never needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .arith import Factorization, as_fraction, factor, factor_product, valuation
from .curves import SingularCurveError, WeierstrassCurve
from .record import Record
from .reduction import LocalDatum, tate

Rational = Union[int, Fraction]


def four_torsion_curve(s: int, t: int) -> WeierstrassCurve:
    """y^2 + t xy - s t^2 y = x^3 - s t x^2, discriminant s^4 t^7 (16 s + t).

    The integral form of the universal curve with a point of order 4 at
    parameter s/t; (0, 0) has order 4.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    if math.gcd(s, t) != 1:
        raise ValueError(f"s={s} and t={t} must be coprime")
    if t == 0 or 16 * s + t == 0:
        raise SingularCurveError(f"parameters (s={s}, t={t}) give a singular curve")
    return WeierstrassCurve(t, -s * t, -s * t * t, 0, 0)


def four_torsion_disc(s: int, t: int) -> Factorization:
    """Factored discriminant s^4 t^7 (16 s + t) of four_torsion_curve(s, t)."""
    return factor_product(((s, 4), (t, 7), (16 * s + t, 1)))


_TWO_SIX_FACTORS = (
    ("t", lambda a, b: a),
    ("t-1", lambda a, b: a - b),
    ("t+1", lambda a, b: a + b),
    ("3t-1", lambda a, b: 3 * a - b),
    ("3t+1", lambda a, b: 3 * a + b),
)


def two_six_curve(t: Rational) -> WeierstrassCurve:
    """Integral model of the curve with torsion Z/2 x Z/6 at parameter t.

    For t = a/b in lowest terms (b > 0) the model is the denominator-cleared
    form of y^2 + (-t^2+4t+1) xy - t(t-1)(t+1)^2 (3t+1) y = x^3 - t(t-1)(t+1)^2 x^2;
    at t = 1/m it is exactly the mu = 1/t model of the family.
    """
    t = as_fraction(t)
    a, b = t.numerator, t.denominator
    for name, expr in _TWO_SIX_FACTORS:
        if expr(a, b) == 0:
            raise SingularCurveError(f"parameter t={t} is singular: factor {name} vanishes")
    a1 = -a * a + 4 * a * b + b * b
    a2 = -a * (a - b) * (a + b) ** 2
    a3 = -a * b * (a - b) * (a + b) ** 2 * (3 * a + b)
    return WeierstrassCurve(a1, a2, a3, 0, 0)


def two_six_disc(t: Rational) -> Factorization:
    """Factored discriminant of two_six_curve(t): for t = a/b it is
    a^6 (a-b)^6 (a+b)^6 (3a-b)^2 (3a+b)^2 b^2."""
    t = as_fraction(t)
    a, b = t.numerator, t.denominator
    exponents = (6, 6, 6, 2, 2)
    terms = [(expr(a, b), k) for (_, expr), k in zip(_TWO_SIX_FACTORS, exponents)]
    return factor_product([(b, 2), *terms])


def two_torsion_curve(a: int, b: int) -> WeierstrassCurve:
    """y^2 = x^3 + a x^2 + b x with a, b coprime; (0,0) is 2-torsion."""
    if math.gcd(a, b) != 1:
        raise ValueError(f"a={a} and b={b} must be coprime")
    if b == 0 or a * a == 4 * b:
        raise SingularCurveError(f"(a={a}, b={b}) gives discriminant zero")
    return WeierstrassCurve(0, a, 0, b, 0)


def two_torsion_disc(a: int, b: int) -> Factorization:
    """Factored discriminant 16 b^2 (a^2 - 4 b) of two_torsion_curve(a, b)."""
    return factor_product(((2, 4), (b, 2), (a * a - 4 * b, 1)))


class ThreeTorsionNormalForm(Record):
    """y^2 + a xy + b y = x^3 with b > 0 and no prime q with q | a and q^3 | b.

    (0, 0) has order 3; the discriminant is b^3 (a^3 - 27 b).
    """

    _fields = ("a", "b")

    def __init__(self, a: int, b: int):
        if b <= 0:
            raise ValueError("b must be positive")
        if a**3 == 27 * b:
            raise SingularCurveError(f"(a={a}, b={b}) is singular")
        g = math.gcd(a, b)
        if g > 1:
            for p in factor(g).primes():
                if b % p**3 == 0:
                    raise ValueError(f"not normalized: {p} divides a={a} and {p}^3 divides b={b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def curve(self) -> WeierstrassCurve:
        return WeierstrassCurve(self.a, 0, self.b, 0, 0)


def three_torsion_disc(a: int, b: int) -> Factorization:
    """Factored discriminant b^3 (a^3 - 27 b) of y^2 + a xy + b y = x^3."""
    return factor_product(((b, 3), (a**3 - 27 * b, 1)))


def three_torsion_normalize(c: Rational, d: Rational) -> ThreeTorsionNormalForm:
    """Normalize y^2 + c xy + d y = x^3 to integral (a, b), b > 0, reduced.

    Scaling (x, y) -> (x/u^2, y/u^3) replaces (c, d) by (uc, u^3 d); the sign
    flip y -> -y replaces (c, d) by (-c, -d).
    """
    c, d = as_fraction(c), as_fraction(d)
    if d == 0 or c**3 == 27 * d:
        raise SingularCurveError(f"(c={c}, d={d}) defines a singular curve")
    # clear denominators: u covers ord_q(den c) and ceil(ord_q(den d) / 3)
    den_primes = set(factor(c.denominator).primes()) | set(factor(d.denominator).primes())
    u = 1
    for q in sorted(den_primes):
        ec = valuation(c.denominator, q)
        ed = valuation(d.denominator, q)
        u *= q ** max(ec, -(-ed // 3))
    c, d = c * u, d * u**3
    if c.denominator != 1 or d.denominator != 1:
        raise RuntimeError(f"scaling by {u} left (c={c}, d={d}) non-integral; arithmetic bug")
    ci, di = int(c), int(d)
    if di < 0:
        ci, di = -ci, -di
    # strip each q with q | a and q^3 | b, by residues: a = 0 takes no
    # valuation, and gcd(0, b) = b
    g = math.gcd(ci, di)
    if g > 1:
        for q in factor(g).primes():
            while ci % q == 0 and di % q**3 == 0:
                ci //= q
                di //= q**3
    return ThreeTorsionNormalForm(ci, di)


class Family(NamedTuple):
    """One parametrized torsion family and the divisibility the paper claims for it.

    Parameters are a dict keyed by ``params`` (the CLI flags of the same
    names); a value may be the CLI's string.  The claim (n, with_c_inf) reads
    n | c(E) * c_inf when with_c_inf, else n | c(E).  With semistable_only the
    claim covers only semi-stable curves.  ``curve`` builds the model and
    ``disc`` factors its discriminant from the same dict, at factor's default
    budget.  The callables look the constructors up by name when called, so a
    rebinding of the module's names is seen.
    """

    params: tuple[str, ...]
    curve: Callable[[dict], WeierstrassCurve]
    disc: Callable[[dict], Factorization]
    claim: tuple[int, bool]
    semistable_only: bool = False


FAMILIES = {
    "four-torsion": Family(
        ("s", "t"),
        lambda p: four_torsion_curve(p["s"], int(p["t"])),
        lambda p: four_torsion_disc(p["s"], int(p["t"])),
        (4, True),
    ),
    "two-six": Family(
        ("t",),
        lambda p: two_six_curve(p["t"]),
        lambda p: two_six_disc(p["t"]),
        (12, False),
    ),
    "two-torsion": Family(
        ("a", "b"),
        lambda p: two_torsion_curve(p["a"], p["b"]),
        lambda p: two_torsion_disc(p["a"], p["b"]),
        (2, True),
        semistable_only=True,
    ),
    "three-torsion": Family(
        ("a", "b"),
        lambda p: ThreeTorsionNormalForm(p["a"], p["b"]).curve,
        lambda p: three_torsion_disc(p["a"], p["b"]),
        (3, False),
    ),
}


class IsogenyPair(NamedTuple):
    """A b = 1 three-torsion curve and its 3-isogeny quotient.

    The quotient of y^2 + a xy + y = x^3 by the order-3 subgroup generated
    by (0, 0) is y^2 + (a+6) xy + (a^2+3a+9) y = x^3; its discriminant is
    (a^3 - 27)^3 and its c4-invariant is a (a^3 + 216).  ``local`` holds the
    (source, quotient) local data at every prime p | a^3 - 27, the bad primes
    of both; the ledger lists ord_3 of c_p(quotient)/c_p(source) at each.
    """

    source: ThreeTorsionNormalForm
    quotient: WeierstrassCurve
    local: tuple[tuple[LocalDatum, LocalDatum], ...]

    @property
    def ledger(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (src.prime, valuation(quo.tamagawa, 3) - valuation(src.tamagawa, 3))
            for src, quo in self.local
        )

    @property
    def ratio_ord3(self) -> int:
        return sum(e for _, e in self.ledger)

    def to_json(self) -> dict:
        return {
            "source": list(self.source.curve.ai()),
            "quotient": list(self.quotient.ai()),
            "ledger": [[p, e] for p, e in self.ledger],
            "ratio_ord3": self.ratio_ord3,
        }


def hadano_quotient(source: ThreeTorsionNormalForm) -> IsogenyPair:
    """Quotient curve and Tamagawa-ratio ledger for a b = 1 normal form.

    The closed-form quotient is only available for b = 1 (any prime dividing
    b already forces 3 | c(E), so nothing is lost); other b raise ValueError.
    """
    if source.b != 1:
        raise ValueError(
            f"quotient formula requires b = 1, got b = {source.b}; a prime "
            "dividing b forces 3 | c(E) and needs no quotient argument"
        )
    a = source.a
    curve = source.curve
    quotient = WeierstrassCurve(a + 6, 0, a * a + 3 * a + 9, 0, 0)
    if curve.disc != a**3 - 27 or quotient.disc != (a**3 - 27) ** 3:
        raise RuntimeError("discriminant identity failed; arithmetic bug")
    if quotient.c4 != a * (a**3 + 216):
        raise RuntimeError("quotient c4 identity failed; arithmetic bug")
    # a^3 - 27 factored once: ord_p of the quotient's discriminant is 3 ord_p of the source's
    disc = factor(a**3 - 27)
    local = tuple((tate(curve, p, e), tate(quotient, p, 3 * e)) for p, e in disc.factors)
    return IsogenyPair(source, quotient, local)


def quotient_split_prime(pair: IsogenyPair) -> Optional[int]:
    """Smallest prime q != 3 dividing a^2 + 3a + 9, or None when there is none.

    Such a q is a prime of split multiplicative reduction for the quotient
    (and hence multiplicative for the source); None happens exactly for
    a in {0, 3, -3, -6}.  a^2 + 3a + 9 divides a^3 - 27, whose primes
    pair.local already holds, so nothing is factored again.
    """
    a = pair.source.a
    n = a * a + 3 * a + 9
    return min((d.prime for d, _ in pair.local if d.prime != 3 and n % d.prime == 0), default=None)
