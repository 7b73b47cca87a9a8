"""Integral Weierstrass equations, invariants, coordinate changes, minimal models.

Curves are immutable integer quintuples (a1,a2,a3,a4,a6); the standard
b-, c-invariants, discriminant and j-invariant are derived exactly.  The
formulas live here once: `invariants` and `change_coordinates` act on bare
coefficient tuples, so Tate's algorithm in `reduction` runs on them too.
Global minimization follows Laska-Kraus-Connell: shrink (c4,c6) by the
largest admissible u at every prime, with Kraus's congruences guarding
2 and 3, then rebuild the unique reduced model from (c4,c6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .arith import Factorization, _int_valuation, factor


class SingularCurveError(ValueError):
    """The coefficients define a singular cubic (discriminant zero)."""


def invariants(ai) -> tuple[int, int, int, int, int, int, int]:
    """(b2, b4, b6, b8, c4, c6, disc) of the coefficients ai = (a1, a2, a3, a4, a6)."""
    a1, a2, a3, a4, a6 = ai
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with integer coefficients.

    b2, b4, b6, b8, c4, c6 and disc are set once, from `invariants`.
    """

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            v = getattr(self, name)
            if not isinstance(v, int):
                raise TypeError(f"{name} must be an integer, got {v!r}")
        values = invariants(self.ai())
        for name, v in zip(("b2", "b4", "b6", "b8", "c4", "c6", "disc"), values):
            object.__setattr__(self, name, v)
        if self.disc == 0:
            raise SingularCurveError(f"discriminant is zero for {self.ai()}")

    def ai(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @cached_property
    def j(self) -> Fraction:
        return Fraction(self.c4**3, self.disc)

    def __str__(self) -> str:
        return f"[{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}]"


@dataclass(frozen=True)
class Transformation:
    """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    Scales the discriminant by u^-12 and c4 by u^-4; j is untouched.
    """

    u: Fraction
    r: Fraction
    s: Fraction
    t: Fraction

    def __post_init__(self):
        for name in ("u", "r", "s", "t"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))
        if self.u == 0:
            raise ValueError("u must be nonzero")

    @staticmethod
    def identity() -> "Transformation":
        return Transformation(Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    def is_identity(self) -> bool:
        return self.u == 1 and self.r == 0 and self.s == 0 and self.t == 0

    def compose(self, other: "Transformation") -> "Transformation":
        """Transformation equal to applying self first, then other."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return Transformation(
            u1 * u2,
            u1 * u1 * r2 + r1,
            u1 * s2 + s1,
            u1**3 * t2 + s1 * u1 * u1 * r2 + t1,
        )

    def inverse(self) -> "Transformation":
        u, r, s, t = self.u, self.r, self.s, self.t
        return Transformation(1 / u, -r / u**2, -s / u, (r * s - t) / u**3)

    def unmap_point(self, xp: Fraction, yp: Fraction) -> tuple[Fraction, Fraction]:
        """Point on the source curve from a point on the transformed curve."""
        x = self.u**2 * xp + self.r
        y = self.u**3 * yp + self.s * self.u**2 * xp + self.t
        return x, y


def change_coordinates(ai, r, s, t) -> tuple:
    """Coefficients after x = x' + r, y = y' + s x' + t (the u = 1 change).

    No division: integer inputs give integers, so Tate's algorithm steps with
    it directly, and transform_coefficients divides it by powers of u.
    """
    a1, a2, a3, a4, a6 = ai
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def transform_coefficients(
    ai, u: Fraction, r: Fraction, s: Fraction, t: Fraction
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """Raw coefficient transformation; results may be non-integral.

    Kept separate from the public entry point so rational intermediate
    models never leak past the module boundary.  The numerators stay in
    integer arithmetic when ai, r, s and t are integers; only the final
    division by a power of u makes them rational.
    """
    n1, n2, n3, n4, n6 = change_coordinates(ai, r, s, t)
    u = Fraction(u)
    return (n1 / u, n2 / u**2, n3 / u**3, n4 / u**4, n6 / u**6)


def apply_transformation(curve: WeierstrassCurve, tr: Transformation) -> WeierstrassCurve:
    """Transformed curve; raises if the result is not an integral model."""
    new = transform_coefficients(curve.ai(), tr.u, tr.r, tr.s, tr.t)
    if any(c.denominator != 1 for c in new):
        raise ValueError(f"transformation {tr} of {curve} is not integral")
    return WeierstrassCurve(*(int(c) for c in new))


def _kraus_ok_2(c4: int, c6: int) -> bool:
    if c6 % 4 == 3:
        return True
    return c4 % 16 == 0 and c6 % 32 in (0, 8)


def _kraus_ok_3(c6: int) -> bool:
    return _int_valuation(c6, 3) != 2


def curve_from_c4c6(c4: int, c6: int) -> WeierstrassCurve:
    """The unique reduced integral model with the given invariants.

    Reduced means a1, a3 in {0,1} and a2 in {-1,0,1}; raises ValueError if
    no integral model has these invariants (Kraus's conditions fail).
    """
    bad = ValueError(f"invalid invariant pair ({c4}, {c6})")
    if (c4**3 - c6 * c6) % 1728 != 0:
        raise bad
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    a1 = b2 % 2
    if (b2 - a1) % 4 != 0:
        raise bad
    a2 = (b2 - a1) // 4
    if (b2 * b2 - c4) % 24 != 0:
        raise bad
    b4 = (b2 * b2 - c4) // 24
    num = -(b2**3) + 36 * b2 * b4 - c6
    if num % 216 != 0:
        raise bad
    b6 = num // 216
    a3 = b6 % 2
    if (b4 - a1 * a3) % 2 != 0 or (b6 - a3) % 4 != 0:
        raise bad
    a4 = (b4 - a1 * a3) // 2
    a6 = (b6 - a3) // 4
    try:
        curve = WeierstrassCurve(a1, a2, a3, a4, a6)
    except SingularCurveError:
        raise bad from None
    if curve.c4 != c4 or curve.c6 != c6:
        raise bad
    return curve


def minimal_model(
    curve: WeierstrassCurve, disc: Optional[Factorization] = None
) -> tuple[WeierstrassCurve, Transformation]:
    """Globally minimal reduced model and the transformation reaching it.

    ord_p(disc) is minimal at every prime; the returned transformation T
    satisfies apply_transformation(curve, T) == minimal curve exactly.
    Given the factored discriminant, the candidates are its primes with
    exponent >= 12 (u^12 divides it); otherwise gcd(c4, c6) is factored.
    """
    c4, c6 = curve.c4, curve.c6
    if disc is None:
        exponents = [
            (p, _int_valuation(curve.disc, p)) for p in factor(math.gcd(c4, c6)).primes()
        ]
    else:
        exponents = [(p, e) for p, e in disc.factors if e >= 12]

    u = 1
    for p, e in exponents:
        opts = [e // 12]
        if c4:
            opts.append(_int_valuation(c4, p) // 4)
        if c6:
            opts.append(_int_valuation(c6, p) // 6)
        d = min(opts)
        if p == 2:
            while d > 0 and not _kraus_ok_2(c4 // 2 ** (4 * d), c6 // 2 ** (6 * d)):
                d -= 1
        elif p == 3:
            while d > 0 and not _kraus_ok_3(c6 // 3 ** (6 * d)):
                d -= 1
        u *= p**d

    minimal = curve_from_c4c6(c4 // u**4, c6 // u**6)
    if minimal == curve:
        return curve, Transformation.identity()

    s = _quotient(u * minimal.a1 - curve.a1, 2)
    r = _quotient(u**2 * minimal.a2 - curve.a2 + s * curve.a1 + s * s, 3)
    t = _quotient(u**3 * minimal.a3 - curve.a3 - r * curve.a1, 2)
    # transform_coefficients(curve.ai(), u, r, s, t) == minimal.ai(), multiplied
    # through by the powers of u: integer arithmetic when r, s and t are integers
    a1, a2, a3, a4, a6 = minimal.ai()
    scaled = (u * a1, u**2 * a2, u**3 * a3, u**4 * a4, u**6 * a6)
    if change_coordinates(curve.ai(), r, s, t) != scaled:
        raise RuntimeError(f"minimal-model transformation failed to verify for {curve}")
    return minimal, Transformation(u, r, s, t)


def _quotient(n, d: int):
    """n / d exactly, as an int when d divides n."""
    q, rem = divmod(n, d)
    return q if rem == 0 else Fraction(n, d)


@dataclass(frozen=True)
class CurveAnalysis:
    """A curve minimized once, with its discriminant factored once.

    Holds the global minimal model, the transformation reaching it and the
    factored minimal discriminant, whose exponents are the model's minus
    12 ord_p(u).  Bad primes, Tate's algorithm, torsion and fixture keys
    all read this instead of minimizing or factoring again.
    """

    curve: WeierstrassCurve
    minimal: WeierstrassCurve
    transformation: Transformation
    disc_min: Factorization

    @classmethod
    def of(
        cls,
        curve: WeierstrassCurve,
        disc: Optional[Factorization] = None,
        budget: int = 2_000_000,
    ) -> "CurveAnalysis":
        """Analysis of curve from a factorization of its discriminant.

        Without one the discriminant is factored within the rho budget; a
        supplied factorization must multiply out to the discriminant.
        """
        if disc is None:
            disc = factor(curve.disc, budget=budget)
        elif disc.value != curve.disc:
            raise ValueError(f"factorization {disc} is not the discriminant of {curve}")
        minimal, tr = minimal_model(curve, disc)
        u = int(tr.u)
        factors = []
        for p, e in disc.factors:
            while u % p == 0:
                u //= p
                e -= 12
            if e:
                factors.append((p, e))
        return cls(curve, minimal, tr, Factorization(disc.sign, tuple(factors)))

    @property
    def bad_primes(self) -> tuple[int, ...]:
        return self.disc_min.primes()

    @property
    def key(self) -> tuple[int, int]:
        """(c4, c6) of the minimal model: the isomorphism-class key over Q."""
        return (self.minimal.c4, self.minimal.c6)
