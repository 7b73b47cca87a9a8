"""Integral Weierstrass equations, invariants, coordinate changes, minimal models.

Curves are immutable integer quintuples (a1,a2,a3,a4,a6); the standard
b-, c-invariants, discriminant and j-invariant are derived exactly.  The
formulas live here once: `invariants` and `change_coordinates` act on bare
coefficient tuples, so Tate's algorithm in `reduction` runs on them too.
Global minimization follows Laska-Kraus-Connell: shrink (c4,c6) by the
largest admissible u, whose exponent at each prime is `minimal_exponent`,
then rebuild the unique reduced model from (c4,c6); that the rebuilt model
has exactly these invariants is the one validity check.  `minimal_model`
returns that model and u, and checks a given factorization of the
discriminant, which every analysis hands it; `minimal_transformation` also
solves for the r, s, t of the coordinate change, which no analysis needs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Union

from .arith import Factorization, _int_valuation, as_fraction, factor
from .record import Record


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


class WeierstrassCurve(Record):
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with integer coefficients.

    b2, b4, b6, b8, c4, c6 and disc are set once, from `invariants`.
    """

    _fields = ("a1", "a2", "a3", "a4", "a6")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int):
        ai = (a1, a2, a3, a4, a6)
        for name, v in zip(self._fields, ai):
            if not isinstance(v, int):
                raise TypeError(f"{name} must be an integer, got {v!r}")
        b2, b4, b6, b8, c4, c6, disc = invariants(ai)
        if disc == 0:
            raise SingularCurveError(f"discriminant is zero for {ai}")
        # unrolled: a loop over the names made a curve about 15% slower to build
        set_ = object.__setattr__
        set_(self, "a1", a1)
        set_(self, "a2", a2)
        set_(self, "a3", a3)
        set_(self, "a4", a4)
        set_(self, "a6", a6)
        set_(self, "b2", b2)
        set_(self, "b4", b4)
        set_(self, "b6", b6)
        set_(self, "b8", b8)
        set_(self, "c4", c4)
        set_(self, "c6", c6)
        set_(self, "disc", disc)

    def ai(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @cached_property
    def j(self) -> Fraction:
        return Fraction(self.c4**3, self.disc)

    def __str__(self) -> str:
        return f"[{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}]"


class Transformation(Record):
    """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    Scales the discriminant by u^-12 and c4 by u^-4; j is untouched.  An
    int or Fraction field is kept as given (`minimal_transformation` passes
    ints, and int arithmetic is the cheaper); a str is made a Fraction, and
    a float raises TypeError.  An int and its Fraction twin compare and hash
    alike.
    """

    _fields = ("u", "r", "s", "t")

    def __init__(
        self,
        u: Union[int, Fraction],
        r: Union[int, Fraction],
        s: Union[int, Fraction],
        t: Union[int, Fraction],
    ):
        set_ = object.__setattr__
        for name, v in (("u", u), ("r", r), ("s", s), ("t", t)):
            set_(self, name, v if isinstance(v, (int, Fraction)) else as_fraction(v))
        if self.u == 0:
            raise ValueError("u must be nonzero")

    @staticmethod
    def identity() -> "Transformation":
        return Transformation(1, 0, 0, 0)

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
        # through Fraction: 1 / u with an int u would be a float
        u, r, s, t = Fraction(self.u), self.r, self.s, self.t
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


def minimal_exponent(c4: int, c6: int, e: int, p: int) -> int:
    """ord_p(u) of the scaling u that makes a model with invariants c4, c6 minimal at p.

    The one p-minimality rule, read by `minimal_model` and `reduction.tate`:
    with e = ord_p(disc), the largest d with p^(12 d) | disc, p^(4 d) | c4 and
    p^(6 d) | c6 whose quotients c4 / p^(4 d), c6 / p^(6 d) meet Kraus's
    congruence at p, so that an integral model has them: at 3, v(c6) is not
    2; at 2, c6 = 3 mod 4, or 16 | c4 and c6 = 0 or 8 mod 32.  The first two
    divisibilities give the third, as c6^2 = c4^3 - 1728 disc.

    Every test is a residue: d steps down from e // 12 while p^(4 d) does not
    divide c4, and v(c6) = 6 d + 2 at 3 is p^(6 d + 2) | c6 but not p^(6 d + 3).
    No valuation is taken, so c4 = 0 or c6 = 0 needs no case of its own.
    """
    d = e // 12
    while d and c4 % p ** (4 * d):
        d -= 1
    # a failed congruence costs one step back: the quotients at d - 1 are p^4 and p^6
    # times those at d, and meet it
    if p == 2 and d:
        c4d, c6d = c4 // 2 ** (4 * d), c6 // 2 ** (6 * d)
        if c6d % 4 != 3 and (c4d % 16 or c6d % 32 not in (0, 8)):
            d -= 1
    elif p == 3 and d and c6 % 3 ** (6 * d + 2) == 0 and c6 % 3 ** (6 * d + 3):
        d -= 1
    return d


def curve_from_c4c6(c4: int, c6: int) -> WeierstrassCurve:
    """The unique reduced integral model with the given invariants.

    Reduced means a1, a3 in {0,1} and a2 in {-1,0,1}; raises ValueError if
    no integral model has these invariants (Kraus's conditions fail).  The
    closing comparison of c4 and c6 is the one check: the function returns
    only a model with exactly these invariants, and when one exists every
    division below is exact, as b2 = a1^2 mod 4 on an integral model, so
    b2^3 = b2 and c6 = -b2 mod 12 fix the reduced b2.
    """
    bad = ValueError(f"invalid invariant pair ({c4}, {c6})")
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    b4 = (b2 * b2 - c4) // 24
    b6 = (-(b2**3) + 36 * b2 * b4 - c6) // 216
    a3 = b6 % 2
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
) -> tuple[WeierstrassCurve, int]:
    """Globally minimal reduced model and the scaling u > 0 that reaches it.

    ord_p(disc) is minimal at every prime, and curve.c4 = u^4 minimal.c4,
    curve.c6 = u^6 minimal.c6, curve.disc = u^12 minimal.disc.  Given the
    factored discriminant, the candidates are its primes with exponent >= 12
    (u^12 divides it), and one that does not multiply out to curve.disc
    raises ValueError, as its exponents would pick the wrong u; otherwise
    gcd(c4, c6) is factored.  ord_p(u) at each candidate p is
    `minimal_exponent`.  `minimal_transformation` gives the whole coordinate
    change.
    """
    c4, c6 = curve.c4, curve.c6
    if disc is None:
        exponents = [
            (p, _int_valuation(curve.disc, p)) for p in factor(math.gcd(c4, c6)).primes()
        ]
    elif disc.value != curve.disc:
        raise ValueError(f"factorization {disc} is not the discriminant of {curve}")
    else:
        exponents = [(p, e) for p, e in disc.factors if e >= 12]

    u = math.prod(p ** minimal_exponent(c4, c6, e, p) for p, e in exponents)
    return curve_from_c4c6(c4 // u**4, c6 // u**6), u


def minimal_transformation(curve: WeierstrassCurve) -> tuple[WeierstrassCurve, Transformation]:
    """`minimal_model`'s model and the transformation T reaching it.

    apply_transformation(curve, T) == minimal model exactly, and u, r, s, t
    are ints.
    """
    minimal, u = minimal_model(curve)
    # An integral model reaches a minimal one by integral u, r, s, t (Silverman,
    # AEC, VII.1.3(d)), unique once u > 0 as the only automorphisms over Q are
    # +-1, so each division below is exact.
    s = (u * minimal.a1 - curve.a1) // 2
    r = (u**2 * minimal.a2 - curve.a2 + s * curve.a1 + s * s) // 3
    t = (u**3 * minimal.a3 - curve.a3 - r * curve.a1) // 2
    # transform_coefficients(curve.ai(), u, r, s, t) == minimal.ai(), multiplied
    # through by the powers of u; an inexact division would fail it
    a1, a2, a3, a4, a6 = minimal.ai()
    scaled = (u * a1, u**2 * a2, u**3 * a3, u**4 * a4, u**6 * a6)
    if change_coordinates(curve.ai(), r, s, t) != scaled:
        raise RuntimeError(f"minimal-model transformation failed to verify for {curve}")
    return minimal, Transformation(u, r, s, t)


class CurveAnalysis(NamedTuple):
    """A curve minimized once, with its discriminant factored once.

    Holds the global minimal model and its factored discriminant, whose
    exponents are the model's minus 12 ord_p(u) for `minimal_model`'s
    scaling u; when u = 1 it is the given factorization itself.  The model
    it was made from is not kept, so an analysis is a function of the
    isomorphism class: two models of one curve over Q give equal analyses.
    Bad primes, Tate's algorithm and fixture keys all read this instead of
    minimizing or factoring again; torsion needs none of it.
    """

    minimal: WeierstrassCurve
    disc_min: Factorization

    @classmethod
    def of(cls, curve: WeierstrassCurve, disc: Optional[Factorization] = None) -> "CurveAnalysis":
        """Analysis of curve from a factorization of its discriminant.

        Without one the discriminant is factored at factor's default rho
        budget; another budget is passed as factor(curve.disc, budget).  Every
        factorization goes through `minimal_model`, which raises ValueError
        on one that does not multiply out to the discriminant.
        """
        if disc is None:
            disc = factor(curve.disc)
        minimal, u = minimal_model(curve, disc)
        if u == 1:
            # the model is already minimal: its discriminant's factorization is disc_min
            return cls(minimal, disc)
        # ord_p(u) = minimal_exponent(..., e, p) <= e // 12, so it is 0 where e < 12
        exponents = [(p, e - 12 * _int_valuation(u, p) if e >= 12 else e) for p, e in disc.factors]
        factors = tuple((p, e) for p, e in exponents if e)
        return cls(minimal, Factorization(disc.sign, factors))

    @property
    def bad_primes(self) -> tuple[int, ...]:
        return self.disc_min.primes()

    @property
    def key(self) -> tuple[int, int]:
        """(c4, c6) of the minimal model: the isomorphism-class key over Q."""
        return (self.minimal.c4, self.minimal.c6)
