"""Tate's algorithm and local data at every place.

The algorithm is implemented in full at all primes, including 2 and 3:
the torsion families hit I_n*, IV and IV* exactly where valuation
shortcuts misclassify.  Each step works on exact integers; the model is
locally minimized by the built-in restart when step 11 detects p^12 | disc
with all coefficient valuations high enough.

At p | disc, p not dividing c4, the model is p-minimal of type I_n, split iff
T^2 + a1*T - a2 has a root in F_p after moving the node to (0, 0); there the
discriminant is b2 and c6 = -b2^3 (mod p), so at odd p: split iff -c6 is a
nonzero square mod p.  At p = 2 a1 is odd, the node has x = a3 and the move
gives a2 + 3*a3: split iff a2 + a3 is even; `tate` moves no node (Silverman,
Advanced Topics, IV.9; Cremona, Algorithms for Modular Elliptic Curves, 3.2).

The invariants, the coordinate changes and the p-adic valuation are the
shared ones of `curves.invariants`, `curves.change_coordinates` and
`arith._int_valuation`; this module keeps no formula of its own for them.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .arith import Factorization, _int_valuation, factor, is_prime
from .curves import CurveAnalysis, WeierstrassCurve, change_coordinates, invariants

GOOD = "good"
SPLIT = "split"
NONSPLIT = "nonsplit"
ADDITIVE = "additive"

_KODAIRA_RE = re.compile(r"^(I(0|[1-9]\d*)\*?|II\*?|III\*?|IV\*?)$")
# special-fiber components of the types without an n
_ADDITIVE_COMPONENTS = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}


class UnsupportedDomainError(ValueError):
    """A quantity was requested outside the range where it is defined here."""


class AlgorithmError(RuntimeError):
    """Internal consistency violation; indicates an arithmetic bug."""


@dataclass(frozen=True)
class KodairaType:
    """Kodaira symbol: I0, In (n>=1), II, III, IV, In* (n>=0), IV*, III*, II*."""

    symbol: str
    n: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _KODAIRA_RE.match(self.symbol)
        if not m:
            raise ValueError(f"bad Kodaira symbol {self.symbol!r}")
        object.__setattr__(self, "n", int(m.group(2)) if m.group(2) else None)

    @staticmethod
    @functools.lru_cache(maxsize=None, typed=True)  # typed: 1.0 and True stay invalid
    def multiplicative(n: int) -> "KodairaType":
        if n < 0:
            raise ValueError("In needs n >= 0")
        return KodairaType(f"I{n}")

    @staticmethod
    @functools.lru_cache(maxsize=None, typed=True)  # typed: 1.0 and True stay invalid
    def star(n: int) -> "KodairaType":
        if n < 0:
            raise ValueError("In* needs n >= 0")
        return KodairaType(f"I{n}*")

    @property
    def is_good(self) -> bool:
        return self.symbol == "I0"

    @property
    def is_In(self) -> bool:
        return bool(self.n) and self.symbol[-1] != "*"

    @property
    def is_In_star(self) -> bool:
        return self.n is not None and self.symbol[-1] == "*"

    @property
    def components(self) -> int:
        """Irreducible components of the special fiber, counted without multiplicity."""
        if self.n is None:
            return _ADDITIVE_COMPONENTS[self.symbol]
        if self.symbol[-1] == "*":
            return self.n + 5
        return max(self.n, 1)

    def __str__(self) -> str:
        return self.symbol


_I0, _II, _III, _IV = (KodairaType(k) for k in ("I0", "II", "III", "IV"))
_IV_STAR, _III_STAR, _II_STAR = (KodairaType(k) for k in ("IV*", "III*", "II*"))


@dataclass(frozen=True)
class LocalDatum:
    """Reduction data of a curve at one prime, computed on the local minimal model."""

    prime: int
    kodaira: KodairaType
    tamagawa: int
    reduction_class: str
    v_delta_min: int

    def to_json(self) -> dict:
        return {
            "p": str(self.prime),
            "kodaira": self.kodaira.symbol,
            "cp": self.tamagawa,
            "class": self.reduction_class,
            "vdelta": self.v_delta_min,
        }


@dataclass(frozen=True)
class RootNumberDatum:
    place: Union[int, str]  # prime or "infinity"
    value: Union[int, str]  # +1, -1, or "unsupported"


def _inv(a: int, p: int) -> int:
    return pow(a, -1, p)


def _quad_has_root(A: int, B: int, C: int, p: int) -> bool:
    """Does A T^2 + B T + C (A != 0 mod p) have a root in F_p? Assumes separable."""
    if p == 2:
        return C % 2 == 0 or (A + B + C) % 2 == 0
    d = (B * B - 4 * A * C) % p
    if d == 0:
        raise AlgorithmError("separable quadratic has zero discriminant")
    return pow(d, (p - 1) // 2, p) == 1


def _quad_separable(A: int, B: int, C: int, p: int) -> bool:
    if p == 2:
        return B % 2 == 1
    return (B * B - 4 * A * C) % p != 0


def _quad_double_root(A: int, B: int, C: int, p: int) -> int:
    """The double root mod p of an inseparable quadratic (A invertible)."""
    if p == 2:
        # B even: A T^2 + C = 0, and squaring is the identity on F_2
        return (C * A) % 2
    return (-B * _inv(2 * A, p)) % p


def _poly_strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_rem(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod g over F_p; g must be nonzero. Coefficients low to high."""
    f = _poly_strip([c % p for c in f])
    inv_lead = _inv(g[-1], p)
    while len(f) >= len(g):
        coef = f[-1] * inv_lead % p
        shift = len(f) - len(g)
        for i, gi in enumerate(g):
            f[shift + i] = (f[shift + i] - coef * gi) % p
        _poly_strip(f)
    return f


def _poly_gcd_degree(f: list[int], g: list[int], p: int) -> int:
    f = _poly_strip([c % p for c in f])
    g = _poly_strip([c % p for c in g])
    while g:
        f, g = g, _poly_rem(f, g, p)
    return len(f) - 1


def _cubic_rational_root_count(b: int, c: int, d: int, p: int) -> int:
    """Number of F_p-roots of the separable cubic T^3 + b T^2 + c T + d."""
    if p < 100:
        return sum(1 for t in range(p) if (((t + b) * t + c) * t + d) % p == 0)
    # deg gcd(T^p - T, P) counts distinct rational roots; T^p computed by
    # square-and-multiply in F_p[T]/(P)
    b, c, d = b % p, c % p, d % p

    def mulmod(f: list[int], g: list[int]) -> list[int]:
        prod = [0] * 5
        for i, fi in enumerate(f):
            if fi:
                for j, gj in enumerate(g):
                    prod[i + j] = (prod[i + j] + fi * gj) % p
        for deg in (4, 3):
            lead = prod[deg]
            if lead:
                prod[deg] = 0
                prod[deg - 1] = (prod[deg - 1] - lead * b) % p
                prod[deg - 2] = (prod[deg - 2] - lead * c) % p
                prod[deg - 3] = (prod[deg - 3] - lead * d) % p
        return prod[:3]

    result = [1, 0, 0]
    base = [0, 1, 0]
    e = p
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    frobenius_minus_t = [result[0], (result[1] - 1) % p, result[2]]
    cubic = [d, c, b, 1]
    return max(_poly_gcd_degree(cubic, frobenius_minus_t, p), 0)


def _singular_point_mod_p(curve: WeierstrassCurve, p: int) -> tuple[int, int]:
    """(r, t) mod p with the reduced curve singular at (r, t); called only at a cusp (p | c4)."""
    a1, a2, a3, a4, a6 = curve.ai()
    if p == 2:
        r = a4 % 2
        t = (r * (1 + a2 + a4) + a6) % 2
    elif p == 3:
        r = (-curve.b6) % 3
        t = (a1 * r + a3) % 3
    else:
        r = (-curve.b2 * _inv(12, p)) % p
        t = (-(a1 * r + a3) * _inv(2, p)) % p
    return r, t


def tate(curve: WeierstrassCurve, p: int) -> LocalDatum:
    """Kodaira type, Tamagawa number and reduction class of curve at p.

    Total: the model is minimized at p internally, so any integral model of
    the curve gives the same answer.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    while True:
        n = _int_valuation(curve.disc, p)
        if n == 0:
            return LocalDatum(p, _I0, 1, GOOD, 0)

        if curve.c4 % p:
            # multiplicative I_n, split or not without moving the node (module docstring)
            if p == 2:
                split = (curve.a2 + curve.a3) % 2 == 0
            elif curve.c6 % p == 0:
                raise AlgorithmError(f"node with p | c6 at p={p}")
            else:
                split = pow(-curve.c6 % p, (p - 1) // 2, p) == 1
            cp, cls = (n, SPLIT) if split else (2 if n % 2 == 0 else 1, NONSPLIT)
            return LocalDatum(p, KodairaType.multiplicative(n), cp, cls, n)

        # additive from here on: move the cusp to (0, 0)
        r, t = _singular_point_mod_p(curve, p)
        ai = change_coordinates(curve.ai(), r, 0, t)
        a1, a2, a3, a4, a6 = ai
        if a3 % p or a4 % p or a6 % p:
            raise AlgorithmError(f"singular point translation failed at p={p}")
        if _int_valuation(a6, p) < 2:
            return LocalDatum(p, _II, 1, ADDITIVE, n)
        _, _, b6t, b8t, _, _, _ = invariants(ai)
        if _int_valuation(b8t, p) < 3:
            return LocalDatum(p, _III, 2, ADDITIVE, n)
        if _int_valuation(b6t, p) < 3:
            cp = 3 if _quad_has_root(1, (a3 // p) % p, (-(a6 // p**2)) % p, p) else 1
            return LocalDatum(p, _IV, cp, ADDITIVE, n)

        # normalize: p | a1, a2; p^2 | a3, a4; p^3 | a6
        if p == 2:
            s = a2 % 2
            t6 = 2 * ((a6 // 4) % 2)
        else:
            s = (-a1 * _inv(2, p)) % p
            t6 = (-a3 * _inv(2, p * p)) % (p * p)
        ai = change_coordinates(ai, 0, s, t6)
        a1, a2, a3, a4, a6 = ai
        if a1 % p or a2 % p or a3 % p**2 or a4 % p**2 or a6 % p**3:
            raise AlgorithmError(f"step-6 normalization failed at p={p}")

        # cubic P(T) = T^3 + b T^2 + c T + d over F_p
        b, c, d = (a2 // p) % p, (a4 // p**2) % p, (a6 // p**3) % p
        w = (27 * d * d - b * b * c * c + 4 * b**3 * d - 18 * b * c * d + 4 * c**3) % p
        x = (3 * c - b * b) % p

        if w:
            # distinct roots: I0*
            cp = 1 + _cubic_rational_root_count(b, c, d, p)
            return LocalDatum(p, KodairaType.star(0), cp, ADDITIVE, n)

        if x:
            # double root: In* for some n >= 1
            if p == 2:
                t0 = d if b % 2 else c
            elif p == 3:
                t0 = (b * c) % 3
            else:
                t0 = ((b * c - 9 * d) * _inv(2 * x, p)) % p
            ai = change_coordinates(ai, p * t0, 0, 0)
            a1, a2, a3, a4, a6 = ai
            if a2 % p or a2 % p**2 == 0 or a3 % p**2 or a4 % p**3 or a6 % p**4:
                raise AlgorithmError(f"double-root translation failed at p={p}")
            m = 1
            mxe = 2
            mye = 2
            while True:
                if m > n:
                    raise AlgorithmError(f"In* loop exceeded v(delta) at p={p}")
                if m % 2 == 1:
                    B = a3 // p**mye
                    C = a6 // p ** (mxe + mye)
                    if _quad_separable(1, B % p, (-C) % p, p):
                        cp = 4 if _quad_has_root(1, B % p, (-C) % p, p) else 2
                        return LocalDatum(p, KodairaType.star(m), cp, ADDITIVE, n)
                    y0 = _quad_double_root(1, B % p, (-C) % p, p)
                    ai = change_coordinates(ai, 0, 0, p**mye * y0)
                    a1, a2, a3, a4, a6 = ai
                    mye += 1
                else:
                    A = a2 // p
                    B = a4 // p ** (mxe + 1)
                    C = a6 // p ** (mxe + mye)
                    if _quad_separable(A % p, B % p, C % p, p):
                        cp = 4 if _quad_has_root(A % p, B % p, C % p, p) else 2
                        return LocalDatum(p, KodairaType.star(m), cp, ADDITIVE, n)
                    x0 = _quad_double_root(A % p, B % p, C % p, p)
                    ai = change_coordinates(ai, p**mxe * x0, 0, 0)
                    a1, a2, a3, a4, a6 = ai
                    mxe += 1
                m += 1

        # triple root
        if p == 2:
            t0 = b % 2
        elif p == 3:
            t0 = (-d) % 3
        else:
            t0 = (-b * _inv(3, p)) % p
        ai = change_coordinates(ai, p * t0, 0, 0)
        a1, a2, a3, a4, a6 = ai
        if a2 % p**2 or a4 % p**3 or a6 % p**4:
            raise AlgorithmError(f"triple-root translation failed at p={p}")

        B = a3 // p**2
        C = a6 // p**4
        if _quad_separable(1, B % p, (-C) % p, p):
            cp = 3 if _quad_has_root(1, B % p, (-C) % p, p) else 1
            return LocalDatum(p, _IV_STAR, cp, ADDITIVE, n)
        y0 = _quad_double_root(1, B % p, (-C) % p, p)
        ai = change_coordinates(ai, 0, 0, p * p * y0)
        a1, a2, a3, a4, a6 = ai

        if _int_valuation(a4, p) < 4:
            return LocalDatum(p, _III_STAR, 2, ADDITIVE, n)
        if _int_valuation(a6, p) < 6:
            return LocalDatum(p, _II_STAR, 1, ADDITIVE, n)

        # model was not minimal at p: shrink and start over
        if a1 % p or a2 % p**2 or a3 % p**3 or a4 % p**4 or a6 % p**6:
            raise AlgorithmError(f"non-minimal rescale failed at p={p}")
        curve = WeierstrassCurve(a1 // p, a2 // p**2, a3 // p**3, a4 // p**4, a6 // p**6)


def c_infinity(curve: WeierstrassCurve) -> int:
    """Number of connected components of the real locus: 2 iff disc > 0."""
    return 2 if curve.disc > 0 else 1


def bad_primes(curve: WeierstrassCurve, budget: int = 2_000_000) -> list[int]:
    """Primes of bad reduction: primes dividing the minimal discriminant."""
    return list(CurveAnalysis.of(curve, budget=budget).bad_primes)


def local_data(
    curve: WeierstrassCurve,
    primes: Optional[Iterable[int]] = None,
    budget: int = 2_000_000,
) -> list[LocalDatum]:
    """LocalDatum at the given primes, or at every bad prime when omitted."""
    ps = sorted(set(primes)) if primes is not None else bad_primes(curve, budget)
    return [tate(curve, p) for p in ps]


def global_tamagawa(curve: WeierstrassCurve, budget: int = 2_000_000) -> Factorization:
    """c(E) = prod of c_p over bad primes, returned in factored form."""
    c = 1
    for datum in local_data(curve, budget=budget):
        c *= datum.tamagawa
    return factor(c)


def conductor_exponent(datum: LocalDatum) -> int:
    """f_p from the type and minimal-discriminant valuation (Ogg's formula)."""
    if datum.kodaira.is_good:
        return 0
    return datum.v_delta_min + 1 - datum.kodaira.components


def conductor(curve: WeierstrassCurve, budget: int = 2_000_000) -> int:
    n = 1
    for datum in local_data(curve, budget=budget):
        n *= datum.prime ** conductor_exponent(datum)
    return n


def local_root_number(curve: WeierstrassCurve, place) -> RootNumberDatum:
    """Local root number at a finite prime or at "infinity".

    Additive places return the value "unsupported": the tables for additive
    reduction are out of scope, but every other place still reports.
    """
    if place in ("infinity", "inf", "oo"):
        return RootNumberDatum("infinity", -1)
    p = int(place)
    if curve.j == 0 or curve.j == 1728:
        raise UnsupportedDomainError("root numbers here require j not in {0, 1728}")
    datum = tate(curve, p)
    if datum.reduction_class in (GOOD, NONSPLIT):
        return RootNumberDatum(p, 1)
    if datum.reduction_class == SPLIT:
        return RootNumberDatum(p, -1)
    return RootNumberDatum(p, "unsupported")


def global_root_number_semistable(curve: WeierstrassCurve, budget: int = 2_000_000) -> int:
    """Product of local root numbers; defined here only for semi-stable curves."""
    if curve.j == 0 or curve.j == 1728:
        raise UnsupportedDomainError("root numbers here require j not in {0, 1728}")
    w = -1  # the infinite place
    for datum in local_data(curve, budget=budget):
        if datum.reduction_class == ADDITIVE:
            raise UnsupportedDomainError(
                f"curve has additive reduction at {datum.prime}; global root "
                "number is only computed for semi-stable curves"
            )
        if datum.reduction_class == SPLIT:
            w = -w
    return w
