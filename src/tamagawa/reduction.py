"""Tate's algorithm and local data at every place.

When p^12 | disc, `tate` asks `curves.minimal_exponent` for the k that
makes the model minimal at p, divides c4, c6 and disc by p^(4k), p^(6k) and
p^(12k) once, and at 2 and 3 rebuilds the model from them.  Good and I_n
reduction are then read off at every prime.  At p = 2 and 3 additive
reduction runs Tate's steps once through, on exact integers: the torsion
families hit I_n*, IV and IV* exactly where valuation shortcuts misclassify.

At p >= 5 the answer is read off c4, c6 and disc with no coordinate change
(Silverman, Advanced Topics, IV.9, Table 4.1; Cremona, Algorithms for
Modular Elliptic Curves, 3.2).  On the minimal model, with n = v(disc):

- n = 0 is good reduction, and p not dividing c4 is I_n (below);
- 3 v(c4) < n (v(j) < 0) is I_{n-6}*, where v(c4) = 2 and v(c6) = 3;
- otherwise n = 2, 3, 4, 6, 8, 9, 10 gives II, III, IV, I0*, IV*, III*, II*,
  with c_p = 1, 2, 1 or 3, 1 or 2 or 4, 1 or 3, 2, 1.

Each c_p with a choice is Tate's last step read on the short model
y^2 = x^3 + a4 x + a6 with a4 = -27 c4 and a6 = -54 c6, which is the curve
scaled by u = 1/6, a unit at p: it scales c6 by 6^6 and disc by 6^12, both
squares.  With a1 = a3 = 0 every y-shift the steps choose is 0, so only x
moves and the model stays y^2 = x^3 + a2 x^2 + a4 x + a6.  The cusp is at
(0, 0), and:

- IV (v(a6) = 2) and IV* (v(a6) = 4): c_p = 3 iff T^2 = a6 / p^(n/2) has a
  root, and a6 = -54 c6 = -6 c6 * 9: iff -6 c6 / p^(n/2) is a square mod p;
- I0*: c_p = 1 + #roots in F_p of T^3 + (a4 / p^2) T + a6 / p^3, the cubic
  of step 6, counted by `_cubic_rational_root_count`;
- I_m*, m = n - 6 >= 1: translate x so that the double root of the step-6
  cubic is at 0; then y^2 = x^3 + a2 x^2 + a4 x + a6 with v(a2) = 1, and
  the m-th step ends the loop.  Put A = a2 / p, a unit.
  - m odd: the model at step m has v(a4) >= (m + 5) / 2 and v(a6) = m + 3,
    and the loop's quadratic T^2 = a6 / p^(m+3) decides c_p = 4 or 2.
    Here c6 = -64 a2^3 + 288 a2 a4 - 864 a6 = -64 A^3 p^3 (mod p^4), and
    every term of disc / 16 = a2^2 a4^2 - 4 a4^3 - 4 a2^3 a6 - 27 a6^2
    + 18 a2 a4 a6 but -4 a2^3 a6 lies in p^(m+7), so
    disc / p^(m+6) = -64 A^3 a6 / p^(m+3) (mod p).  Then
    (c6 / p^3)(disc / p^n) = (64 A^3)^2 a6 / p^(m+3): c_p = 4 iff it is a
    square.
  - m even: the model at step m has a4 = p^(2+m/2) B and a6 = p^(m+3) C,
    and the loop's quadratic A T^2 + B T + C decides: c_p = 4 iff its
    discriminant B^2 - 4AC is a nonzero square.  The terms a2^2 a4^2 and
    -4 a2^3 a6 of disc / 16 lie in p^(m+6) and the rest in p^(m+7), so
    disc / p^(m+6) = 16 A^2 (B^2 - 4AC) (mod p): c_p = 4 iff disc / p^n is
    a square.

At p | disc, p not dividing c4, the model is p-minimal of type I_n, split iff
T^2 + a1*T - a2 has a root in F_p after moving the node to (0, 0); there the
discriminant is b2 and c6 = -b2^3 (mod p), so at odd p: split iff -c6 is a
nonzero square mod p.  At p = 2 a1 is odd, the node has x = a3 and the move
gives a2 + 3*a3: split iff a2 + a3 is even; `tate` moves no node (Silverman,
Advanced Topics, IV.9; Cremona, Algorithms for Modular Elliptic Curves, 3.2).

At I0*, c_p is 1 plus the number of F_p-roots of the separable cubic
T^3 + b T^2 + c T + d.  Below p = 100 (the only way at p = 2) the roots are
counted one by one.  Above, Stickelberger's theorem decides: at odd p a
separable cubic with r irreducible factors has a discriminant whose
Legendre symbol is (-1)^(3 - r), so a non-square discriminant means exactly
one root, and a square one means 3 roots when T^p = T modulo the cubic and
none otherwise (L. Stickelberger, 1897; see R. G. Swan, Factorization of
polynomials over finite fields, Pacific J. Math. 12 (1962)).

Every square test is Euler's criterion in `_is_square`, and at p = 2 and 3
each quadratic step (IV, every I_m* step, IV*) makes one `_quadratic` call,
which says whether the quadratic has a root in F_p and where its double
root is.

The invariants and the coordinate changes are the shared ones of
`curves.invariants` and `curves.change_coordinates`; this module keeps no
formula of its own for them.  Each of Tate's steps asks only whether p^k
divides a coefficient, and it is asked as a residue, as in
`curves.minimal_exponent`: no valuation is counted, and a zero coefficient,
divisible by every p^k, needs no case of its own.  `arith._int_valuation`
is read only when `tate` is not given ord_p(disc).
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, NamedTuple, Optional, Union

from .arith import Factorization, _int_valuation, factor, is_prime
from .curves import (
    CurveAnalysis,
    WeierstrassCurve,
    change_coordinates,
    curve_from_c4c6,
    invariants,
    minimal_exponent,
)
from .record import Record

GOOD = "good"
SPLIT = "split"
NONSPLIT = "nonsplit"
ADDITIVE = "additive"

_KODAIRA_RE = re.compile(r"^(I(0|[1-9]\d*)\*?|II\*?|III\*?|IV\*?)$")
# special-fiber components of the types without an n
_ADDITIVE_COMPONENTS = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}


class UnsupportedDomainError(ValueError):
    """A quantity was requested outside the range where it is defined here."""


class KodairaType(Record):
    """Kodaira symbol: I0, In (n>=1), II, III, IV, In* (n>=0), IV*, III*, II*.

    n is the n of In and In*, None for the others; a type is compared,
    hashed and shown by its symbol alone.
    """

    _fields = ("symbol",)

    def __init__(self, symbol: str):
        m = _KODAIRA_RE.match(symbol)
        if not m:
            raise ValueError(f"bad Kodaira symbol {symbol!r}")
        object.__setattr__(self, "symbol", symbol)
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


class LocalDatum(NamedTuple):
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


class RootNumberDatum(NamedTuple):
    place: Union[int, str]  # prime or "infinity"
    value: Union[int, str]  # +1, -1, or "unsupported"


def _is_square(a: int, p: int) -> bool:
    """Euler's criterion at odd p: is a a nonzero square mod p?"""
    return pow(a % p, (p - 1) // 2, p) == 1


def _quadratic(A: int, B: int, C: int, p: int) -> tuple[bool, Optional[int]]:
    """(has a root in F_p, double root or None) of A T^2 + B T + C with A a unit mod p.

    The discriminant is taken once.  At p = 2 it is B mod 2: odd B leaves a
    separable quadratic with a root iff it vanishes at 0 or 1; even B leaves
    A T^2 + C, whose double root is C A because squaring is the identity on F_2.
    """
    if p == 2:
        if B % 2:
            return C % 2 == 0 or (A + B + C) % 2 == 0, None
        return True, (C * A) % 2
    disc = (B * B - 4 * A * C) % p
    if disc:
        return _is_square(disc, p), None
    return True, (-B * pow(2 * A, -1, p)) % p


def _cubic_rational_root_count(b: int, c: int, d: int, disc: int, p: int) -> int:
    """Number of F_p-roots of the separable cubic T^3 + b T^2 + c T + d of discriminant disc."""
    if p < 100:
        return sum(1 for t in range(p) if (((t + b) * t + c) * t + d) % p == 0)
    # Stickelberger (module docstring): one root for a non-square disc, else
    # 3 or none, 3 exactly when T^p = T in F_p[T]/(cubic) by square-and-multiply
    if not _is_square(disc, p):
        return 1
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
    return 3 if result == [0, 1, 0] else 0


def _singular_point_mod_p(curve: WeierstrassCurve, p: int) -> tuple[int, int]:
    """(r, t) mod p with the reduced curve singular at (r, t), at a cusp (p | c4) and p = 2 or 3."""
    a1, a2, a3, a4, a6 = curve.ai()
    if p == 2:
        r = a4 % 2
        t = (r * (1 + a2 + a4) + a6) % 2
    else:
        r = (-curve.b6) % 3
        t = (a1 * r + a3) % 3
    return r, t


# the potentially good types at p >= 5 whose c_p needs no residue test, by v(disc_min)
_BY_V_DELTA = {2: (_II, 1), 3: (_III, 2), 9: (_III_STAR, 2), 10: (_II_STAR, 1)}


def _tate_above_3(c4: int, c6: int, disc: int, n: int, p: int) -> LocalDatum:
    """`tate` at p >= 5 on a p-minimal model with p | c4 and n = v(disc) > 0, in closed form."""
    if c4 % p ** ((n + 2) // 3):
        # p^ceil(n/3) does not divide c4, so 3 v(c4) < n: potentially multiplicative,
        # v(c4) = 2 and v(c6) = 3: I_{n-6}*
        unit = disc // p**n
        if n % 2:
            unit *= c6 // p**3
        return LocalDatum(p, KodairaType.star(n - 6), 4 if _is_square(unit, p) else 2, ADDITIVE, n)
    if n == 6:
        # I0*: the cubic of y^2 = x^3 - 27 c4 x - 54 c6 at x = p X, divided by p^3
        c, d = -27 * (c4 // p**2), -54 * (c6 // p**3)
        cp = 1 + _cubic_rational_root_count(0, c, d, -4 * c**3 - 27 * d * d, p)
        return LocalDatum(p, KodairaType.star(0), cp, ADDITIVE, n)
    if n in (4, 8):
        # IV and IV*: three components over F_p iff y^2 = -54 c6 / p^(n/2) has a root
        cp = 3 if _is_square(-6 * (c6 // p ** (n // 2)), p) else 1
        return LocalDatum(p, _IV if n == 4 else _IV_STAR, cp, ADDITIVE, n)
    if n not in _BY_V_DELTA:
        raise RuntimeError(f"no Kodaira type has v(disc_min) = {n} at p={p}")
    kodaira, cp = _BY_V_DELTA[n]
    return LocalDatum(p, kodaira, cp, ADDITIVE, n)


def tate(curve: WeierstrassCurve, p: int, n: Optional[int] = None) -> LocalDatum:
    """Kodaira type, Tamagawa number and reduction class of curve at p.

    Total: the model is made minimal at p by `minimal_exponent` first, so
    any integral model of the curve gives the same answer.  Additive
    reduction is read off c4, c6 and disc at p >= 5 and found by Tate's
    steps at p = 2 and 3 (module docstring).

    Given n, the caller vouches that p is a prime certified by `arith.factor`
    and that n = ord_p(curve.disc), as for a pair (p, n) of a factorization
    of curve.disc; neither is proved again.  Without n, p is proved prime
    (ValueError if it is not) and n is computed.
    """
    if n is None:
        if p < 2 or not is_prime(p):
            raise ValueError(f"{p} is not prime")
        n = _int_valuation(curve.disc, p)
    c4, c6, disc = curve.c4, curve.c6, curve.disc
    k = minimal_exponent(c4, c6, n, p) if n >= 12 else 0
    if k:
        c4, c6, disc, n = c4 // p ** (4 * k), c6 // p ** (6 * k), disc // p ** (12 * k), n - 12 * k
        if p < 5:
            # integral by Kraus's theorem: the congruences hold at p by the choice of
            # k, and at the other one of 2, 3 as they did for curve
            curve = curve_from_c4c6(c4, c6)
    if n == 0:
        return LocalDatum(p, _I0, 1, GOOD, 0)

    if c4 % p:
        # multiplicative I_n, split or not without moving the node (module docstring)
        if p == 2:
            split = (curve.a2 + curve.a3) % 2 == 0
        elif c6 % p == 0:
            raise RuntimeError(f"node with p | c6 at p={p}")
        else:
            split = _is_square(-c6, p)
        cp, cls = (n, SPLIT) if split else (2 if n % 2 == 0 else 1, NONSPLIT)
        return LocalDatum(p, KodairaType.multiplicative(n), cp, cls, n)

    if p > 3:
        return _tate_above_3(c4, c6, disc, n, p)

    # additive at p = 2 or 3: Tate's steps on the p-minimal model; move the cusp to (0, 0)
    r, t = _singular_point_mod_p(curve, p)
    ai = change_coordinates(curve.ai(), r, 0, t)
    a1, a2, a3, a4, a6 = ai
    if a3 % p or a4 % p or a6 % p:
        raise RuntimeError(f"singular point translation failed at p={p}")
    if a6 % p**2:
        return LocalDatum(p, _II, 1, ADDITIVE, n)
    _, _, b6t, b8t, _, _, _ = invariants(ai)
    if b8t % p**3:
        return LocalDatum(p, _III, 2, ADDITIVE, n)
    if b6t % p**3:
        # v(b6) = 2, so the quadratic's discriminant b6 / p^2 is a unit
        has_root, root = _quadratic(1, a3 // p, -(a6 // p**2), p)
        if root is not None:
            raise RuntimeError(f"type IV quadratic is inseparable at p={p}")
        return LocalDatum(p, _IV, 3 if has_root else 1, ADDITIVE, n)

    # normalize: p | a1, a2; p^2 | a3, a4; p^3 | a6
    if p == 2:
        s = a2 % 2
        t6 = 2 * ((a6 // 4) % 2)
    else:
        # s = -a1 / 2 mod 3 and t6 = -a3 / 2 mod 9, as 1/2 is 2 mod 3 and 5 mod 9
        s = a1 % 3
        t6 = (4 * a3) % 9
    ai = change_coordinates(ai, 0, s, t6)
    a1, a2, a3, a4, a6 = ai
    if a1 % p or a2 % p or a3 % p**2 or a4 % p**2 or a6 % p**3:
        raise RuntimeError(f"step-6 normalization failed at p={p}")

    # cubic P(T) = T^3 + b T^2 + c T + d over F_p
    b, c, d = (a2 // p) % p, (a4 // p**2) % p, (a6 // p**3) % p
    # w is minus the cubic's discriminant
    w = (27 * d * d - b * b * c * c + 4 * b**3 * d - 18 * b * c * d + 4 * c**3) % p
    x = (3 * c - b * b) % p

    if w:
        # distinct roots: I0*
        cp = 1 + _cubic_rational_root_count(b, c, d, -w, p)
        return LocalDatum(p, KodairaType.star(0), cp, ADDITIVE, n)

    if x:
        # double root: In* for some n >= 1
        if p == 2:
            t0 = d if b % 2 else c
        else:
            t0 = ((b * c - 9 * d) * pow(2 * x, -1, p)) % p
        ai = change_coordinates(ai, p * t0, 0, 0)
        a1, a2, a3, a4, a6 = ai
        if a2 % p or a2 % p**2 == 0 or a3 % p**2 or a4 % p**3 or a6 % p**4:
            raise RuntimeError(f"double-root translation failed at p={p}")
        for m in range(1, n + 1):
            # the next shift of x is by p^mxe and of y by p^mye: y moves at odd m, x at even m
            mxe, mye = 2 + (m - 1) // 2, 2 + m // 2
            if m % 2 == 1:
                A, B, C = 1, a3 // p**mye, -(a6 // p ** (mxe + mye))
            else:
                A, B, C = a2 // p, a4 // p ** (mxe + 1), a6 // p ** (mxe + mye)
            has_root, root = _quadratic(A, B, C, p)
            if root is None:
                cp = 4 if has_root else 2
                return LocalDatum(p, KodairaType.star(m), cp, ADDITIVE, n)
            r, t = (0, p**mye * root) if m % 2 == 1 else (p**mxe * root, 0)
            ai = change_coordinates(ai, r, 0, t)
            a1, a2, a3, a4, a6 = ai
        raise RuntimeError(f"In* loop exceeded v(delta) at p={p}")

    # triple root t0: the constant term -t0^3 of (T - t0)^3 is -t0, as t^3 = t on F_2 and F_3
    t0 = -d % p
    ai = change_coordinates(ai, p * t0, 0, 0)
    a1, a2, a3, a4, a6 = ai
    if a2 % p**2 or a4 % p**3 or a6 % p**4:
        raise RuntimeError(f"triple-root translation failed at p={p}")

    has_root, root = _quadratic(1, a3 // p**2, -(a6 // p**4), p)
    if root is None:
        return LocalDatum(p, _IV_STAR, 3 if has_root else 1, ADDITIVE, n)
    ai = change_coordinates(ai, 0, 0, p * p * root)
    a1, a2, a3, a4, a6 = ai

    if a4 % p**4:
        return LocalDatum(p, _III_STAR, 2, ADDITIVE, n)
    if a6 % p**6:
        return LocalDatum(p, _II_STAR, 1, ADDITIVE, n)
    # step 11 reached only on a model that is not minimal at p, which minimal_exponent rules out
    raise RuntimeError(f"Tate's steps found the p-minimal model not minimal at p={p}")


def c_infinity(curve: WeierstrassCurve) -> int:
    """Number of connected components of the real locus: 2 iff disc > 0."""
    return 2 if curve.disc > 0 else 1


def bad_primes(curve: WeierstrassCurve) -> list[int]:
    """Primes of bad reduction: primes dividing the minimal discriminant."""
    return list(CurveAnalysis.of(curve).bad_primes)


def local_data(
    curve: WeierstrassCurve,
    primes: Optional[Iterable[int]] = None,
    *,
    disc: Optional[Factorization] = None,
) -> list[LocalDatum]:
    """LocalDatum at the given primes, or at every bad prime when omitted.

    Given disc, a factorization of curve.disc from `arith.factor`, the data
    are at each of its primes, and `tate` trusts each (p, e) of it: p is not
    proved prime again and ord_p(curve.disc) is not recomputed.  A disc that
    does not multiply out to curve.disc, or one given with primes, raises
    ValueError, so a wrong exponent is never used.  Given neither, the data
    are at each (p, e) of the minimal discriminant that `CurveAnalysis.of`
    factors, read on the minimal model, which gives the same data as any
    integral model.
    """
    if disc is not None:
        if primes is not None:
            raise ValueError("local_data takes primes or disc, not both")
        if disc.value != curve.disc:
            raise ValueError(f"factorization {disc} is not the discriminant of {curve}")
        return [tate(curve, p, e) for p, e in disc.factors]
    if primes is None:
        analysis = CurveAnalysis.of(curve)
        return [tate(analysis.minimal, p, e) for p, e in analysis.disc_min.factors]
    return [tate(curve, p) for p in sorted(set(primes))]


def global_tamagawa(curve: WeierstrassCurve) -> Factorization:
    """c(E) = prod of c_p over bad primes, returned in factored form."""
    c = 1
    for datum in local_data(curve):
        c *= datum.tamagawa
    return factor(c)


def conductor_exponent(datum: LocalDatum) -> int:
    """f_p from the type and minimal-discriminant valuation (Ogg's formula)."""
    if datum.kodaira.is_good:
        return 0
    return datum.v_delta_min + 1 - datum.kodaira.components


def conductor(curve: WeierstrassCurve) -> int:
    n = 1
    for datum in local_data(curve):
        n *= datum.prime ** conductor_exponent(datum)
    return n


def local_root_number(curve: WeierstrassCurve, place) -> RootNumberDatum:
    """Local root number at a finite prime or at "infinity".

    Additive places return the value "unsupported": the tables for additive
    reduction are out of scope, but every other place still reports.  A
    finite place is an int; any other place raises TypeError.
    """
    if place == "infinity":
        return RootNumberDatum("infinity", -1)
    if not isinstance(place, int):
        raise TypeError(f"a finite place is an int, got {place!r}")
    p = place
    if curve.c4 == 0 or curve.c6 == 0:  # j = 0 or j = 1728, as c4^3 - c6^2 = 1728 disc
        raise UnsupportedDomainError("root numbers here require j not in {0, 1728}")
    datum = tate(curve, p)
    if datum.reduction_class in (GOOD, NONSPLIT):
        return RootNumberDatum(p, 1)
    if datum.reduction_class == SPLIT:
        return RootNumberDatum(p, -1)
    return RootNumberDatum(p, "unsupported")


def semistable_root_number(data: Iterable[LocalDatum]) -> Optional[int]:
    """The global root number read off a curve's local data: the product of
    -1 at infinity, -1 at each split place and +1 at each good or nonsplit
    one, so w = -1 exactly when the number of split places is even.  None
    when some place is additive, where this rule does not apply."""
    w = -1  # the infinite place
    for datum in data:
        if datum.reduction_class == ADDITIVE:
            return None
        if datum.reduction_class == SPLIT:
            w = -w
    return w


def global_root_number_semistable(curve: WeierstrassCurve) -> int:
    """Product of local root numbers; defined here only for semi-stable curves."""
    if curve.c4 == 0 or curve.c6 == 0:  # j = 0 or j = 1728, as c4^3 - c6^2 = 1728 disc
        raise UnsupportedDomainError("root numbers here require j not in {0, 1728}")
    data = local_data(curve)
    w = semistable_root_number(data)
    if w is None:
        prime = next(d.prime for d in data if d.reduction_class == ADDITIVE)
        raise UnsupportedDomainError(
            f"curve has additive reduction at {prime}; global root "
            "number is only computed for semi-stable curves"
        )
    return w
