"""Arbitrary-precision integer and rational arithmetic helpers.

Everything downstream (curve invariants, Tate's algorithm, the scans) is
built on exact integers and `fractions.Fraction`; this module supplies
p-adic valuations, certified integer factorization, and primality testing.
Each prime gets the cheapest exact certificate.  One sieve of the primes
below 10^4, built at import, answers `is_prime` there by lookup and feeds
trial division, which runs over blocks of consecutive sieve primes: one gcd
with a block's product clears a block that shares no prime with n.  Trial
division proves a cofactor prime once p^2 exceeds it, and Miller-Rabin uses
only as many bases as OEIS A014233 needs for the size of n.  No floating
point is used anywhere.

`factor` keeps each int n with 0 < |n| < 10^4 it has factored in a table
for the life of the process, since the family discriminants split into
such values and the scans factor each of them many times.  Below 10^4 trial
division always finishes: it never calls Brent's rho or is_prime, so an
entry does not depend on the budget.  The table holds at most 19,998
entries (7.1 MB by tracemalloc); one preset sweep fills 2,311 (0.70 MB).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .record import Record

Rational = Union[int, Fraction]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (bound, first k prime bases) from OEIS A014233: the bound is the least
# strong pseudoprime to those k bases, so they prove every n below it that
# has no prime factor among them.  Each row keeps the least k for its bound
# (A014233 repeats a term for k = 7, 8 and for k = 9, 10, 11).
_MR_TABLE = tuple(
    (bound, _MR_BASES[:k])
    for bound, k in (
        (2_047, 1),
        (1_373_653, 2),
        (25_326_001, 3),
        (3_215_031_751, 4),
        (2_152_302_898_747, 5),
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 7),
        (3_825_123_056_546_413_051, 9),
        (318_665_857_834_031_151_167_461, 12),
        (3_317_044_064_679_887_385_961_981, 13),
    )
)

_TRIAL_BOUND = 10_000
# sieve primes per trial-division block, set by timing factor on the benchmark's
# arguments: 16 to 32 tie, and longer blocks slow the many n below 100
_BLOCK = 32


class IncompleteFactorizationError(Exception):
    """Factoring budget ran out with a composite cofactor left over.

    Carries the partial result so callers can report what was found; the
    composite leftover is never silently treated as prime.
    """

    def __init__(self, sign: int, factors: list[tuple[int, int]], cofactor: int):
        self.sign = sign
        self.partial = list(factors)
        self.cofactor = cofactor
        super().__init__(
            f"factorization incomplete: composite cofactor {cofactor} "
            f"(found {factors})"
        )


class Factorization(Record):
    """Signed prime factorization: sign * prod(p^e), primes strictly increasing."""

    _fields = ("sign", "factors")

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        last = 1
        for p, e in factors:
            if p <= last or e < 1:
                raise ValueError("factors must be (prime, exponent>=1), primes increasing")
            last = p
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "factors", factors)

    @property
    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __mul__(self, other: "Factorization") -> "Factorization":
        exps: dict[int, int] = {}
        for p, e in self.factors:
            exps[p] = exps.get(p, 0) + e
        for p, e in other.factors:
            exps[p] = exps.get(p, 0) + e
        return Factorization(self.sign * other.sign, tuple(sorted(exps.items())))


def _sieve(bound: int) -> list[int]:
    """The primes below bound, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(bound) if sieve[i]]


_SMALL_PRIMES = _sieve(_TRIAL_BOUND)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
# (primes, product) for runs of _BLOCK consecutive small primes, the last run shorter
_BLOCKS = tuple(
    (tuple(_SMALL_PRIMES[i : i + _BLOCK]), math.prod(_SMALL_PRIMES[i : i + _BLOCK]))
    for i in range(0, len(_SMALL_PRIMES), _BLOCK)
)
# a cofactor below this with no prime factor up to the last small prime is prime
_CERTIFIED_BELOW = _SMALL_PRIMES[-1] ** 2
# factor's result for each int n with 0 < |n| < _TRIAL_BOUND it has seen; keyed
# only by exact ints, since 12.0 and Fraction(12) hash and compare equal to 12
# but factor rejects them
_SMALL_FACTORED: dict[int, Factorization] = {}


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _lucas_strong_probable_prime(n: int) -> bool:
    # Strong Lucas test with Selfridge's parameters; combined with a base-2
    # Miller-Rabin this is the usual BPSW test (no known composite passes).
    if n % 2 == 0:
        return n == 2
    s = math.isqrt(n)
    if s * s == n:
        return False
    d = 5
    while True:
        g = math.gcd(abs(d), n)
        if 1 < g < n:
            return False
        if _jacobi(d, n) == -1:
            break
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    # strong test: n+1 = m * 2^j with m odd
    m = n + 1
    j = 0
    while m % 2 == 0:
        m //= 2
        j += 1
    # Lucas sequences by binary ladder
    u, v, qk = 0, 2, 1
    for bit in bin(m)[2:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) * ((n + 1) // 2) % n, (d * u + p * v) * ((n + 1) // 2) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(j - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Exact primality for desk-scale integers.

    Below 10^4, a lookup in the sieve that `factor`'s trial division uses.
    Above it, trial division by the primes up to 41, then Miller-Rabin on
    the first k prime bases, with k the least that OEIS A014233 proves
    enough for n (4 bases below 3.2e9, all 13 below 3.3e24).  Above 3.3e24,
    BPSW (no counterexample is known, and the scans never reach that range).
    Raises TypeError for an n that is not an int.
    """
    if not isinstance(n, int):
        raise TypeError(f"is_prime expects an int, got {n!r}")
    if n < 0:
        raise ValueError("is_prime expects n >= 0")
    if n < _TRIAL_BOUND:
        return n in _SMALL_PRIME_SET
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    for bound, bases in _MR_TABLE:
        if n < bound:
            return _miller_rabin(n, bases)
    return _miller_rabin(n, (2,)) and _lucas_strong_probable_prime(n)


def _brent_rho(n: int, budget: int) -> tuple[int, int]:
    """Find a nontrivial factor of odd composite n, or 0 if budget ran out.

    Returns (factor, iterations_used). Deterministic: the polynomial offset
    steps through 1, 2, 3, ... so identical inputs give identical runs.
    """
    used = 0
    c = 1
    while used < budget:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                used += 1
        if 1 < g < n:
            return g, used
        c += 1
    return 0, used


def factor(n: int, budget: int = 2_000_000) -> Factorization:
    """Complete certified factorization of n != 0.

    Trial division by the sieve primes below 10^4 in blocks of _BLOCK
    consecutive primes: a block whose product is coprime to n costs one gcd,
    and otherwise only the primes dividing that gcd are divided out.  Then
    Brent's rho on a survivor.  Every reported prime is certified: a cofactor
    left once the first prime p of a block has p^2 > n, or left below 9973^2
    after every block, has no prime factor below its square root, so it is
    prime; a cofactor below 10^4 is read off the sieve; any other passes
    is_prime.  If the rho budget is exhausted while a composite
    cofactor remains, IncompleteFactorizationError is raised carrying the
    partial result.  Each int 0 < |n| < 10^4 is factored once per process,
    then read from _SMALL_FACTORED.  Raises TypeError for an n that is not an
    int; a bool is one.
    """
    small = type(n) is int and -_TRIAL_BOUND < n < _TRIAL_BOUND
    if small and (known := _SMALL_FACTORED.get(n)) is not None:
        return known
    if not isinstance(n, int):
        raise TypeError(f"factor expects an int, got {n!r}")
    if n == 0:
        raise ValueError("cannot factor 0")
    key = n
    sign = 1 if n > 0 else -1
    n = abs(n)
    found: dict[int, int] = {}
    for block, product in _BLOCKS:
        if block[0] * block[0] > n or n in _SMALL_PRIME_SET:
            break  # n is 1 or prime: no prime below block[0] divides it, or the sieve lists it
        g = math.gcd(n, product)
        if g == 1:
            continue  # no prime of the block divides n
        for p in block:
            if g % p == 0:
                e = 1
                n //= p
                while n % p == 0:
                    n //= p
                    e += 1
                found[p] = e
                g //= p
                if g == 1 or n in _SMALL_PRIME_SET:
                    break
    if 1 < n < _CERTIFIED_BELOW:
        found[n] = 1
        n = 1
    stack = [n] if n > 1 else []
    budget_left = budget
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        g, used = _brent_rho(m, budget_left)
        budget_left -= used
        if g == 0:
            # fold any unsplit stack entries back into the cofactor
            cof = m
            for rest in stack:
                cof *= rest
            raise IncompleteFactorizationError(sign, sorted(found.items()), cof)
        stack.append(g)
        stack.append(m // g)
    result = Factorization(sign, tuple(sorted(found.items())))
    if small:
        _SMALL_FACTORED[key] = result
    return result


def factor_product(terms) -> Factorization:
    """Factorization of prod(n^k) over the (n, k) terms, factoring each n alone.

    Cheaper than factoring the product when the n are small: a polynomial
    discriminant splits into its factors' values at the parameters.
    """
    sign = 1
    exps: dict[int, int] = {}
    for n, k in terms:
        f = factor(n)
        sign *= f.sign**k
        for p, e in f.factors:
            exps[p] = exps.get(p, 0) + e * k
    return Factorization(sign, tuple(sorted(exps.items())))


def as_fraction(value: Union[Rational, str]) -> Fraction:
    """value as a Fraction, for an int, a Fraction or a str such as "7/3".

    Raises TypeError for anything else: a float would pass silently as its
    binary rational, 0.1 as 3602879701896397/36028797018963968.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an int, a Fraction or a str, got {value!r}")


def valuation(x: Rational, p: int) -> int:
    """ord_p(x) for a nonzero rational x.

    p must be prime (checked): the case splits downstream compare valuations
    and a composite p would corrupt them silently.  Raises ValueError for
    x = 0, as factor(0) does: ord_p(0) has no finite value.  Raises TypeError
    for an x that is neither an int nor a Fraction, and for a p that is not
    an int.
    """
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"valuation expects an int or a Fraction, got {x!r}")
    if p < 2 or not is_prime(p):
        raise ValueError(f"valuation requires a prime, got {p}")
    if isinstance(x, Fraction):
        return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
    return _int_valuation(x, p)


def _int_valuation(n: int, p: int) -> int:
    """ord_p(n) for a nonzero integer n; ValueError for n = 0.  p is not checked prime."""
    if n == 0:
        raise ValueError("ord_p(0) has no finite value")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
