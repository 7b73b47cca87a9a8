"""Arbitrary-precision integer and rational arithmetic helpers.

Everything downstream (curve invariants, Tate's algorithm, the scans) is
built on exact integers and `fractions.Fraction`; this module supplies
p-adic valuations, certified integer factorization, and primality testing.
Each prime gets the cheapest exact certificate: trial division proves a
cofactor prime once p^2 exceeds it, and Miller-Rabin uses only as many
bases as OEIS A014233 needs for the size of n.  No floating point is used
anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

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
_SMALL_PRIMES: list[int] = []


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


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: sign * prod(p^e), primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must be (prime, exponent>=1), primes increasing")
            last = p

    @property
    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def __mul__(self, other: "Factorization") -> "Factorization":
        exps: dict[int, int] = {}
        for p, e in self.factors:
            exps[p] = exps.get(p, 0) + e
        for p, e in other.factors:
            exps[p] = exps.get(p, 0) + e
        return Factorization(self.sign * other.sign, tuple(sorted(exps.items())))


def _small_primes() -> list[int]:
    """Primes below the trial-division bound, sieved once and cached."""
    if not _SMALL_PRIMES:
        sieve = bytearray([1]) * _TRIAL_BOUND
        sieve[0] = sieve[1] = 0
        for i in range(2, math.isqrt(_TRIAL_BOUND) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _SMALL_PRIMES.extend(i for i in range(_TRIAL_BOUND) if sieve[i])
    return _SMALL_PRIMES


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

    Trial division by the primes up to 41, then Miller-Rabin on the first
    k prime bases, with k the least that OEIS A014233 proves enough for n
    (4 bases below 3.2e9, all 13 below 3.3e24).  Above 3.3e24, BPSW (no
    counterexample is known, and the scans never reach that range).
    """
    if n < 0:
        raise ValueError("is_prime expects n >= 0")
    if n < 2:
        return False
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

    Trial division by cached small primes, then Brent's rho on survivors.
    Every reported prime is certified: a cofactor left once p^2 exceeds it
    has no prime factor below its square root, so it is prime; any other
    passes is_prime.  If the rho budget is exhausted while a composite
    cofactor remains, IncompleteFactorizationError is raised carrying the
    partial result.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    found: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            if n > 1:
                found[n] = 1
                n = 1
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    budget_left = budget
    while stack:
        m = stack.pop()
        if m == 1:
            continue
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
    return Factorization(sign, tuple(sorted(found.items())))


def factor_product(terms, budget: int = 2_000_000) -> Factorization:
    """Factorization of prod(n^k) over the (n, k) terms, factoring each n alone.

    Cheaper than factoring the product when the n are small: a polynomial
    discriminant splits into its factors' values at the parameters.
    """
    sign = 1
    exps: dict[int, int] = {}
    for n, k in terms:
        f = factor(n, budget)
        sign *= f.sign**k
        for p, e in f.factors:
            exps[p] = exps.get(p, 0) + e * k
    return Factorization(sign, tuple(sorted(exps.items())))


def valuation(x: Rational, p: int) -> Union[int, float]:
    """ord_p(x) for a rational x; math.inf for x = 0.

    p must be prime (checked): the case splits downstream compare valuations
    and a composite p would corrupt them silently.
    """
    if p < 2 or not is_prime(p):
        raise ValueError(f"valuation requires a prime, got {p}")
    if x == 0:
        return math.inf
    if isinstance(x, Fraction):
        return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
    return _int_valuation(x, p)


def _int_valuation(n: int, p: int) -> Union[int, float]:
    """ord_p(n) for an integer n; math.inf for n = 0.  p is not checked prime."""
    if n == 0:
        return math.inf
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
