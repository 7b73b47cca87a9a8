import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamagawa import arith
from tamagawa.arith import (
    _MR_BASES,
    _MR_TABLE,
    Factorization,
    IncompleteFactorizationError,
    _int_valuation,
    _miller_rabin,
    factor,
    is_prime,
    valuation,
)
from fractions import Fraction

# OEIS A014233: the least odd composite that is a strong pseudoprime to each
# of the first k prime bases, k = 1..13
A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def naive_valuation(n, p):
    # independent oracle: repeated division
    if n == 0:
        return math.inf
    num, den = (n.numerator, n.denominator) if isinstance(n, Fraction) else (n, 1)
    v = 0
    m = abs(num)
    while m % p == 0:
        m //= p
        v += 1
    w = 0
    m = den
    while m % p == 0:
        m //= p
        w += 1
    return v - w


def test_valuation_examples():
    assert valuation(3969, 3) == 4  # 3969 = 3^4 * 7^2
    assert valuation(1, 7) == 0
    assert valuation(Fraction(8, 9), 3) == -2
    assert valuation(0, 5) == math.inf
    # the unchecked valuation of Tate's algorithm and minimal_model agrees
    assert _int_valuation(0, 5) == math.inf
    assert _int_valuation(-3969, 3) == 4


def test_valuation_rejects_composite():
    with pytest.raises(ValueError):
        valuation(10, 6)
    with pytest.raises(ValueError):
        valuation(10, 1)


@given(
    st.fractions(min_value=-1000, max_value=1000).filter(lambda x: x != 0),
    st.fractions(min_value=-1000, max_value=1000).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_valuation_multiplicative(x, y, p):
    assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


@given(st.integers(min_value=-10**9, max_value=10**9).filter(lambda n: n != 0),
       st.sampled_from([2, 3, 5, 7, 11, 13, 10007]))
def test_valuation_matches_naive(n, p):
    assert valuation(n, p) == naive_valuation(n, p)


def test_is_prime_examples():
    assert is_prime(19)
    assert not is_prime(1)
    assert not is_prime(3969)
    assert is_prime(2)
    assert not is_prime(0)
    assert is_prime(10**9 + 7)
    with pytest.raises(ValueError):
        is_prime(-3)


def test_a014233_terms_are_composite():
    for term in A014233:
        assert not is_prime(term), term


def test_a014233_terms_fool_exactly_their_prefix():
    # each term is a strong pseudoprime to the first k bases and, where the
    # next term differs, caught by base k + 1: the table's k are not off by one
    for k, term in enumerate(A014233, 1):
        assert _miller_rabin(term, _MR_BASES[:k]), (k, term)
        if k < len(A014233) and A014233[k] != term:
            assert not _miller_rabin(term, _MR_BASES[: k + 1]), (k, term)
    for bound, bases in _MR_TABLE:
        assert bound == A014233[len(bases) - 1], (bound, bases)
    assert len(_MR_BASES) == len(A014233)


def test_is_prime_matches_sieve():
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # trial division's certificate: every factor it reports is a sieve prime
    for n in range(2, 20000):
        assert all(sieve[p] for p in factor(n).primes()), n


def test_factor_splits_the_pseudoprime():
    assert factor(318665857834031151167461).factors == ((399165290221, 1), (798330580441, 1))


def test_trial_division_certifies_without_is_prime(monkeypatch):
    calls = []
    real = arith.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    # 999983 is left once 1009^2 exceeds it, so no primality test runs
    assert factor(2 * 999983).factors == ((2, 1), (999983, 1))
    assert calls == []
    # a cofactor beyond the trial bound still goes through is_prime
    assert factor(1000003 * 1000033).factors == ((1000003, 1), (1000033, 1))
    assert calls


def test_factor_examples():
    f = factor(3969)
    assert f.sign == 1 and f.factors == ((3, 4), (7, 2))
    g = factor(-19)
    assert g.sign == -1 and g.factors == ((19, 1),)
    assert factor(1) == Factorization(1, ())
    with pytest.raises(ValueError):
        factor(0)


def test_factor_reconstructs_and_certifies():
    for n in [2, -720, 1009 * 1013, 2**20 * 3**5 * 1000003, -(10**12 + 39)]:
        f = factor(n)
        assert f.value == n
        for p, _ in f.factors:
            assert is_prime(p)


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=2, max_value=10**6))
@settings(max_examples=50)
def test_factor_merge(n, m):
    assert (factor(n) * factor(m)).factors == factor(n * m).factors


def test_factor_large_semiprime():
    p, q = 1000003, 1000033
    f = factor(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_lucas_component_of_bpsw():
    from tamagawa.arith import _lucas_strong_probable_prime, _miller_rabin

    # strong Lucas pseudoprimes pass the Lucas half but fail Miller-Rabin
    for n in (5459, 5777, 10877):
        assert _lucas_strong_probable_prime(n)
        assert not is_prime(n)
        assert not _miller_rabin(n, (2, 3, 5, 7, 11, 13))
    for p in (104729, 2**31 - 1, 10**9 + 7):
        assert _lucas_strong_probable_prime(p)
        assert is_prime(p)
    # perfect squares are rejected outright
    assert not _lucas_strong_probable_prime(10007**2)


def test_incomplete_factorization_carries_partial():
    p = 2**127 - 1  # needs rho on a large composite: (2^127-1) is prime though
    n = 4 * (2**101 - 1)  # 2^101 - 1 is composite with large factors
    with pytest.raises(IncompleteFactorizationError) as ei:
        factor(n, budget=10)
    err = ei.value
    assert err.sign == 1
    assert (2, 2) in err.partial
    reconstructed = err.cofactor
    for q, e in err.partial:
        reconstructed *= q**e
    assert reconstructed == n
