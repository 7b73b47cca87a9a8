import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamagawa.arith import (
    Factorization,
    IncompleteFactorizationError,
    _int_valuation,
    factor,
    is_prime,
    valuation,
)
from fractions import Fraction


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
