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
    # ord_p(0) has no finite value: both refuse it, as factor(0) does
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError):
            valuation(zero, 5)
    # the unchecked valuation of Tate's algorithm and minimal_model agrees
    with pytest.raises(ValueError):
        _int_valuation(0, 5)
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


def test_incomplete_factorization_folds_every_unsplit_piece_into_the_cofactor(monkeypatch):
    # four primes above the sieve, so trial division leaves n whole for rho
    n = 10007 * 10009 * 10037 * 10039
    calls = []

    def split_once(m, budget):
        calls.append(m)
        return (10007 * 10009, 1) if len(calls) == 1 else (0, budget)

    monkeypatch.setattr(arith, "_brent_rho", split_once)
    with pytest.raises(IncompleteFactorizationError) as ei:
        factor(n)
    # rho gave up on 10037 * 10039 while 10007 * 10009 was still on the stack
    assert calls == [n, 10037 * 10039]
    assert ei.value.cofactor == n
    assert ei.value.partial == []


def _reference_factor(n, budget=2_000_000):
    """factor with trial division one sieve prime at a time: the reference for the blocks.

    Calls arith.is_prime and arith._brent_rho through the module, as factor
    does, so that a test can record or cap both.
    """
    sign = 1 if n > 0 else -1
    n = abs(n)
    found = {}
    for p in arith._SMALL_PRIMES:
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
        if arith.is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        g, used = arith._brent_rho(m, budget_left)
        budget_left -= used
        if g == 0:
            cof = m
            for rest in stack:
                cof *= rest
            raise IncompleteFactorizationError(sign, sorted(found.items()), cof)
        stack.append(g)
        stack.append(m // g)
    return Factorization(sign, tuple(sorted(found.items())))


def test_blocks_cover_the_sieve_in_order():
    assert [p for block, _ in arith._BLOCKS for p in block] == arith._SMALL_PRIMES
    assert all(product == math.prod(block) for block, product in arith._BLOCKS)
    assert len(arith._BLOCKS[-1][0]) < arith._BLOCK  # the short last block is kept


def test_factor_matches_per_prime_loop_below_2e5():
    for n in range(1, 2 * 10**5):
        assert factor(n) == _reference_factor(n), n


@given(st.integers(min_value=-(10**18), max_value=10**18).filter(lambda n: n != 0))
@settings(max_examples=300, deadline=None)
def test_factor_matches_per_prime_loop_to_1e18(n):
    assert factor(n) == _reference_factor(n)


def _calls(monkeypatch, fn, n):
    """fn(n), or what its IncompleteFactorizationError carries, with the
    arguments of every is_prime and _brent_rho call it makes."""
    primes, rho = [], []
    real_is_prime, real_rho = arith.is_prime, arith._brent_rho

    def is_prime_spy(m):
        primes.append(m)
        return real_is_prime(m)

    def rho_spy(m, left):
        rho.append((m, left))
        return real_rho(m, left)

    monkeypatch.setattr(arith, "is_prime", is_prime_spy)
    monkeypatch.setattr(arith, "_brent_rho", rho_spy)
    try:
        result = fn(n)
    except IncompleteFactorizationError as e:
        result = (e.sign, e.partial, e.cofactor)
    finally:
        monkeypatch.setattr(arith, "is_prime", real_is_prime)
        monkeypatch.setattr(arith, "_brent_rho", real_rho)
    return result, primes, rho


def test_factor_matches_per_prime_loop_at_block_edges(monkeypatch):
    # the first and last prime of every block, alone, squared, in pairs and to
    # a power, then cofactors past the sieve that take is_prime or rho
    edges = sorted({p for block, _ in arith._BLOCKS for p in (block[0], block[-1])})
    cases = [q**k for q in edges for k in (1, 2, 3)]
    cases += [q * r for i, q in enumerate(edges) for r in edges[i + 1 :]]
    cases += [q**k for q in edges for k in range(4, 64) if q**k < 10**40]
    cases += [10007**2, 10007 * 10009, 9973**2, 9973 * 10007, 2 * 3 * 10007 * 10009]
    cases += list(range(10**8 - 300, 10**8 + 300))
    for n in cases:
        got, primes, rho = _calls(monkeypatch, factor, n)
        want, ref_primes, ref_rho = _calls(monkeypatch, _reference_factor, n)
        assert (got, rho) == (want, ref_rho), n
        # the loop proves a cofactor below 9973^2 left by the last sieve primes
        # (9973 * 10007) with is_prime; the blocks certify it by its size
        if ref_primes and ref_primes[0] < arith._CERTIFIED_BELOW:
            ref_primes = ref_primes[1:]
        assert primes == ref_primes, n


def test_factor_run_out_matches_per_prime_loop(cap_rho, monkeypatch):
    cap_rho(10)
    for n in (4 * (2**101 - 1), 2**3 * 137 * 9973 * 1000003 * 1000033, -131 * 10007 * 10009 * 10037):
        got = _calls(monkeypatch, factor, n)
        assert isinstance(got[0], tuple), n  # the capped rho ran out
        assert got == _calls(monkeypatch, _reference_factor, n), n


def test_is_prime_reads_the_sieve_below_its_bound(monkeypatch):
    calls = []
    real = arith._miller_rabin

    def counting(n, bases):
        calls.append(n)
        return real(n, bases)

    monkeypatch.setattr(arith, "_miller_rabin", counting)
    assert sum(is_prime(n) for n in range(10**4)) == 1229
    assert calls == []
    assert is_prime(10007) and calls == [10007]


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty small-factor table for the test; the process's own is put back after."""
    memo = {}
    monkeypatch.setattr(arith, "_SMALL_FACTORED", memo)
    return memo


def test_factor_memo_gives_the_trial_division_result_cold_and_warm(cold_memo):
    span = [n for n in range(-2000, 2001) if n]
    cold = [factor(n) for n in span]
    assert len(cold_memo) == len(span)
    warm = [factor(n) for n in span]
    for n, c, w in zip(span, cold, warm):
        assert c == w == _reference_factor(n), n
        assert repr(c) == repr(w), n


def test_factor_memo_keeps_only_small_exact_ints(cold_memo):
    bound = arith._TRIAL_BOUND
    for n in (1, -1, 12, bound - 1, -(bound - 1), bound, -bound, bound + 7, 2**20, True):
        factor(n)
    assert set(cold_memo) == {1, -1, 12, bound - 1, -(bound - 1)}
    assert all(type(n) is int and 0 < abs(n) < bound for n in cold_memo)


def test_factor_memo_does_not_answer_equal_non_ints(cold_memo):
    # 12.0 and Fraction(12) hash and compare equal to 12, which is in the table
    assert factor(12).factors == ((2, 2), (3, 1))
    for n in (12.0, Fraction(12)):
        with pytest.raises(TypeError):
            factor(n)
    assert factor(True) == Factorization(1, ())
    assert all(type(n) is int for n in cold_memo)


def test_factor_memo_does_not_depend_on_the_budget(cold_memo):
    for n in (9973, -9972, 2**13, 3**8, 9991):  # 9991 = 97 * 103
        assert factor(n, budget=0) == _reference_factor(n), n
        assert factor(n) == factor(n, budget=0) == _reference_factor(n), n


def test_factor_memo_never_keeps_an_incomplete_factorization(cold_memo):
    n = 4 * (2**101 - 1)
    for _ in range(2):
        with pytest.raises(IncompleteFactorizationError) as ei:
            factor(n, budget=1)
        assert (2, 2) in ei.value.partial
        assert ei.value.cofactor * 4 == n
    assert cold_memo == {}


@pytest.mark.parametrize("n", [2.5, 7.0, Fraction(7)], ids=repr)
def test_factor_refuses_a_non_int(n):
    # 7.0 and Fraction(7) equal a sieve prime, and 2.5 is below 2^2, where
    # trial division stops: each would come back as its own prime factor
    with pytest.raises(TypeError):
        factor(n)


def test_is_prime_refuses_a_non_int():
    with pytest.raises(TypeError):
        is_prime(7.0)
    assert is_prime(7) and not is_prime(True)


@pytest.mark.parametrize("x, p", [(9, 3.0), (4.5, 3)], ids=["float p", "float x"])
def test_valuation_refuses_a_float(x, p):
    with pytest.raises(TypeError):
        valuation(x, p)
