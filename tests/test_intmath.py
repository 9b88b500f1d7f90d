from math import gcd

import pytest
from hypothesis import given, strategies as st

from k3fm.intmath import (
    close_units_subgroup,
    distinct_primes,
    factorize,
    is_prime,
    omega,
    totient,
    units_mod,
    xgcd,
)


def test_factorize_known():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(510510) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1}


def test_factorize_squares_through_the_root():
    for n in range(1, 2001):
        assert factorize(n * n) == {p: 2 * k for p, k in factorize(n).items()}, n
    # t^2 for a prime t near 10^8 costs a trial division up to 10^4
    assert factorize(100000007**2) == {100000007: 2}


def test_omega_and_primes():
    assert distinct_primes(1) == ()
    assert distinct_primes(60) == (2, 3, 5)
    assert omega(510510) == 7


def test_totient_small_table():
    # phi(1..10) straight from the definition
    expected = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    for n, e in enumerate(expected, start=1):
        assert totient(n) == e
    assert totient(510510) == 92160


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(2, 25):
        assert is_prime(n) == (n in primes)


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g >= 0
    assert a * x + b * y == g
    if a or b:
        assert a % g == 0 and b % g == 0


def test_units_mod():
    assert units_mod(1) == (0,)
    assert units_mod(12) == (1, 5, 7, 11)
    # the prime sieve against the gcd filter
    for n in range(2, 3001):
        assert units_mod(n) == tuple(u for u in range(1, n) if gcd(u, n) == 1), n


def test_close_units_subgroup():
    assert close_units_subgroup(13, {5}) == frozenset({1, 5, 12, 8})
    assert close_units_subgroup(7, {3}) == frozenset({1, 2, 3, 4, 5, 6})
    with pytest.raises(ValueError):
        close_units_subgroup(6, {2})
