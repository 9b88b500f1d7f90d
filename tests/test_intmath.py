import random
from math import gcd

import pytest

from k3fm import intmath
from k3fm.errors import CapacityError
from k3fm.intmath import (
    MR_BOUND,
    _factor,
    is_prime,
    modulus,
    units_mod,
)


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


PRIMES = {n: tuple(_primes(n)) for n in range(301)}


def test_modulus_record_matches_brute_force():
    for n in range(1, 301):
        rec = modulus(n)
        assert rec is modulus(n)
        want = {}
        for p in PRIMES[n]:
            k = 1
            while n % p ** (k + 1) == 0:
                k += 1
            want[p] = k
        assert rec.factors == tuple(want.items()), n
        assert rec.primes == tuple(want), n
        units = tuple(u for u in range(n) if gcd(u, n) == 1)
        assert rec.units == units and rec.phi == len(units), n
        for p, k in rec.factors:
            c, pk = rec.idempotents[p], p**k
            assert (c % pk, c % (n // pk)) == (1 % pk, 0), n
        for d in range(-n, 2 * n):
            assert rec.common_primes(d) == PRIMES[gcd(d, n)], (d, n)


def test_modulus_record_is_read_only_and_lazy():
    with pytest.raises(ValueError):
        modulus(0)
    p = 10**9 + 7
    rec = modulus(p)
    with pytest.raises(AttributeError):
        rec.phi = 0
    assert rec.factors == ((p, 1),) and rec.phi == p - 1
    # the units and idempotents are built on first read only
    assert "units" not in vars(rec) and "idempotents" not in vars(rec)
    assert rec.idempotents == {p: 1}


def test_factorize_known():
    assert modulus(1).factors == ()
    assert modulus(12).factors == ((2, 2), (3, 1))
    assert modulus(510510).factors == tuple((p, 1) for p in (2, 3, 5, 7, 11, 13, 17))


def test_factorize_squares_through_the_root():
    for n in range(1, 2001):
        assert modulus(n * n).factors == tuple((p, 2 * k) for p, k in modulus(n).factors), n
    # t^2 for a prime t near 10^8 costs one Miller-Rabin proof of t
    assert modulus(100000007**2).factors == ((100000007, 2),)


def test_omega_and_primes():
    assert modulus(1).primes == ()
    assert modulus(60).primes == (2, 3, 5)
    assert len(modulus(510510).primes) == 7


def test_totient_small_table():
    # phi(1..10) straight from the definition
    expected = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    for n, e in enumerate(expected, start=1):
        assert modulus(n).phi == e
    assert modulus(510510).phi == 92160


def test_is_prime_small():
    # against a sieve of Eratosthenes below 2000
    sieve = [False, False] + [True] * 1998
    for p in range(2, 45):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, 2000, p))
    for n in range(-3, 2000):
        assert is_prime(n) == (n >= 0 and sieve[n]), n


def test_units_mod():
    assert units_mod(1) == (0,)
    assert units_mod(12) == (1, 5, 7, 11)
    # the prime sieve against the gcd filter
    for n in range(2, 3001):
        assert units_mod(n) == tuple(u for u in range(1, n) if gcd(u, n) == 1), n


def test_units_mod_is_held_to_the_element_budget(monkeypatch):
    # phi(n) is read off n's factors, so a refused walk lists no unit
    monkeypatch.setenv("K3FM_BUDGET", "4")
    assert units_mod(12) == (1, 5, 7, 11)
    with pytest.raises(CapacityError, match=r"^phi\(2305843009213693952\) for a walk"):
        units_mod(2**61)
    assert "units" not in vars(modulus(2**61))


def test_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 20_001):
        assert dict(modulus(n).factors) == sympy.factorint(n), n


def _trial_division(n):
    """(p, k) for each p^k || n >= 1, ascending, by trial division to the
    square root: the factoriser's oracle."""
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(out.items())


def test_factor_matches_trial_division(monkeypatch):
    # the default bound factors n <= 10^5 by trial division alone; the
    # least bound leaves Miller-Rabin and rho a cofactor from n = 121 up
    want = [None] + [_trial_division(n) for n in range(1, 100_001)]
    for n in range(1, 100_001):
        assert _factor(n) == want[n], n
    monkeypatch.setattr(intmath, "TRIAL_BOUND", 5)
    for n in range(1, 30_001):
        assert _factor(n) == want[n], n


def test_factor_matches_sympy_on_seeded_products():
    # products below 10^24 of one prime up to 10^15 and smaller primes,
    # some repeated; rho splits the pairs of 9-digit primes
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20260)
    for _ in range(50):
        n = sympy.nextprime(rng.randrange(10**3, 10 ** rng.randint(4, 15)))
        while True:
            p = sympy.nextprime(rng.randrange(2, 10 ** rng.randint(1, 9)))
            if n * p >= 10**24:
                break
            n *= p ** rng.randint(1, 2) if n * p * p < 10**24 else p
        assert dict(_factor(n)) == sympy.factorint(n), n
    for n in ((10**9 + 7) * (10**9 + 9), 2**61 - 1, 10**18 + 3, (2**31 - 1) ** 2 * 10**6 + 1):
        assert dict(_factor(n)) == sympy.factorint(n), n


def test_factor_refuses_past_its_bounds(monkeypatch):
    # no primality proof past MR_BOUND; no split past the rho steps
    p, q = 10000000000000000051, 20000000000000000011  # primes
    assert _factor(3 * p) == ((3, 1), (p, 1))
    for n in (p * q, 3 * p * q):
        with pytest.raises(CapacityError, match="the bound of the proven primality test"):
            _factor(n)
    assert p < MR_BOUND < p * q
    monkeypatch.setattr(intmath, "RHO_STEPS", 1000)
    with pytest.raises(CapacityError, match="did not split within 1000 rho steps"):
        _factor((10**9 + 7) * (10**9 + 9))
    assert _factor(3 * (10**9 + 7)) == ((3, 1), (10**9 + 7, 1))
