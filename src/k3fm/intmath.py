"""Small exact integer helpers used throughout the package.

Everything here is elementary number theory on machine-or-bigger ints;
no floating point anywhere.  Factorisation is plain trial division,
which is ample for the multisection indices this package targets
(t up to a few million; 510510 = 2*3*5*7*11*13*17 factors instantly).
"""

from itertools import compress
from math import gcd, isqrt


def lcm(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return abs(a * b) // gcd(a, b)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation {p: multiplicity} of n >= 1 by trial division.

    A perfect square is factored through its root, so |A| = t^2 costs a
    trial division up to sqrt(t), not up to t."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    root = isqrt(n)
    if n > 1 and root * root == n:
        return {p: 2 * k for p, k in factorize(root).items()}
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # remaining factors are coprime to 6; step through 6k +/- 1
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def distinct_primes(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n))) if n > 1 else ()


def omega(n: int) -> int:
    """Number of distinct prime divisors; omega(1) = 0."""
    return len(distinct_primes(n))


def totient(n: int) -> int:
    if n < 1:
        raise ValueError(f"totient expects n >= 1, got {n}")
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    p = 5
    while p <= isqrt(n):
        if n % p == 0 or n % (p + 2) == 0:
            return False
        p += 6
    return True


def units_mod(n: int) -> tuple[int, ...]:
    """The unit group of Z/n as sorted residues (n = 1 gives (0,))."""
    if n < 1:
        raise ValueError(f"units_mod expects n >= 1, got {n}")
    if n == 1:
        return (0,)
    sieve = bytearray(b"\x01") * n
    for p in factorize(n):
        sieve[::p] = bytes(len(range(0, n, p)))
    return tuple(compress(range(n), sieve))


def close_units_subgroup(n: int, gens) -> frozenset[int]:
    """Multiplicative closure of the given residues inside (Z/n)*."""
    if n < 1:
        raise ValueError(f"close_units_subgroup expects n >= 1, got {n}")
    if n == 1:
        return frozenset({0})
    seed = frozenset(g % n for g in gens) | {1 % n}
    for g in seed:
        if gcd(g, n) != 1:
            raise ValueError(f"{g} is not a unit modulo {n}")
    group = set(seed)
    frontier = list(seed)
    while frontier:
        x = frontier.pop()
        for g in seed:
            y = x * g % n
            if y not in group:
                group.add(y)
                frontier.append(y)
    return frozenset(group)
