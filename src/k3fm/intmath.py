"""Small exact integer helpers, and one arithmetic record per modulus.

``modulus(n)`` is the one place a number is factored (``_trial_division``
has no other caller): a cached record of n's factorisation and phi(n),
with the sorted units and the CRT idempotents built on first read.  The
primes of m = gcd(d, t) are read off t's record.  ``factorize``,
``distinct_primes``, ``totient``, ``is_prime`` and ``units_mod`` read it.
"""

from functools import cached_property, lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from . import budget


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """(p, k) for each p^k || n >= 1, ascending, by trial division."""
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
    return tuple(out.items())


class Modulus:
    """The arithmetic of Z/n: ``factors``, the (p, k) with p^k || n in
    ascending p, their ``primes`` and ``phi``, the number of units.
    ``units`` and ``idempotents`` are built on first read and kept.  The
    record is shared through the ``modulus`` cache, so it is read-only."""

    def __init__(self, n: int, factors: tuple[tuple[int, int], ...]):
        self.__dict__.update(
            n=n, factors=factors, primes=tuple(p for p, _ in factors),
            phi=prod((p - 1) * p ** (k - 1) for p, k in factors),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"a Modulus record is read-only, cannot set {name}")

    def common_primes(self, d: int) -> tuple[int, ...]:
        """The primes of gcd(d, n), ascending; all of n's when d = 0."""
        return tuple(p for p in self.primes if d % p == 0)

    @cached_property
    def units(self) -> tuple[int, ...]:
        """The units mod n as sorted residues (n = 1 gives (0,))."""
        n = self.n
        if n == 1:
            return (0,)
        sieve = bytearray(b"\x01") * n
        for p, _ in self.factors:
            sieve[::p] = bytes(len(range(0, n, p)))
        return tuple(compress(range(n), sieve))

    @cached_property
    def idempotents(self) -> dict[int, int]:
        """c_p = 1 mod p^k, 0 mod n/p^k, for each p^k || n."""
        n = self.n
        out = {}
        for p, k in self.factors:
            cof = n // p**k
            out[p] = cof * pow(cof, -1, p**k) % n
        return out


@lru_cache(maxsize=4096)
def modulus(n: int) -> Modulus:
    """The cached record of n >= 1.  A perfect square takes its factors
    from the record of its root, so |A| = t^2 costs no trial division
    once t has a record."""
    if n < 1:
        raise ValueError(f"expected an integer n >= 1, got {n}")
    root = isqrt(n)
    if n > 1 and root * root == n:
        factors = tuple((p, 2 * k) for p, k in modulus(root).factors)
    else:
        factors = _trial_division(n)
    return Modulus(n, factors)


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation {p: multiplicity} of n >= 1, ascending in p."""
    return dict(modulus(n).factors)


def distinct_primes(n: int) -> tuple[int, ...]:
    return modulus(n).primes if n > 1 else ()


def totient(n: int) -> int:
    return modulus(n).phi


def is_prime(n: int) -> bool:
    return n > 1 and modulus(n).factors == ((n, 1),)


def units_mod(n: int) -> tuple[int, ...]:
    """The unit group of Z/n as sorted residues (n = 1 gives (0,)).
    CapacityError when phi(n) is over the element budget: the list, and
    the sieve of n bytes it is read off, are never built then."""
    rec = modulus(n)
    budget.require(rec.phi, budget.element_cap(), f"phi({n}) for a walk over the units mod {n}")
    return rec.units


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
