"""Small exact integer helpers, and one arithmetic record per modulus.

``modulus(n)`` is the one place a number is factored (``_factor`` has no
other caller): a cached record of n's factorisation and phi(n), with the
sorted units and the CRT idempotents built on first read.  It is the
only door to n's arithmetic: callers read ``.primes`` and ``.phi`` off
it, the primes of m = gcd(d, t) off t's record (``common_primes``), and
``is_prime`` and ``units_mod`` read it too.

Factoring is bounded.  Trial division runs below ``TRIAL_BOUND``; each
cofactor left is then proven prime by Miller-Rabin on the first 13 prime
bases, deterministic below ``MR_BOUND`` (Sorenson and Webster, Math.
Comp. 2017), or split by Pollard-Brent rho (Brent, BIT 1980) within
``RHO_STEPS`` steps in all.  A cofactor past ``MR_BOUND``, or a rho walk
past its steps, raises CapacityError: no probable prime is ever used.
"""

from functools import cached_property, lru_cache
from itertools import compress, count
from math import gcd, isqrt, prod

from . import budget
from .errors import CapacityError

TRIAL_BOUND = 1000  # at least 5: Miller-Rabin then sees only cofactors over 41
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981
RHO_STEPS = 1 << 19


def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """(p, k) for each p^k || n >= 1, ascending: trial division by the
    primes up to ``TRIAL_BOUND``, then Miller-Rabin and rho on what is
    left.  Every cofactor c left has no prime factor below the next trial
    divisor p, so c < p^2 is prime without a test."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # remaining factors are coprime to 6; step through 6k +/- 1
    p = 5
    while p <= TRIAL_BOUND and p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    todo, steps = [n] if n > 1 else [], RHO_STEPS
    while todo:
        c = todo.pop()
        if c < p * p or _proven_prime(c, n):
            out[c] = out.get(c, 0) + 1
        else:
            f, steps = _rho(c, n, steps)
            todo += (f, c // f)
    return tuple(sorted(out.items()))


def _proven_prime(c: int, n: int) -> bool:
    """Whether the odd c > 41, a cofactor of n, is prime, by Miller-Rabin
    on ``MR_BASES``: a proof below ``MR_BOUND``, refused above it."""
    if c >= MR_BOUND:
        raise CapacityError(
            f"factoring {n}: its cofactor {c} is over {MR_BOUND},"
            " the bound of the proven primality test", MR_BOUND,
        )
    odd, s = c - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for a in MR_BASES:
        x = pow(a, odd, c)
        if x == 1 or x == c - 1:
            continue
        for _ in range(s - 1):
            x = x * x % c
            if x == c - 1:
                break
        else:
            return False
    return True


def _rho(c: int, n: int, steps: int) -> tuple[int, int]:
    """(a proper factor of the odd composite c, a cofactor of n, and the
    steps left of ``steps``), by Pollard-Brent rho on y -> y^2 + k, with
    one gcd per block of 128 steps.  CapacityError when the steps run
    out."""
    for k in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + k) % c
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + k) % c
                    q = q * abs(x - y) % c
                g = gcd(q, c)
                done += 128
            steps -= 2 * r
            if steps < 0:
                raise CapacityError(
                    f"factoring {n}: its cofactor {c} did not split within"
                    f" {RHO_STEPS} rho steps",
                    RHO_STEPS,
                )
            r *= 2
        if g == c:  # the block overshot: redo it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + k) % c
                g = gcd(abs(x - ys), c)
        if g != c:
            return g, steps


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
        factors = _factor(n)
    return Modulus(n, factors)


def is_prime(n: int) -> bool:
    return n > 1 and modulus(n).factors == ((n, 1),)


def units_mod(n: int) -> tuple[int, ...]:
    """The unit group of Z/n as sorted residues (n = 1 gives (0,)).
    CapacityError when phi(n) is over the element budget: the list, and
    the sieve of n bytes it is read off, are never built then."""
    rec = modulus(n)
    budget.require(rec.phi, budget.element_cap(), f"phi({n}) for a walk over the units mod {n}")
    return rec.units
