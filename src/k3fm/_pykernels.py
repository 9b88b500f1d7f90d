"""Scan kernels.

The two hot loops: listing the isotropic elements of a given order in a
two-generator group, and enumerating form-preserving automorphisms.  The
rest of the package calls them through ``kernels``.  Integers are Python
ints throughout, so inputs of any size stay exact.

Their output, order included, is what a plain scan of every candidate
returns (``tests/test_kernels.py`` keeps that scan as the oracle):

- the element scan tests no element one by one: it lists the cyclic
  subgroups of the order it looks for prime by prime, tests q once on
  each p-part, and returns the unit multiples of a generator of every
  subgroup whose p-parts are all isotropic.  It needs q to be well
  defined on Z/n1 (+) Z/n2, as it is on every ``FiniteQuadForm``;
- the isometry scan skips only candidates that can never be hits: it
  lists the images of the first generator, which do not depend on the
  image of the second, once per call.

All q-values arrive as integer numerators over a common denominator
``den``: q lives in Q/2Z so numerators are reduced mod 2*den, the
bilinear pairing lives in Q/Z so numerators are reduced mod den.
"""

from itertools import repeat
from math import gcd

from .intmath import factorize


def scan_isotropic_elements(n1, n2, q1, q2, b12, den, order):
    """Coordinates (c1, c2) over Z/n1 (+) Z/n2 of exact order ``order``
    with q(c1, c2) = (c1^2 q1 + c2^2 q2 + 2 c1 c2 b12) / den = 0 in Q/2Z.

    Returned in lexicographic order.  Precondition: q is well defined on
    Z/n1 (+) Z/n2, as it is on every ``FiniteQuadForm``.

    The elements of exact order N = ``order`` are the generators of the
    cyclic subgroups of order N, phi(N) of them per subgroup, and
    q(u x) = u^2 q(x), so q is zero on all generators of a subgroup or on
    none.  A subgroup of order N is the sum of its p-parts, one cyclic
    subgroup of order p^k per p^k || N; these are pairwise orthogonal, so
    q of a generator is the sum of q on its p-parts, and each summand
    lies in the p-primary part of Q/2Z: the sum is 0 exactly when every
    summand is.  So q is tested once per p-part, and each combination of
    isotropic p-parts contributes its unit multiples.

    The p-parts lie in the N-torsion Z/g1 (+) Z/g2, g_i = gcd(n_i, N).
    With p^a and p^b the p-parts of g1 and g2, each subgroup of order
    p^k in Z/p^a (+) Z/p^b has one generator (x, 1), x mod p^a, when
    b = k, and (1, y), y mod p^b, when a = k, where y is a multiple of p
    when b = k as well.  When a, b < k no element has order N.
    """
    two_den = 2 * den
    g1, g2 = gcd(n1, order), gcd(n2, order)
    primes = factorize(order)
    gens = [(0, 0)]
    for p, k in primes.items():
        pk = p**k
        pa, pb = gcd(g1, pk), gcd(g2, pk)
        s1, s2 = n1 // pa % n1, n2 // pb % n2  # of order p^a and p^b
        local = []
        if pb == pk:
            local += [(x * s1, s2) for x in range(pa)]
        if pa == pk:
            local += [(s1, y * s2) for y in range(0, pb, p if pb == pk else 1)]
        local = [
            (e1, e2) for e1, e2 in local
            if (e1 * e1 * q1 + e2 * e2 * q2 + 2 * e1 * e2 * b12) % two_den == 0
        ]
        if not local:
            return []
        gens = [
            ((c1 + e1) % n1, (c2 + e2) % n2) for c1, c2 in gens for e1, e2 in local
        ]
    units = range(order)
    for p in primes:
        units = [u for u in units if u % p]
    keys = []  # (c1, c2) as c1 * n2 + c2, which sorts lexicographically
    for c1, c2 in gens:
        keys += [u * c1 % n1 * n2 + u * c2 % n2 for u in units]
    keys.sort()
    return list(map(divmod, keys, repeat(n2)))


def scan_isometries(
    n1, n2, den, q1, q2, b12, want_q1, want_q2, want_b12,
    primes1, primes2, first_only,
):
    """Matrices of form-preserving automorphisms of Z/n1 (+) Z/n2, n1 | n2.

    (q1, q2, b12) describe the form the candidate images are evaluated in;
    (want_q1, want_q2, want_b12) are the values the images of the two
    generators must take.  For the automorphism group the two triples
    coincide; for an isometry onto a second form with the same generator
    orders they differ.

    A result (a, c, b, d) means g1 -> a g1 + c g2 and g2 -> b g1 + d g2.
    Surjectivity is checked prime by prime: for p | n1 the 2x2 matrix must
    be invertible mod p, for p | n2 with p not dividing n1 only d survives
    in A/pA, so d must be a unit mod p.  ``primes1`` and ``primes2`` are
    those two prime lists.

    Iteration order is (b, d) outer, (a, c) inner, lexicographic; with
    ``first_only`` the first hit in that order is returned alone.  The
    images (a, c) of g1 with q = ``want_q1`` do not depend on (b, d), so
    they are listed once, in (a, c) order, before the (b, d) loop; each
    (b, d) then checks only the pairing and the determinant against them.
    """
    two_den = 2 * den
    step = n2 // n1  # images of g1 need n1 * (c g2) = 0, so c is a multiple
    b11 = q1 % den
    b22 = q2 % den
    # b(a g1 + c g2, b g1 + d g2) = b u + d v with u, v the pairings of
    # the g1 image with g1 and with g2
    firsts = [
        (a, c, (a * b11 + c * b12) % den, (a * b12 + c * b22) % den)
        for a in range(n1)
        for c in range(0, n2, step)
        if (a * a % two_den * q1 + c * c % two_den * q2
            + 2 * a * c % two_den * b12) % two_den == want_q1
    ]
    hits = []
    for b in range(n1):
        partial_b = b * b % two_den * q1 % two_den
        cross = 2 * b * b12 % two_den
        for d in range(n2):
            if (partial_b + d * d % two_den * q2 + cross * d) % two_den != want_q2:
                continue
            if any(d % p == 0 for p in primes2):
                continue
            for a, c, u, v in firsts:
                if (b * u + d * v) % den != want_b12:
                    continue
                if all((a * d - b * c) % p for p in primes1):
                    hits.append((a, c, b, d))
                    if first_only:
                        return hits
    return hits
