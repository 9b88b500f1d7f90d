"""Scan kernels.

The two hot loops: walking a two-generator group for isotropic elements
of a given order, and enumerating form-preserving automorphisms.  The
rest of the package calls them through ``kernels``.  Integers are Python
ints throughout, so inputs of any size stay exact.

All q-values arrive as integer numerators over a common denominator
``den``: q lives in Q/2Z so numerators are reduced mod 2*den, the
bilinear pairing lives in Q/Z so numerators are reduced mod den.
"""

from math import gcd


def scan_isotropic_elements(n1, n2, q1, q2, b12, den, order):
    """Coordinates (c1, c2) over Z/n1 (+) Z/n2 of exact order ``order``
    with q(c1, c2) = (c1^2 q1 + c2^2 q2 + 2 c1 c2 b12) / den = 0 in Q/2Z.

    Returned in lexicographic order.
    """
    two_den = 2 * den
    hits = []
    for c1 in range(n1):
        o1 = n1 // gcd(n1, c1)
        if order % o1:
            continue
        head = c1 * c1 % two_den * q1 % two_den
        cross = 2 * c1 * b12 % two_den
        for c2 in range(n2):
            o2 = n2 // gcd(n2, c2)
            if o1 * o2 != order * gcd(o1, o2):
                continue
            if (head + c2 * c2 % two_den * q2 + cross * c2) % two_den == 0:
                hits.append((c1, c2))
    return hits


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
    ``first_only`` the first hit in that order is returned alone.
    """
    two_den = 2 * den
    step = n2 // n1  # images of g1 need n1 * (c g2) = 0, so c is a multiple
    b11 = q1 % den
    b22 = q2 % den
    hits = []
    for b in range(n1):
        partial_b = b * b % two_den * q1 % two_den
        for d in range(n2):
            qv = (partial_b + d * d % two_den * q2 + 2 * b * d % two_den * b12) % two_den
            if qv != want_q2:
                continue
            ok = True
            for p in primes2:
                if d % p == 0:
                    ok = False
                    break
            if not ok:
                continue
            for a in range(n1):
                partial_a = a * a % two_den * q1 % two_den
                ab = a * b % den * b11 % den
                for c in range(0, n2, step):
                    qx = (partial_a + c * c % two_den * q2 + 2 * a * c % two_den * b12) % two_den
                    if qx != want_q1:
                        continue
                    pairing = (ab + (a * d + c * b) % den * b12 + c * d % den * b22) % den
                    if pairing != want_b12:
                        continue
                    good = True
                    for p in primes1:
                        if (a * d - b * c) % p == 0:
                            good = False
                            break
                    if good:
                        hits.append((a, c, b, d))
                        if first_only:
                            return hits
    return hits
