"""Scan kernels.

The two hot loops: walking a two-generator group for isotropic elements
of a given order, and enumerating form-preserving automorphisms.  The
rest of the package calls them through ``kernels``.  Integers are Python
ints throughout, so inputs of any size stay exact.

Both loops skip candidates that can never be hits, and skip nothing
else, so their output, order included, is what a plain scan of every
candidate returns (``tests/test_kernels.py`` keeps that scan as the
oracle):

- the element scan walks only the elements killed by ``order``, since
  an element of that order is one of them, and tests q only on the
  pairs whose coordinate orders give that order: the admissible second
  coordinates are listed once per order of the first coordinate;
- the isometry scan lists the images of the first generator, which do
  not depend on the image of the second, once per call.

All q-values arrive as integer numerators over a common denominator
``den``: q lives in Q/2Z so numerators are reduced mod 2*den, the
bilinear pairing lives in Q/Z so numerators are reduced mod den.
"""

from math import gcd


def scan_isotropic_elements(n1, n2, q1, q2, b12, den, order):
    """Coordinates (c1, c2) over Z/n1 (+) Z/n2 of exact order ``order``
    with q(c1, c2) = (c1^2 q1 + c2^2 q2 + 2 c1 c2 b12) / den = 0 in Q/2Z.

    Returned in lexicographic order.  An element of order ``order`` has
    order * c_i = 0 mod n_i, so c_i runs over the multiples of
    n_i / gcd(n_i, order) only: n1 n2 / gcd(n1, order) gcd(n2, order)
    candidates instead of n1 n2.  The pair has order lcm(o1, o2), o_i the
    order of c_i, so the second coordinates are listed once with o2 and
    their q-term, and for each distinct o1 (a divisor of n1) the ones with
    lcm(o1, o2) = ``order`` are picked once; q is tested only on those.
    """
    two_den = 2 * den
    step1 = n1 // gcd(n1, order)
    step2 = n2 // gcd(n2, order)
    seconds = [
        (c2, n2 // gcd(n2, c2), c2 * c2 % two_den * q2 % two_den)
        for c2 in range(0, n2, step2)
    ]
    second_orders = {o2 for _, o2, _ in seconds}
    admissible = {}  # o1 -> the entries of ``seconds`` with lcm(o1, o2) = order
    hits = []
    for c1 in range(0, n1, step1):
        o1 = n1 // gcd(n1, c1)
        candidates = admissible.get(o1)
        if candidates is None:
            fits = {o2 for o2 in second_orders if o1 * o2 == order * gcd(o1, o2)}
            candidates = admissible[o1] = [e for e in seconds if e[1] in fits]
        head = c1 * c1 % two_den * q1 % two_den
        cross = 2 * c1 * b12 % two_den
        for c2, _, term in candidates:
            if (head + term + cross * c2) % two_den == 0:
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
