"""The scan kernels work on arbitrary-precision integers: inputs past the
int64 range give exact results.  They skip only candidates that cannot
hit: on a grid of forms they return exactly what a scan of every
candidate returns, order included."""

from math import gcd

from k3fm import kernels
from k3fm.discforms import _kernel_setup, isometry_group, ns_form
from k3fm.intmath import distinct_primes
from k3fm.lagrangians import GSpec, _lagrangian_coords
from k3fm.lattices import genus_representatives
from k3fm.surfaces import SurfaceModel, de_counts, fm_count


def _form_data(d, t):
    form = ns_form(d, t).form
    den = form.denominator()
    if form.rank == 0:
        n1, n2, q1, q2, b12 = 1, 1, 0, 0, 0
    elif form.rank == 1:
        n1, n2 = 1, form.orders[0]
        q1, b12 = 0, 0
        q2 = int(form.q_gen[0] * den) % (2 * den)
    else:
        n1, n2 = form.orders
        q1 = int(form.q_gen[0] * den) % (2 * den)
        q2 = int(form.q_gen[1] * den) % (2 * den)
        b12 = int(form.b_matrix[0][1] * den) % den
    return n1, n2, den, q1, q2, b12


def test_large_values_stay_exact():
    big = 1 << 31
    assert kernels.scan_isotropic_elements(1, 1, 0, 0, 0, big, 1) == [(0, 0)]
    # scaling every numerator and the denominator by 2**31 describes the
    # same form, so both scans must return exactly what they return unscaled
    for d, t in ((2, 6), (0, 4), (3, 9), (1, 5)):
        n1, n2, den, q1, q2, b12 = _form_data(d, t)
        q1b, q2b, b12b, denb = q1 * big, q2 * big, b12 * big, den * big
        for order in (t, n2):
            assert kernels.scan_isotropic_elements(
                n1, n2, q1b, q2b, b12b, denb, order
            ) == kernels.scan_isotropic_elements(n1, n2, q1, q2, b12, den, order)
        primes1 = distinct_primes(n1)
        primes2 = tuple(p for p in distinct_primes(n2) if n1 % p)
        small = kernels.scan_isometries(
            n1, n2, den, q1, q2, b12, q1, q2, b12, primes1, primes2
        )
        assert small
        assert kernels.scan_isometries(
            n1, n2, denb, q1b, q2b, b12b, q1b, q2b, b12b, primes1, primes2
        ) == small


def test_cells_at_the_default_budgets(monkeypatch):
    # each group sits exactly at a default cap: |A| = 10,000 for the
    # isometry scan and |A| = 4,000,000 for the element scan
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    form = ns_form(0, 100).form
    assert form.size == 10_000
    assert len(isometry_group(form)) == 160
    assert fm_count(0, 100, GSpec.sign_group(form)) == 40
    assert ns_form(30, 2000).form.size == 4_000_000
    assert len(_lagrangian_coords(30, 2000)) == 3200
    assert de_counts(SurfaceModel.general(30, 2000)) == (1600, 4)
    assert genus_representatives(1, 97) == (
        1, 2, 3, 4, 6, 8, 9, 11, 12, 16, 18, 22, 24, 25,
        31, 32, 33, 35, 36, 43, 44, 47, 48, 70, 96,
    )


# Reference scans that skip nothing: every element of the group, and every
# (a, c) image of g1 for every (b, d).  The kernels must return their lists.

def _brute_scan_isotropic_elements(n1, n2, q1, q2, b12, den, order):
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


def _brute_scan_isometries(
    n1, n2, den, q1, q2, b12, want_q1, want_q2, want_b12,
    primes1, primes2, first_only,
):
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


ORACLE_GRID = [(d, t) for t in range(2, 41) for d in range(-t, 2 * t)]


def test_element_scan_matches_brute_scan():
    # order t is the library's call.  Its divisors and 2t exercise the
    # torsion step on other orders; 2t exceeds the exponent n2 of
    # A = Z/t (+) Z/t, so no element has that order.
    seen = set()
    for d, t in ORACLE_GRID:
        form = ns_form(d, t).form
        n1, n2, den, q1, q2, b12 = _kernel_setup(form, form)[:6]
        p = min(distinct_primes(t))
        for order in {1, p, t // p, t, 2 * t}:
            args = (n1, n2, q1, q2, b12, den, order)
            if args in seen:
                continue
            seen.add(args)
            assert kernels.scan_isotropic_elements(*args) == (
                _brute_scan_isotropic_elements(*args)
            ), (d, t, order)


def _genus_pairs(d, t):
    """(source, target) of every form pair of (d, t) with equal group
    shapes, distinct forms and the gcd(2e, t) = gcd(2d, t) invariant: the
    `first_only` searches a brute genus search would make."""
    target = ns_form(d, t).form
    for e in range(t):
        if gcd(2 * e, t) == gcd(2 * d, t):
            source = ns_form(e, t).form
            if source.orders == target.orders and source != target:
                yield source, target


def test_isometry_scan_matches_brute_scan():
    seen = set()
    for d, t in ORACLE_GRID:
        form = ns_form(d, t).form
        calls = [(_kernel_setup(form, form), False)]
        calls += [(_kernel_setup(tgt, src), True) for src, tgt in _genus_pairs(d, t)]
        for args, first_only in calls:
            if (args, first_only) in seen:
                continue
            seen.add((args, first_only))
            assert kernels.scan_isometries(*args, first_only=first_only) == (
                _brute_scan_isometries(*args, first_only)
            ), (d, t, first_only)
