"""The scan kernels work on arbitrary-precision integers: inputs past the
int64 range give exact results."""

from k3fm import kernels
from k3fm.discforms import ns_form
from k3fm.intmath import distinct_primes


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
