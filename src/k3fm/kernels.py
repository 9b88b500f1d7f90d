"""The two scan kernels, as called by the rest of the package.

There is one implementation, the arbitrary-precision Python one in
``_pykernels``; this module only forwards to it.  It stays a module of
its own because the benchmark harness (``perfbench/run.py`` and
``perfbench/tracing.py``) imports ``compiled_available`` and traces the
two ``scan_*`` names here.  It can go once the harness stops importing it.
"""

from . import _pykernels


def compiled_available() -> bool:
    """Always False: there is no compiled kernel."""
    return False


def scan_isotropic_elements(n1, n2, q1, q2, b12, den, order):
    return _pykernels.scan_isotropic_elements(n1, n2, q1, q2, b12, den, order)


def scan_isometries(n1, n2, den, q1, q2, b12, want_q1, want_q2, want_b12,
                    primes1, primes2, first_only=False):
    return _pykernels.scan_isometries(
        n1, n2, den, q1, q2, b12, want_q1, want_q2, want_b12,
        list(primes1), list(primes2), first_only,
    )
