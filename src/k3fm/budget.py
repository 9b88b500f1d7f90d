"""Enumeration budgets.

Each cap is compared with the size of what a search visits:

* element scans allow |A| up to ``ELEMENT_CAP`` (for the rank-two
  family |A| = t^2, i.e. t <= 2000 by default), although they test q
  once per p-part of a cyclic subgroup and build only the elements they
  return: at (0, 2000) that is 174 q-tests and 3,200 elements;
* isometry enumeration gets the much smaller ``ISOMETRY_CAP``.  FM
  counts search isometries on each p-primary part A_p of A separately,
  so there the cap bounds the largest |A_p| = p^(2k), p^k || t:
  ``fm --d 30 --t 30030`` runs (largest part 169), while
  ``fm --d 0 --t 101`` (one part of 10,201) is refused.  For G = {+-1}
  the cap bounds only the search that anchors each genus class's parts
  onto those of the genus's least member; a G with other elements also
  enumerates O(A_p) on every part;
* an FM count's genus walk (a G other than {+-1}, and the
  ``sweep --verify`` oracle), over the phi(t/m) units mod t/m,
  m = gcd(d, t), is held to phi(t/m) * sum_p |A_p| <= ``ELEMENT_CAP``:
  it refuses (1, 8633) (89 * 97), while (0, 510510) (one genus class)
  runs;
* a walk over the units mod n (``intmath.units_mod``) is held to
  phi(n) <= ``ELEMENT_CAP``, before any unit is listed.

Factoring has fixed bounds of its own, which ``K3FM_BUDGET`` does not
change: ``intmath`` refuses a number with a cofactor it cannot prove
prime (past 3.3 * 10^24) or split within its rho steps.

Setting the environment variable ``K3FM_BUDGET`` to a positive integer
overrides both caps with that value.  It is read on first use, not at
import time.  Inside ``within_request`` (each ``cli.main`` request) the
first read is kept until the request ends, so the variable is parsed at
most once per request, and not at all by a request that reads no cap;
any other call reads it afresh, so tests can change it between calls.
``require`` is the one gate every budgeted enumeration passes, and,
with the factoriser, the only place that raises ``CapacityError``.
"""

import os

from .errors import CapacityError, InvalidParameterError

DEFAULT_ELEMENT_CAP = 4_000_000
DEFAULT_ISOMETRY_CAP = 10_000

_kept: list | None = None  # inside within_request: [] or [the first read]


def within_request(call, *args):
    """``call(*args)``, keeping the first ``K3FM_BUDGET`` read until it returns."""
    global _kept
    outer, _kept = _kept, []
    try:
        return call(*args)
    finally:
        _kept = outer


def _env_budget() -> int | None:
    if _kept is None:
        return _parse_budget()
    if not _kept:
        _kept.append(_parse_budget())
    return _kept[0]


def _parse_budget() -> int | None:
    raw = os.environ.get("K3FM_BUDGET")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidParameterError(f"K3FM_BUDGET must be a positive integer, got {raw!r}")
    return value


def element_cap() -> int:
    """Largest |A| an element scan may visit."""
    return _env_budget() or DEFAULT_ELEMENT_CAP


def isometry_cap() -> int:
    """Largest |A| an isometry enumeration may visit."""
    return _env_budget() or DEFAULT_ISOMETRY_CAP


def require(size: int, cap: int, what: str) -> None:
    """Raise CapacityError, naming ``cap``, when ``size`` exceeds it.

    ``what`` names the measured quantity and the scan it bounds, e.g.
    "|A| for an element scan"."""
    if size > cap:
        raise CapacityError(
            f"{what} is {size}, over the enumeration budget of {cap} "
            "(K3FM_BUDGET overrides)",
            cap,
        )
