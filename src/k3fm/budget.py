"""Enumeration budgets.

Each cap is compared with the size of what a search visits:

* element scans allow |A| up to ``ELEMENT_CAP`` (for the rank-two
  family |A| = t^2, i.e. t <= 2000 by default), although they visit
  only the elements killed by the order they look for;
* isometry enumeration is quartic-ish in the generator orders and gets
  the much smaller ``ISOMETRY_CAP``.  FM counts enumerate isometries on
  each p-primary part A_p of A separately, so there the cap bounds the
  largest |A_p| = p^(2k), p^k the exact power of p in t: at the default
  cap ``fm --d 30 --t 30030`` runs (largest part 169), while
  ``fm --d 0 --t 101`` (one part of 10,201) and any sweep reaching a
  prime t > 100 exit with the capacity error.
* an FM count's genus walk searches every part once per genus class,
  and the genus is enumerated over the phi(t) units mod t, which also
  bound the number of classes; phi(t) * sum_p |A_p| must stay within
  ``ELEMENT_CAP``.  Every t <= 100 stays under 10^6 there, and the walks
  nearest the default cap take about 0.2 s; ``fm --d 1 --t 8633``
  (89 * 97, both parts under the isometry cap) is refused.

Setting the environment variable ``K3FM_BUDGET`` to a positive integer
overrides both caps with that value.  The variable is read at call time,
not import time, so tests and long-running processes can adjust it.
``require`` is the one gate every budgeted enumeration passes, and the
only place that raises ``CapacityError``.
"""

import os

from .errors import CapacityError, InvalidParameterError

DEFAULT_ELEMENT_CAP = 4_000_000
DEFAULT_ISOMETRY_CAP = 10_000


def _env_budget() -> int | None:
    raw = os.environ.get("K3FM_BUDGET")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"K3FM_BUDGET must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise InvalidParameterError(
            f"K3FM_BUDGET must be a positive integer, got {raw!r}"
        )
    return value


def element_cap() -> int:
    """Largest |A| an element scan may visit."""
    override = _env_budget()
    return DEFAULT_ELEMENT_CAP if override is None else override


def isometry_cap() -> int:
    """Largest |A| an isometry enumeration may visit."""
    override = _env_budget()
    return DEFAULT_ISOMETRY_CAP if override is None else override


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
