"""Enumeration budgets.

Both caps are measured by the size of the finite group being scanned:

* element scans allow |A| up to ``ELEMENT_CAP`` (for the rank-two
  family |A| = t^2, i.e. t <= 2000 by default), although they visit
  only the elements killed by the order they look for;
* isometry enumeration is quartic-ish in the generator orders and gets
  the much smaller ``ISOMETRY_CAP``.

Setting the environment variable ``K3FM_BUDGET`` to a positive integer
overrides both caps with that value.  The variable is read at call time,
not import time, so tests and long-running processes can adjust it.
"""

import os

from .errors import InvalidParameterError

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
