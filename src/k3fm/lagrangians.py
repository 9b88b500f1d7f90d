"""Lagrangian elements and subgroups of the discriminant group of the
(d, t) family, the canonical generator pair, the selector involution, the
unit-group action and the cyclic Hodge-isometry group G that ``de_counts``
and ``fm_count`` take.

A Lagrangian element is an isotropic element of order t in a group of
size t^2; a Lagrangian subgroup is cyclic of order t and isotropic.  The
only Lagrangian subgroups are mixtures of the two canonical ones, so a
subgroup is stored as a choice, per prime dividing m = gcd(d, t), between
the p-part of <vbar> and the p-part of <vprime>, and
``LagrangianSubgroup(d, t, selector)`` derives its generator from that
choice.  That selector encoding is what keeps squarefree t with many
prime factors (t around 510510) cheap: subgroups are never materialized
unless asked for.
"""

from functools import cached_property
from itertools import product
from math import gcd, isqrt
from operator import index, mul

from . import budget, kernels
from ._value import Value
from .discforms import (
    DFElement,
    DFIsometry,
    _kernel_setup,
    _neg_images,
    as_isometry,
    identity_isometry,
    neg_identity,
    ns_form,
)
from .errors import (
    InvalidElementError,
    InvalidIsometryError,
    InvalidParameterError,
    InvalidSubgroupError,
)
from .intmath import modulus
from .lattices import _check_t

# The family's surfaces have rank-two Picard lattices, so the
# transcendental rank is fixed at 22 - 2.
TRANSCENDENTAL_RANK = 20

SELECT_V = "V"
SELECT_VPRIME = "Vprime"


class LagrangianElement(Value):
    """Isotropic element whose order is the square root of the group size."""

    __slots__ = _fields = ("elem",)

    def __init__(self, elem: DFElement):
        self.elem = elem
        self.__post_init__()

    def __post_init__(self):
        t = self.t
        if t * t != self.elem.form.size:
            raise InvalidElementError("group size is not a perfect square")
        if self.elem.order() != t:
            raise InvalidElementError(
                f"element order {self.elem.order()} != {t}"
            )
        if not self.elem.is_isotropic():
            raise InvalidElementError("element is not isotropic")

    @property
    def t(self) -> int:
        return isqrt(self.elem.form.size)

    @property
    def coords(self) -> tuple[int, ...]:
        return self.elem.coords


class LagrangianSubgroup(Value):
    """Cyclic isotropic subgroup of order t, stored by per-prime selector.

    ``selector`` maps each prime dividing m = gcd(d, t) to SELECT_V or
    SELECT_VPRIME; at every other prime dividing t the two canonical
    subgroups agree and no choice exists.  The subgroup is its (d, t,
    selector); the generator is derived from them.  It is a vbar +
    b vprime with a and b sums of the CRT idempotents of t
    (``modulus(t).idempotents``): a takes the primes not dividing m and
    those selecting V, b those selecting Vprime.  So the all-V subgroup
    is exactly <vbar> and the all-Vprime one is <vprime>.
    """

    _fields = ("d", "t", "selector")  # no __slots__: ``_pairing`` is cached

    def __init__(self, d: int, t: int, selector: tuple[tuple[int, str], ...]):
        self.d, self.t, self.selector = d, t, selector
        _check_t(t, d=d)
        primes = modulus(t).common_primes(d)
        if tuple(p for p, _ in selector) != primes:
            raise InvalidSubgroupError(
                f"selector primes must be exactly {primes}"
            )
        if any(c not in (SELECT_V, SELECT_VPRIME) for _, c in selector):
            raise InvalidSubgroupError("selector values must be V or Vprime")
        nf = ns_form(d, t)
        idem = modulus(t).idempotents
        a = sum(c for p, c in idem.items() if d % p)
        b = 0
        for p, c in selector:
            if c == SELECT_V:
                a += idem[p]
            else:
                b += idem[p]
        coords = tuple(a * x + b * y for x, y in zip(nf.vbar.coords, nf.vprime.coords))
        self.generator = DFElement(nf.form, coords)

    def elements(self) -> tuple[DFElement, ...]:
        """All t elements, materialized.  Avoid for very large t."""
        return tuple(s * self.generator for s in range(self.t))

    def contains(self, elem: DFElement) -> bool:
        """Whether ``elem`` lies in L.  L is isotropic with |L|^2 = |A| in a
        nondegenerate form, so L = L-perp: x is in L iff b(x, generator) = 0,
        one integer dot product."""
        if elem.form != self.generator.form:
            raise InvalidElementError("elements live in different groups")
        return self._has(elem.coords)

    @cached_property
    def _pairing(self) -> tuple[int, ...]:
        """The integer functional f with b(x, generator) = (f . x) / den
        mod 1, den the form's common denominator: f = B g mod den, B the
        b numerator matrix and g the generator's coordinates."""
        form, g = self.generator.form, self.generator.coords
        return tuple(sum(map(mul, row, g)) % form.den for row in form.bn)

    def _has(self, coords) -> bool:
        """``contains`` on a coordinate tuple of the generator's group."""
        den = self.generator.form.den
        return sum(map(mul, self._pairing, coords)) % den == 0


def count_lagrangians(d: int, t: int) -> tuple[int, int]:
    """(element count, subgroup count) = (phi(t) 2^omega(m), 2^omega(m))."""
    _check_t(t, d=d)
    rec = modulus(t)
    subs = 1 << len(rec.common_primes(d))
    return rec.phi * subs, subs


def canonical_pair(d: int, t: int) -> tuple[LagrangianElement, LagrangianElement]:
    """The classes of F/t and F'/t; equal subgroups iff gcd(d, t) = 1."""
    nf = ns_form(d, t)
    return LagrangianElement(nf.vbar), LagrangianElement(nf.vprime)


def _lagrangian_coords(d: int, t: int) -> list[tuple[int, ...]]:
    """Coordinate tuples of the isotropic order-t elements, sorted: the
    unit multiples of a generator of each isotropic cyclic subgroup of
    order t, one q-test per p-part.  It backs element listings and the
    DE checks: the closed form's element count and canonical classes
    (``de_counts``), and that the subgroups hold every element
    (``_de_walk``); no count walks it.  The element budget bounds the
    whole group (t^2 elements)."""
    form = ns_form(d, t).form
    budget.require(form.size, budget.element_cap(), "|A| for an element scan")
    if form.rank == 0:
        return [()]
    n1, n2, den, q1, q2, b12 = _kernel_setup(form, form)[:6]
    hits = kernels.scan_isotropic_elements(n1, n2, q1, q2, b12, den, t)
    if form.rank == 1:
        return [(c2,) for _, c2 in hits]
    return hits


def enumerate_lagrangian_elements(d: int, t: int) -> list[LagrangianElement]:
    """All isotropic order-t elements of the group, exactly.

    Sorted by coordinates.  They are listed as the unit multiples of one
    generator per isotropic cyclic subgroup of order t, but the budget is
    still checked on the whole group, which has t^2 elements; use
    count_lagrangians past the budget.
    """
    form = ns_form(d, t).form
    return [LagrangianElement(form.element(c)) for c in _lagrangian_coords(d, t)]


def enumerate_lagrangian_subgroups(d: int, t: int) -> list[LagrangianSubgroup]:
    """All 2^omega(m) subgroups, sorted by per-prime selector (the order
    ``product`` gives, as "V" < "Vprime").

    Never enumerates elements, hence no budget.
    """
    ns_form(d, t)  # refuses a bad (d, t) before t's record is read
    primes = modulus(t).common_primes(d)
    return [
        LagrangianSubgroup(d, t, tuple(zip(primes, choice)))
        for choice in product((SELECT_V, SELECT_VPRIME), repeat=len(primes))
    ]


def subgroup_generated_by(d: int, t: int, w: LagrangianElement) -> LagrangianSubgroup:
    """The Lagrangian subgroup <w>, classified prime by prime.

    At each prime p | m the p-part of w lies in the p-part of <vbar> or of
    <vprime>, the only Lagrangian subgroups of A_p.  A Lagrangian subgroup
    is its own orthogonal complement (L = L-perp, as |L|^2 = |A| and the
    form is nondegenerate), so membership is b(x, generator) = 0, at each
    p and for <w> itself, one integer dot product each (``_selector``,
    ``_subgroup_of``).
    """
    if w.elem.form != ns_form(d, t).form:
        raise InvalidElementError("elements live in different groups")
    return _subgroup_of(d, t, w.coords)


def _selector(d: int, t: int, coords) -> tuple[tuple[int, str], ...]:
    """The per-prime selector of the Lagrangian element with these
    coordinates.

    With c_p the CRT idempotent of p, b(c_p x, c_p y) = c_p^2 b(x, y), so
    the p-part of x lies in that of <vbar> exactly when c_p^2 b(x, vbar)
    = 0 mod 1: one b numerator per canonical subgroup and prime.
    """
    nf = ns_form(d, t)
    form = nf.form
    idem = modulus(t).idempotents
    selector = []
    for p in modulus(t).common_primes(d):
        c2 = idem[p] ** 2
        if c2 * form.b_numerator(coords, nf.vbar.coords) % form.den == 0:
            selector.append((p, SELECT_V))
        elif c2 * form.b_numerator(coords, nf.vprime.coords) % form.den == 0:
            selector.append((p, SELECT_VPRIME))
        else:
            raise InvalidSubgroupError(
                f"p-part at {p} generates neither canonical subgroup"
            )
    return tuple(selector)


def _subgroup_of(d: int, t: int, coords) -> LagrangianSubgroup:
    """The subgroup the Lagrangian element with these coordinates
    generates: the one its selector names, which must contain it."""
    sub = LagrangianSubgroup(d, t, _selector(d, t, coords))
    if not sub._has(coords):
        raise InvalidSubgroupError("element is not in the subgroup its selector names")
    return sub


def _flip(selector, primes) -> tuple[tuple[int, str], ...]:
    """``selector`` with V and Vprime swapped at the primes in ``primes``."""
    swap = {SELECT_V: SELECT_VPRIME, SELECT_VPRIME: SELECT_V}
    return tuple((p, swap[c] if p in primes else c) for p, c in selector)


def involution(d: int, t: int, sub: LagrangianSubgroup) -> LagrangianSubgroup:
    """Flip every selector entry; the identity when m = 1."""
    if (sub.d, sub.t) != (d, t):
        raise InvalidSubgroupError("subgroup belongs to a different (d, t)")
    return LagrangianSubgroup(d, t, _flip(sub.selector, modulus(t).primes))


def units_action(k: int, w: LagrangianElement) -> LagrangianElement:
    """k * w = (k^-1 mod t) w, the action matching Jacobian relabelling."""
    t = w.t
    if gcd(k, t) != 1:
        raise InvalidParameterError(f"k = {k} is not a unit mod {t}")
    if t == 1:
        return w
    return LagrangianElement(pow(k, -1, t) * w.elem)


class GSpec(Value):
    """A cyclic Hodge-isometry group, given by its image on the
    discriminant group plus its abstract (even) order.

    The generator is validated as an isometry of the discriminant form
    once, here, so the images it produces need no further checks.  The
    abstract order may exceed the image's order: the kernel acts
    trivially on the discriminant group.  Orders are constrained by the
    transcendental rank of the family (20): even, at most 2 * 20^2, with
    totient dividing 20.
    """

    __slots__ = ("generator", "order", "_powers", "_moving")
    _fields = ("generator", "order")

    def __init__(self, generator: DFIsometry, order: int):
        self.generator = gen = generator
        try:
            self.order = order = index(order)
        except TypeError:
            raise InvalidParameterError(f"group order must be an integer, got {order!r}") from None
        if gen.domain != gen.codomain:
            raise InvalidIsometryError("generator must be an automorphism")
        neg = _neg_images(gen.domain.orders)
        sign = gen.images == neg
        if not sign:
            as_isometry(gen.domain, gen.codomain, gen.images)
        if order < 2 or order % 2:
            raise InvalidParameterError("group order must be even and >= 2")
        if order > 2 * TRANSCENDENTAL_RANK**2 or TRANSCENDENTAL_RANK % modulus(order).phi:
            raise InvalidParameterError(
                f"order {order} is not realizable at transcendental "
                f"rank {TRANSCENDENTAL_RANK}"
            )
        if not sign:
            powers = gen.powers()
        else:  # read off: -id = id when every generator order is 2
            powers = (gen,) if gen.is_identity() else (gen, identity_isometry(gen.domain))
        self._powers = powers
        if order % len(powers):
            raise InvalidParameterError(
                "abstract order must be a multiple of the image's order"
            )
        if neg not in {s.images for s in powers}:
            raise InvalidParameterError("group image must contain -id")
        central = (neg, powers[-1].images)
        self._moving = tuple(s for s in powers if s.images not in central)

    @classmethod
    def sign_group(cls, form, order: int = 2) -> "GSpec":
        """The minimal group {+-1}, or a larger one acting through it."""
        return cls(neg_identity(form), order)

    @property
    def kernel_order(self) -> int:
        return self.order // len(self._powers)

    def image_elements(self) -> tuple[DFIsometry, ...]:
        """The image of G: sigma, sigma^2, ..., the identity."""
        return self._powers

    def moving_elements(self) -> tuple[DFIsometry, ...]:
        """The image elements other than +-id, in image order."""
        return self._moving
