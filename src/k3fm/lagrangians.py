"""Lagrangian elements and subgroups of the discriminant group of the
(d, t) family, the canonical generator pair, the selector involution, the
unit-group action and orbit counting under a cyclic Hodge-isometry group.

A Lagrangian element is an isotropic element of order t in a group of
size t^2; a Lagrangian subgroup is cyclic of order t and isotropic.  The
only Lagrangian subgroups are mixtures of the two canonical ones, so a
subgroup is stored as a choice, per prime dividing m = gcd(d, t), between
the p-part of <vbar> and the p-part of <vprime>.  That selector encoding
is what keeps squarefree t with many prime factors (t around 510510)
cheap: subgroups are never materialized unless asked for.
"""

from dataclasses import dataclass, field
from itertools import product
from math import gcd, isqrt

from . import budget, kernels
from .discforms import (
    DFElement,
    DFIsometry,
    _kernel_setup,
    as_isometry,
    b_eval,
    neg_identity,
    ns_form,
)
from .errors import (
    CapacityError,
    InvalidElementError,
    InvalidIsometryError,
    InvalidParameterError,
    InvalidSubgroupError,
)
from .intmath import distinct_primes, factorize, totient

# The family's surfaces have rank-two Picard lattices, so the
# transcendental rank is fixed at 22 - 2.
TRANSCENDENTAL_RANK = 20

SELECT_V = "V"
SELECT_VPRIME = "Vprime"


@dataclass(frozen=True)
class LagrangianElement:
    """Isotropic element whose order is the square root of the group size."""

    elem: DFElement

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


@dataclass(frozen=True)
class LagrangianSubgroup:
    """Cyclic isotropic subgroup of order t, stored by per-prime selector.

    ``selector`` maps each prime dividing m = gcd(d, t) to SELECT_V or
    SELECT_VPRIME; at every other prime dividing t the two canonical
    subgroups agree and no choice exists.
    """

    d: int
    t: int
    selector: tuple[tuple[int, str], ...]
    generator: DFElement

    def __post_init__(self):
        m = gcd(self.d, self.t)
        primes = distinct_primes(m)
        if tuple(p for p, _ in self.selector) != primes:
            raise InvalidSubgroupError(
                f"selector primes must be exactly {primes}"
            )
        if any(c not in (SELECT_V, SELECT_VPRIME) for _, c in self.selector):
            raise InvalidSubgroupError("selector values must be V or Vprime")
        if self.generator.order() != self.t:
            raise InvalidSubgroupError("generator does not have order t")
        if not self.generator.is_isotropic():
            raise InvalidSubgroupError("generator is not isotropic")
        if self.generator.form != ns_form(self.d, self.t).form:
            raise InvalidSubgroupError("generator does not live in this family group")

    def elements(self) -> tuple[DFElement, ...]:
        """All t elements, materialized.  Avoid for very large t."""
        return tuple(s * self.generator for s in range(self.t))

    def lagrangian_generators(self) -> tuple[LagrangianElement, ...]:
        """The phi(t) elements that generate this subgroup."""
        return tuple(
            LagrangianElement(s * self.generator)
            for s in range(self.t)
            if gcd(s, self.t) == 1
        )

    def contains(self, elem: DFElement) -> bool:
        """Whether ``elem`` lies in L.  L is isotropic with |L|^2 = |A| in a
        nondegenerate form, so L = L-perp: x is in L iff b(x, generator) = 0."""
        return b_eval(elem, self.generator) == 0


def _idempotents(t: int) -> dict[int, int]:
    """c_p = 1 mod p^k, 0 mod t/p^k, for each prime power p^k || t."""
    out = {}
    for p, k in factorize(t).items():
        pk = p**k
        cof = t // pk
        out[p] = cof * pow(cof, -1, pk) % t
    return out


def count_lagrangians(d: int, t: int) -> tuple[int, int]:
    """(element count, subgroup count) = (phi(t) 2^omega(m), 2^omega(m))."""
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    subs = 1 << len(distinct_primes(gcd(d, t)))
    return totient(t) * subs, subs


def canonical_pair(d: int, t: int) -> tuple[LagrangianElement, LagrangianElement]:
    """The classes of F/t and F'/t; equal subgroups iff gcd(d, t) = 1."""
    nf = ns_form(d, t)
    return LagrangianElement(nf.vbar), LagrangianElement(nf.vprime)


def _lagrangian_coords(d: int, t: int) -> list[tuple[int, ...]]:
    """Coordinate tuples of the isotropic order-t elements, sorted: one
    scan of the elements killed by t.  The budget is still checked on the
    whole group, which has t^2 elements."""
    form = ns_form(d, t).form
    cap = budget.element_cap()
    if form.size > cap:
        raise CapacityError(
            f"element enumeration budget is |A| <= {cap} "
            f"(K3FM_BUDGET overrides); got |A| = {form.size}",
            cap,
        )
    if form.rank == 0:
        return [()]
    n1, n2, den, q1, q2, b12 = _kernel_setup(form, form)[:6]
    hits = kernels.scan_isotropic_elements(n1, n2, q1, q2, b12, den, t)
    if form.rank == 1:
        return [(c2,) for _, c2 in hits]
    return hits


def enumerate_lagrangian_elements(d: int, t: int) -> list[LagrangianElement]:
    """Exact scan of the group for isotropic order-t elements.

    Sorted by coordinates.  The scan visits only the elements killed by
    t, but the budget is checked on the whole group, which has t^2
    elements; use count_lagrangians past the budget.
    """
    form = ns_form(d, t).form
    return [LagrangianElement(form.element(c)) for c in _lagrangian_coords(d, t)]


def _subgroup(d: int, t: int, selector) -> LagrangianSubgroup:
    """The subgroup a per-prime selector names.

    Its generator is assembled with the CRT idempotents of t, so the
    all-V subgroup is exactly <vbar> and the all-Vprime one is <vprime>.
    """
    nf = ns_form(d, t)
    m = gcd(d, t)
    idem = _idempotents(t)
    forced = sum((c for p, c in idem.items() if m % p), 0)
    gen = forced * nf.vbar if t > 1 else nf.form.zero()
    for p, c in selector:
        gen = gen + idem[p] * (nf.vbar if c == SELECT_V else nf.vprime)
    return LagrangianSubgroup(d, t, selector, gen)


def enumerate_lagrangian_subgroups(d: int, t: int) -> list[LagrangianSubgroup]:
    """All 2^omega(m) subgroups, sorted by per-prime selector (the order
    ``product`` gives, as "V" < "Vprime").

    Never enumerates elements, hence no budget.
    """
    primes = distinct_primes(gcd(d, t))
    return [
        _subgroup(d, t, tuple(zip(primes, choice)))
        for choice in product((SELECT_V, SELECT_VPRIME), repeat=len(primes))
    ]


def subgroup_generated_by(d: int, t: int, w: LagrangianElement) -> LagrangianSubgroup:
    """The Lagrangian subgroup <w>, classified prime by prime.

    At each prime p | m the p-part of w lies in the p-part of <vbar> or of
    <vprime>, the only Lagrangian subgroups of A_p.  A Lagrangian subgroup
    is its own orthogonal complement (L = L-perp, as |L|^2 = |A| and the
    form is nondegenerate), so membership is b(x, generator) = 0, at each
    p and for <w> itself.
    """
    return _generated_subgroup(d, t, w.elem)


def _generated_subgroup(d: int, t: int, elem: DFElement) -> LagrangianSubgroup:
    nf = ns_form(d, t)
    idem = _idempotents(t)
    selector = []
    for p in distinct_primes(gcd(d, t)):
        wp = idem[p] * elem
        if b_eval(wp, idem[p] * nf.vbar) == 0:
            selector.append((p, SELECT_V))
        elif b_eval(wp, idem[p] * nf.vprime) == 0:
            selector.append((p, SELECT_VPRIME))
        else:
            raise InvalidSubgroupError(
                f"p-part at {p} generates neither canonical subgroup"
            )
    sub = _subgroup(d, t, tuple(selector))
    if not sub.contains(elem):
        raise InvalidSubgroupError(
            "element is not in the subgroup its selector names"
        )
    return sub


def involution(d: int, t: int, sub: LagrangianSubgroup) -> LagrangianSubgroup:
    """Flip every selector entry; the identity when m = 1."""
    if (sub.d, sub.t) != (d, t):
        raise InvalidSubgroupError("subgroup belongs to a different (d, t)")
    flipped = tuple(
        (p, SELECT_VPRIME if c == SELECT_V else SELECT_V)
        for p, c in sub.selector
    )
    return _subgroup(d, t, flipped)


def units_action(k: int, w: LagrangianElement) -> LagrangianElement:
    """k * w = (k^-1 mod t) w, the action matching Jacobian relabelling."""
    t = w.t
    if gcd(k, t) != 1:
        raise InvalidParameterError(f"k = {k} is not a unit mod {t}")
    if t == 1:
        return w
    return LagrangianElement(pow(k, -1, t) * w.elem)


@dataclass(frozen=True)
class GSpec:
    """A cyclic Hodge-isometry group, given by its image on the
    discriminant group plus its abstract (even) order.

    The generator is validated as an isometry of the discriminant form
    once, here, so the images it produces need no further checks.  The
    abstract order may exceed the image's order: the kernel acts
    trivially on the discriminant group.  Orders are constrained by the
    transcendental rank of the family (20): even, at most 2 * 20^2, with
    totient dividing 20.
    """

    generator: DFIsometry
    order: int
    _powers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gen = self.generator
        if gen.domain != gen.codomain:
            raise InvalidIsometryError("generator must be an automorphism")
        as_isometry(gen.domain, gen.codomain, gen.images)
        if self.order < 2 or self.order % 2:
            raise InvalidParameterError("group order must be even and >= 2")
        if self.order > 2 * TRANSCENDENTAL_RANK**2 or TRANSCENDENTAL_RANK % totient(self.order):
            raise InvalidParameterError(
                f"order {self.order} is not realizable at transcendental "
                f"rank {TRANSCENDENTAL_RANK}"
            )
        powers = gen.powers()
        object.__setattr__(self, "_powers", powers)
        if self.order % len(powers):
            raise InvalidParameterError(
                "abstract order must be a multiple of the image's order"
            )
        if neg_identity(gen.domain).images not in {s.images for s in powers}:
            raise InvalidParameterError("group image must contain -id")

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


def _coordinate_move(sigma: DFIsometry):
    """c -> sigma(c) on coordinate tuples, reduced mod the generator orders."""
    orders = sigma.codomain.orders
    return lambda c: tuple(x % n for x, n in zip(sigma._map(c), orders))


def _orbits(items, key, moves):
    """Orbits of the group generated by ``moves`` on everything reachable
    from ``items``.

    The moves must be bijections of one finite set, so the points a walk
    reaches from x are exactly the orbit of x.  Each orbit is a tuple
    sorted by ``key``, and the orbits are listed by their least member,
    also when that member was not among ``items``.
    """
    seen = set()
    orbits = []
    for item in items:
        k = key(item)
        if k in seen:
            continue
        seen.add(k)
        orbit = [item]
        for x in orbit:
            for move in moves:
                y = move(x)
                k = key(y)
                if k not in seen:
                    seen.add(k)
                    orbit.append(y)
        orbits.append(tuple(sorted(orbit, key=key)))
    return tuple(sorted(orbits, key=lambda o: key(o[0])))


def g_orbits(items, g: GSpec):
    """Partition Lagrangian elements or subgroups, and everything their
    G-orbits reach, into orbits of the cyclic group G.

    Elements are walked as coordinate tuples; the caller's objects are
    returned and only images it did not pass are wrapped.  GSpec checked
    that sigma is an isometry, so no image needs another check.  A
    subgroup L moves to <sigma(generator)>, classified by L = L-perp as in
    subgroup_generated_by.  Each orbit is sorted by coordinates (elements) or selector
    (subgroups), and the orbits are listed by their least member.
    """
    items = list(items)
    sigma = g.generator
    for item in items:
        form = item.elem.form if isinstance(item, LagrangianElement) else item.generator.form
        if form != sigma.domain:
            raise InvalidIsometryError(
                "group generator does not act on these items"
            )
    if not all(isinstance(item, LagrangianElement) for item in items):
        move = lambda L: _generated_subgroup(L.d, L.t, sigma.apply(L.generator))
        return _orbits(items, lambda L: L.selector, [move])
    given = {w.coords: w for w in items}
    orbits = _orbits(given, lambda c: c, [_coordinate_move(sigma)])
    return tuple(
        tuple(
            given[c] if c in given else LagrangianElement(sigma.domain.element(c))
            for c in orbit
        )
        for orbit in orbits
    )


def double_quotient(d: int, t: int, g: GSpec):
    """Classes of Lagrangian subgroups under G and the involution jointly.

    Returns (count, representatives); representatives are the least
    subgroup of each merged class.  This is the subgroup count feeding
    the Fourier-Mukai partner count.
    """
    orbits = g_orbits(enumerate_lagrangian_subgroups(d, t), g)
    orbit_of = {L.selector: i for i, orbit in enumerate(orbits) for L in orbit}
    image = []
    for orbit in orbits:
        targets = {orbit_of[involution(d, t, L).selector] for L in orbit}
        if len(targets) != 1:
            raise RuntimeError("involution did not map a G-orbit to a G-orbit")
        image.append(targets.pop())
    classes = _orbits(range(len(orbits)), lambda i: i, [image.__getitem__])
    reps = tuple(orbits[cls[0]][0] for cls in classes)
    return len(reps), reps
