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
from functools import cached_property
from itertools import product
from math import gcd, isqrt
from operator import mul

from . import budget, kernels
from .discforms import (
    DFElement,
    DFIsometry,
    _kernel_setup,
    as_isometry,
    neg_identity,
    ns_form,
)
from .errors import (
    InvalidElementError,
    InvalidIsometryError,
    InvalidParameterError,
    InvalidSubgroupError,
)
from .intmath import distinct_primes, totient

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
        form = ns_form(self.d, self.t).form
        if self.generator.form is not form and self.generator.form != form:
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
        nondegenerate form, so L = L-perp: x is in L iff b(x, generator) = 0,
        one integer dot product."""
        if elem.form != self.generator.form:
            raise InvalidElementError("elements live in different groups")
        return self._has(elem.coords)

    @cached_property
    def _pairing(self) -> tuple[int, ...]:
        return _functional(self.generator.form, self.generator.coords)

    def _has(self, coords) -> bool:
        """``contains`` on a coordinate tuple of the generator's group."""
        den = self.generator.form.den
        return sum(map(mul, self._pairing, coords)) % den == 0


def _functional(form, coords) -> tuple[int, ...]:
    """The integer functional f with b(x, y) = (f . x) / den mod 1 for y
    the element with coordinates ``coords``, den the form's common
    denominator: f = B y mod den, B the b numerator matrix."""
    den = form.den
    return tuple(sum(map(mul, row, coords)) % den for row in form.bn)


def _idempotents(t: int, factors: dict[int, int]) -> dict[int, int]:
    """c_p = 1 mod p^k, 0 mod t/p^k, for each prime power p^k || t, from
    t's factorisation ``factors`` (``NSForm.t_factors``)."""
    out = {}
    for p, k in factors.items():
        pk = p**k
        cof = t // pk
        out[p] = cof * pow(cof, -1, pk) % t
    return out


def _primes_of_m(nf) -> tuple[int, ...]:
    """The primes of m = gcd(d, t), ascending, read off t's factorisation."""
    m = nf.m
    return tuple(p for p in sorted(nf.t_factors) if m % p == 0)


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
    """Coordinate tuples of the isotropic order-t elements, sorted: the
    unit multiples of a generator of each isotropic cyclic subgroup of
    order t, one q-test per p-part.  It backs element listings and the
    check in ``de_counts`` that the subgroups hold every element; no count
    walks it.  The element budget bounds the whole group (t^2 elements)."""
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


def _subgroup(d: int, t: int, selector, idem=None) -> LagrangianSubgroup:
    """The subgroup a per-prime selector names.

    Its generator is a vbar + b vprime with a and b sums of the CRT
    idempotents of t (``idem``, computed when not passed): a takes the
    primes not dividing m = gcd(d, t) and those selecting V, b those
    selecting Vprime.  So the all-V subgroup is exactly <vbar> and the
    all-Vprime one is <vprime>.  The coordinates are one integer
    combination, reduced once into a DFElement.
    """
    nf = ns_form(d, t)
    m = gcd(d, t)
    if idem is None:
        idem = _idempotents(t, nf.t_factors)
    a = sum(c for p, c in idem.items() if m % p)
    b = 0
    for p, c in selector:
        if c == SELECT_V:
            a += idem[p]
        else:
            b += idem[p]
    coords = tuple(a * x + b * y for x, y in zip(nf.vbar.coords, nf.vprime.coords))
    return LagrangianSubgroup(d, t, selector, DFElement(nf.form, coords))


def enumerate_lagrangian_subgroups(d: int, t: int) -> list[LagrangianSubgroup]:
    """All 2^omega(m) subgroups, sorted by per-prime selector (the order
    ``product`` gives, as "V" < "Vprime").

    Never enumerates elements, hence no budget.
    """
    nf = ns_form(d, t)
    idem = _idempotents(t, nf.t_factors)
    primes = _primes_of_m(nf)
    return [
        _subgroup(d, t, tuple(zip(primes, choice)), idem)
        for choice in product((SELECT_V, SELECT_VPRIME), repeat=len(primes))
    ]


def subgroup_generated_by(d: int, t: int, w: LagrangianElement) -> LagrangianSubgroup:
    """The Lagrangian subgroup <w>, classified prime by prime.

    At each prime p | m the p-part of w lies in the p-part of <vbar> or of
    <vprime>, the only Lagrangian subgroups of A_p.  A Lagrangian subgroup
    is its own orthogonal complement (L = L-perp, as |L|^2 = |A| and the
    form is nondegenerate), so membership is b(x, generator) = 0, at each
    p and for <w> itself.  Each test is an integer dot product with a
    functional read off the form's b numerators (``_classifier``), the
    path ``g_orbits`` takes for subgroups too.
    """
    if w.elem.form != ns_form(d, t).form:
        raise InvalidElementError("elements live in different groups")
    return _classifier(d, t, {})(w.coords)


def _classifier(d: int, t: int, known: dict):
    """coords -> the Lagrangian subgroup generated by the Lagrangian
    element with those coordinates.

    With c_p the CRT idempotent of p, b(c_p x, c_p y) = c_p^2 b(x, y), so
    the p-part of x lies in that of <vbar> exactly when x pairs to 0 with
    c_p^2 vbar: one dot product mod den per canonical subgroup and prime.
    ``known`` maps selectors to subgroups already built; ``_subgroup``
    runs only for a selector not in it, and the result is added.
    """
    nf = ns_form(d, t)
    form = nf.form
    den = form.den
    idem = _idempotents(t, nf.t_factors)
    tests = [
        (
            p,
            _functional(form, (idem[p] ** 2 * nf.vbar).coords),
            _functional(form, (idem[p] ** 2 * nf.vprime).coords),
        )
        for p in _primes_of_m(nf)
    ]

    def classify(coords) -> LagrangianSubgroup:
        selector = []
        for p, at_v, at_vprime in tests:
            if sum(map(mul, at_v, coords)) % den == 0:
                selector.append((p, SELECT_V))
            elif sum(map(mul, at_vprime, coords)) % den == 0:
                selector.append((p, SELECT_VPRIME))
            else:
                raise InvalidSubgroupError(
                    f"p-part at {p} generates neither canonical subgroup"
                )
        selector = tuple(selector)
        sub = known.get(selector)
        if sub is None:
            sub = known[selector] = _subgroup(d, t, selector, idem)
        if not sub._has(coords):
            raise InvalidSubgroupError(
                "element is not in the subgroup its selector names"
            )
        return sub

    return classify


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
    _moving: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gen = self.generator
        if gen.domain != gen.codomain:
            raise InvalidIsometryError("generator must be an automorphism")
        # -id is an isometry of every finite quadratic form
        neg = neg_identity(gen.domain).images
        if gen.images != neg:
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
        if neg not in {s.images for s in powers}:
            raise InvalidParameterError("group image must contain -id")
        central = (neg, powers[-1].images)
        object.__setattr__(
            self, "_moving", tuple(s for s in powers if s.images not in central)
        )

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


def _coordinate_move(sigma: DFIsometry):
    """c -> sigma(c) on coordinate tuples.  Sigma's images are read once
    as an integer matrix, whose row j holds coordinate j of every
    generator image, so coordinate j of the image is one dot product
    reduced mod the j-th generator order."""
    rows = tuple(zip(zip(*sigma.images), sigma.codomain.orders))
    return lambda c: tuple([sum(map(mul, row, c)) % n for row, n in rows])


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


def _subgroup_move(subs, sigma: DFIsometry):
    """L -> <sigma(generator of L)> on Lagrangian subgroups of the one
    (d, t) that every subgroup in ``subs`` must belong to.  Sigma acts on
    the generator's coordinates as an integer matrix, and the image is
    classified by integer functionals as in subgroup_generated_by; the
    subgroup with the image's selector is taken from ``subs`` when one
    is there, and built only for a selector not seen before."""
    d, t = subs[0].d, subs[0].t
    if any((L.d, L.t) != (d, t) for L in subs):
        raise InvalidSubgroupError("subgroups belong to different (d, t)")
    classify = _classifier(d, t, {L.selector: L for L in subs})
    step = _coordinate_move(sigma)
    return lambda L: classify(step(L.generator.coords))


def g_orbits(items, g: GSpec):
    """Partition Lagrangian elements or subgroups, and everything their
    G-orbits reach, into orbits of the cyclic group G.

    Elements are walked as coordinate tuples; the caller's objects are
    returned and only images it did not pass are wrapped.  GSpec checked
    that sigma is an isometry, so no image needs another check.  A
    subgroup L moves to <sigma(generator)> (``_subgroup_move``), and all
    subgroups must belong to one (d, t).  Each orbit is sorted by
    coordinates (elements) or selector (subgroups), and the orbits are
    listed by their least member.
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
        return _orbits(items, lambda L: L.selector, [_subgroup_move(items, sigma)])
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

    Returns (count, representatives): one walk over the orbits of the
    group that G's move (as in ``g_orbits``) and ``involution`` generate
    together, and the least subgroup of each orbit by selector.
    """
    if g.generator.domain != ns_form(d, t).form:
        raise InvalidIsometryError("G does not act on this family member")
    subs = enumerate_lagrangian_subgroups(d, t)
    moves = [_subgroup_move(subs, g.generator), lambda L: involution(d, t, L)]
    reps = tuple(orbit[0] for orbit in _orbits(subs, lambda L: L.selector, moves))
    return len(reps), reps
