"""Surface-level semantics for the (d, t) family: Jacobian calculus,
coprime-Jacobian class counts, Mukai-vector classes, fibration
predicates, automorphism kernels, derived-elliptic-structure counts,
Fourier-Mukai partner counts, and the headline classifier.

The Hodge-theoretic inputs that cannot be derived from (d, t) alone are
supplied declaratively: the cyclic isometry group G as a GSpec, the twist
groups B and Btilde as unit subgroups, and the T-general flag.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, gcd, prod

from . import budget
from .discforms import (
    DFElement,
    DFIsometry,
    isometry_between,
    isometry_group,
    neg_identity,
    ns_form,
    require_isometry_budget,
)
from .errors import (
    InvalidIsometryError,
    InvalidMukaiVectorError,
    InvalidParameterError,
    NotApplicableError,
    OutOfScopeError,
)
from .intmath import close_units_subgroup, distinct_primes, is_prime, totient, units_mod
from .lattices import RationalVector, genus_representatives
from .lagrangians import (
    GSpec,
    _cycle_count,
    _lagrangian_coords,
    count_lagrangians,
    enumerate_lagrangian_subgroups,
    g_orbits,
)

J_GENERIC = "generic"
J_ZERO = "j0"
J_1728 = "j1728"


class HTClass(str, Enum):
    """Classification of where the Fourier-Mukai partners live."""

    SingleFibrationCovers = "SingleFibrationCovers"
    TwoFibrationsCover = "TwoFibrationsCover"
    NonJacobianPartnersExist = "NonJacobianPartnersExist"
    Inconclusive = "Inconclusive"


@dataclass(frozen=True)
class MukaiVector:
    """Primitive vector (r, D, s) with D = x H + y F; see caldararu_class
    for the square-zero requirement (it depends on d and t)."""

    r: int
    D: tuple[int, int]
    s: int

    def __post_init__(self):
        object.__setattr__(self, "D", tuple(self.D))
        x, y = self.D
        if gcd(gcd(self.r, self.s), gcd(x, y)) != 1:
            raise InvalidMukaiVectorError("vector is not primitive")

    def square(self, d: int, t: int) -> int:
        x, y = self.D
        return 2 * x * (d * x + t * y) - 2 * self.r * self.s


@dataclass(frozen=True)
class SurfaceModel:
    """A family member plus its declared Hodge-side data.

    B is the subgroup of units acting on the base-preserving twists,
    Btilde the larger one allowing base automorphisms; both live in
    (Z/t)*.  T-general surfaces have no extra Hodge isometries, which
    forces G to act as {+-1} on the discriminant group.
    """

    d: int
    t: int
    G: GSpec
    B: frozenset
    Btilde: frozenset
    t_general: bool = True
    isotrivial_j: str = J_GENERIC

    def __post_init__(self):
        if self.t < 1:
            raise InvalidParameterError("t must be a positive integer")
        if self.isotrivial_j not in (J_GENERIC, J_ZERO, J_1728):
            raise InvalidParameterError(
                f"isotrivial_j must be one of generic/j0/j1728, got {self.isotrivial_j}"
            )
        nf = ns_form(self.d, self.t)
        if self.G.generator.domain != nf.form:
            raise InvalidIsometryError("G does not act on this family member")
        b = frozenset(x % self.t for x in self.B)
        bt = frozenset(x % self.t for x in self.Btilde)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "Btilde", bt)
        for name, grp in (("B", b), ("Btilde", bt)):
            if not grp or any(gcd(x, self.t) != 1 for x in grp):
                raise InvalidParameterError(f"{name} must consist of units mod t")
            if close_units_subgroup(self.t, grp) != grp:
                raise InvalidParameterError(f"{name} is not closed under products")
        if (-1) % self.t not in b:
            raise InvalidParameterError("B must contain -1")
        if not b <= bt:
            raise InvalidParameterError("B must be contained in Btilde")
        if self.t > 2:
            if len(b) not in (2, 4, 6):
                raise InvalidParameterError("B must have order 2, 4 or 6")
            if len(b) == 4:
                if all(pow(x, 2, self.t) == 1 for x in b):
                    raise InvalidParameterError("order-4 B must be cyclic")
                if self.isotrivial_j != J_1728:
                    raise InvalidParameterError(
                        "order-4 B needs an isotrivial fibration with j = 1728"
                    )
            if len(b) == 6 and self.isotrivial_j != J_ZERO:
                raise InvalidParameterError(
                    "order-6 B needs an isotrivial fibration with j = 0"
                )
        if self.t_general and self.G.moving_elements():
            raise InvalidParameterError("T-general surfaces admit only {+-1} as G")

    @classmethod
    def general(cls, d: int, t: int) -> "SurfaceModel":
        """The T-general member: G = {+-1}, B = Btilde = {+-1}."""
        g = GSpec.sign_group(ns_form(d, t).form)
        b = frozenset({1 % t, (-1) % t}) if t > 1 else frozenset({0})
        return cls(d, t, g, b, b, t_general=True, isotrivial_j=J_GENERIC)

    @property
    def m(self) -> int:
        return gcd(self.d, self.t)


def jacobian_index(t: int, k: int) -> int:
    """Index of the k-th Jacobian: t / gcd(t, k)."""
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    return t // gcd(t, k)


def jacobian_compose(k: int, ell: int, t: int) -> int:
    """Taking the k-th Jacobian of the ell-th gives the (k ell)-th."""
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    return k * ell % t


def jacobian_class_canonical(k: int, t: int) -> int:
    """Least representative of {k, -k} mod t; Jacobians are t-periodic
    in k and insensitive to its sign."""
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    return min(k % t, -k % t)


def coprime_jacobian_classes(t: int, b_group) -> tuple[int, tuple[int, ...]]:
    """Isomorphism classes of coprime Jacobians: cosets of B in (Z/t)*.

    Returns (phi(t)/|B|, canonical representatives): one ascending pass
    over the units, each unit not yet seen is the least member of its
    coset u B and marks that coset.  The paper's count excludes t = 1,
    2, where every twist is trivial.
    """
    if t <= 2:
        raise OutOfScopeError("coprime Jacobian classes need t > 2")
    b = frozenset(x % t for x in b_group)
    if not b or any(gcd(x, t) != 1 for x in b):
        raise InvalidParameterError("B must consist of units mod t")
    if close_units_subgroup(t, b) != b:
        raise InvalidParameterError("B is not closed under products")
    if (-1) % t not in b:
        raise InvalidParameterError("B must contain -1")
    seen, reps = set(), []
    for u in units_mod(t):
        if u not in seen:
            reps.append(u)
            seen.update(u * x % t for x in b)
    if len(reps) != totient(t) // len(b):
        raise RuntimeError("coset count disagrees with phi(t)/|B|")
    return len(reps), tuple(reps)


def jspecial_torsor_exists(p: int, h: int) -> bool:
    """Whether a torsor of order p exists over the isotrivial fibration
    with extra automorphisms of order h (4 for j = 1728, 6 for j = 0)."""
    if p <= 2 or not is_prime(p):
        raise InvalidParameterError(f"p must be an odd prime, got {p}")
    if h == 4:
        return p % 4 == 1
    if h == 6:
        return p % 3 == 1
    raise InvalidParameterError(f"h must be 4 or 6, got {h}")


def mukai_divisibility(d: int, t: int, v: MukaiVector) -> int:
    """gcd of the pairings of v with the Mukai lattice: gcd(r, s, H.D, F.D)."""
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    x, y = v.D
    return gcd(gcd(v.r, v.s), gcd(2 * d * x + t * y, t * x))


def caldararu_class(d: int, t: int, v: MukaiVector) -> DFElement:
    """Obstruction class of the moduli space attached to v: the class of
    -D/t_v, where t_v = gcd(r, s, H.D, F.D) is the divisibility of v.
    """
    nf = ns_form(d, t)
    if v.square(d, t) != 0:
        raise InvalidMukaiVectorError(
            f"vector has square {v.square(d, t)}, expected 0"
        )
    x, y = v.D
    t_v = mukai_divisibility(d, t, v)
    return nf.lf.element_from_dual(
        RationalVector((Fraction(-x, t_v), Fraction(-y, t_v)))
    )


def fibration_count(d: int, t: int) -> int:
    """Two elliptic fibrations unless d = -1 mod t (then F' is a wall away)."""
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    return 1 if (d + 1) % t == 0 else 2


def fibrations_isomorphic(d: int, t: int, t_general: bool) -> bool:
    """Whether the two fibrations agree up to automorphism: d = 1 mod t.

    Stated by the source only for T-general surfaces with t > 2 and two
    distinct fibrations, so anything else is refused.
    """
    if not t_general:
        raise NotApplicableError("criterion stated only for T-general surfaces")
    if t <= 2:
        raise NotApplicableError("criterion needs t > 2")
    if fibration_count(d, t) == 1:
        raise NotApplicableError("surface has a single elliptic fibration")
    return (d - 1) % t == 0


def allowed_G_orders(rk_t: int) -> tuple[int, ...]:
    """Even orders n with phi(n) dividing the transcendental rank."""
    if rk_t < 1:
        raise InvalidParameterError("rank must be a positive integer")
    return tuple(
        n for n in range(2, 2 * rk_t * rk_t + 1, 2) if rk_t % totient(n) == 0
    )


def o_lambda_image(d: int, t: int) -> tuple[DFIsometry, ...]:
    """The image of the full lattice isometry group in O(A): the distinct
    isometries in ``ns_form(d, t).lattice_isometries``, sorted."""
    out = {iso.images: iso for _, iso in ns_form(d, t).lattice_isometries}
    return tuple(out[k] for k in sorted(out))


def o_plus_image(d: int, t: int) -> tuple[DFIsometry, ...]:
    """Image in O(A) of the lattice isometries preserving the ample cone.

    A self-isometry preserves the ample cone exactly when its F-column is
    a fibration class: F = (0, 1), or F' = (t/m, -d/m) when F' is one (no
    isometry moves F anywhere else, and -F, -F' pair negatively with
    ample classes).
    """
    m = gcd(d, t)
    nef_rays = {(0, 1)}
    if fibration_count(d, t) == 2:
        nef_rays.add((t // m, -d // m))
    out = {
        iso.images: iso
        for mat, iso in ns_form(d, t).lattice_isometries
        if mat.column(1) in nef_rays
    }
    return tuple(out[k] for k in sorted(out))


def aut_orders(d: int, t: int, g: GSpec) -> tuple[int, int]:
    """(|Aut|, |Aut fixing the fibre class|) for the member with group G.

    Fibre-fixing automorphisms are the kernel of G acting on the
    discriminant group; the full automorphism group also keeps the
    isometries whose discriminant action is matched by an ample-cone
    preserving lattice isometry.
    """
    nf = ns_form(d, t)
    if g.generator.domain != nf.form:
        raise InvalidIsometryError("G does not act on this family member")
    plus_keys = {iso.images for iso in o_plus_image(d, t)}
    matched = sum(1 for s in g.image_elements() if s.images in plus_keys)
    return g.kernel_order * matched, g.kernel_order


def _de_closed_form(d: int, t: int):
    """The T-general DE counts: half the Lagrangian elements (-1 pairs
    them off) and every Lagrangian subgroup (-1 fixes each); None for
    t <= 2, where the closed form does not apply."""
    if t <= 2:
        return None
    elements, subgroups = count_lagrangians(d, t)
    return elements // 2, subgroups


def de_counts(model: SurfaceModel) -> tuple[int, int]:
    """(derived elliptic structures, their count up to the involution).

    The first number is the count of G-orbits of Lagrangian elements, the
    second of G-orbits of Lagrangian subgroups.  For T-general members
    with t > 2 the closed forms 2^(omega(m)-1) phi(t) and 2^omega(m)
    apply.  Inside the element budget the first number is the number of
    cycles of G's generator sigma on the scanned coordinate tuples (G is
    cyclic, so its orbits are sigma's cycles), checked against the closed
    form where it applies.  Beyond the budget the closed form is trusted
    where it applies; elsewhere the scan raises CapacityError.
    """
    d, t = model.d, model.t
    subs = enumerate_lagrangian_subgroups(d, t)
    de_orbits = len(g_orbits(subs, model.G))
    closed = _de_closed_form(d, t) if model.t_general else None
    if closed is not None and closed[1] != de_orbits:
        raise RuntimeError("orbit count disagrees with the closed form")
    if closed is not None and ns_form(d, t).form.size > budget.element_cap():
        return closed[0], de_orbits
    de = _cycle_count(model.G.generator, _lagrangian_coords(d, t))
    if closed is not None and de != closed[0]:
        raise RuntimeError("element orbit count disagrees with the closed form")
    return de, de_orbits


def ht_classify(d: int, t: int, t_general: bool) -> HTClass:
    """Where the Fourier-Mukai partners of the member live.

    m = 1: one fibration's Jacobians cover them.  m a prime power: the
    two fibrations' Jacobians cover them.  Otherwise partners outside
    the Jacobian orbit exist for T-general members, and unconditionally
    once m has at least seven distinct prime factors; in between the
    question is open without transcendental input.
    """
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    m = gcd(d, t)
    omega = len(distinct_primes(m))
    if m == 1:
        return HTClass.SingleFibrationCovers
    if omega == 1:
        return HTClass.TwoFibrationsCover
    if t_general or omega >= 7:
        return HTClass.NonJacobianPartnersExist
    return HTClass.Inconclusive


def _inverses(group: tuple[DFIsometry, ...]) -> dict:
    """y^-1 for every automorphism y in ``group``, keyed by y's images:
    one power walk per cyclic subgroup not already covered."""
    inverse = {}
    for y in group:
        if y.images not in inverse:
            powers = y.powers()
            for i, z in enumerate(powers):
                inverse[z.images] = powers[(len(powers) - 2 - i) % len(powers)]
    return inverse


def _part_order(part) -> int:
    """|O(A_p)| for a p-primary part of a family form, from its shape.

    The part is Z/p^a (+) Z/p^b with a = min(v_p(2d), k) and b = 2k - a,
    p^k the exact power of p in t (a = 0 when the part is cyclic).  Over
    Z_p, scaling F by the unit (t/p^k)^-1 shows A_p(d, t) = A(d mod p^k,
    p^k), so the tests check this table against ``isometry_group`` on
    every (d, p^k) with p^k <= 100, which is every part the default
    isometry budget admits.  Shapes the family does not produce raise
    RuntimeError.
    """
    p = part.prime
    pa, pb = ((1,) + part.form.orders)[-2:]  # p^a <= p^b
    if p > 2:
        if pa == 1:
            return 2
        return 2 * (p - 1) * pa // p if pa == pb else 4 * pa
    ratio = pb // pa  # 2^(b - a)
    if pa == 1 or ratio.bit_length() % 2 == 0:
        raise RuntimeError(f"no family 2-part has the shape Z/{pa} + Z/{pb}")
    if ratio == 1 and pa == 2:
        # the automorphisms of (Z/2)^2 permute its three nonzero elements
        # freely; the isometries permute those of equal q among themselves
        values = Counter(part.form.q(c) for c in ((1, 0), (0, 1), (1, 1)))
        return prod(factorial(n) for n in values.values())
    if ratio == 1:
        return pa
    if ratio == 4:
        return 2 if pa == 2 else 2 * pa
    return 4 if pa == 2 else 4 * pa


def _anchor(nf, r0: int):
    """Isometries from each primary part of the bundle ``nf`` onto the
    same part of ``ns_form(r0, nf.t)``, or None when some part has none.
    Searched once per bundle and r0 and kept in ``nf.anchors``."""
    anchors = nf.anchors
    if r0 not in anchors:
        targets = ns_form(r0, nf.t).primary_parts
        phis = tuple(
            isometry_between(a.form, b.form)
            for a, b in zip(nf.primary_parts, targets)
        )
        anchors[r0] = None if None in phis else phis
    return anchors[r0]


def fm_count(d: int, t: int, g: GSpec) -> int:
    """Number of Fourier-Mukai partners, by the double-coset formula:
    one summand O(L) \\ O(A_L) / G per isometry class L in the genus.

    For a genus member L with form A_L, any one isometry phi: A -> A_L
    gives X = Isom(A, A_L) = phi O(A), and the summand counts the double
    cosets H \\ X / G, with H the image of O(L) in O(A_L).  H acts freely
    on X, so there are |O(A)| / |H| left cosets H x, and the image of G
    permutes them by H x -> H x s.  Burnside's lemma counts the orbits as
    (1 / |G image|) * sum over s of fix(s), with
    |H| fix(s) = sum over h in H of #{x in X : h x = x s}.

    The identity and -id are free terms: -id commutes with every x, and
    -id lies in H (the lattice isometry -1 induces it), so x (-id) =
    (-id) x lies in H x and fix(+-id) = |O(A)| / |H|.  For G = {+-1}
    these are all the terms, and only the two orders are needed:
    |O(A)| = prod_p |O(A_p)| from each p-primary part's shape
    (``_part_order``), and |H| from the integer lattice isometries
    (``NSForm.o_lambda_order``).  No isometry group is enumerated and no
    isometry of A is built.

    The other elements of G's image (``g.moving_elements()``) need the
    isometries themselves, so only then are O(A_p) enumerated on each
    part (their orders must match the table) and H listed by
    ``o_lambda_image`` (its size must match |H|).  An isometry keeps
    each p-primary part, so O(A) = prod_p O(A_p), X = prod_p phi_p
    O(A_p) for any isometries phi_p: A_p -> A_{L,p}, and
    #{x in X : h x = x s} is the product over p of the same count on
    the parts, with h and s restricted.  For x_p = phi_p y,
    h_p x_p = x_p s_p exactly when h_p phi_p = phi_p k with
    k = y s_p y^-1, so each part's count is read from a tally of the
    conjugates k of s_p over O(A_p), made once per s and moved by phi_p
    for each genus class: a class costs |H| + (number of conjugates)
    compositions per part and per s, never a walk over X.

    Every genus class is certified isometric to A part by part, for
    every G, through anchors: isometry is transitive, so it is enough
    that each member's parts map isometrically onto those of one fixed
    member, the least one r0 (``genus_representatives(d, t)[0]``).  Each
    bundle searches its anchors onto r0 with ``isometry_between`` once
    and keeps them (``_anchor``), and a class counts only when both A's
    and its own anchors were found.  A moving G still searches the
    phi_p: A_p -> A_{L,p} it composes with.  The isometry budget bounds
    each |A_p|, not |A|, and the genus walk is budgeted as phi(t/m) *
    sum_p |A_p| elements, phi(t/m) bounding the number of classes
    (``genus_representatives``); both gates run on every call, before
    any anchor is read or searched.
    """
    nf = ns_form(d, t)
    if g.generator.domain != nf.form:
        raise InvalidIsometryError("G does not act on this family member")
    parts = nf.primary_parts
    for part in parts:
        require_isometry_budget(part.form)
    budget.require(
        totient(t // nf.m) * sum(part.form.size for part in parts),
        budget.element_cap(),
        "phi(t/m) * sum of |A_p| for the FM genus walk",
    )
    order = prod(_part_order(part) for part in parts)
    image, moving = g.image_elements(), g.moving_elements()
    # s and s^-1 fix the same cosets; the image is cyclic and listed as
    # sigma, ..., sigma^n, so moving[j] and moving[-1 - j] are inverse and
    # only the first half is counted, each term twice but a middle one.
    # For each such s and part: the distinct y s_p y^-1 over y in O(A_p),
    # each with how many y give it
    half = moving[: (len(moving) + 1) // 2]
    weights = [1 if 2 * j + 1 == len(moving) else 2 for j in range(len(half))]
    tallies = []
    if moving:
        # -id has the same images on every form with nf.form's generator
        # orders, which the anchors check part by part for each member
        neg = neg_identity(nf.form).images
        own = [isometry_group(part.form) for part in parts]
        if prod(len(group) for group in own) != order:
            raise RuntimeError("part isometry groups disagree with their orders")
        inverses = [_inverses(group) for group in own]
        for s in half:
            tally = []
            for part, group, inverse in zip(parts, own, inverses):
                s_p, conjugates = part.restrict(s), {}
                for y in group:
                    k = y.compose(s_p).compose(inverse[y.images])
                    conjugates.setdefault(k.images, [k, 0])[1] += 1
                tally.append(conjugates.values())
            tallies.append(tally)
    reps = genus_representatives(d, t)
    anchored = _anchor(nf, reps[0]) is not None
    total = 0
    for e in reps:
        nf_e = ns_form(e, t)
        if not anchored or _anchor(nf_e, reps[0]) is None:
            raise RuntimeError("genus member lost its form isometry")
        size = nf_e.o_lambda_order
        if order % size:
            raise RuntimeError("O(L) image size does not divide |O(A)|")
        fixed = (len(image) - len(moving)) * order
        if moving:
            parts_e = nf_e.primary_parts
            phis = [isometry_between(a.form, b.form) for a, b in zip(parts, parts_e)]
            if None in phis:
                raise RuntimeError("genus member lost its form isometry")
            h = o_lambda_image(e, t)
            if len(h) != size:
                raise RuntimeError("O(L) image disagrees with its order")
            if neg not in {u.images for u in h}:
                raise RuntimeError("O(L) image does not contain -id")
            # for x = phi y, h x = x s exactly when h phi = phi (y s y^-1)
            lefts = [
                [
                    part.restrict(u).compose(phi).images
                    for part, phi in zip(parts_e, phis)
                ]
                for u in h
            ]
            for weight, tally in zip(weights, tallies):
                rights = [
                    {phi.compose(k).images: n for k, n in conjugates}
                    for phi, conjugates in zip(phis, tally)
                ]
                term = sum(
                    prod(right.get(key, 0) for right, key in zip(rights, keys))
                    for keys in lefts
                )
                if term % size:
                    raise RuntimeError(
                        "moving Burnside term is not a multiple of |H|"
                    )
                fixed += weight * term
        if fixed % (size * len(image)):
            raise RuntimeError("Burnside sum is not a multiple of |H| |G image|")
        total += fixed // (size * len(image))
    return total


def second_fibration_jacobian(d: int, t: int) -> int:
    """Which Jacobian of the first fibration the second one is: d^-1 mod t.

    Needs coinciding Lagrangian subgroups (m = 1) and two fibrations.
    """
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    if gcd(d, t) != 1:
        raise NotApplicableError(
            "the two fibrations have different subgroups when gcd(d, t) > 1"
        )
    if fibration_count(d, t) == 1:
        raise NotApplicableError("surface has a single elliptic fibration")
    return pow(d, -1, t)


def jac0_isomorphic(d: int, t: int) -> bool:
    """Whether the two fibrations' zeroth Jacobians are isomorphic.

    Stated for surfaces with two non-isomorphic fibrations, so d = +-1
    mod t is refused; then the answer is gcd(d, t) = 1.
    """
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    if (d - 1) % t == 0 or (d + 1) % t == 0:
        raise NotApplicableError(
            "needs two non-isomorphic fibrations (d != +-1 mod t)"
        )
    return gcd(d, t) == 1
