"""Surface-level semantics for the (d, t) family: Jacobian calculus,
coprime-Jacobian class counts, Mukai-vector classes, fibration
predicates, automorphism kernels, derived-elliptic-structure counts,
Fourier-Mukai partner counts, and the headline classifier.

The Hodge-theoretic inputs that cannot be derived from (d, t) alone are
supplied declaratively: the cyclic isometry group G as a GSpec and the
T-general flag.  A twist group B of units mod t enters only the coset
count of ``coprime_jacobian_classes``.
"""

from bisect import bisect_left
from enum import Enum
from math import gcd, prod
from operator import eq, index

from . import budget
from ._value import Value
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
from .intmath import is_prime, modulus, units_mod
from .lattices import _check_t, genus_representatives
from .lagrangians import (
    GSpec,
    _lagrangian_coords,
    count_lagrangians,
    enumerate_lagrangian_subgroups,
)


class HTClass(str, Enum):
    """Classification of where the Fourier-Mukai partners live."""

    SingleFibrationCovers = "SingleFibrationCovers"
    TwoFibrationsCover = "TwoFibrationsCover"
    NonJacobianPartnersExist = "NonJacobianPartnersExist"
    Inconclusive = "Inconclusive"


class MukaiVector(Value):
    """Primitive vector (r, D, s) with D = x H + y F; see caldararu_class
    for the square-zero requirement (it depends on d and t)."""

    __slots__ = _fields = ("r", "D", "s")

    def __init__(self, r: int, D: tuple[int, int], s: int):
        self.r, self.D, self.s = r, tuple(D), s
        x, y = self.D
        if gcd(gcd(r, s), gcd(x, y)) != 1:
            raise InvalidMukaiVectorError("vector is not primitive")

    def square(self, d: int, t: int) -> int:
        x, y = self.D
        return 2 * x * (d * x + t * y) - 2 * self.r * self.s


def _unit_subgroup(t: int, grp) -> frozenset:
    """The twist group B: ``grp``'s integers (``operator.index``, nothing
    truncated) reduced mod t, checked to be a non-empty subgroup of the
    units mod t.  A finite set of units closed under products is a
    group, so closure is checked on every pair."""
    try:
        g = frozenset(index(x) % t for x in grp)
    except TypeError:
        raise InvalidParameterError("B must consist of integers") from None
    if not g or any(gcd(x, t) != 1 for x in g):
        raise InvalidParameterError("B must consist of units mod t")
    if any(x * y % t not in g for x in g for y in g):
        raise InvalidParameterError("B is not closed under products")
    return g


def jacobian_index(t: int, k: int) -> int:
    """Index of the k-th Jacobian: t / gcd(t, k)."""
    _check_t(t, k=k)
    return t // gcd(t, k)


def jacobian_compose(k: int, ell: int, t: int) -> int:
    """Taking the k-th Jacobian of the ell-th gives the (k ell)-th."""
    _check_t(t, k=k, ell=ell)
    return k * ell % t


def jacobian_class_canonical(k: int, t: int) -> int:
    """Least representative of {k, -k} mod t; Jacobians are t-periodic
    in k and insensitive to its sign."""
    _check_t(t, k=k)
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
    b = _unit_subgroup(t, b_group)
    if (-1) % t not in b:
        raise InvalidParameterError("B must contain -1")
    seen, reps = bytearray(t), []
    for u in units_mod(t):
        if not seen[u]:
            reps.append(u)
            for x in b:
                seen[u * x % t] = 1
    if len(reps) != modulus(t).phi // len(b):
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
    _check_t(t, d=d)
    x, y = v.D
    return gcd(gcd(v.r, v.s), gcd(2 * d * x + t * y, t * x))


def caldararu_class(d: int, t: int, v: MukaiVector) -> DFElement:
    """Obstruction class of the moduli space attached to v: the class of
    -D/t_v, where t_v = gcd(r, s, H.D, F.D) is the divisibility of v.
    -D/t_v pairs to -(F.D)/t_v with F and -(H.D)/t_v with H, integers
    since t_v divides both, so it is the class fh(-(F.D)/t_v, -(H.D)/t_v).
    """
    nf = ns_form(d, t)
    if v.square(d, t) != 0:
        raise InvalidMukaiVectorError(
            f"vector has square {v.square(d, t)}, expected 0"
        )
    x, y = v.D
    t_v = mukai_divisibility(d, t, v)
    return nf.fh(-t * x // t_v, -(2 * d * x + t * y) // t_v)


def fibration_count(d: int, t: int) -> int:
    """Two elliptic fibrations unless d = -1 mod t (then F' is a wall away)."""
    _check_t(t, d=d)
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
        n for n in range(2, 2 * rk_t * rk_t + 1, 2) if rk_t % modulus(n).phi == 0
    )


def _induced_maps(d: int, t: int, f_columns=None) -> tuple[DFIsometry, ...]:
    """The distinct maps on A induced by the lattice isometries, read off
    ``ns_form(d, t).o_lambda_maps`` (validated once per bundle), sorted;
    only those whose F-column lies in ``f_columns`` when it is given."""
    out = {}
    for rows, iso in ns_form(d, t).o_lambda_maps:
        if f_columns is None or (rows[0][1], rows[1][1]) in f_columns:
            out[iso.images] = iso
    return tuple(out[k] for k in sorted(out))


def o_lambda_image(d: int, t: int) -> tuple[DFIsometry, ...]:
    """The image of the full lattice isometry group in O(A), sorted."""
    return _induced_maps(d, t)


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
    return _induced_maps(d, t, nef_rays)


def _acting_form(d: int, t: int, g: GSpec):
    """``ns_form(d, t)``, once G is checked to act on its form."""
    nf = ns_form(d, t)
    if g.generator.domain != nf.form:
        raise InvalidIsometryError("G does not act on this family member")
    return nf


def aut_orders(d: int, t: int, g: GSpec) -> tuple[int, int]:
    """(|Aut|, |Aut fixing the fibre class|) for the member with group G.

    Fibre-fixing automorphisms are the kernel of G acting on the
    discriminant group; the full automorphism group also keeps the
    isometries whose discriminant action is matched by an ample-cone
    preserving lattice isometry.
    """
    _acting_form(d, t, g)
    plus_keys = {iso.images for iso in o_plus_image(d, t)}
    matched = sum(1 for s in g.image_elements() if s.images in plus_keys)
    return g.kernel_order * matched, g.kernel_order


def _de_closed_form(d: int, t: int):
    """The DE counts for G's image {+-1}: half the Lagrangian elements
    (-1 pairs them off) and every Lagrangian subgroup (-1 fixes each);
    None for t <= 2, where the closed form does not apply."""
    if t <= 2:
        return None
    elements, subgroups = count_lagrangians(d, t)
    return elements // 2, subgroups


def de_counts(d: int, t: int, g: GSpec, t_general: bool) -> tuple[int, int]:
    """(derived elliptic structures, G-orbits of Lagrangian subgroups) of
    the member (d, t) with Hodge isometry group G.

    G must act on A (InvalidIsometryError), and a T-general member
    (``t_general``) admits only G = {+-1} (InvalidParameterError).

    The first number counts G-orbits of Lagrangian elements, the second
    of Lagrangian subgroups.  Both depend only on G's image.  For an
    image {+-1} and t > 2 they are the closed forms 2^(omega(m)-1) phi(t)
    and 2^omega(m) (``_de_closed_form``), whatever ``t_general`` is: -1
    pairs off the elements and fixes every subgroup.  Within the element
    budget the one scan of Lagrangian elements (``_lagrangian_coords``)
    certifies them: it must hold 2^omega(m) phi(t) elements, among them
    the classes of F/t and F'/t (``nf.vbar``, ``nf.vprime``), found by
    binary search in the sorted scan; RuntimeError otherwise.  Past the
    budget the closed forms are the answer, unscanned.  A G with moving
    elements, or t <= 2, is walked subgroup by subgroup (``_de_walk``),
    which is also the oracle of the closed forms (``sweep --verify``).

    For G = {+-1} and t > 2, de counts FM partners with a fibration: with
    w(e) = |O(A)| / |H_e| for each genus class e (``fm_count``, where
    fm = sum w(e)), de = sum w(e) (2 - [e = +-1 mod t]).  The tests hold
    the two counts to it on every cell with t <= 60.
    """
    nf = _acting_form(d, t, g)
    moving = g.moving_elements()
    if t_general and moving:
        raise InvalidParameterError("T-general surfaces admit only {+-1} as G")
    if moving or t <= 2:
        return _de_walk(d, t, g)
    de, orbits = _de_closed_form(d, t)
    if nf.form.size <= budget.element_cap():
        coords = _lagrangian_coords(d, t)
        if len(coords) != 2 * de:
            raise RuntimeError("element scan disagrees with the closed form")
        for v in (nf.vbar.coords, nf.vprime.coords):
            i = bisect_left(coords, v)
            if coords[i:i + 1] != [v]:
                raise RuntimeError("element scan misses a canonical class")
    return de, orbits


def _de_walk(d: int, t: int, g: GSpec) -> tuple[int, int]:
    """``de_counts`` by a Burnside walk over the Lagrangian subgroups; G
    must act on A.

    Each element generates exactly one of the 2^omega(m) subgroups L, so
    Burnside's lemma over G's image (cyclic of order n, generated by
    sigma) reads both counts off sigma^k(g_L), k = 1..n, for each
    generator g_L.  sigma^k fixes L when sigma^k(g_L) lies in L
    (``L._has``, as L = L-perp), and then acts on L as a unit multiple, so
    it fixes all phi(t) generators of L or none, by whether sigma^k(g_L) =
    g_L.  Hence de = phi(t) (fixed generators) / n and de_orbits = (fixed
    subgroups) / n; no element is walked.  RuntimeError when sigma^n does
    not bring some g_L back, or when a Burnside sum is not a multiple of n.

    The scan of Lagrangian elements (``_lagrangian_coords``) then runs
    once, as the cross-check that the subgroups account for every element
    (phi(t) generators each); it raises CapacityError beyond the budget.
    """
    subs = enumerate_lagrangian_subgroups(d, t)
    move, n = g.generator.action(), len(g.image_elements())
    phi = modulus(t).phi
    fixed_generators = fixed_subgroups = 0
    for sub in subs:
        gen = h = sub.generator.coords
        for _ in range(n):
            h = move(h)
            fixed_generators += h == gen
            fixed_subgroups += sub._has(h)
        if h != gen:
            raise RuntimeError("sigma^n is not the identity on a subgroup generator")
    if phi * fixed_generators % n or fixed_subgroups % n:
        raise RuntimeError("Burnside sum is not a multiple of |G image|")
    if len(_lagrangian_coords(d, t)) != len(subs) * phi:
        raise RuntimeError("subgroups do not account for the scanned elements")
    return phi * fixed_generators // n, fixed_subgroups // n


def ht_classify(d: int, t: int, t_general: bool) -> HTClass:
    """Where the Fourier-Mukai partners of the member live.

    m = 1: one fibration's Jacobians cover them.  m a prime power: the
    two fibrations' Jacobians cover them.  Otherwise partners outside
    the Jacobian orbit exist for T-general members, and unconditionally
    once m has at least seven distinct prime factors; in between the
    question is open without transcendental input.
    """
    _check_t(t, d=d)
    m = gcd(d, t)
    omega = len(modulus(t).common_primes(d))
    if m == 1:
        return HTClass.SingleFibrationCovers
    if omega == 1:
        return HTClass.TwoFibrationsCover
    if t_general or omega >= 7:
        return HTClass.NonJacobianPartnersExist
    return HTClass.Inconclusive


def _isometry_order(d: int, t: int) -> int:
    """|O(A)| = prod_p |O(A_p)| for the family form A(d, t), read off d
    and the factorisation of t in its record ``modulus(t)``.

    For p^k the exact power of p in t, A_p is Z/p^a (+) Z/p^b with
    p^a = gcd(2d, p^k) (a = k when d = 0) and b = 2k - a.  Over Z_p,
    scaling F by the unit (t/p^k)^-1 shows A_p(d, t) = A(d mod p^k, p^k),
    so the tests check this table against ``isometry_group`` on every
    (d, p^k) with p^k <= 100, which is every part the default isometry
    budget admits.
    """
    order = 1
    for p, k in modulus(t).factors:
        q = p**k
        pa = gcd(2 * d, q)
        if p > 2:
            order *= 2 if pa == 1 else 2 * (p - 1) * pa // p if pa == q else 4 * pa
        elif pa == q:  # a = b; on (Z/2)^2 it is 2 for even d, 1 for odd d
            order *= 2 - d % 2 if pa == 2 else pa
        else:
            ratio = 2 if q == 2 * pa else 4  # b = a + 2, else b >= a + 4
            order *= ratio if pa == 2 else ratio * pa
    return order


def _anchor(nf, r0: int) -> None:
    """Certify that each primary part of the bundle ``nf`` maps
    isometrically onto the same part of ``ns_form(r0, nf.t)``: searched
    with ``isometry_between`` once per bundle and r0, which is then kept
    in ``nf.anchors``.  RuntimeError "genus member lost its form
    isometry" when some part has none."""
    if r0 not in nf.anchors:
        targets = ns_form(r0, nf.t).primary_parts
        if None in [isometry_between(a.form, b.form) for a, b in zip(nf.primary_parts, targets)]:
            raise RuntimeError("genus member lost its form isometry")
        nf.anchors.add(r0)


def _is_square_unit(x: int, t_factors) -> bool:
    """Whether x, a unit mod t = prod p^k over ``t_factors`` ((p, k)
    pairs), is a square mod t: by Euler's criterion at each odd p (Hensel
    lifts a root mod p to p^k), and x = 1 mod 2^min(k, 3) at p = 2."""
    return all(
        pow(x, (p - 1) // 2, p) == 1 if p > 2 else x % 2 ** min(k, 3) == 1
        for p, k in t_factors
    )


def _genus_least(d: int, t: int) -> int:
    """``genus_representatives(d, t)[0]``, the least member r0 of the
    genus, by arithmetic.  With m = gcd(d, t), n = t/m and c = d/m, the
    genus is {m (c u^2 mod n) : u a unit mod n}, so r0 = m a for the least
    unit a mod n with a c^-1 a square unit (``_is_square_unit``), and 0
    when n = 1."""
    m = gcd(d, t)
    n = t // m
    if n == 1:
        return 0
    factors = modulus(n).factors
    c_inv = pow(d // m, -1, n)
    a = 1
    while gcd(a, n) != 1 or not _is_square_unit(a * c_inv % n, factors):
        a += 1
    return m * a


def fm_sign(d: int, t: int) -> int:
    """Number of Fourier-Mukai partners for G = {+-1}, in closed form.

    For t >= 3, with m = gcd(d, t) and n = t/m,
    fm = |O(A)| (|Q| + eps) / 4, where |O(A)| is ``_isometry_order``,
    |Q| = phi(n) / |mu_2(n)| is the number of squares among the units
    mod n (mu_2(n), the square roots of 1 mod n, has 2 per odd prime and
    1, 1, 2 or 4 at v_2(n) = 0, 1, 2 or >= 3), and eps = [m = 1]
    ([d is a square mod t] + [-d is a square mod t]).  For t <= 2 it is 1.

    Why: the genus is m (c Q) mod t with c = d/m (``genus_representatives``),
    |Q| residues whose classes pair each x with x^-1 mod n.  Each pair has
    |H_e| = 2 (only +-1 on A), so each residue contributes |O(A)| / 4, as
    does each self-inverse class, where |H_e| = 4 (the ray swap) except
    when m = 1 and e = +-1 mod t: there the swap acts as +-id on A, |H_e|
    = 2, and 1 (-1) is in the genus when d (-d) is a square mod t.

    Everything is read off t's record ``modulus(t)`` and gcds; no
    ``ns_form`` is built.  RuntimeError when 4 does not divide
    |O(A)| (|Q| + eps).  ``_fm_walk``, the class-by-class Burnside sum, is
    its oracle (``sweep --verify`` and the tests).
    """
    _check_t(t, d=d)
    if t <= 2:
        return 1
    factors = modulus(t).factors
    m = gcd(d, t)
    n = t // m
    squares = 1
    for p, k in factors:
        q = gcd(n, p**k)  # p^j || n
        if q > 1:
            squares *= (q - q // p) // (2 if p > 2 else min(q // 2, 4))
    eps = _is_square_unit(d, factors) + _is_square_unit(-d, factors) if m == 1 else 0
    total = _isometry_order(d, t) * (squares + eps)
    if total % 4:
        raise RuntimeError("|O(A)| (|Q| + eps) is not a multiple of 4")
    return total // 4


def fm_count(d: int, t: int, g: GSpec) -> int:
    """Number of Fourier-Mukai partners: one summand O(L) \\ O(A_L) / G
    per isometry class L in the genus.

    For G = {+-1} (no ``g.moving_elements()``) the sum is the closed form
    ``fm_sign(d, t)``; any other G is counted class by class by
    ``_fm_walk``, which budgets its genus walk.  Both paths first run the
    same gate and the same check, in this order:

    - G must act on A (InvalidIsometryError);
    - the isometry budget bounds each |A_p|, not |A|, on every call,
      before any anchor is read or searched;
    - A is certified to lie in the genus it is counted by: its parts map
      isometrically onto those of the least member r0 (``_genus_least``,
      with no genus walk), searched with
      ``isometry_between`` once per bundle and r0 (``_anchor``).
      RuntimeError "genus member lost its form isometry" otherwise.
    """
    nf = _acting_form(d, t, g)
    for part in nf.primary_parts:
        require_isometry_budget(part.form)
    _anchor(nf, _genus_least(d, t))
    if not g.moving_elements():
        return fm_sign(d, t)
    return _fm_walk(d, t, g)


def _fm_walk(d: int, t: int, g: GSpec) -> int:
    """fm by the double-coset formula, walked class by class over the
    genus; G must act on A = ``ns_form(d, t).form``, and A's own anchor
    onto r0 is ``fm_count``'s check.  The walk is budgeted as
    phi(t/m) * sum_p |A_p| elements, phi(t/m) bounding the number of
    classes (``genus_representatives``).

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
    |O(A)| from (d, t) (``_isometry_order``), and |H| from the integer
    lattice isometries (``NSForm.o_lambda_order``).  This is the oracle
    of ``fm_sign``.

    The other elements s of G's image (``g.moving_elements()``) are
    counted from that definition.  An isometry keeps each p-primary part,
    so O(A) = prod_p O(A_p) (the enumerated part groups must match
    |O(A)|), X = prod_p phi_p O(A_p) for any isometries phi_p: A_p ->
    A_{L,p}, and #{x in X : h x = x s} is the product over p of the
    number of x_p in phi_p O(A_p) with h_p x_p = x_p s_p.  Per class,
    the images of h_p x_p (for each h in ``o_lambda_image``, of size
    |H|) and of x_p s_p (for each s) are listed once, by integer moves
    on coordinates (``DFIsometry.action``), and compared entry by entry.

    Every class other than r0 itself is certified isometric to r0 part by
    part through its anchor (``_anchor``), which with A's own anchor
    certifies it isometric to A; a moving G also searches the phi_p:
    A_p -> A_{L,p} it composes with.
    """
    nf = ns_form(d, t)
    parts = nf.primary_parts
    budget.require(
        modulus(t // nf.m).phi * sum(part.form.size for part in parts),
        budget.element_cap(),
        "phi(t/m) * sum of |A_p| for the FM genus walk",
    )
    order = _isometry_order(d, t)
    image, moving = g.image_elements(), g.moving_elements()
    if moving:
        # -id has the same images on every form with nf.form's generator
        # orders, which the anchors check part by part for each member
        neg = neg_identity(nf.form).images
        own = [isometry_group(part.form) for part in parts]
        if prod(len(group) for group in own) != order:
            raise RuntimeError("part isometry groups disagree with their orders")
        restricted = [[part.restrict(s) for part in parts] for s in moving]
    reps = genus_representatives(d, t)
    total = 0
    for e in reps:
        nf_e = ns_form(e, t)
        if e != reps[0]:
            _anchor(nf_e, reps[0])
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
            xs = [[phi.compose(y) for y in group] for phi, group in zip(phis, own)]
            lefts = []
            for u in h:
                h_moves = [part.restrict(u).action() for part in parts_e]
                lefts.append([
                    [tuple(map(move, x.images)) for x in x_p]
                    for move, x_p in zip(h_moves, xs)
                ])
            x_moves = [[x.action() for x in x_p] for x_p in xs]
            for s_parts in restricted:
                rights = [
                    [tuple(map(move, s_p.images)) for move in moves]
                    for moves, s_p in zip(x_moves, s_parts)
                ]
                # each part's count is the number of equal entries
                term = sum(
                    prod(sum(map(eq, *pair)) for pair in zip(left, rights))
                    for left in lefts
                )
                if term % size:
                    raise RuntimeError(
                        "moving Burnside term is not a multiple of |H|"
                    )
                fixed += term
        if fixed % (size * len(image)):
            raise RuntimeError("Burnside sum is not a multiple of |H| |G image|")
        total += fixed // (size * len(image))
    return total


def second_fibration_jacobian(d: int, t: int) -> int:
    """Which Jacobian of the first fibration the second one is: d^-1 mod t.

    Needs coinciding Lagrangian subgroups (m = 1) and two fibrations.
    """
    _check_t(t, d=d)
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
    _check_t(t, d=d)
    if (d - 1) % t == 0 or (d + 1) % t == 0:
        raise NotApplicableError(
            "needs two non-isomorphic fibrations (d != +-1 mod t)"
        )
    return gcd(d, t) == 1
