"""Finite quadratic forms q: A -> Q/2Z on finite abelian groups, as they
arise on discriminant groups L*/L of even lattices.

Groups are presented by generator orders (n1 | n2 | ..., the Smith normal
form invariants), q by its values on the generators, and the induced
bilinear pairing b: A x A -> Q/Z by its generator matrix.  Elements are
coordinate tuples reduced into [0, n_i).  Everything is a Fraction or an
int; q-values are reduced into [0, 2), b-values into [0, 1).

Sign convention: every computation in this package runs on the
Neron-Severi side.  The transcendental-lattice discriminant form is the
same group with q negated; the sign flip changes no group structure, no
isotropy, no subgroup lattice and no orbit counts, so it is documentation
only.  Callers who need the other sign can negate q-values on output.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd

from . import budget, kernels
from .errors import (
    CapacityError,
    InvalidElementError,
    InvalidIsometryError,
    InvalidParameterError,
    OutOfScopeError,
)
from .intmath import distinct_primes, lcm
from .lattices import (
    IntMatrix,
    Lattice,
    NSLattice,
    RationalVector,
    dual_generators,
    ns_gram,
    rank2_isometries,
    smith_normal_form,
)


@dataclass(frozen=True)
class FiniteQuadForm:
    """Finite quadratic form on (+) Z/n_i, generator orders ascending by
    divisibility, all of them > 1."""

    orders: tuple[int, ...]
    q_gen: tuple[Fraction, ...]
    b_matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        r = len(self.orders)
        if len(self.q_gen) != r or len(self.b_matrix) != r:
            raise InvalidParameterError("generator data lengths disagree")
        for i, n in enumerate(self.orders):
            if n < 2:
                raise InvalidParameterError("generator orders must be >= 2")
            if i and n % self.orders[i - 1]:
                raise InvalidParameterError("orders must ascend by divisibility")
        for row in self.b_matrix:
            if len(row) != r:
                raise InvalidParameterError("b matrix must be square")
        # the checks below run on the numerators over one denominator
        den, qn, bn = self._int_view
        for i, n in enumerate(self.orders):
            q = qn[i]
            if not (0 <= q < 2 * den):
                raise InvalidParameterError("q-values must lie in [0, 2)")
            if (n * q) % den or (n * n * q) % (2 * den):
                raise InvalidParameterError("q is not well defined on Z/n_i")
            if (bn[i][i] - q) % den:
                raise InvalidParameterError("b(g, g) must equal q(g) mod 1")
            for j in range(r):
                bij = bn[i][j]
                if not (0 <= bij < den):
                    raise InvalidParameterError("b-values must lie in [0, 1)")
                if bij != bn[j][i]:
                    raise InvalidParameterError("b must be symmetric")
                if (n * bij) % den:
                    raise InvalidParameterError("b is not well defined on Z/n_i")

    @classmethod
    def make(cls, orders, q_gen, b_matrix) -> "FiniteQuadForm":
        return cls(
            tuple(int(n) for n in orders),
            tuple(Fraction(q) % 2 for q in q_gen),
            tuple(tuple(Fraction(x) % 1 for x in row) for row in b_matrix),
        )

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        s = 1
        for n in self.orders:
            s *= n
        return s

    @cached_property
    def _int_view(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(den, q numerators, b numerators): every q- and b-value over one
        common denominator, q numerators in [0, 2 den), b ones in [0, den)."""
        den = 1
        for q in self.q_gen:
            den = lcm(den, q.denominator)
        for row in self.b_matrix:
            for x in row:
                den = lcm(den, x.denominator)
        return (
            den,
            tuple(q.numerator * (den // q.denominator) for q in self.q_gen),
            tuple(
                tuple(x.numerator * (den // x.denominator) for x in row)
                for row in self.b_matrix
            ),
        )

    def q(self, coords) -> Fraction:
        den, qn, bn = self._int_view
        total = 0
        for i, c in enumerate(coords):
            if c:
                total += c * c * qn[i]
                for j in range(i + 1, len(coords)):
                    total += 2 * c * coords[j] * bn[i][j]
        return Fraction(total % (2 * den), den)

    def b(self, coords1, coords2) -> Fraction:
        den, _, bn = self._int_view
        total = 0
        for i, c in enumerate(coords1):
            if c:
                row = bn[i]
                for j, e in enumerate(coords2):
                    total += c * e * row[j]
        return Fraction(total % den, den)

    def zero(self) -> "DFElement":
        return DFElement(self, (0,) * self.rank)

    def element(self, coords) -> "DFElement":
        return DFElement(self, tuple(coords))

    def elements(self):
        """All elements in lexicographic coordinate order."""
        for coords in product(*(range(n) for n in self.orders)):
            yield DFElement(self, coords)

    def denominator(self) -> int:
        """The least common denominator of every q- and b-value."""
        return self._int_view[0]


@dataclass(frozen=True)
class DFElement:
    """Element of a FiniteQuadForm, coordinates reduced into [0, n_i)."""

    form: FiniteQuadForm
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.form.rank:
            raise InvalidElementError("coordinate length does not match rank")
        object.__setattr__(
            self,
            "coords",
            tuple(c % n for c, n in zip(self.coords, self.form.orders)),
        )

    def __add__(self, other: "DFElement") -> "DFElement":
        if self.form != other.form:
            raise InvalidElementError("elements live in different groups")
        return DFElement(
            self.form, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "DFElement":
        return DFElement(self.form, tuple(-c for c in self.coords))

    def __sub__(self, other: "DFElement") -> "DFElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "DFElement":
        return DFElement(self.form, tuple(k * c for c in self.coords))

    def order(self) -> int:
        o = 1
        for c, n in zip(self.coords, self.form.orders):
            o = lcm(o, n // gcd(n, c))
        return o

    def q(self) -> Fraction:
        return self.form.q(self.coords)

    def is_isotropic(self) -> bool:
        return self.q() == 0


@dataclass(frozen=True)
class DFIsometry:
    """Group isomorphism preserving q, stored by generator images.

    ``images[i]`` is the coordinate tuple (in the codomain) of the image of
    the i-th domain generator.  The shape is checked: one image per domain
    generator, one coordinate per codomain generator.  Nothing else is;
    ``as_isometry`` validates the map.  ``powers()`` walks the cyclic
    group of an automorphism once; ``order()`` and ``inverse()`` read it.
    """

    domain: FiniteQuadForm
    codomain: FiniteQuadForm
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.images) != self.domain.rank or any(
            len(img) != self.codomain.rank for img in self.images
        ):
            raise InvalidIsometryError("image shape does not match generator counts")
        object.__setattr__(
            self,
            "images",
            tuple(
                tuple(c % n for c, n in zip(img, self.codomain.orders))
                for img in self.images
            ),
        )

    def _map(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a domain coordinate tuple, as codomain coordinates not
        yet reduced (DFElement and DFIsometry reduce on construction)."""
        out = [0] * self.codomain.rank
        for c, img in zip(coords, self.images):
            if c:
                for j, x in enumerate(img):
                    out[j] += c * x
        return tuple(out)

    def apply(self, elem: DFElement) -> DFElement:
        if elem.form != self.domain:
            raise InvalidElementError("element not in the isometry's domain")
        return DFElement(self.codomain, self._map(elem.coords))

    def compose(self, other: "DFIsometry") -> "DFIsometry":
        """self after other."""
        if other.codomain != self.domain:
            raise InvalidIsometryError("isometries do not compose")
        return DFIsometry(
            other.domain, self.codomain, tuple(self._map(img) for img in other.images)
        )

    def is_identity(self) -> bool:
        if self.domain != self.codomain:
            return False
        return self.images == _identity_images(self.domain)

    def powers(self) -> tuple["DFIsometry", ...]:
        """sigma, sigma^2, ..., the identity: the cyclic group sigma
        generates, walked once."""
        if self.domain != self.codomain:
            raise InvalidIsometryError("powers require an automorphism")
        # No automorphism of a nontrivial finite group has order >= |G|
        # (Horosevskii 1974): once self^n is not the identity for some
        # n + 1 >= |G|, the map is not an automorphism.
        powers = [self]
        while not powers[-1].is_identity():
            if len(powers) + 1 >= self.domain.size:
                raise RuntimeError("automorphism order runaway (not an isometry?)")
            powers.append(self.compose(powers[-1]))
        return tuple(powers)

    def order(self) -> int:
        return len(self.powers())

    def inverse(self) -> "DFIsometry":
        if self.domain == self.codomain:
            powers = self.powers()
            return powers[-2] if len(powers) > 1 else powers[0]
        table = {}
        for elem in self.domain.elements():
            table[self.apply(elem).coords] = elem.coords
        images = []
        for i in range(self.codomain.rank):
            unit = tuple(1 if j == i else 0 for j in range(self.codomain.rank))
            if unit not in table:
                raise InvalidIsometryError("map is not invertible")
            images.append(table[unit])
        return DFIsometry(self.codomain, self.domain, tuple(images))


def _identity_images(form: FiniteQuadForm) -> tuple[tuple[int, ...], ...]:
    r = form.rank
    return tuple(tuple(1 if j == i else 0 for j in range(r)) for i in range(r))


def identity_isometry(form: FiniteQuadForm) -> DFIsometry:
    return DFIsometry(form, form, _identity_images(form))


def neg_identity(form: FiniteQuadForm) -> DFIsometry:
    return DFIsometry(
        form, form, tuple(tuple(-x for x in img) for img in _identity_images(form))
    )


def _surjective_all_primes(domain, codomain, images) -> bool:
    """Nakayama-style check: surjective iff surjective on A/pA for all p."""
    if domain.size != codomain.size:
        return False
    for p in distinct_primes(codomain.size):
        rows = [j for j, n in enumerate(codomain.orders) if n % p == 0]
        cols = [i for i, n in enumerate(domain.orders) if n % p == 0]
        if len(rows) != len(cols):
            return False
        mat = IntMatrix.from_rows(
            [[images[i][j] % p for i in cols] for j in rows]
        )
        if mat.det() % p == 0:
            return False
    return True


def as_isometry(domain: FiniteQuadForm, codomain: FiniteQuadForm, images) -> DFIsometry:
    """Validate generator images and wrap them as a DFIsometry.

    Raises InvalidIsometryError when the images do not define a
    q-preserving group automorphism (or isomorphism onto the codomain).
    """
    iso = DFIsometry(
        domain, codomain, tuple(tuple(int(x) for x in img) for img in images)
    )
    images = iso.images
    for i, img in enumerate(images):
        n = domain.orders[i]
        for c, cn in zip(img, codomain.orders):
            if (n * c) % cn:
                raise InvalidIsometryError(
                    f"image of generator {i} has order not dividing {n}"
                )
    if not _surjective_all_primes(domain, codomain, images):
        raise InvalidIsometryError("images do not generate (map not bijective)")
    for i, img in enumerate(images):
        if codomain.q(img) != domain.q_gen[i]:
            raise InvalidIsometryError(f"q not preserved on generator {i}")
        for j in range(i + 1, domain.rank):
            if codomain.b(img, images[j]) != domain.b_matrix[i][j]:
                raise InvalidIsometryError(
                    f"pairing not preserved on generators ({i}, {j})"
                )
    return iso


@dataclass(frozen=True)
class LatticeForm:
    """Discriminant form of an even lattice, with converters both ways.

    With U G V = D the Smith form of the Gram matrix G, generator i of the
    form is v_i / n_i, for v_i the column of V at the i-th invariant
    n_i > 1.  A dual vector x has U G x = D V^-1 x, so the coordinates of
    its class are the entries of U G x at those invariants, mod n_i.
    """

    lattice: Lattice
    form: FiniteQuadForm
    diag: tuple[int, ...]  # full SNF diagonal, unit entries included
    u_rows: tuple[tuple[int, ...], ...]
    gens: tuple[RationalVector, ...]  # rational lifts of the form generators

    @cached_property
    def _ug(self) -> tuple[tuple[int, ...], ...]:
        return (IntMatrix(self.u_rows) @ self.lattice.gram).entries

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """The integer columns v_i of V behind the generators v_i / n_i."""
        return tuple(
            tuple(int(x * n) for x in gen.coords)
            for gen, n in zip(self.gens, self.form.orders)
        )

    def _class_of(self, gx) -> DFElement:
        """Class of the dual vector x with G x = ``gx``, an integer vector."""
        return DFElement(
            self.form,
            tuple(
                sum(a * b for a, b in zip(row, gx))
                for row, n in zip(self.u_rows, self.diag)
                if n != 1
            ),
        )

    def element_from_dual(self, vec) -> DFElement:
        """Class in L*/L of a dual vector given in L's basis coordinates."""
        if not isinstance(vec, RationalVector):
            vec = RationalVector.make(vec)
        if not self.lattice.in_dual(vec):
            raise InvalidElementError("vector is not in the dual lattice")
        return self._class_of(
            [int(sum(a * b for a, b in zip(row, vec.coords)))
             for row in self.lattice.gram.entries]
        )

    def induced_isometry(self, mat: IntMatrix) -> DFIsometry:
        """The validated isometry of L*/L induced by an integer isometry
        ``mat`` of L.  Coordinate j of the image of generator i is
        (U G mat v_i)_j / n_i mod n_j, an exact division when mat keeps L*."""
        if mat.dim != self.lattice.rank:
            raise InvalidIsometryError("matrix size does not match the lattice rank")
        images = []
        for v, n in zip(self._columns, self.form.orders):
            mv = [sum(a * b for a, b in zip(row, v)) for row in mat.entries]
            quot = [divmod(sum(a * b for a, b in zip(row, mv)), n) for row in self._ug]
            if any(r for _, r in quot):
                raise InvalidIsometryError("matrix does not preserve the dual lattice")
            images.append([q for (q, _), n_j in zip(quot, self.diag) if n_j != 1])
        return as_isometry(self.form, self.form, images)

    def lift(self, elem: DFElement) -> RationalVector:
        """A dual vector representing the class of ``elem``."""
        if elem.form != self.form:
            raise InvalidElementError("element does not belong to this form")
        vec = RationalVector(tuple(Fraction(0) for _ in range(self.lattice.rank)))
        for c, gen in zip(elem.coords, self.gens):
            if c:
                vec = vec + c * gen
        return vec


def from_lattice(lat) -> LatticeForm:
    """Discriminant form A = L*/L of an even lattice, via Smith normal form.

    Generators are the columns v_i of the SNF transform V scaled by the
    invariant factors n_i; unit factors are dropped.  The form is read off
    the integers v_i G v_j: q_i = v_i G v_i / n_i^2 mod 2 and
    b_ij = v_i G v_j / (n_i n_j) mod 1.
    """
    if isinstance(lat, NSLattice):
        lat = lat.to_lattice()
    d_mat, u_mat, v_mat = smith_normal_form(lat.gram)
    n = lat.rank
    diag = tuple(d_mat.entries[i][i] for i in range(n))
    orders = tuple(x for x in diag if x != 1)
    cols = [v_mat.column(i) for i in range(n) if diag[i] != 1]
    gram = lat.gram.entries
    gv = [[sum(a * b for a, b in zip(row, c)) for row in gram] for c in cols]
    vgv = [[sum(a * b for a, b in zip(c, w)) for w in gv] for c in cols]
    q_gen = tuple(
        Fraction(vgv[i][i] % (2 * ni * ni), ni * ni) for i, ni in enumerate(orders)
    )
    b_matrix = tuple(
        tuple(Fraction(x % (ni * nj), ni * nj) for x, nj in zip(vgv[i], orders))
        for i, ni in enumerate(orders)
    )
    gens = tuple(
        RationalVector(tuple(Fraction(x, ni) for x in c)) for c, ni in zip(cols, orders)
    )
    form = FiniteQuadForm(orders, q_gen, b_matrix)
    return LatticeForm(lat, form, diag, u_mat.entries, gens)


@dataclass(frozen=True)
class NSForm:
    """Discriminant form of the rank-two family member, with the canonical
    dual classes cached.

    ``vbar`` is the class of F/t (the fibre ray scaled to order t) and
    ``vprime`` the class of F'/t for the second isotropic ray F'.
    """

    d: int
    t: int
    lf: LatticeForm
    fstar: RationalVector
    hstar: RationalVector
    vbar: DFElement
    vprime: DFElement

    @property
    def m(self) -> int:
        return gcd(self.d, self.t)

    @property
    def form(self) -> FiniteQuadForm:
        return self.lf.form

    def fh(self, a: int, b: int) -> DFElement:
        """Class of a F* + b H* (the dual-basis coordinates of the family)."""
        vec = a * self.fstar + b * self.hstar
        return self.lf.element_from_dual(vec)

    @cached_property
    def lattice_isometries(self) -> tuple[tuple[IntMatrix, DFIsometry], ...]:
        """(M, induced isometry of A) for each self-isometry M of the
        lattice in the (H, F) basis, computed once per cached bundle."""
        return tuple(
            (mat, self.lf.induced_isometry(mat))
            for mat in rank2_isometries(self.d, self.d, self.t)
        )


@lru_cache(maxsize=4096)
def ns_form(d: int, t: int) -> NSForm:
    """Cached discriminant-form bundle for the (d, t) member."""
    ns = ns_gram(d, t)
    lf = from_lattice(ns)
    fstar, hstar = dual_generators(ns)
    m = gcd(d, t)
    # G (0, 1/t) = (1, 0) and G (1/m, -d/(t m)) = (d/m, t/m)
    vbar = lf._class_of((1, 0))
    vprime = lf._class_of((d // m, t // m))
    return NSForm(d, t, lf, fstar, hstar, vbar, vprime)


def structure_invariants(d: int, t: int) -> tuple[int, int]:
    """(a, b) with A = Z/a (+) Z/b, a = gcd(2d, t), b = t^2/a."""
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    a = gcd(2 * d, t)
    return a, t * t // a


def q_eval(d: int, t: int, a: int, b: int) -> Fraction:
    """q of the class a F* + b H*: the value 2a(bt - ad)/t^2 in [0, 2)."""
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    return Fraction(2 * a * (b * t - a * d), t * t) % 2


def b_eval(x: DFElement, y: DFElement) -> Fraction:
    """Bilinear pairing of two elements of the same group, in [0, 1)."""
    if x.form != y.form:
        raise InvalidElementError("elements live in different groups")
    return x.form.b(x.coords, y.coords)


def element_order(x: DFElement) -> int:
    return x.order()


def is_isotropic(x: DFElement) -> bool:
    return x.is_isotropic()


@dataclass(frozen=True)
class PrimaryPart:
    """p-primary component of a form, with projection and inclusion maps."""

    prime: int
    form: FiniteQuadForm
    parent: FiniteQuadForm
    indices: tuple[int, ...]  # positions of the parent generators involved
    cofactors: tuple[int, ...]  # m_i with n_i = p^a * m_i; part gen is m_i * g_i

    def project(self, elem: DFElement) -> DFElement:
        if elem.form != self.parent:
            raise InvalidElementError("element does not belong to the parent form")
        coords = []
        for pos, i in enumerate(self.indices):
            pk = self.form.orders[pos]
            inv = pow(self.cofactors[pos], -1, pk)
            coords.append(elem.coords[i] * inv % pk)
        return DFElement(self.form, tuple(coords))

    def embed(self, part_elem: DFElement) -> DFElement:
        if part_elem.form != self.form:
            raise InvalidElementError("element does not belong to this part")
        coords = [0] * self.parent.rank
        for pos, i in enumerate(self.indices):
            coords[i] = part_elem.coords[pos] * self.cofactors[pos]
        return DFElement(self.parent, tuple(coords))


def primary_decomposition(form: FiniteQuadForm) -> tuple[PrimaryPart, ...]:
    """Orthogonal p-primary pieces of the form, ordered by prime.

    The part at p is generated by the classes m_i g_i where n_i = p^a m_i
    with p not dividing m_i; q and b restrict accordingly.
    """
    parts = []
    for p in distinct_primes(form.size):
        indices = []
        part_orders = []
        cofactors = []
        for i, n in enumerate(form.orders):
            pk = 1
            while n % p == 0:
                pk *= p
                n //= p
            if pk > 1:
                indices.append(i)
                part_orders.append(pk)
                cofactors.append(n)
        q_gen = tuple(
            (form.q_gen[i] * m * m) % 2 for i, m in zip(indices, cofactors)
        )
        b_matrix = tuple(
            tuple(
                (form.b_matrix[i][j] * mi * mj) % 1
                for j, mj in zip(indices, cofactors)
            )
            for i, mi in zip(indices, cofactors)
        )
        part_form = FiniteQuadForm(tuple(part_orders), q_gen, b_matrix)
        parts.append(
            PrimaryPart(p, part_form, form, tuple(indices), tuple(cofactors))
        )
    return tuple(parts)


def _kernel_setup(struct_form: FiniteQuadForm, value_form: FiniteQuadForm):
    """Integerised data for the 2-generator scan kernels.

    ``struct_form`` supplies the group and the form candidate images are
    evaluated in; ``value_form`` supplies the values to hit.
    """
    s_den, s_q, s_b = struct_form._int_view
    v_den, v_q, v_b = value_form._int_view
    den = lcm(s_den, v_den)
    s_k, v_k = den // s_den, den // v_den
    if struct_form.rank == 1:
        n1, n2 = 1, struct_form.orders[0]
        q1, q2, b12 = 0, s_q[0] * s_k, 0
        w1, w2, w12 = 0, v_q[0] * v_k, 0
    else:
        n1, n2 = struct_form.orders
        q1, q2, b12 = s_q[0] * s_k, s_q[1] * s_k, s_b[0][1] * s_k
        w1, w2, w12 = v_q[0] * v_k, v_q[1] * v_k, v_b[0][1] * v_k
    primes1 = distinct_primes(n1)
    primes2 = tuple(p for p in distinct_primes(n2) if n1 % p)
    return n1, n2, den, q1, q2, b12, w1, w2, w12, primes1, primes2


def isometry_group(form: FiniteQuadForm, cap: int | None = None) -> tuple[DFIsometry, ...]:
    """All automorphisms of the group preserving q (hence also b).

    Enumeration: candidate generator images with the right annihilating
    order, filtered by q on generators, pairing across generators and
    surjectivity prime by prime.  Budgeted by |A|.  Forms of rank <= 2
    only (the family's A is Z/a + Z/b); rank > 2 raises OutOfScopeError.
    """
    return _isometries(form, form, cap, first_only=False)


def isometry_between(
    source: FiniteQuadForm, target: FiniteQuadForm, cap: int | None = None
) -> DFIsometry | None:
    """One isometry from ``source`` onto ``target`` or None.

    The generator orders must agree exactly (they are the group's Smith
    invariants, so this loses nothing).  Equal forms give the identity.
    A ``source`` of rank > 2 raises OutOfScopeError.
    """
    isos = _isometries(source, target, cap, first_only=True)
    return isos[0] if isos else None


def _isometries(source, target, cap, first_only) -> tuple[DFIsometry, ...]:
    """Isometries from ``source`` onto ``target``, sorted by images; at
    most one when ``first_only``.  A ``source`` of rank > 2 raises
    OutOfScopeError before any other check.
    """
    if source.rank > 2:
        raise OutOfScopeError("isometries are enumerated for forms of rank <= 2")
    if source.orders != target.orders:
        return ()
    if cap is None:
        cap = budget.isometry_cap()
    if source.size > cap:
        raise CapacityError(
            f"isometry enumeration budget is |A| <= {cap} "
            f"(K3FM_BUDGET overrides); got |A| = {source.size}",
            cap,
        )
    if first_only and source == target:
        return (identity_isometry(source),)
    if source.rank == 0:
        return (DFIsometry(source, target, ()),)
    args = _kernel_setup(target, source)
    hits = kernels.scan_isometries(*args, first_only=first_only)
    isos = [
        DFIsometry(source, target, ((d,),) if source.rank == 1 else ((a, c), (b, d)))
        for a, c, b, d in hits
    ]
    return tuple(sorted(isos, key=lambda s: s.images))
