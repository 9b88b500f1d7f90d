"""Finite quadratic forms q: A -> Q/2Z on finite abelian groups, as they
arise on discriminant groups L*/L of even lattices.

Groups are presented by generator orders (n1 | n2, the Smith normal form
invariants; at most two, since every form here is the discriminant form
of a rank-two lattice or a part of one), q by its values on the
generators, and the induced bilinear pairing b: A x A -> Q/Z by its
generator matrix.  Elements are coordinate tuples reduced into [0, n_i).
A form stores integers only: every q- and b-value on the generators as a
numerator over one least common denominator, q numerators in [0, 2 den),
b ones in [0, den).  Fractions appear only where a value is read out
(``q``, ``b``, ``q_gen``, ``b_matrix``) or passed in
(``FiniteQuadForm.make``).  A form of rank above 2 raises OutOfScopeError.

Sign convention: every computation in this package runs on the
Neron-Severi side.  The transcendental-lattice discriminant form is the
same group with q negated; the sign flip changes no group structure, no
isotropy, no subgroup lattice and no orbit counts, so it is documentation
only.  Callers who need the other sign can negate q-values on output.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product
from math import gcd, lcm
from operator import index, mul

from . import budget, kernels
from ._value import Value
from .errors import (
    InvalidElementError,
    InvalidIsometryError,
    InvalidParameterError,
    OutOfScopeError,
)
from .intmath import distinct_primes, modulus
from .lattices import (
    IntMatrix,
    Lattice,
    _snf2,
    ns_gram,
    rank2_isometries,
)


class FiniteQuadForm(Value):
    """Finite quadratic form on (+) Z/n_i, at most two generators, their
    orders ascending by divisibility, all of them > 1.

    The values on the generators are integer numerators over ``den``, the
    least common denominator of them all: q(g_i) = qn[i] / den in [0, 2)
    and b(g_i, g_j) = bn[i][j] / den in [0, 1).  ``den`` must be in lowest
    terms, so two forms are equal exactly when their values are.  ``make``
    builds a form from rational values, and ``q_gen`` and ``b_matrix``
    read them back as Fractions.
    """

    __slots__ = _fields = ("orders", "den", "qn", "bn")

    def __init__(self, orders: tuple[int, ...], den: int, qn: tuple[int, ...],
                 bn: tuple[tuple[int, ...], ...]):
        self.orders, self.den, self.qn, self.bn = orders, den, qn, bn
        r = len(orders)
        if r > 2:
            raise OutOfScopeError(f"forms have rank <= 2, got {r}")
        if len(qn) != r or len(bn) != r:
            raise InvalidParameterError("generator data lengths disagree")
        for i, n in enumerate(orders):
            if n < 2:
                raise InvalidParameterError("generator orders must be >= 2")
            if i and n % orders[i - 1]:
                raise InvalidParameterError("orders must ascend by divisibility")
        for row in bn:
            if len(row) != r:
                raise InvalidParameterError("b matrix must be square")
        if den < 1 or gcd(den, *qn, *chain.from_iterable(bn)) != 1:
            raise InvalidParameterError("den must be positive and in lowest terms")
        for i, n in enumerate(orders):
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
        """The form with rational values ``q_gen`` (mod 2) and
        ``b_matrix`` (mod 1) on generators of the given orders, which must
        be integers (``operator.index``); nothing is truncated to one."""
        q_gen = [Fraction(q) for q in q_gen]
        b_matrix = [[Fraction(x) for x in row] for row in b_matrix]
        den = lcm(*(x.denominator for x in chain(q_gen, *b_matrix)))
        qn = [int(q * den) for q in q_gen]
        bn = [[int(x * den) for x in row] for row in b_matrix]
        try:
            orders = [index(n) for n in orders]
        except TypeError:
            raise InvalidParameterError("generator orders must be integers") from None
        return _lowest(orders, den, qn, bn)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        s = 1
        for n in self.orders:
            s *= n
        return s

    @property
    def q_gen(self) -> tuple[Fraction, ...]:
        """q on the generators, as Fractions in [0, 2)."""
        return tuple(Fraction(q, self.den) for q in self.qn)

    @property
    def b_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """b on pairs of generators, as Fractions in [0, 1)."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.bn)

    def q(self, coords) -> Fraction:
        return Fraction(self.q_numerator(coords), self.den)

    def q_numerator(self, coords) -> int:
        """q(coords) times ``den``, in [0, 2 den)."""
        qn, bn = self.qn, self.bn
        total = 0
        for i, c in enumerate(coords):
            if c:
                total += c * c * qn[i]
                for j in range(i + 1, len(coords)):
                    total += 2 * c * coords[j] * bn[i][j]
        return total % (2 * self.den)

    def b(self, coords1, coords2) -> Fraction:
        return Fraction(self.b_numerator(coords1, coords2), self.den)

    def b_numerator(self, coords1, coords2) -> int:
        """b(coords1, coords2) times ``den``, in [0, den)."""
        total = 0
        for c, row in zip(coords1, self.bn):
            if c:
                total += c * sum(map(mul, row, coords2))
        return total % self.den

    def zero(self) -> "DFElement":
        return DFElement(self, (0,) * self.rank)

    def element(self, coords) -> "DFElement":
        return DFElement(self, tuple(coords))

    def elements(self):
        """All elements in lexicographic coordinate order."""
        for coords in product(*(range(n) for n in self.orders)):
            yield DFElement(self, coords)


def _lowest(orders, den, qn, bn) -> FiniteQuadForm:
    """The form on generators of the given orders whose q numerators are
    ``qn`` mod 2 den and b numerators ``bn`` mod den, over ``den`` brought
    to lowest terms."""
    two_den = 2 * den
    qn = [q % two_den for q in qn]
    bn = [[x % den for x in row] for row in bn]
    g = gcd(den, *qn)
    for row in bn:
        g = gcd(g, *row)
    if g > 1:
        den //= g
        qn = [q // g for q in qn]
        bn = [[x // g for x in row] for row in bn]
    return FiniteQuadForm(tuple(orders), den, tuple(qn), tuple(map(tuple, bn)))


class DFElement(Value):
    """Element of a FiniteQuadForm, coordinates reduced into [0, n_i)."""

    __slots__ = _fields = ("form", "coords")

    def __init__(self, form: FiniteQuadForm, coords: tuple[int, ...]):
        self.form, self.coords = form, coords
        self.__post_init__()

    def __post_init__(self):
        if len(self.coords) != self.form.rank:
            raise InvalidElementError("coordinate length does not match rank")
        self.coords = tuple([c % n for c, n in zip(self.coords, self.form.orders)])

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
        return self.form.q_numerator(self.coords) == 0


class DFIsometry(Value):
    """Group isomorphism preserving q, stored by generator images.

    ``images[i]`` is the coordinate tuple (in the codomain) of the image of
    the i-th domain generator.  The shape is checked: one image per domain
    generator, one coordinate per codomain generator.  Nothing else is;
    ``as_isometry`` validates the map.  ``action()`` is the map on
    coordinate tuples.  ``powers()`` walks the cyclic group of an
    automorphism once; ``order()`` and ``inverse()`` read it.
    """

    __slots__ = _fields = ("domain", "codomain", "images")

    def __init__(self, domain: FiniteQuadForm, codomain: FiniteQuadForm,
                 images: tuple[tuple[int, ...], ...]):
        if len(images) != domain.rank or any(len(img) != codomain.rank for img in images):
            raise InvalidIsometryError("image shape does not match generator counts")
        self.domain, self.codomain = domain, codomain
        orders = codomain.orders
        self.images = tuple([tuple([c % n for c, n in zip(img, orders)]) for img in images])

    def action(self):
        """c -> the reduced codomain coordinates of the image of the domain
        element with coordinates c: coordinate j is one dot product with
        row j of the image matrix, mod the j-th generator order.  The
        caller keeps the function; nothing is stored on the isometry, so
        it stays picklable."""
        rows = tuple(zip(zip(*self.images), self.codomain.orders))
        return lambda c: tuple([sum(map(mul, row, c)) % n for row, n in rows])

    def apply(self, elem: DFElement) -> DFElement:
        if elem.form != self.domain:
            raise InvalidElementError("element not in the isometry's domain")
        return DFElement(self.codomain, self.action()(elem.coords))

    def compose(self, other: "DFIsometry") -> "DFIsometry":
        """self after other."""
        if other.codomain != self.domain:
            raise InvalidIsometryError("isometries do not compose")
        return DFIsometry(other.domain, self.codomain, tuple(map(self.action(), other.images)))

    def is_identity(self) -> bool:
        if self.domain != self.codomain:
            return False
        return self.images == _IDENTITY_IMAGES[self.domain.rank]

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
        move = self.action()
        table = {move(elem.coords): elem.coords for elem in self.domain.elements()}
        images = []
        for i in range(self.codomain.rank):
            unit = tuple(1 if j == i else 0 for j in range(self.codomain.rank))
            if unit not in table:
                raise InvalidIsometryError("map is not invertible")
            images.append(table[unit])
        return DFIsometry(self.codomain, self.domain, tuple(images))


# the generator images of id on forms of rank 0, 1 and 2
_IDENTITY_IMAGES = ((), ((1,),), ((1, 0), (0, 1)))


def identity_isometry(form: FiniteQuadForm) -> DFIsometry:
    return DFIsometry(form, form, _IDENTITY_IMAGES[form.rank])


def _neg_images(orders) -> tuple[tuple[int, ...], ...]:
    """The reduced generator images of -id, an isometry of every finite
    quadratic form, on generators of these orders: g_i -> (n_i - 1) g_i."""
    return tuple(tuple(n - 1 if i == j else 0 for j, n in enumerate(orders))
                 for i in range(len(orders)))


def neg_identity(form: FiniteQuadForm) -> DFIsometry:
    return DFIsometry(form, form, _neg_images(form.orders))


def _surjective_all_primes(domain, codomain, images) -> bool:
    """Nakayama-style check: surjective iff surjective on A/pA for all p,
    that is, iff the map's matrix on the p-torsion generators (1x1 or
    2x2, as p divides |A|) has a determinant prime to p."""
    if domain.size != codomain.size:
        return False
    for p in distinct_primes(codomain.size):
        rows = [j for j, n in enumerate(codomain.orders) if n % p == 0]
        cols = [i for i, n in enumerate(domain.orders) if n % p == 0]
        if len(rows) != len(cols):
            return False
        mat = [[images[i][j] for i in cols] for j in rows]
        det = mat[0][0] if len(mat) == 1 else mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        if det % p == 0:
            return False
    return True


def as_isometry(domain: FiniteQuadForm, codomain: FiniteQuadForm, images) -> DFIsometry:
    """Validate generator images and wrap them as a DFIsometry.

    Raises InvalidIsometryError when the images do not define a
    q-preserving group automorphism (or isomorphism onto the codomain),
    or when an image coordinate is not an integer (``operator.index``).
    """
    try:
        images = tuple(tuple(map(index, img)) for img in images)
    except TypeError:
        raise InvalidIsometryError("image coordinates must be integers") from None
    iso = DFIsometry(domain, codomain, images)
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
    # values compared as numerators, cross-multiplied by the denominators
    dd, cd = domain.den, codomain.den
    for i, img in enumerate(images):
        if codomain.q_numerator(img) * dd != domain.qn[i] * cd:
            raise InvalidIsometryError(f"q not preserved on generator {i}")
        for j in range(i + 1, domain.rank):
            if codomain.b_numerator(img, images[j]) * dd != domain.bn[i][j] * cd:
                raise InvalidIsometryError(
                    f"pairing not preserved on generators ({i}, {j})"
                )
    return iso


class LatticeForm(Value):
    """Discriminant form of an even lattice, with the class of a dual
    vector and the map a lattice isometry induces.

    With U G V = D the Smith form of the Gram matrix G, generator i of the
    form is v_i / n_i, for v_i the column of V at the i-th invariant
    n_i > 1.  A dual vector x has U G x = D V^-1 x, so the coordinates of
    its class are the entries of U G x at those invariants, mod n_i.

    Only integers are kept: the form's numerators, the SNF diagonal, the
    rows of U and the columns v_i.
    """

    __slots__ = _fields = ("lattice", "form", "diag", "u_rows", "columns")

    def __init__(self, lattice: Lattice, form: FiniteQuadForm, diag: tuple[int, ...],
                 u_rows: tuple[tuple[int, ...], ...], columns: tuple[tuple[int, ...], ...]):
        # diag: the full SNF diagonal, unit entries included; columns: the
        # integer columns v_i of V with n_i > 1
        self.lattice, self.form, self.diag = lattice, form, diag
        self.u_rows, self.columns = u_rows, columns

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

    def induced_isometry(self, mat: IntMatrix) -> DFIsometry:
        """The validated isometry of L*/L induced by an integer isometry
        ``mat`` of L.  Generator i, the class of v_i / n_i, goes to the
        class of mat v_i / n_i, whose image under G is the integer vector
        G mat v_i / n_i when mat keeps L*."""
        if mat.dim != self.lattice.rank:
            raise InvalidIsometryError("matrix size does not match the lattice rank")
        gram = self.lattice.gram.entries
        images = []
        for v, n in zip(self.columns, self.form.orders):
            mv = [sum(map(mul, row, v)) for row in mat.entries]
            quot = [divmod(sum(map(mul, row, mv)), n) for row in gram]
            if any(r for _, r in quot):
                raise InvalidIsometryError("matrix does not preserve the dual lattice")
            images.append(self._class_of([q for q, _ in quot]).coords)
        return as_isometry(self.form, self.form, images)


def from_lattice(lat: Lattice) -> LatticeForm:
    """Discriminant form A = L*/L of an even lattice (rank 2, as every
    Lattice), via the Smith normal form ``_snf2`` of its Gram matrix.

    Generators are the columns v_i of the SNF transform V scaled by the
    invariant factors n_i; unit factors are dropped.  The form is read off
    the integers v_i G v_j: q_i = v_i G v_i / n_i^2 mod 2 and
    b_ij = v_i G v_j / (n_i n_j) mod 1.  Over n2^2, n2 the larger
    invariant, the numerators are w_i G w_j with w_2 = v_2 and
    w_1 = (n2 / n1) v_1, computed on plain ints.
    """
    (p, q), (_, s) = lat.gram.entries
    diag, u_rows, ((v00, v01), (v10, v11)) = _snf2(p, q, q, s)
    n1, n2 = diag
    w0, w1 = n2 // n1 * v00, n2 // n1 * v10  # w_1
    x, y = p * v01 + q * v11, q * v01 + s * v11  # G v_2
    g11 = w0 * (p * w0 + q * w1) + w1 * (q * w0 + s * w1)
    g12, g22 = w0 * x + w1 * y, v01 * x + v11 * y
    drop = (n1 == 1) + (n2 == 1)  # the unit invariants lead
    wgw = [row[drop:] for row in ((g11, g12), (g12, g22))[drop:]]
    form = _lowest(diag[drop:], n2 * n2, [row[i] for i, row in enumerate(wgw)], wgw)
    return LatticeForm(lat, form, diag, u_rows, ((v00, v10), (v01, v11))[drop:])


class NSForm(Value):
    """Discriminant form of the rank-two family member, with the canonical
    dual classes cached.

    The form is built with the bundle, so a bad (d, t) raises at once.
    Everything else is computed on first read and then kept on the
    bundle, so the ``ns_form`` cache drops it with the bundle: ``vbar``,
    the class of F/t (the fibre ray scaled to order t), ``vprime``, the
    class of F'/t for the second isotropic ray F', t's factorisation
    ``t_factors``, the primary parts, ``o_lambda_rows``, the one map
    from the maps on A to the lattice isometries inducing them, and
    ``o_lambda_maps``, those isometries with their validated maps.  Dual
    classes, as in ``fh``, are read off integer vectors G x.  A genus
    member that ``surfaces._fm_walk`` only counts costs its SNF, form,
    parts and O(L) keys; the closed form for G = {+-1} reads no other
    member than the least one, onto which the request's bundle is anchored.
    ``anchors`` maps a genus member r of the same t to this bundle's
    per-part isometries onto the primary parts of r's bundle (None when
    some part has none); ``surfaces._anchor`` fills it, for the request's
    own bundle in ``fm_count`` and for each other class in ``_fm_walk``.
    """

    _fields = ("d", "t", "lf")  # no __slots__: the cached properties need a __dict__

    def __init__(self, d: int, t: int, lf: LatticeForm):
        self.d, self.t, self.lf = d, t, lf
        self.anchors = {}

    @property
    def m(self) -> int:
        return gcd(self.d, self.t)

    @property
    def form(self) -> FiniteQuadForm:
        return self.lf.form

    @cached_property
    def vbar(self) -> DFElement:
        # G (0, 1/t) = (1, 0)
        return self.lf._class_of((1, 0))

    @cached_property
    def vprime(self) -> DFElement:
        # G (1/m, -d/(t m)) = (d/m, t/m)
        m = self.m
        return self.lf._class_of((self.d // m, self.t // m))

    @cached_property
    def t_factors(self) -> dict[int, int]:
        """{p: k} for t = prod p^k, read off t's record ``modulus(t)``."""
        return dict(modulus(self.t).factors)

    def fh(self, a: int, b: int) -> DFElement:
        """Class of a F* + b H* (the dual-basis coordinates of the family):
        it pairs to b with H and to a with F."""
        return self.lf._class_of((b, a))

    @cached_property
    def primary_parts(self) -> tuple["PrimaryPart", ...]:
        """``primary_decomposition`` of the form, once per cached bundle."""
        return primary_decomposition(self.form)

    @cached_property
    def o_lambda_rows(self) -> dict:
        """The lattice's self-isometries (``rank2_isometries``, integer rows
        in the (H, F) basis), grouped by the map they induce on L*/L:
        computed once per cached bundle.

        Lattice isometries M and N induce the same map on L*/L exactly
        when (M - N) Gram^-1 is integral.  Gram^-1 = adj(Gram) / -t^2 with
        adj(Gram) = [[0, -t], [-t, 2d]], so M is keyed by M adj(Gram) mod
        t^2, and each key lists the rows with that key.  The key of -I
        must be among them.
        """
        d, t = self.d, self.t
        n = t * t
        out = {}
        for rows in rank2_isometries(d, d, t):
            (x0, y0), (x1, y1) = rows
            key = ((-t * y0 % n, (2 * d * y0 - t * x0) % n),
                   (-t * y1 % n, (2 * d * y1 - t * x1) % n))
            out.setdefault(key, []).append(rows)
        # the key of -I, whose rows are (-1, 0) and (0, -1)
        if ((0, t % n), (t % n, -2 * d % n)) not in out:
            raise RuntimeError("O(L) image does not contain -id")
        return out

    @cached_property
    def o_lambda_maps(self) -> tuple:
        """(rows, map) for every lattice isometry in ``o_lambda_rows``,
        with the map on L*/L it induces, validated by
        ``LatticeForm.induced_isometry``: computed once per cached bundle."""
        return tuple(
            (rows, self.lf.induced_isometry(IntMatrix(rows)))
            for group in self.o_lambda_rows.values()
            for rows in group
        )

    @property
    def o_lambda_order(self) -> int:
        """|H|, the order of the image of O(L) in O(A): the number of
        keys of ``o_lambda_rows``."""
        return len(self.o_lambda_rows)


@lru_cache(maxsize=4096)
def ns_form(d: int, t: int) -> NSForm:
    """Cached discriminant-form bundle for the (d, t) member."""
    return NSForm(d, t, from_lattice(ns_gram(d, t)))


def structure_invariants(d: int, t: int) -> tuple[int, int]:
    """(a, b) with A = Z/a (+) Z/b, a = gcd(2d, t), b = t^2/a."""
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    a = gcd(2 * d, t)
    return a, t * t // a


def b_eval(x: DFElement, y: DFElement) -> Fraction:
    """Bilinear pairing of two elements of the same group, in [0, 1)."""
    if x.form != y.form:
        raise InvalidElementError("elements live in different groups")
    return x.form.b(x.coords, y.coords)


class PrimaryPart(Value):
    """p-primary component of a form, with projection and inclusion maps.
    ``indices`` are the positions of the parent generators involved, and
    ``cofactors`` the m_i with n_i = p^a m_i: the part's generators are
    the m_i g_i."""

    __slots__ = _fields = ("prime", "form", "parent", "indices", "cofactors")

    def __init__(self, prime: int, form: FiniteQuadForm, parent: FiniteQuadForm,
                 indices: tuple[int, ...], cofactors: tuple[int, ...]):
        self.prime, self.form, self.parent = prime, form, parent
        self.indices, self.cofactors = indices, cofactors

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

    def restrict(self, iso: DFIsometry) -> DFIsometry:
        """The isometry of this part that an isometry of the parent form
        induces: a group automorphism keeps each p-primary part.

        On coordinates: the part generator m_i g_i goes to m_i times the
        parent image of g_i, read at this part's positions j through the
        inverse cofactor m_j^-1 mod p^a_j, as ``embed``, ``apply`` and
        ``project`` would."""
        if iso.domain != self.parent or iso.codomain != self.parent:
            raise InvalidElementError("isometry does not act on the parent form")
        back = [
            (j, pow(m, -1, pk), pk)
            for j, m, pk in zip(self.indices, self.cofactors, self.form.orders)
        ]
        return DFIsometry(
            self.form,
            self.form,
            tuple(
                tuple(m * iso.images[i][j] * inv % pk for j, inv, pk in back)
                for i, m in zip(self.indices, self.cofactors)
            ),
        )


def primary_decomposition(form: FiniteQuadForm) -> tuple[PrimaryPart, ...]:
    """Orthogonal p-primary pieces of the form, ordered by prime.

    The part at p is generated by the classes m_i g_i where n_i = p^a m_i
    with p not dividing m_i; q and b restrict accordingly.  The values are
    read off the parent's numerators: over its denominator den, the part's
    are q_i m_i^2 mod 2 den and b_ij m_i m_j mod den, in lowest terms.
    When |A| has a single prime the one part is the whole form: its
    ``form`` is the parent itself, on every generator, with cofactors 1.
    """
    primes = distinct_primes(form.size)
    if len(primes) == 1:
        r = form.rank
        return (PrimaryPart(primes[0], form, form, tuple(range(r)), (1,) * r),)
    den, qn, bn = form.den, form.qn, form.bn
    parts = []
    for p in primes:
        indices, part_orders, cofactors = [], [], []
        for i, n in enumerate(form.orders):
            pk = 1
            while n % p == 0:
                pk, n = pk * p, n // p
            if pk > 1:
                indices.append(i)
                part_orders.append(pk)
                cofactors.append(n)
        pairs = list(zip(indices, cofactors))
        part_qn = [qn[i] * m * m for i, m in pairs]
        part_bn = [[bn[i][j] * mi * mj for j, mj in pairs] for i, mi in pairs]
        part_form = _lowest(part_orders, den, part_qn, part_bn)
        parts.append(PrimaryPart(p, part_form, form, tuple(indices), tuple(cofactors)))
    return tuple(parts)


def _kernel_setup(struct_form: FiniteQuadForm, value_form: FiniteQuadForm):
    """Integerised data for the 2-generator scan kernels.

    ``struct_form`` supplies the group and the form candidate images are
    evaluated in; ``value_form`` supplies the values to hit.
    """
    s_den, s_q, s_b = struct_form.den, struct_form.qn, struct_form.bn
    v_den, v_q, v_b = value_form.den, value_form.qn, value_form.bn
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
    return n1, n2, den, q1, q2, b12, w1, w2, w12


def _surjectivity_primes(n1: int, n2: int):
    """The prime lists ``kernels.scan_isometries`` checks surjectivity at:
    those of n1, and those of n2 not dividing n1 (n1 | n2, so n2's)."""
    primes = modulus(n2).primes
    return (
        tuple(p for p in primes if n1 % p == 0),
        tuple(p for p in primes if n1 % p),
    )


def require_isometry_budget(form: FiniteQuadForm) -> None:
    """Raise CapacityError when |form| is over the isometry budget: the
    gate of every isometry scan, whether it searches for one isometry or
    enumerates them all, also run ahead of one.  The text naming the
    group is built only for a form over the cap."""
    cap = budget.isometry_cap()
    if form.size > cap:
        group = " + ".join(f"Z/{n}" for n in form.orders)
        budget.require(
            form.size, cap, f"the order of {group}, a group scanned for isometries,"
        )


def isometry_group(form: FiniteQuadForm) -> tuple[DFIsometry, ...]:
    """All automorphisms of the group preserving q (hence also b).

    Enumeration: candidate generator images with the right annihilating
    order, filtered by q on generators, pairing across generators and
    surjectivity prime by prime.  Budgeted by |A|.  Every form has rank
    <= 2 (the family's A is Z/a + Z/b), so the images are 1x1 or 2x2.
    """
    return _isometries(form, form, first_only=False)


def isometry_between(source: FiniteQuadForm, target: FiniteQuadForm) -> DFIsometry | None:
    """One isometry from ``source`` onto ``target`` or None.

    The generator orders must agree exactly (they are the group's Smith
    invariants, so this loses nothing).  Equal forms give the identity.
    """
    isos = _isometries(source, target, first_only=True)
    return isos[0] if isos else None


def _isometries(source, target, first_only) -> tuple[DFIsometry, ...]:
    """Isometries from ``source`` onto ``target``, sorted by images; at
    most one when ``first_only``.  Rank 0 has the empty map; ranks 1 and
    2 go to the two-generator scan kernel.
    """
    if source.orders != target.orders:
        return ()
    require_isometry_budget(source)
    if first_only and source == target:
        return (identity_isometry(source),)
    if source.rank == 0:
        return (DFIsometry(source, target, ()),)
    args = _kernel_setup(target, source)
    primes = _surjectivity_primes(*args[:2])
    hits = kernels.scan_isometries(*args, *primes, first_only=first_only)
    isos = [
        DFIsometry(source, target, ((d,),) if source.rank == 1 else ((a, c), (b, d)))
        for a, c, b, d in hits
    ]
    return tuple(sorted(isos, key=lambda s: s.images))
