"""Reference Hermite basis and overlattice, in the generic form the
library's two-column ``lattices.row_hnf`` and integer ``overlattice`` are
held to, and the Fraction vector arithmetic the tests check q, b and
classes against: ``pair`` and ``square`` on dual vectors, ``in_dual``,
and ``gens``, ``lift`` and ``element_from_dual`` between an ``NSForm``
and its lattice's dual.  A Gram matrix is its rows and a vector is a
tuple of Fractions in the lattice's basis.  ``lagrangian_generators`` lists the generators
of a Lagrangian subgroup one multiple at a time.

``row_hnf`` is a pivot loop over any number of columns on plain lists of
ints.  ``overlattice`` computes in Fractions throughout: the dual test on
G g, the isotropy test on g G g, the Gram of L from the pairings of its
rational basis and the index from a determinant.  It checks the same
things in the same order and raises the same exceptions with the same
messages as the library, so the two can be compared outcome for outcome.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from k3fm.errors import InvalidElementError, InvalidSubgroupError
from k3fm.lagrangians import LagrangianElement
from k3fm.lattices import Lattice


def pair(gram, x, y) -> Fraction:
    """Bilinear pairing x . y with respect to the Gram rows ``gram``."""
    return sum((a * gram[i][j] * b for i, a in enumerate(x) if a
                for j, b in enumerate(y) if b and gram[i][j]), Fraction(0))


def square(gram, x) -> Fraction:
    return pair(gram, x, x)


def _gram(nf):
    """The Gram rows [[2d, t], [t, 0]] of the family member ``nf``."""
    return ((2 * nf.d, nf.t), (nf.t, 0))


def gens(nf) -> tuple[tuple[Fraction, ...], ...]:
    """Rational lifts v_i / n_i of the generators of the ``NSForm``
    ``nf``."""
    return tuple(
        tuple(Fraction(x, n) for x in col)
        for col, n in zip(nf.columns, nf.form.orders)
    )


def lift(nf, elem) -> tuple[Fraction, ...]:
    """A dual vector representing the class of ``elem`` in ``nf``'s form."""
    if elem.form != nf.form:
        raise InvalidElementError("element does not belong to this form")
    vec = (Fraction(0), Fraction(0))
    for c, gen in zip(elem.coords, gens(nf)):
        if c:
            vec = tuple(a + c * b for a, b in zip(vec, gen))
    return vec


def element_from_dual(nf, vec):
    """Class in L*/L of a dual vector given in L's basis coordinates: the
    class of the integer vector G vec, read by ``nf``."""
    vec = tuple(map(Fraction, vec))
    g = _gram(nf)
    if len(vec) != len(g):
        raise InvalidElementError("coordinate length does not match rank")
    if not in_dual(Lattice(g), vec):
        raise InvalidElementError("vector is not in the dual lattice")
    return nf._class_of([int(sum(map(mul, row, vec))) for row in g])


def lagrangian_generators(sub) -> tuple:
    """The phi(t) elements s g, s a unit mod t, that generate the
    Lagrangian subgroup ``sub`` with generator g."""
    return tuple(
        LagrangianElement(s * sub.generator)
        for s in range(sub.t)
        if gcd(s, sub.t) == 1
    )


def row_hnf(rows, n: int) -> list[list[int]]:
    """Hermite-style echelon basis of the integer row span of ``rows``.

    Pivots are positive, strictly to the right as you go down, and entries
    above a pivot are reduced into [0, pivot).  Deterministic.
    """
    mat = [list(map(int, r)) for r in rows]
    top = 0
    for col in range(n):
        while True:
            live = [i for i in range(top, len(mat)) if mat[i][col]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(mat[i][col]))
            mat[top], mat[piv] = mat[piv], mat[top]
            done = True
            for i in range(top + 1, len(mat)):
                q = mat[i][col] // mat[top][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                if mat[i][col]:
                    done = False
            if done:
                top += 1
                break
    basis = [r for r in mat if any(r)][:top]
    for i, row in enumerate(basis):
        p = next(j for j, x in enumerate(row) if x)
        if row[p] < 0:
            basis[i] = [-x for x in row]
    for i in range(len(basis) - 1, -1, -1):
        p = next(j for j, x in enumerate(basis[i]) if x)
        for k in range(i):
            q = basis[k][p] // basis[i][p]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return basis


def in_dual(lat: Lattice, vec) -> bool:
    """Whether vec (Fraction coords in lat's basis) pairs integrally with
    lat."""
    return all(sum(map(mul, row, vec)).denominator == 1 for row in lat.gram)


def _det(rows) -> int:
    (a, b), (c, e) = rows
    return a * e - b * c


def overlattice(t_lat: Lattice, subgroup_gens) -> Lattice:
    """Even overlattice T + <gens> of an isotropic subgroup of A_T, in
    Fractions; see ``k3fm.lattices.overlattice``."""
    rank = len(t_lat.gram)
    gens = [tuple(map(Fraction, g)) for g in subgroup_gens]
    for g in gens:
        if len(g) != rank:
            raise InvalidElementError("generator length does not match lattice rank")
        if not in_dual(t_lat, g):
            raise InvalidElementError(
                "generator does not lie in the dual lattice (non-integral pairing)"
            )
        if square(t_lat.gram, g) % 2 != 0:
            raise InvalidSubgroupError(
                f"generator {tuple(map(str, g))} is not isotropic"
            )
    den = lcm(*(c.denominator for g in gens for c in g))
    rows = [[den if j == i else 0 for j in range(rank)] for i in range(rank)]
    rows += [[int(c * den) for c in g] for g in gens]
    basis_rows = row_hnf(rows, rank)
    basis = [tuple(Fraction(x, den) for x in row) for row in basis_rows]

    entries = []
    for x in basis:
        row = []
        for y in basis:
            val = pair(t_lat.gram, x, y)
            if val.denominator != 1:
                raise InvalidSubgroupError(
                    "overlattice pairing is not integral; subgroup invalid"
                )
            row.append(int(val))
        entries.append(row)
    result = Lattice(entries)
    order = den ** rank // abs(_det(basis_rows))
    if result.det() * order * order != t_lat.det():
        raise RuntimeError("overlattice determinant identity violated (internal)")
    return result
