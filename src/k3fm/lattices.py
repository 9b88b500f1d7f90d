"""Even integer lattices of rank two, the family [[2d, t], [t, 0]] above
all.

A lattice is its Gram rows, a 2x2 tuple of ints; rational vectors, such
as dual generators and overlattice generators, are pairs of Fractions
in the lattice's basis.  ``Lattice`` checks its rows where it is built:
a non-integer entry raises InvalidParameterError, any shape but 2x2
OutOfScopeError, and an asymmetric, odd or degenerate Gram matrix
InvalidLatticeError.  All arithmetic is exact: dual vectors are tested
and combined as integer numerators over one denominator.  ``_snf2`` is
the Smith normal form of a 2x2 matrix of plain ints, with both
transformation matrices; it pivots on the smallest nonzero entry in
absolute value, so its output is deterministic and safe to pin in tests.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import index

from ._value import Value
from .errors import (
    InvalidElementError,
    InvalidLatticeError,
    InvalidParameterError,
    InvalidSubgroupError,
    OutOfScopeError,
)
from .intmath import units_mod


def _check_t(t: int, **others) -> None:
    """Refuse a multisection index t that is not an integer >= 1, which no
    family member has, and each of ``others`` (d next to t, say) that is
    not an integer: an integer is what ``operator.index`` accepts."""
    for name, x in (("t", t), *others.items()):
        try:
            index(x)
        except TypeError:
            raise InvalidParameterError(f"{name} must be an integer, got {x!r}") from None
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")


def _snf2(a: int, b: int, c: int, e: int):
    """Smith normal form of [[a, b], [c, e]] on plain ints: returns
    ((d1, d2), U rows, V rows) with U [[a, b], [c, e]] V = diag(d1, d2),
    d1 | d2, both nonnegative, U and V unimodular.

    The pivot is the first entry of least nonzero absolute value in row
    order; it moves to the corner, then reduces its row and column, and a
    bottom-right entry it does not divide is folded into the top row.
    The tests hold (D, U, V) equal to a generic n x n Smith routine's
    with the same pivot rule, transforms included.
    """
    u00, u01, u10, u11 = 1, 0, 0, 1
    v00, v01, v10, v11 = 1, 0, 0, 1
    while True:
        piv, best = -1, 0
        if a:
            piv, best = 0, abs(a)
        if b and (piv < 0 or abs(b) < best):
            piv, best = 1, abs(b)
        if c and (piv < 0 or abs(c) < best):
            piv, best = 2, abs(c)
        if e and (piv < 0 or abs(e) < best):
            piv, best = 3, abs(e)
        if piv < 0:
            break  # zero matrix
        if piv >= 2:  # swap the rows
            a, b, c, e = c, e, a, b
            u00, u01, u10, u11 = u10, u11, u00, u01
        if piv & 1:  # swap the columns
            a, b, c, e = b, a, e, c
            v00, v01, v10, v11 = v01, v00, v11, v10
        q = c // a
        if q:
            c, e = c - q * a, e - q * b
            u10, u11 = u10 - q * u00, u11 - q * u01
        q = b // a
        if q:
            b, e = b - q * a, e - q * c
            v01, v11 = v01 - q * v00, v11 - q * v10
        if b or c:
            continue
        if e % a == 0:
            break
        # fold the bottom row into the top one (b = c = 0 here)
        b = e
        u00, u01 = u00 + u10, u01 + u11
    if a < 0:
        a, u00, u01 = -a, -u00, -u01
    if e < 0:
        e, u10, u11 = -e, -u10, -u11
    return (a, e), ((u00, u01), (u10, u11)), ((v00, v01), (v10, v11))


class Lattice(Value):
    """Even nondegenerate lattice of rank 2 given by its Gram rows, kept as
    a 2x2 tuple of ints.  Each entry must be an integer, one that
    ``operator.index`` accepts; nothing is truncated to one."""

    __slots__ = _fields = ("gram",)

    def __init__(self, gram):
        try:
            self.gram = tuple(tuple(map(index, row)) for row in gram)
        except TypeError:
            raise InvalidParameterError("Gram matrix entries must be integers") from None
        if len(self.gram) != 2 or any(len(row) != 2 for row in self.gram):
            shape = tuple(map(len, self.gram))
            raise OutOfScopeError(f"lattices have rank 2, got Gram rows of lengths {shape}")
        (a, b), (c, e) = self.gram
        if b != c:
            raise InvalidLatticeError("Gram matrix must be symmetric")
        if a % 2 or e % 2:
            raise InvalidLatticeError("lattice must be even (odd diagonal entry)")
        if self.det() == 0:
            raise InvalidLatticeError("Gram matrix must be nondegenerate")

    def det(self) -> int:
        (a, b), (c, e) = self.gram
        return a * e - b * c


def ns_gram(d: int, t: int) -> Lattice:
    """The rank-two lattice [[2d, t], [t, 0]] on the basis (H, F): H a
    polarisation-like class of square 2d, F the fibre class of an
    elliptic fibration of multisection index t >= 1."""
    _check_t(t, d=d)
    return Lattice(((2 * d, t), (t, 0)))


def dual_generators(d: int, t: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Dual basis (F*, H*) of (F, H) in ``ns_gram(d, t)``: F*.F = H*.H = 1,
    F*.H = H*.F = 0.

    In (H, F) coordinates: F* = (1/t) H - (2d/t^2) F and H* = (1/t) F.
    """
    ns_gram(d, t)  # refuses t < 1
    return (Fraction(1, t), Fraction(-2 * d, t * t)), (Fraction(0), Fraction(1, t))


def isotropic_rays(d: int, t: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Primitive integral vectors spanning the two isotropic rays of
    ``ns_gram(d, t)``.

    The first is F itself; the second is F' = (t H - d F) / gcd(d, t).
    """
    ns_gram(d, t)  # refuses t < 1
    m = gcd(d, t)
    return (Fraction(0), Fraction(1)), (Fraction(t, m), Fraction(-d, m))


def row_hnf(rows) -> list[list[int]]:
    """Hermite basis of the integer row span of ``rows``, pairs of ints:
    [[a, b], [0, h]], a, h > 0, 0 <= b < h; below rank two, the row with
    a = 0 or h = 0 is left out.  The form is unique, so it depends on the
    span alone.  Each row (x, y) is folded into a running basis (a, b),
    (0, h): Euclid on the first column leaves (a, b) and a row (0, y'),
    and h becomes gcd(h, y')."""
    a = b = h = 0
    for x, y in rows:
        while x:
            q = a // x
            a, b, x, y = x, y, a - q * x, b - q * y
        h = gcd(h, y)
    if a < 0:
        a, b = -a, -b
    basis = [[a, b % h if h else b]] if a else []
    if h:
        basis.append([0, h])
    return basis


def overlattice(t_lat: Lattice, subgroup_gens) -> Lattice:
    """Even overlattice T + <gens> determined by an isotropic subgroup of A_T.

    ``subgroup_gens`` are pairs of rationals in T's basis whose classes
    generate an isotropic subgroup H of the discriminant group; the result
    L satisfies det(L) * |H|^2 = det(T).  The generators are integer
    numerators n over one denominator den, each checked to be dual
    (G n = 0 mod den) and isotropic (n G n = 0 mod 2 den^2); H is then
    isotropic exactly when L pairs integrally on its Hermite basis
    (a, b) / den, (0, h) / den.  |H| = [L : T] = den^2 / (a h).
    """
    gens = [tuple(map(Fraction, g)) for g in subgroup_gens]
    den = lcm(*(c.denominator for g in gens for c in g))
    nums = [[c.numerator * (den // c.denominator) for c in g] for g in gens]
    (p, q), (_, s) = t_lat.gram
    for g, n in zip(gens, nums):
        if len(n) != 2:
            raise InvalidElementError("generator length does not match lattice rank")
        # G n = den (u, v) with u, v integers exactly when n / den is dual
        u, r = divmod(p * n[0] + q * n[1], den)
        v, r2 = divmod(q * n[0] + s * n[1], den)
        if r or r2:
            raise InvalidElementError(
                "generator does not lie in the dual lattice (non-integral pairing)"
            )
        # n G n / den^2 = (n0 u + n1 v) / den
        if (n[0] * u + n[1] * v) % (2 * den):
            raise InvalidSubgroupError(
                f"generator {tuple(map(str, g))} is not isotropic"
            )
    # the rows include den * I, so the Hermite basis always has full rank
    (a, b), (_, h) = row_hnf([(den, 0), (0, den), *nums])
    den2 = den * den
    g11, r11 = divmod(a * a * p + 2 * a * b * q + b * b * s, den2)
    g12, r12 = divmod(h * (a * q + b * s), den2)
    g22, r22 = divmod(h * h * s, den2)
    if r11 or r12 or r22:
        raise InvalidSubgroupError("overlattice pairing is not integral; subgroup invalid")
    result = Lattice(((g11, g12), (g12, g22)))
    # L = (1/den) span(basis) contains T = Z^2 with index |H|
    order = den2 // (a * h)
    if result.det() * order * order != t_lat.det():
        raise RuntimeError("overlattice determinant identity violated (internal)")
    return result


def _rank2_candidates(d: int, e: int, t: int) -> list[tuple[tuple[int, int], ...]]:
    """The rows of the isometries the pairing equations force, one per
    choice of the image of the fibre class among +-F and +-F'."""
    m = gcd(d, t)
    found = []
    for eps in (1, -1):
        # image of the fibre class is eps * F
        if (e - d) % t == 0:
            x, y = eps, eps * (e - d) // t
            found.append(((x, 0), (y, eps)))
        # image of the fibre class is eps * F' = eps * (t/m, -d/m)
        if e % m == 0 and (m * m - e * d) % (m * t) == 0:
            x = eps * e // m
            y = eps * (m * m - e * d) // (m * t)
            found.append(((x, eps * t // m), (y, -eps * d // m)))
    return found


def rank2_isometries(d: int, e: int, t: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All isometries from the (e, t) lattice onto the (d, t) lattice, as
    integer rows.

    Matrices are written in the (H, F) bases: column 0 is the image of the
    degree-2e class, column 1 the image of its fibre class.  An isometry
    must carry the fibre ray into one of the two isotropic rays {F, F'} up
    to sign; for each of those four choices the image of H is forced by
    the pairing equations, so the search space is finite and tiny.  Each
    distinct candidate P is checked, P^T Gram_d P = Gram_e, on plain
    integers: columns u, v pair to 2d u0 v0 + t (u0 v1 + u1 v0).
    """
    _check_t(t, d=d, e=e)
    out = []
    for rows in dict.fromkeys(_rank2_candidates(d, e, t)):
        # columns u = (u0, u1) and v = (v0, v1)
        (u0, v0), (u1, v1) = rows
        if (
            2 * d * u0 * u0 + 2 * t * u0 * u1 != 2 * e
            or 2 * d * u0 * v0 + t * (u0 * v1 + u1 * v0) != t
            or 2 * d * v0 * v0 + 2 * t * v0 * v1 != 0
        ):
            raise RuntimeError("isometry candidate failed Gram check (internal)")
        out.append(rows)
    return tuple(out)


def genus_representatives(d: int, t: int) -> tuple[int, ...]:
    """One e in [0, t) per isometry class in the genus of the (d, t) lattice.

    The genus is {d u^2 mod t : u a unit mod t}, walked as
    {m ((d/m) u^2 mod t/m) : u a unit mod t/m}, m = gcd(d, t): the same
    set, since d u^2 = m (d/m) u^2 and the units mod t reach every unit
    mod t/m, in phi(t/m) steps instead of phi(t).  Over Z_p the basis
    (uH, u^-1 F) of the (d, t) lattice has the Gram matrix of the
    (d u^2, t) one (add to u a multiple of t prime to p if p does not
    divide t), and H -> H + kF shows that only e mod t matters.  Conversely
    a p-adic isometry sends F to a unit times F or F'; the pairing
    equations give e = d w^2 mod the p-part of t in both cases, and CRT
    joins the primes.  For e, r in [0, t), an isometry with F -> +-F forces
    e = r, and one with F -> +-F' (rank2_isometries) needs e/m and r/m
    inverse mod t/m, m = gcd(d, t).  So a class is {e} or
    {e, m ((e/m)^-1 mod t/m)}, and its least member represents it.
    """
    _check_t(t, d=d)
    m = gcd(d, t)
    n = t // m
    reps = set()
    for e in {m * (d // m * u * u % n) for u in units_mod(n)}:
        if gcd(e // m, n) == 1:
            e = min(e, m * pow(e // m, -1, n))
        reps.add(e)
    return tuple(sorted(reps))
