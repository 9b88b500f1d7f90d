"""Even integer lattices, with the rank-two family [[2d, t], [t, 0]] as the
main citizen.

A lattice is stored as a Gram matrix over a fixed basis.  All arithmetic is
exact: integer matrices use Python ints, dual vectors use Fractions.  The
Smith normal form here returns both transformation matrices and pivots on
the smallest nonzero entry in absolute value, so its output is
deterministic and safe to pin in tests.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import (
    InvalidElementError,
    InvalidLatticeError,
    InvalidParameterError,
    InvalidSubgroupError,
)
from .intmath import lcm, units_mod


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square integer matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise InvalidParameterError("matrix must be square")
            for x in row:
                if not isinstance(x, int):
                    raise InvalidParameterError("matrix entries must be ints")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        n = self.dim
        a, b = self.entries, other.entries
        return IntMatrix(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def is_symmetric(self) -> bool:
        return self.entries == self.transpose().entries

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        n = self.dim
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def smith_normal_form(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U @ mat @ V = D.

    D is diagonal with nonnegative entries and d1 | d2 | ...; U and V are
    unimodular.  The pivot at each stage is the smallest nonzero entry in
    absolute value of the remaining block, which fixes the reduction path.
    """
    n = mat.dim
    a = [list(row) for row in mat.entries]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        for j in range(n):
            a[dst][j] += c * a[src][j]
            u[dst][j] += c * u[src][j]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    for k in range(n):
        while True:
            # smallest |nonzero| entry of the trailing block becomes the pivot
            piv = None
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    x = a[i][j]
                    if x and (best is None or abs(x) < best):
                        best = abs(x)
                        piv = (i, j)
            if piv is None:
                break  # trailing block is zero
            if piv != (k, k):
                if piv[0] != k:
                    swap_rows(k, piv[0])
                if piv[1] != k:
                    swap_cols(k, piv[1])
            p = a[k][k]
            dirty = False
            for i in range(k + 1, n):
                q = a[i][k] // p
                if q:
                    add_row(i, k, -q)
                if a[i][k]:
                    dirty = True
            for j in range(k + 1, n):
                q = a[k][j] // p
                if q:
                    add_col(j, k, -q)
                if a[k][j]:
                    dirty = True
            if dirty:
                continue
            # divisibility: fold in any entry the pivot does not divide yet
            witness = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if a[i][j] % p:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            add_row(k, witness, 1)
        if a[k][k] < 0:
            for j in range(n):
                a[k][j] = -a[k][j]
                u[k][j] = -u[k][j]

    return IntMatrix.from_rows(a), IntMatrix.from_rows(u), IntMatrix.from_rows(v)


@dataclass(frozen=True)
class RationalVector:
    """Vector with Fraction coordinates, written in some lattice basis."""

    coords: tuple[Fraction, ...]

    @classmethod
    def make(cls, values) -> "RationalVector":
        return cls(tuple(Fraction(x) for x in values))

    def __add__(self, other: "RationalVector") -> "RationalVector":
        return RationalVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        return RationalVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "RationalVector":
        return RationalVector(tuple(-a for a in self.coords))

    def __rmul__(self, c) -> "RationalVector":
        c = Fraction(c)
        return RationalVector(tuple(c * a for a in self.coords))

    def pair(self, gram: IntMatrix, other: "RationalVector") -> Fraction:
        """Bilinear pairing self . other with respect to gram."""
        g = gram.entries
        total = Fraction(0)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b and g[i][j]:
                    total += a * g[i][j] * b
        return total

    def square(self, gram: IntMatrix) -> Fraction:
        return self.pair(gram, self)


@dataclass(frozen=True)
class Lattice:
    """Even nondegenerate lattice given by its Gram matrix."""

    gram: IntMatrix
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        n = self.gram.dim
        if not self.gram.is_symmetric():
            raise InvalidLatticeError("Gram matrix must be symmetric")
        for i in range(n):
            if self.gram.entries[i][i] % 2:
                raise InvalidLatticeError("lattice must be even (odd diagonal entry)")
        if self.gram.det() == 0:
            raise InvalidLatticeError("Gram matrix must be nondegenerate")
        if not self.basis_labels:
            object.__setattr__(
                self, "basis_labels", tuple(f"e{i+1}" for i in range(n))
            )
        elif len(self.basis_labels) != n:
            raise InvalidLatticeError("one basis label per basis vector required")

    @property
    def rank(self) -> int:
        return self.gram.dim

    def det(self) -> int:
        return self.gram.det()

    def in_dual(self, vec: RationalVector) -> bool:
        """Whether vec (coords in this basis) pairs integrally with the lattice."""
        if len(vec.coords) != self.rank:
            raise InvalidElementError("coordinate length does not match rank")
        g = self.gram.entries
        for i in range(self.rank):
            s = sum(g[i][j] * vec.coords[j] for j in range(self.rank))
            if s.denominator != 1:
                return False
        return True


@dataclass(frozen=True)
class NSLattice:
    """The rank-two even lattice with Gram [[2d, t], [t, 0]] on basis (H, F).

    H is a polarisation-like class of square 2d, F the fibre class of an
    elliptic fibration of multisection index t; every formula downstream
    is exact in (d, t).
    """

    d: int
    t: int
    gram: IntMatrix = field(init=False)

    def __post_init__(self):
        if self.t < 1:
            raise InvalidParameterError(f"t must be a positive integer, got {self.t}")
        object.__setattr__(
            self, "gram", IntMatrix.from_rows(((2 * self.d, self.t), (self.t, 0)))
        )

    @property
    def m(self) -> int:
        return gcd(self.d, self.t)

    def det(self) -> int:
        return -self.t * self.t

    def to_lattice(self) -> Lattice:
        return Lattice(self.gram, ("H", "F"))


def ns_gram(d: int, t: int) -> NSLattice:
    """The rank-two lattice attached to degree 2d and multisection index t."""
    return NSLattice(d, t)


def dual_generators(ns: NSLattice) -> tuple[RationalVector, RationalVector]:
    """Dual basis (F*, H*) of (F, H): F*.F = H*.H = 1, F*.H = H*.F = 0.

    In (H, F) coordinates: F* = (1/t) H - (2d/t^2) F and H* = (1/t) F.
    """
    t, d = ns.t, ns.d
    fstar = RationalVector((Fraction(1, t), Fraction(-2 * d, t * t)))
    hstar = RationalVector((Fraction(0), Fraction(1, t)))
    return fstar, hstar


def isotropic_rays(ns: NSLattice) -> tuple[RationalVector, RationalVector]:
    """Primitive integral vectors spanning the two isotropic rays.

    The first is F itself; the second is F' = (t H - d F) / gcd(d, t).
    """
    m = ns.m
    f = RationalVector((Fraction(0), Fraction(1)))
    fprime = RationalVector((Fraction(ns.t, m), Fraction(-ns.d, m)))
    return f, fprime


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


def _close_classes(lattice: Lattice, gens: list[RationalVector]) -> list[RationalVector]:
    """Finite subgroup of L*/L generated by the given dual vectors.

    Representatives have coordinates reduced into [0, 1)."""

    def reduce(vec: RationalVector) -> tuple[Fraction, ...]:
        return tuple(c - (c // 1) for c in vec.coords)

    zero = tuple(Fraction(0) for _ in range(lattice.rank))
    seen = {zero}
    frontier = [zero]
    gen_coords = [reduce(g) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gen_coords:
            y = tuple((a + b) % 1 for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return [RationalVector(c) for c in sorted(seen)]


def overlattice(t_lat: Lattice, subgroup_gens) -> Lattice:
    """Even overlattice T + <gens> determined by an isotropic subgroup of A_T.

    ``subgroup_gens`` are rational vectors in T's basis whose classes
    generate an isotropic subgroup H of the discriminant group; the result
    L satisfies det(L) * |H|^2 = det(T).
    """
    gens = [
        g if isinstance(g, RationalVector) else RationalVector.make(g)
        for g in subgroup_gens
    ]
    for g in gens:
        if len(g.coords) != t_lat.rank:
            raise InvalidElementError("generator length does not match lattice rank")
        if not t_lat.in_dual(g):
            raise InvalidElementError(
                "generator does not lie in the dual lattice (non-integral pairing)"
            )
        if g.square(t_lat.gram) % 2 != 0:
            raise InvalidSubgroupError(
                f"generator {tuple(map(str, g.coords))} is not isotropic"
            )
    classes = _close_classes(t_lat, gens)
    for x in classes:
        if x.square(t_lat.gram) % 2 != 0:
            raise InvalidSubgroupError(
                "subgroup closure is not isotropic (pairing obstruction)"
            )
    order = len(classes)

    den = 1
    for g in gens:
        for c in g.coords:
            den = lcm(den, c.denominator)
    rows = [[den if j == i else 0 for j in range(t_lat.rank)] for i in range(t_lat.rank)]
    rows += [[int(c * den) for c in g.coords] for g in gens]
    basis_rows = row_hnf(rows, t_lat.rank)
    if len(basis_rows) != t_lat.rank:
        raise InvalidSubgroupError("overlattice basis is not full rank")
    basis = [RationalVector(tuple(Fraction(x, den) for x in row)) for row in basis_rows]

    entries = []
    for x in basis:
        row = []
        for y in basis:
            val = x.pair(t_lat.gram, y)
            if val.denominator != 1:
                raise InvalidSubgroupError(
                    "overlattice pairing is not integral; subgroup invalid"
                )
            row.append(int(val))
        entries.append(row)
    result = Lattice(IntMatrix.from_rows(entries))
    if result.det() * order * order != t_lat.det():
        raise RuntimeError("overlattice determinant identity violated (internal)")
    return result


def rank2_isometries(d: int, e: int, t: int) -> tuple[IntMatrix, ...]:
    """All isometries from the (e, t) lattice onto the (d, t) lattice.

    Matrices are written in the (H, F) bases: column 0 is the image of the
    degree-2e class, column 1 the image of its fibre class.  An isometry
    must carry the fibre ray into one of the two isotropic rays {F, F'} up
    to sign; for each of those four choices the image of H is forced by
    the pairing equations, so the search space is finite and tiny.
    """
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    src = ns_gram(e, t)
    dst = ns_gram(d, t)
    m = dst.m
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
    out = []
    for rows in found:
        p = IntMatrix.from_rows(rows)
        if (p.transpose() @ dst.gram @ p).entries != src.gram.entries:
            raise RuntimeError("isometry candidate failed Gram check (internal)")
        out.append(p)
    return tuple(dict.fromkeys(out))


def is_isometric_rank2(d: int, e: int, t: int) -> bool:
    """Whether the (d, t) and (e, t) lattices are isometric."""
    return bool(rank2_isometries(d, e, t))


def genus_representatives(d: int, t: int) -> tuple[int, ...]:
    """One e in [0, t) per isometry class in the genus of the (d, t) lattice.

    The genus is {d u^2 mod t : u a unit mod t}.  Over Z_p the basis
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
    if t < 1:
        raise InvalidParameterError(f"t must be a positive integer, got {t}")
    m = gcd(d, t)
    reps = set()
    for e in {d * u * u % t for u in units_mod(t)}:
        if gcd(e // m, t // m) == 1:
            e = min(e, m * pow(e // m, -1, t // m))
        reps.add(e)
    return tuple(sorted(reps))
