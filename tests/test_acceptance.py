"""Acceptance gate: one test per shipped guarantee, each printing a
PASS line (run with -s to see them; -v gives pytest's own line per
criterion).

Every numeric claim is checked against an oracle built inside this file
from scratch: brute-force closures, hand-written group presentations,
exhaustive integer matrix searches and direct double-coset partitions.
The library under test only supplies the values being judged.
"""

import functools
import json
import time
from fractions import Fraction
from itertools import product
from math import gcd

from k3fm.cli import SWEEP_FIELDS, main
from k3fm.discforms import isometry_between, isometry_group, ns_form, structure_invariants
from k3fm.errors import InvalidParameterError
from k3fm.intmath import distinct_primes, totient, xgcd
from k3fm.lagrangians import (
    GSpec,
    LagrangianElement,
    canonical_pair,
    enumerate_lagrangian_elements,
    enumerate_lagrangian_subgroups,
    g_orbits,
    involution,
    subgroup_generated_by,
    units_action,
)
from k3fm.lattices import RationalVector, genus_representatives, ns_gram, overlattice
from k3fm.surfaces import (
    HTClass,
    MukaiVector,
    SurfaceModel,
    caldararu_class,
    de_counts,
    fm_count,
    ht_classify,
    jacobian_class_canonical,
    jacobian_compose,
    jacobian_index,
    jspecial_torsor_exists,
    o_lambda_image,
)

T_RANGE = range(1, 25)


def _cells():
    for t in T_RANGE:
        for d in range(t):
            yield d, t


def _report(num, label, start):
    print(f"[criterion {num:2d}] PASS {label} ({time.perf_counter() - start:.2f}s)")


# 1. element count phi(t) 2^omega(m), subgroup count 2^omega(m), with the
#    subgroups re-derived here by closing each element under addition.
def test_criterion_01_lagrangian_count_law():
    start = time.perf_counter()
    for d, t in _cells():
        omega = len(distinct_primes(gcd(d, t)))
        elems = enumerate_lagrangian_elements(d, t)
        assert len(elems) == totient(t) * 2**omega, (d, t)
        brute_subgroups = {
            frozenset((k * w.elem).coords for k in range(t)) for w in elems
        }
        assert len(brute_subgroups) == 2**omega, (d, t)
        listed = {
            frozenset(e.coords for e in L.elements())
            for L in enumerate_lagrangian_subgroups(d, t)
        }
        assert listed == brute_subgroups, (d, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, "Lagrangian count law on t <= 24", start)


# 2. SNF-derived group structure equals Z/a + Z/b with a = gcd(2d, t),
#    b = t^2/a.
def test_criterion_02_discriminant_structure():
    start = time.perf_counter()
    for d, t in _cells():
        a = gcd(2 * d, t)
        b = t * t // a
        assert structure_invariants(d, t) == (a, b)
        assert ns_form(d, t).form.orders == tuple(n for n in (a, b) if n > 1)
    _report(2, "discriminant group structure (a, b)", start)


def _p_part(L, p):
    pk = 1
    rest = L.t
    while rest % p == 0:
        pk *= p
        rest //= p
    cof = L.t // pk
    return frozenset(((cof * s) * L.generator).coords for s in range(pk))


def _coord_set(L):
    return frozenset(e.coords for e in L.elements())


# 3. iota is an involution, swaps the two canonical subgroups, and moves
#    the p-part exactly at the primes dividing m.
def test_criterion_03_involution_laws():
    start = time.perf_counter()
    for d, t in _cells():
        m = gcd(d, t)
        subs = enumerate_lagrangian_subgroups(d, t)
        vbar, vprime = canonical_pair(d, t)
        lv = subgroup_generated_by(d, t, vbar)
        lp = subgroup_generated_by(d, t, vprime)
        assert _coord_set(involution(d, t, lv)) == _coord_set(lp), (d, t)
        for L in subs:
            image = involution(d, t, L)
            assert _coord_set(involution(d, t, image)) == _coord_set(L), (d, t)
            for p in distinct_primes(t):
                fixed = _p_part(L, p) == _p_part(image, p)
                assert fixed == (m % p != 0), (d, t, p)
    _report(3, "involution laws (iota^2 = id, canonical swap, p-parts)", start)


def _all_subgroups_z_t_squared(t):
    """Every subgroup of (Z/t)^2, as frozensets of coordinate pairs."""
    pts = [(x, y) for x in range(t) for y in range(t)]
    subgroups = set()
    for g1 in pts:
        for g2 in pts:
            group = {(0, 0)}
            frontier = [(0, 0)]
            while frontier:
                x, y = frontier.pop()
                for gx, gy in (g1, g2):
                    nxt = ((x + gx) % t, (y + gy) % t)
                    if nxt not in group:
                        group.add(nxt)
                        frontier.append(nxt)
            subgroups.add(frozenset(group))
    return subgroups


def _u_witness(gram):
    """Explicit GL_2(Z) change of basis carrying ``gram`` to [[0,1],[1,0]]."""

    def q(x, y):
        return gram[0][0] * x * x + 2 * gram[0][1] * x * y + gram[1][1] * y * y

    def bl(v, w):
        return (
            gram[0][0] * v[0] * w[0]
            + gram[0][1] * (v[0] * w[1] + v[1] * w[0])
            + gram[1][1] * v[1] * w[1]
        )

    for ex in range(-40, 41):
        for ey in range(-40, 41):
            if (ex, ey) == (0, 0) or gcd(ex, ey) != 1 or q(ex, ey) != 0:
                continue
            e = (ex, ey)
            g, s, u = xgcd(bl(e, (1, 0)), bl(e, (0, 1)))
            if g != 1:
                continue
            f0 = (s, u)
            lam = q(*f0) // 2
            f = (f0[0] - lam * e[0], f0[1] - lam * e[1])
            det = e[0] * f[1] - e[1] * f[0]
            out = [
                [q(*e), bl(e, f)],
                [bl(e, f), q(*f)],
            ]
            if abs(det) == 1 and out == [[0, 1], [1, 0]]:
                return e, f
    return None


# 4. det(L) |H|^2 = det(T) for every isotropic subgroup of A_{0,t}, and
#    the hyperbolic case T = Lambda_{0,t}, H = <H/t> lands on U.
def test_criterion_04_overlattice_identity():
    start = time.perf_counter()
    for t in range(1, 13):
        lat = ns_gram(0, t).to_lattice()
        isotropic = [
            sub
            for sub in _all_subgroups_z_t_squared(t)
            # q((x, y)) = 2xy/t in Q/2Z vanishes iff t | xy
            if all(x * y % t == 0 for x, y in sub)
        ]
        assert isotropic, t
        for sub in isotropic:
            gens = [
                RationalVector((Fraction(x, t), Fraction(y, t))) for x, y in sub
            ]
            over = overlattice(lat, gens)
            assert over.det() * len(sub) ** 2 == lat.det(), (t, sorted(sub))
        u_case = overlattice(lat, [RationalVector((Fraction(1, t), Fraction(0)))])
        assert u_case.det() == -1
        witness = _u_witness([list(r) for r in u_case.gram.entries])
        assert witness is not None, t
    _report(4, "overlattice determinant identity and U recognition", start)


# 5. T-general orbit counts match 2^(omega-1) phi(t) and 2^omega.
def test_criterion_05_de_formulas():
    start = time.perf_counter()
    for d, t in _cells():
        if t <= 2:
            continue
        omega = len(distinct_primes(gcd(d, t)))
        de, orbits = de_counts(SurfaceModel.general(d, t))
        assert de == 2**omega * totient(t) // 2, (d, t)
        assert orbits == 2**omega, (d, t)
    _report(5, "derived-elliptic-structure formulas on 2 < t <= 24", start)


def _cyclic_groups(t_max):
    """Every cell with t <= t_max and every distinct cyclic image <sigma> in
    O(A_d) that GSpec accepts, with the least admissible abstract order,
    as (d, t, O(A_d), G)."""
    orders = [n for n in range(2, 801, 2) if 20 % totient(n) == 0]
    for t in range(1, t_max + 1):
        for d in range(t):
            own = isometry_group(ns_form(d, t).form)
            seen = set()
            for sigma in own:
                k = sigma.order()
                n = next((n for n in orders if n % k == 0), None)
                if n is None:
                    continue
                try:
                    g = GSpec(sigma, n)
                except InvalidParameterError:
                    continue
                image = frozenset(s.images for s in g.image_elements())
                if image not in seen:
                    seen.add(image)
                    yield d, t, own, g


def _cycles(points, step):
    """Orbits of a bijection of the finite set ``points``, each a sorted
    tuple, as a sorted list; every point must be moved into ``points``."""
    left, out = set(points), []
    while left:
        cycle, x = [], min(left)
        while x in left:
            left.remove(x)
            cycle.append(x)
            x = step(x)
        assert x == cycle[0]
        out.append(tuple(sorted(cycle)))
    return sorted(out)


# 5b. DE counts for every cyclic G that GSpec accepts, not only {+-1}: every
#     cell with t <= 16.  The isotropic elements of order t are listed here
#     by brute force over the generator presentation of A_d, and G's
#     generator is applied by this file's own arithmetic; the element
#     orbits must match the first DE count and g_orbits' partition, and the
#     orbits on the subgroups they generate must match the second count.
def test_criterion_05b_de_counts_every_cyclic_group():
    start = time.perf_counter()
    groups = not_sign = 0
    for d, t, _, g in _cyclic_groups(16):
        form = ns_form(d, t).form
        sign = {s.images for s in GSpec.sign_group(form).image_elements()}
        not_sign += {s.images for s in g.image_elements()} != sign
        n, q, b = form.orders, form.q_gen, form.b_matrix
        r = len(n)

        def order(c):
            out = 1
            for ci, ni in zip(c, n):
                k = ni // gcd(ni, ci)
                out = out * k // gcd(out, k)
            return out

        def isotropic(c):
            total = sum(c[i] * c[i] * q[i] for i in range(r))
            total += sum(2 * c[i] * c[j] * b[i][j] for i in range(r) for j in range(i + 1, r))
            return total % 2 == 0

        def sigma(c):
            return tuple(
                sum(ci * img[j] for ci, img in zip(c, g.generator.images)) % n[j]
                for j in range(r)
            )

        box = product(*(range(ni) for ni in n))
        lagrangian = [c for c in box if order(c) == t and isotropic(c)]
        orbits = _cycles(lagrangian, sigma)

        def span(c):
            return tuple(sorted({tuple(s * ci % ni for ci, ni in zip(c, n)) for s in range(t)}))

        def move_span(s):
            return tuple(sorted(sigma(c) for c in s))

        span_orbits = _cycles({span(c) for c in lagrangian}, move_span)
        b_group = frozenset({1 % t, (-1) % t}) if t > 1 else frozenset({0})
        model = SurfaceModel(d, t, g, b_group, b_group, t_general=False)
        assert de_counts(model) == (len(orbits), len(span_orbits)), (d, t)
        partition = g_orbits(enumerate_lagrangian_elements(d, t), g)
        assert [tuple(w.coords for w in o) for o in partition] == orbits, (d, t)
        groups += 1
    assert (groups, not_sign) == (151, 15)
    _report(5, "derived-elliptic-structure counts for every cyclic G, t <= 16", start)


# --- criterion 6 oracle: everything below is built from scratch ---------


def _brute_matrices(e, t, source=None):
    """Isometries of [[2s, t], [t, 0]] onto [[2e, t], [t, 0]] (s = ``source``,
    by default e) by exhaustive vector search, as the images (v, w) of H
    and F.  The box holds every solution for s, e in [0, t): an isotropic
    w is +-F or +-(t, -e)/gcd(e, t), and then v is (1, (s - e)/t) or has
    H-coordinate +-s/gcd(e, t) and F-coordinate at most e + 1 in size."""
    s = e if source is None else source
    bound = 2 * t + 2 * e + 3

    def sq(v):
        return 2 * e * v[0] * v[0] + 2 * t * v[0] * v[1]

    def pr(v, w):
        return 2 * e * v[0] * w[0] + t * (v[0] * w[1] + v[1] * w[0])

    box = [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)]
    ws = [w for w in box if sq(w) == 0]
    vs = [v for v in box if sq(v) == 2 * s]
    out = []
    for w in ws:
        for v in vs:
            if pr(v, w) == t and abs(v[0] * w[1] - v[1] * w[0]) == 1:
                out.append((v, w))
    return out


def _double_coset_partition(elements, left, right, mul):
    index = {x: i for i, x in enumerate(elements)}
    seen = [False] * len(elements)
    count = 0
    for i, x in enumerate(elements):
        if seen[i]:
            continue
        count += 1
        seen[i] = True
        stack = [x]
        while stack:
            y = stack.pop()
            for u in left:
                uy = mul(u, y)
                for v in right:
                    z = mul(uy, v)
                    j = index[z]
                    if not seen[j]:
                        seen[j] = True
                        stack.append(z)
    return count


def _oracle_fm_cyclic(d, t):
    """Partner count for gcd(2d, t) = 1: A = Z/t^2 generated by the class
    of (1/t) H - (2d/t^2) F, with q(k) = -2dk^2/t^2."""
    tt = t * t

    def o_a(e):
        return [
            u for u in range(1, tt) if gcd(u, t) == 1 and (u * u - 1) * e % tt == 0
        ]

    def disc_multiplier(e, v, w):
        # image of the generator under the column matrix (v, w)
        gen = (Fraction(1, t), Fraction(-2 * e, tt))
        img = (
            v[0] * gen[0] + w[0] * gen[1],
            v[1] * gen[0] + w[1] * gen[1],
        )
        for k in range(tt):
            if (img[0] - k * gen[0]) % 1 == 0 and (img[1] - k * gen[1]) % 1 == 0:
                return k
        raise AssertionError("lattice isometry image missed the group")

    # genus candidates: e with some unit u mapping q_e onto q_d
    members = [
        e
        for e in range(t)
        if gcd(2 * e, t) == 1
        and any(
            gcd(u, t) == 1 and (u * u * e - d) % tt == 0 for u in range(1, tt)
        )
    ]
    # split into lattice classes with the closed-form isometry criterion
    def isometric(e1, e2):
        return (e2 - e1) % t == 0 or (e1 * e2 - 1) % t == 0

    reps = []
    for e in members:
        if not any(isometric(r, e) for r in reps):
            reps.append(e)
    total = 0
    for e in reps:
        ambient = o_a(e)
        left = sorted({disc_multiplier(e, v, w) for v, w in _brute_matrices(e, t)})
        assert set(left) <= set(ambient)
        right = [1, tt - 1]
        total += _double_coset_partition(
            ambient, left, right, lambda a, b: a * b % tt
        )
    return total, reps


def _oracle_fm_05():
    """Partner count for (0, 5): A = (Z/5)^2 via H/5 and F/5, q = 2xy/5."""
    t = 5

    def q(x, y):
        return Fraction(2 * x * y, t) % 2

    def bl(p1, p2):
        return Fraction(p1[0] * p2[1] + p1[1] * p2[0], t) % 1

    mats = []
    for a in range(t):
        for c in range(t):
            if q(a, c) != 0:
                continue
            for b in range(t):
                for dd in range(t):
                    if q(b, dd) != 0 or (a * dd - c * b) % t == 0:
                        continue
                    if bl((a, c), (b, dd)) == Fraction(1, t):
                        mats.append(((a, b), (c, dd)))
    assert len(mats) == 8  # the full orthogonal group of this form

    def mul(p, r):
        return (
            (
                (p[0][0] * r[0][0] + p[0][1] * r[1][0]) % t,
                (p[0][0] * r[0][1] + p[0][1] * r[1][1]) % t,
            ),
            (
                (p[1][0] * r[0][0] + p[1][1] * r[1][0]) % t,
                (p[1][0] * r[0][1] + p[1][1] * r[1][1]) % t,
            ),
        )

    left = sorted(
        {
            ((v[0] % t, w[0] % t), (v[1] % t, w[1] % t))
            for v, w in _brute_matrices(0, t)
        }
    )
    right = [((1, 0), (0, 1)), ((t - 1, 0), (0, t - 1))]
    return _double_coset_partition(mats, left, right, mul)


# --- criterion 6c oracle: any (d, t), with A = Z^2 / G Z^2 ----------------


def _disc_element(e, t, x, y):
    """The class of (x, y) in A = Z^2 / G Z^2 for G = [[2e, t], [t, 0]].

    G^-1 (x, y) is the dual vector (y/t) H + ((tx - 2ey)/t^2) F, and L^*/L
    = G^-1 Z^2 / Z^2.  An element is stored as the two numerators over
    t^2 of that vector, each mod t^2.
    """
    tt = t * t
    return (y * t % tt, (x * t - 2 * e * y) % tt)


@functools.lru_cache(maxsize=None)
def _disc_group(e, t):
    """Every element of A_e, mapped to one (x, y) whose class it is."""
    coords = {}
    for x in range(t):  # (t, 0) and (0, t^2) lie in G Z^2
        for y in range(t * t):
            coords.setdefault(_disc_element(e, t, x, y), (x, y))
    assert len(coords) == t * t
    return coords


def _disc_q(e, t, u):
    """q(u) = u.u in L_e, as a numerator over t^4 mod 2 t^4."""
    return (2 * e * u[0] * u[0] + 2 * t * u[0] * u[1]) % (2 * t**4)


def _disc_b(e, t, u, w):
    """b(u, w) = u.w in L_e, as a numerator over t^4 mod t^4."""
    return (2 * e * u[0] * w[0] + t * (u[0] * w[1] + u[1] * w[0])) % t**4


def _comb(t, x, u, y, w):
    """x u + y w, numerators reduced mod t^2."""
    tt = t * t
    return ((x * u[0] + y * w[0]) % tt, (x * u[1] + y * w[1]) % tt)


def _disc_apply(e, t, f, u):
    """f(u) for u in A_e, f given by the images of the two generators."""
    x, y = _disc_group(e, t)[u]
    return _comb(t, x, f[0], y, f[1])


@functools.lru_cache(maxsize=None)
def _brute_disc_isometries(src, dst, t, first_only=False):
    """Every q-preserving isomorphism A_src -> A_dst, as the images
    (h1, h2) of the classes of (1, 0) and (0, 1).

    A pair is a homomorphism when it kills the relations of Z^2 / G Z^2,
    the columns (2 src, t) and (t, 0) of G.  It is onto, hence bijective,
    when x h1 + y h2 covers A_dst, and it preserves q on all of A_src when
    it preserves q on both generators and their pairing.
    """
    tt = t * t
    g1, g2 = _disc_element(src, t, 1, 0), _disc_element(src, t, 0, 1)
    want = (_disc_q(src, t, g1), _disc_q(src, t, g2), _disc_b(src, t, g1, g2))
    targets = sorted(_disc_group(dst, t))
    out = []
    for h1 in targets:
        if _disc_q(dst, t, h1) != want[0] or _comb(t, t, h1, 0, h1) != (0, 0):
            continue
        for h2 in targets:
            if (
                _disc_q(dst, t, h2) != want[1]
                or _disc_b(dst, t, h1, h2) != want[2]
                or _comb(t, 2 * src, h1, t, h2) != (0, 0)
            ):
                continue
            image = {_comb(t, x, h1, y, h2) for x in range(t) for y in range(tt)}
            if len(image) == tt:
                out.append((h1, h2))
                if first_only:
                    return tuple(out)
    return tuple(out)


def _oracle_fm(d, t):
    """Partner count for any d in [0, t): the genus is every e whose A_e
    is isometric to A_d (all share signature (1, 1)), split into lattice
    classes by exhaustive isometry search, and each class L_e adds the
    double cosets O(L_e) \\ O(A_e) / {+-1}."""
    members = [e for e in range(t) if _brute_disc_isometries(e, d, t, True)]
    reps = []
    for e in members:
        if not any(_brute_matrices(r, t, e) for r in reps):
            reps.append(e)
    total = 0
    for e in reps:
        g1, g2 = _disc_element(e, t, 1, 0), _disc_element(e, t, 0, 1)

        def mul(f, g, e=e):  # f after g
            return tuple(_disc_apply(e, t, f, u) for u in g)

        ambient = _brute_disc_isometries(e, e, t)
        # a lattice isometry (H, F) -> (v, w) moves a dual vector a H + b F
        # to a v + b w
        left = sorted(
            {(_comb(t, g1[0], v, g1[1], w), _comb(t, g2[0], v, g2[1], w))
             for v, w in _brute_matrices(e, t)}
        )
        assert set(left) <= set(ambient), (d, t, e)
        right = [(g1, g2), (_comb(t, -1, g1, 0, g1), _comb(t, -1, g2, 0, g2))]
        total += _double_coset_partition(ambient, left, right, mul)
    return total, reps


# 6. fm counts for sections and for the two worked t = 5 members, against
#    the from-scratch double-coset oracle.
def test_criterion_06_fm_counting():
    start = time.perf_counter()
    for d in range(9):
        assert fm_count(d, 1, GSpec.sign_group(ns_form(d, 1).form)) == 1, d
    oracle_15, reps_15 = _oracle_fm_cyclic(1, 5)
    assert reps_15 == [1, 4]
    assert oracle_15 == 2
    assert fm_count(1, 5, GSpec.sign_group(ns_form(1, 5).form)) == oracle_15
    oracle_05 = _oracle_fm_05()
    assert oracle_05 == 2
    assert fm_count(0, 5, GSpec.sign_group(ns_form(0, 5).form)) == oracle_05
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(6, "Fourier-Mukai counts vs brute double-coset oracle", start)


# 6b. fm counts on the cyclic-group grid: every odd t in 3..19 and every d
#     with gcd(2d, t) = 1, against the same from-scratch oracle.  Most of
#     these cells have genus members whose form differs from their own.
def test_criterion_06b_fm_counting_cyclic_grid():
    start = time.perf_counter()
    cells = [
        (d, t) for t in range(3, 20, 2) for d in range(t) if gcd(2 * d, t) == 1
    ]
    assert len(cells) == 82
    for d, t in cells:
        oracle, _ = _oracle_fm_cyclic(d, t)
        assert fm_count(d, t, GSpec.sign_group(ns_form(d, t).form)) == oracle, (d, t)
    _report(6, "Fourier-Mukai counts on the gcd(2d, t) = 1 grid, t <= 19", start)


# 6c. fm counts where A is not cyclic: every cell with 2 <= t <= 12 and
#     gcd(2d, t) > 1, against the oracle on Z^2 / G Z^2.  That oracle needs
#     no cyclic generator; it first has to agree with the hand-written
#     (0, 5) oracle and with the cyclic one on cyclic cells.
def test_criterion_06c_fm_counting_noncyclic_grid():
    start = time.perf_counter()
    assert _oracle_fm(0, 5)[0] == _oracle_fm_05()
    for d, t in ((1, 5), (2, 7), (4, 9)):
        assert _oracle_fm(d, t) == _oracle_fm_cyclic(d, t), (d, t)
    cells = [
        (d, t) for t in range(2, 13) for d in range(t) if gcd(2 * d, t) > 1
    ]
    assert len(cells) == 49
    above_one = 0
    for d, t in cells:
        oracle, _ = _oracle_fm(d, t)
        assert fm_count(d, t, GSpec.sign_group(ns_form(d, t).form)) == oracle, (d, t)
        above_one += oracle > 1
    assert above_one == 31
    _report(6, "Fourier-Mukai counts on the gcd(2d, t) > 1 grid, t <= 12", start)


# 6d. fm counts for every cyclic G that GSpec accepts, not only {+-1}:
#     every cell with t <= 20 and every distinct image <sigma> in O(A_d),
#     with the least admissible abstract order.  The group data (O(A_d),
#     the genus, phi, the O(L) images) come from the library; the double
#     cosets are split by this file's own partition, with the right action
#     given by every element of G rather than by its generator.
def test_criterion_06d_fm_counting_every_cyclic_group():
    start = time.perf_counter()
    groups = not_sign = larger = 0
    for d, t, own, g in _cyclic_groups(20):
        form = ns_form(d, t).form
        sign = {s.images for s in GSpec.sign_group(form).image_elements()}
        right = g.image_elements()
        image = {s.images for s in right}
        groups += 1
        not_sign += image != sign
        larger += len(image) > 2
        oracle = 0
        for e in genus_representatives(d, t):
            phi = isometry_between(form, ns_form(e, t).form)
            ambient = [phi.compose(x) for x in own]
            oracle += _double_coset_partition(
                ambient, o_lambda_image(e, t), right, lambda a, b: a.compose(b)
            )
        assert fm_count(d, t, g) == oracle, (d, t, len(image))
    assert (groups, not_sign, larger) == (234, 24, 23)
    _report(6, "Fourier-Mukai counts for every cyclic G, t <= 20", start)


# 7. Jacobian calculus laws over k in [0, 4t).
def test_criterion_07_jacobian_calculus():
    start = time.perf_counter()
    for t in T_RANGE:
        for k in range(0, 4 * t):
            assert jacobian_index(t, k) == t // gcd(t, k)
            assert jacobian_class_canonical(k + t, t) == jacobian_class_canonical(k, t)
            assert jacobian_class_canonical(-k, t) == jacobian_class_canonical(k, t)
        for k in range(0, 2 * t, max(1, t // 3)):
            for ell in range(0, 2 * t, max(1, t // 3)):
                assert jacobian_compose(k, ell, t) == jacobian_compose(ell, k, t)
                for n in (0, 1, 7):
                    left = jacobian_compose(jacobian_compose(k, ell, t), n, t)
                    right = jacobian_compose(k, jacobian_compose(ell, n, t), t)
                    assert left == right
    _report(7, "Jacobian index, composition and canonical classes", start)


# 8. torsor existence over the two isotrivial types for odd p < 100.
def test_criterion_08_jspecial_truth_table():
    start = time.perf_counter()
    odd_primes = [
        p
        for p in range(3, 100)
        if all(p % q for q in range(2, p))
    ]
    assert len(odd_primes) == 24
    for p in odd_primes:
        assert jspecial_torsor_exists(p, 4) == (p % 4 == 1), p
        assert jspecial_torsor_exists(p, 6) == (p % 3 == 1), p
    _report(8, "j-special torsor truth table for odd p < 100", start)


# 9. the obstruction class of the fibre Mukai vector, relabelled by the
#    unit -d^{-1}, lands on the second fibration's class up to sign.
def test_criterion_09_two_fibration_coherence():
    start = time.perf_counter()
    fibre = MukaiVector(0, (0, 1), 0)
    checked = 0
    for d, t in _cells():
        if gcd(d, t) != 1 or (d + 1) % t == 0:
            continue
        nf = ns_form(d, t)
        w = LagrangianElement(caldararu_class(d, t, fibre))
        moved = units_action(-pow(d, -1, t), w)
        assert moved.elem in (nf.vprime, -nf.vprime), (d, t)
        checked += 1
    assert checked > 50
    _report(9, "two-fibration coherence of Caldararu classes", start)


# 10. classifier decision table, with the omega = 7 case timed.
def test_criterion_10_ht_decision_table():
    start = time.perf_counter()
    assert ht_classify(1, 5, True) == HTClass.SingleFibrationCovers
    assert ht_classify(5, 25, True) == HTClass.TwoFibrationsCover
    assert ht_classify(6, 6, True) == HTClass.NonJacobianPartnersExist
    assert ht_classify(6, 6, False) == HTClass.Inconclusive
    big = 510510  # 2*3*5*7*11*13*17, omega = 7
    tick = time.perf_counter()
    assert ht_classify(big, big, False) == HTClass.NonJacobianPartnersExist
    assert len(enumerate_lagrangian_subgroups(big, big)) == 128
    assert time.perf_counter() - tick < 1.0
    _report(10, "partner-location decision table incl. t = 510510", start)


# 11. CLI goldens for the three documented examples, plus sweep/single
#     agreement on random cells and the 52-row verified sweep.
def test_criterion_11_cli_goldens_and_sweep(capsys):
    import random

    start = time.perf_counter()
    examples = [
        (["lagr", "--d", "0", "--t", "5", "--count"], "elements=8 subgroups=2\n"),
        (["ht", "--d", "6", "--t", "6", "--t-general"], "NonJacobianPartnersExist\n"),
        (["jac", "--t", "6", "--k", "4", "--index"], "3\n"),
    ]
    json_examples = [
        (
            ["lagr", "--d", "0", "--t", "5", "--count", "--json"],
            '{"d":0,"elements":8,"m":5,"omega_m":1,"subgroups":2,"t":5}\n',
        ),
        (
            ["ht", "--d", "6", "--t", "6", "--t-general", "--json"],
            '{"d":6,"ht_class":"NonJacobianPartnersExist","m":6,"omega_m":2,'
            '"t":6,"t_general":true}\n',
        ),
        (["jac", "--t", "6", "--k", "4", "--index", "--json"], '{"index":3,"k":4,"t":6}\n'),
    ]
    for argv, expected in examples + json_examples:
        assert main(argv) == 0
        assert capsys.readouterr().out == expected, argv

    assert main(["sweep", "--t-min", "3", "--t-max", "10", "--verify"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip("\n").split("\n")) == 1 + 52  # header + 52 cells

    assert main(["sweep", "--t-min", "5", "--t-max", "4"]) == 0
    assert capsys.readouterr().out == " ".join(SWEEP_FIELDS) + "\n"

    rng = random.Random(1105)
    cells = set()
    while len(cells) < 20:
        t = rng.randrange(3, 15)
        cells.add((rng.randrange(0, t), t))
    for d, t in sorted(cells, key=lambda c: (c[1], c[0])):
        assert main(
            ["sweep", "--t-min", str(t), "--t-max", str(t), "--d-min", str(d),
             "--d-max", str(d), "--json"]
        ) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert main(["lagr", "--d", str(d), "--t", str(t), "--json"]) == 0
        lagr = json.loads(capsys.readouterr().out)
        assert main(["ht", "--d", str(d), "--t", str(t), "--t-general", "--json"]) == 0
        ht = json.loads(capsys.readouterr().out)
        assert main(["de", "--d", str(d), "--t", str(t), "--json"]) == 0
        de = json.loads(capsys.readouterr().out)
        assert main(["fm", "--d", str(d), "--t", str(t), "--json"]) == 0
        fm = json.loads(capsys.readouterr().out)
        assert row["lagr_elements"] == lagr["elements"]
        assert row["lagr_subgroups"] == lagr["subgroups"]
        assert row["m"] == lagr["m"] and row["omega_m"] == lagr["omega_m"]
        assert row["ht_class"] == ht["ht_class"]
        assert row["de"] == de["de"] and row["de_orbits"] == de["de_orbits"]
        assert row["fm"] == fm["fm"]
    _report(11, "CLI goldens, verified sweep, sweep/single agreement", start)
