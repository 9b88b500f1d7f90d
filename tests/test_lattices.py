import ast
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

import lattice_oracle
import pytest
from hypothesis import given, settings, strategies as st
from snf_oracle import det, matmul, smith_normal_form

import k3fm
from k3fm import lattices
from k3fm.discforms import isometry_between, ns_form
from k3fm.intmath import units_mod
from k3fm.errors import (
    InvalidElementError,
    InvalidLatticeError,
    InvalidParameterError,
    InvalidSubgroupError,
    OutOfScopeError,
)
from k3fm.lattices import (
    Lattice,
    dual_generators,
    genus_representatives,
    isotropic_rays,
    ns_gram,
    overlattice,
    rank2_isometries,
    row_hnf,
)

U_GRAM = ((0, 1), (1, 0))


def test_lattice_det():
    assert Lattice([[2, 5], [5, 0]]).det() == -25
    assert Lattice(((2, 1), (1, 2))).det() == 3
    # the closed form against cofactor expansion
    for rows in ([[4, -4], [-4, 8]], [[0, 6], [6, 0]], [[4, 2], [2, 8]]):
        assert Lattice(rows).det() == det(rows)


def test_lattice_refuses_rank_other_than_two(monkeypatch):
    # rank two is checked once, where the lattice is built; the budget
    # plays no part
    three = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    for value in (None, "1", "0"):
        if value is None:
            monkeypatch.delenv("K3FM_BUDGET", raising=False)
        else:
            monkeypatch.setenv("K3FM_BUDGET", value)
        for rows in (three, [[2]], [], [[2, 0], [0]], [[2, 0, 0], [0, 2, 0]]):
            with pytest.raises(OutOfScopeError, match="rank 2"):
                Lattice(rows)


def test_lattice_checks_its_gram_rows():
    # an entry is never truncated: 5/2 and 2.7 are refused, not read as 2
    for rows in (
        [[Fraction(5, 2), 1], [1, 0]],
        [[2.7, 1], [1, 0]],
        [[2.0, 1], [1, 0]],
        [["2", 1], [1, 0]],
        [[2, 1], 1],
        None,
    ):
        with pytest.raises(InvalidParameterError, match="integers"):
            Lattice(rows)
    # integral types that operator.index accepts are taken as ints
    lat = Lattice([[2, True], [True, 0]])
    assert lat.gram == ((2, 1), (1, 0)) and lat == ns_gram(1, 1)
    assert {type(x) for row in lat.gram for x in row} == {int}
    for rows, message in (
        ([[2, 1], [0, 2]], "Gram matrix must be symmetric"),
        ([[2, 3], [-3, 0]], "Gram matrix must be symmetric"),
        ([[1, 0], [0, 2]], "lattice must be even (odd diagonal entry)"),
        ([[2, 1], [1, 3]], "lattice must be even (odd diagonal entry)"),
        ([[2, 2], [2, 2]], "Gram matrix must be nondegenerate"),
        ([[0, 0], [0, 4]], "Gram matrix must be nondegenerate"),
    ):
        with pytest.raises(InvalidLatticeError) as exc:
            Lattice(rows)
        assert str(exc.value) == message, rows


def test_snf_family_gram():
    # gcd(2d, t) and t^2/gcd structure the diagonal
    gram = ((6, 4), (4, 0))
    d_mat, u, v = smith_normal_form(gram)
    assert matmul(u, gram, v) == d_mat
    assert [d_mat[i][i] for i in range(2)] == [2, 8]
    diag, u_rows, v_rows = lattices._snf2(*gram[0], *gram[1])
    assert (diag, u_rows, v_rows) == ((2, 8), u, v)


def test_snf_known_3x3():
    mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d_mat, u, v = smith_normal_form(mat)
    assert matmul(u, mat, v) == d_mat
    diag = [d_mat[i][i] for i in range(3)]
    assert diag == [2, 2, 156]
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def _generic_snf2(a, b, c, e):
    d_mat, u, v = smith_normal_form([[a, b], [c, e]])
    return (d_mat[0][0], d_mat[1][1]), u, v


def test_snf2_equals_the_generic_routine_on_family_grams():
    # from_lattice takes _snf2; its transforms fix every printed
    # coordinate, so D, U and V must all be the generic routine's
    for t in range(1, 201):
        for d in range(-t, 2 * t):
            assert lattices._snf2(2 * d, t, t, 0) == _generic_snf2(2 * d, t, t, 0), (d, t)


@settings(max_examples=300)
@given(st.lists(st.integers(-40, 40), min_size=4, max_size=4))
def test_snf2_equals_the_generic_routine(entries):
    # any 2x2 integer matrix, singular ones included
    assert lattices._snf2(*entries) == _generic_snf2(*entries)


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_snf_properties(rows):
    d_mat, u, v = smith_normal_form(rows)
    assert matmul(u, rows, v) == d_mat
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert all(d_mat[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    diag = [d_mat[i][i] for i in range(3)]
    assert all(x >= 0 for x in diag)
    for i in range(2):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0


def test_row_hnf_echelon():
    basis = row_hnf([[2, 4], [3, 5]])
    assert basis == [[1, 1], [0, 2]]
    # span is preserved: adding spanned rows changes nothing
    assert row_hnf([[2, 4], [3, 5], [1, 1], [0, 2]]) == basis


def _random_rows(rng):
    """A seeded set of 0-5 integer rows, rank-deficient about a third of
    the time: multiples of one row, first or second column zero."""
    shape = rng.randrange(6)
    size = rng.randrange(6)
    bound = rng.choice((3, 30, 10**6))
    x0, y0 = rng.randint(-bound, bound), rng.randint(-bound, bound)
    rows = []
    for _ in range(size):
        x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if shape == 0:
            x, y = x0 * (x % 7 - 3), y0 * (x % 7 - 3)
        elif shape == 1:
            x = 0
        elif shape == 2:
            y = 0
        rows.append([x, y])
    return rows


def test_row_hnf_equals_the_generic_routine():
    rng = random.Random(2024)
    ranks = [0, 0, 0]
    for _ in range(12000):
        rows = _random_rows(rng)
        got = row_hnf(rows)
        assert got == lattice_oracle.row_hnf(rows, 2), rows
        ranks[len(got)] += 1
    assert row_hnf([]) == [] and min(ranks) > 1000, ranks


def _random_generators(rng, t):
    """0-3 rational vectors, most of them outside the dual lattice, some
    of them dual but not isotropic."""
    dens = (1, 2, t, 2 * t, t * t, rng.randint(1, 3 * t))
    return [
        tuple(Fraction(rng.randint(-2 * t, 2 * t), rng.choice(dens)) for _ in range(2))
        for _ in range(rng.randrange(4))
    ]


def _outcome(route, lat, gens):
    try:
        return route(lat, gens).gram
    except (InvalidElementError, InvalidSubgroupError) as exc:
        return type(exc), str(exc)


def test_overlattice_equals_the_fraction_route():
    # each (d, t) with t <= 24: seeded pairs of lifts of isotropic classes,
    # shifted by lattice vectors, and seeded random rational generators
    rng = random.Random(28)
    kinds = Counter()
    for t in range(1, 25):
        for d in range(-t, 2 * t):
            lat = ns_gram(d, t)
            nf = ns_form(d, t)
            isotropic = [e for e in nf.form.elements() if e.is_isotropic()]
            lifts = [
                tuple(c + rng.randint(-2, 2)
                      for c in lattice_oracle.lift(nf, rng.choice(isotropic)))
                for _ in range(16)
            ]
            cases = [lifts[i:i + 2] for i in range(0, 16, 2)]
            cases += [_random_generators(rng, t) for _ in range(6)]
            for gens in cases:
                got = _outcome(overlattice, lat, gens)
                assert got == _outcome(lattice_oracle.overlattice, lat, gens), (d, t, gens)
                if isinstance(got[0], tuple):
                    kinds["gram"] += 1
                else:
                    kinds["isotropic" if "isotropic" in got[1] else got[1]] += 1
    # every outcome is reached: a Gram and the three refusals
    assert sum(kinds.values()) == 900 * 14, kinds
    assert len(kinds) == 4 and min(kinds.values()) > 50, kinds


def test_lattice_validation():
    with pytest.raises(InvalidLatticeError):
        Lattice([[1, 0], [0, 2]])  # odd diagonal
    with pytest.raises(InvalidLatticeError):
        Lattice([[2, 1], [0, 2]])  # not symmetric
    with pytest.raises(InvalidLatticeError):
        Lattice([[2, 2], [2, 2]])  # degenerate
    for family in (ns_gram, dual_generators, isotropic_rays):
        with pytest.raises(InvalidParameterError):
            family(0, 0)


def test_family_lattice_basics():
    ns = ns_gram(3, 4)
    assert ns.gram == ((6, 4), (4, 0))
    assert ns.det() == -16
    fstar, hstar = dual_generators(3, 4)
    gram = ns.gram
    # dual pairings: fstar.F = 1, fstar.H = 0, hstar.H = 1, hstar.F = 0
    f, h = (0, 1), (1, 0)
    pair = lattice_oracle.pair
    assert pair(gram, fstar, f) == 1 and pair(gram, fstar, h) == 0
    assert pair(gram, hstar, h) == 1 and pair(gram, hstar, f) == 0


def test_isotropic_rays_are_isotropic():
    for d, t in [(0, 5), (2, 5), (6, 6), (3, 4), (4, 5)]:
        ns = ns_gram(d, t)
        f, fprime = isotropic_rays(d, t)
        assert lattice_oracle.square(ns.gram, f) == 0
        assert lattice_oracle.square(ns.gram, fprime) == 0
        assert lattice_oracle.pair(ns.gram, f, fprime) > 0  # same cone side


def test_overlattice_u_case():
    # index-t overlattice of the (0, t) member through H/t is unimodular
    for t in range(1, 8):
        lat = ns_gram(0, t)
        over = overlattice(lat, [(Fraction(1, t), 0)])
        assert abs(over.det()) == 1
        assert over.det() * t * t == lat.det()


def test_overlattice_rejects_bad_input():
    lat = ns_gram(0, 5)
    with pytest.raises(InvalidElementError):
        overlattice(lat, [(Fraction(1, 7), 0)])
    with pytest.raises(InvalidSubgroupError):
        # F*/1 has q != 0 for d = 1
        bad = ns_gram(1, 5)
        overlattice(bad, [(Fraction(1, 5), Fraction(-2, 25))])


def _class_closure(gens):
    """Brute oracle: the subgroup of T*/T the dual vectors generate, one
    representative per class with coordinates reduced into [0, 1)."""
    zero = tuple(Fraction(0) for _ in gens[0])
    seen, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % 1 for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return list(seen)


def test_overlattice_index_matches_class_closure():
    # overlattice neither lists H nor tests its classes: it is refused
    # exactly when some class of H has odd square, and otherwise the
    # index it reads off L's basis is |H|
    outcomes = {True: 0, False: 0}
    for t in range(1, 8):
        for d in range(-t, 2 * t):
            lat = ns_gram(d, t)
            nf = ns_form(d, t)
            lifts = [lattice_oracle.lift(nf, e) for e in nf.form.elements() if e.is_isotropic()]
            for pair in combinations_with_replacement(lifts, 2):
                closure = _class_closure(pair)
                isotropic = all(lattice_oracle.square(lat.gram, x) % 2 == 0 for x in closure)
                outcomes[isotropic] += 1
                if not isotropic:
                    with pytest.raises(InvalidSubgroupError):
                        overlattice(lat, pair)
                    continue
                over = overlattice(lat, pair)
                assert over.det() * len(closure) ** 2 == lat.det()
    assert sum(outcomes.values()) == 2355 and outcomes[False] > 0


def test_overlattice_rows_always_have_full_rank():
    # overlattice puts den * I under the generator rows, so the echelon
    # basis has full rank for any generators; no rank check is needed
    sets_tried = 0
    for t in range(1, 11):
        for d in range(-t, 2 * t):
            nf = ns_form(d, t)
            lifts = [lattice_oracle.lift(nf, e) for e in nf.form.elements() if e.is_isotropic()]
            sets = [(x,) for x in lifts]
            sets += list(combinations_with_replacement(lifts, 2))
            for gens in sets:
                den = 1
                for g in gens:
                    for c in g:
                        den = den * c.denominator // gcd(den, c.denominator)
                rows = [[den, 0], [0, den]]
                rows += [[int(c * den) for c in g] for g in gens]
                assert len(row_hnf(rows)) == 2, (d, t, gens)
            sets_tried += len(sets)
    assert sets_tried == 11823


def _isometric_closed_form(d, e, t):
    """Independent oracle: the closed-form criterion for lattice isometry,
    derived by solving the ray-image equations by hand."""
    from math import gcd

    m = gcd(d, t)
    if gcd(e, t) != m:
        return False
    if (e - d) % t == 0:
        return True
    return e % m == 0 and (e * d - m * m) % (m * t) == 0


def test_rank2_isometry_against_closed_form():
    for t in range(1, 13):
        for d in range(t):
            for e in range(t):
                got = bool(rank2_isometries(d, e, t))
                want = _isometric_closed_form(d, e, t)
                assert got == want, (d, e, t, got, want)


def test_rank2_isometries_verify_gram():
    for d, e, t in [(1, 4, 5), (2, 3, 5), (0, 0, 5), (6, 6, 6), (3, 3, 4)]:
        src = ns_gram(e, t).gram
        dst = ns_gram(d, t).gram
        for rows in rank2_isometries(d, e, t):
            assert matmul(list(zip(*rows)), dst, rows) == src
            assert abs(det(rows)) == 1


def test_rank2_isometries_raise_on_a_bad_candidate(monkeypatch):
    # the Gram check runs on every candidate the pairing equations give;
    # a candidate that is not an isometry must be refused, not returned
    real = lattices._rank2_candidates
    monkeypatch.setattr(
        lattices, "_rank2_candidates",
        lambda d, e, t: real(d, e, t) + [((1, 1), (0, 1))],
    )
    with pytest.raises(RuntimeError, match="Gram check"):
        rank2_isometries(1, 1, 5)


def test_isometry_group_structure():
    # self-isometries: always contains +-id; swap doubles the count
    assert len(rank2_isometries(2, 2, 5)) == 2
    assert len(rank2_isometries(1, 1, 5)) == 4
    assert len(rank2_isometries(0, 0, 5)) == 4
    assert len(rank2_isometries(4, 4, 5)) == 4  # d = -1 case has the reflection


def test_genus_representatives_known():
    assert genus_representatives(1, 5) == (1, 4)
    assert genus_representatives(2, 5) == (2,)
    assert genus_representatives(0, 5) == (0,)
    assert genus_representatives(3, 1) == (0,)
    # genus members share the gcd invariant and all contain the base class
    for d, t in [(2, 12), (3, 9), (5, 8)]:
        reps = genus_representatives(d, t)
        assert any(rank2_isometries(d, e, t) for e in reps)


def test_genus_matches_form_isometry_search():
    # the search the closed form replaced: members are the e whose
    # discriminant form is isometric to that of d (all these lattices have
    # signature (1, 1)), split into classes by the rank-two isometry test
    for t in range(1, 31):
        for d in range(-t, 2 * t):
            base = ns_form(d, t).form
            members = [
                e
                for e in range(t)
                if isometry_between(ns_form(e, t).form, base) is not None
            ]
            reps = []
            for e in members:
                if not any(rank2_isometries(r, e, t) for r in reps):
                    reps.append(e)
            assert genus_representatives(d, t) == tuple(reps), (d, t)


def _genus_over_units_mod_t(d, t):
    """The genus walked over all phi(t) units mod t, reduced as in
    ``genus_representatives``."""
    m = gcd(d, t)
    reps = set()
    for e in {d * u * u % t for u in units_mod(t)}:
        if gcd(e // m, t // m) == 1:
            e = min(e, m * pow(e // m, -1, t // m))
        reps.add(e)
    return tuple(sorted(reps))


def test_genus_walks_the_units_mod_t_over_m(monkeypatch):
    # d u^2 mod t = m ((d/m) u^2 mod t/m): the same set, in phi(t/m) steps
    for t in range(1, 101):
        for d in range(-t, 2 * t):
            assert genus_representatives(d, t) == _genus_over_units_mod_t(d, t), (d, t)
    walked = []
    monkeypatch.setattr(
        "k3fm.lattices.units_mod", lambda n: walked.append(n) or units_mod(n)
    )
    assert genus_representatives(0, 510510) == (0,)
    assert genus_representatives(6, 30) == (6, 24)
    assert walked == [1, 5]


def test_genus_past_the_isometry_budget():
    # t = 10007 is prime and 3 mod 4: the genus of d = 1 is the quadratic
    # residues, and e ~ e^-1 pairs them up except where e^2 = 1
    p = 10007
    squares = {x * x % p for x in range(1, p)}
    fixed = sum(1 for e in squares if e * e % p == 1)
    reps = genus_representatives(1, p)
    assert len(reps) == (len(squares) + fixed) // 2 == 2502
    assert set(reps) <= squares


# every public function that calls lattices._check_t, as a call on (d, t);
# the jacobian functions take k where the others take d
T_CHECKED = {
    "ns_gram": lambda d, t: k3fm.ns_gram(d, t),
    "rank2_isometries": lambda d, t: k3fm.rank2_isometries(d, d, t),
    "genus_representatives": lambda d, t: k3fm.genus_representatives(d, t),
    "structure_invariants": lambda d, t: k3fm.structure_invariants(d, t),
    "count_lagrangians": lambda d, t: k3fm.count_lagrangians(d, t),
    "jacobian_index": lambda d, t: k3fm.jacobian_index(t, d),
    "jacobian_compose": lambda d, t: k3fm.jacobian_compose(d, 3, t),
    "jacobian_class_canonical": lambda d, t: k3fm.jacobian_class_canonical(d, t),
    "mukai_divisibility":
        lambda d, t: k3fm.mukai_divisibility(d, t, k3fm.MukaiVector(0, (0, 1), 0)),
    "fibration_count": lambda d, t: k3fm.fibration_count(d, t),
    "ht_classify": lambda d, t: k3fm.ht_classify(d, t, True),
    "fm_sign": lambda d, t: k3fm.fm_sign(d, t),
    "second_fibration_jacobian": lambda d, t: k3fm.second_fibration_jacobian(d, t),
    "jac0_isomorphic": lambda d, t: k3fm.jac0_isomorphic(d, t),
}


def test_t_checked_lists_every_public_caller_of_check_t():
    src = Path(lattices.__file__).parent
    callers = set()
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and any(
                isinstance(n, ast.Name) and n.id == "_check_t" for n in ast.walk(node)
            ):
                callers.add(node.name)
    assert callers == set(T_CHECKED)


@pytest.mark.parametrize("name", sorted(T_CHECKED))
def test_non_integer_d_and_t_are_refused(name):
    call = T_CHECKED[name]
    call(2, 5)
    for bad in (1.5, 5.0, Fraction(5), "5", None):
        with pytest.raises(InvalidParameterError, match="t must be"):
            call(2, bad)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call(bad, 5)
