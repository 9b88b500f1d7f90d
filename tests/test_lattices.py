from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from k3fm import lattices
from k3fm.discforms import isometry_between, ns_form
from k3fm.intmath import units_mod
from k3fm.errors import (
    InvalidElementError,
    InvalidLatticeError,
    InvalidParameterError,
    InvalidSubgroupError,
)
from k3fm.lattices import (
    IntMatrix,
    Lattice,
    NSLattice,
    RationalVector,
    dual_generators,
    genus_representatives,
    is_isometric_rank2,
    isotropic_rays,
    ns_gram,
    overlattice,
    rank2_isometries,
    row_hnf,
    smith_normal_form,
)

U_GRAM = ((0, 1), (1, 0))


def test_intmatrix_det():
    assert IntMatrix.from_rows([[2, 5], [5, 0]]).det() == -25
    assert IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]]).det() == -3
    assert IntMatrix.identity(4).det() == 1


def test_snf_family_gram():
    # gcd(2d, t) and t^2/gcd structure the diagonal
    d_mat, u, v = smith_normal_form(IntMatrix.from_rows([[6, 4], [4, 0]]))
    assert u @ IntMatrix.from_rows([[6, 4], [4, 0]]) @ v == d_mat
    assert [d_mat.entries[i][i] for i in range(2)] == [2, 8]


def test_snf_known_3x3():
    mat = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    d_mat, u, v = smith_normal_form(mat)
    assert u @ mat @ v == d_mat
    diag = [d_mat.entries[i][i] for i in range(3)]
    assert diag == [2, 2, 156]
    assert abs(u.det()) == 1 and abs(v.det()) == 1


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_snf_properties(rows):
    mat = IntMatrix.from_rows(rows)
    d_mat, u, v = smith_normal_form(mat)
    assert u @ mat @ v == d_mat
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    diag = [d_mat.entries[i][i] for i in range(3)]
    assert all(x >= 0 for x in diag)
    for i in range(2):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0


def test_row_hnf_echelon():
    basis = row_hnf([[2, 4], [3, 5]], 2)
    assert basis == [[1, 1], [0, 2]]
    # span is preserved: adding spanned rows changes nothing
    assert row_hnf([[2, 4], [3, 5], [1, 1], [0, 2]], 2) == basis


def test_lattice_validation():
    with pytest.raises(InvalidLatticeError):
        Lattice(IntMatrix.from_rows([[1, 0], [0, 2]]))  # odd diagonal
    with pytest.raises(InvalidLatticeError):
        Lattice(IntMatrix.from_rows([[2, 1], [0, 2]]))  # not symmetric
    with pytest.raises(InvalidLatticeError):
        Lattice(IntMatrix.from_rows([[2, 2], [2, 2]]))  # degenerate
    with pytest.raises(InvalidParameterError):
        NSLattice(3, 0)


def test_family_lattice_basics():
    ns = ns_gram(3, 4)
    assert ns.gram.entries == ((6, 4), (4, 0))
    assert ns.det() == -16
    assert ns.m == 1
    fstar, hstar = dual_generators(ns)
    gram = ns.gram
    # dual pairings: fstar.F = 1, fstar.H = 0, hstar.H = 1, hstar.F = 0
    f = RationalVector((Fraction(0), Fraction(1)))
    h = RationalVector((Fraction(1), Fraction(0)))
    assert fstar.pair(gram, f) == 1 and fstar.pair(gram, h) == 0
    assert hstar.pair(gram, h) == 1 and hstar.pair(gram, f) == 0


def test_isotropic_rays_are_isotropic():
    for d, t in [(0, 5), (2, 5), (6, 6), (3, 4), (4, 5)]:
        ns = ns_gram(d, t)
        f, fprime = isotropic_rays(ns)
        assert f.square(ns.gram) == 0
        assert fprime.square(ns.gram) == 0
        assert f.pair(ns.gram, fprime) > 0  # same cone side


def test_overlattice_u_case():
    # index-t overlattice of the (0, t) member through H/t is unimodular
    for t in range(1, 8):
        lat = ns_gram(0, t).to_lattice()
        over = overlattice(lat, [RationalVector((Fraction(1, t), Fraction(0)))])
        assert abs(over.det()) == 1
        assert over.det() * t * t == lat.det()


def test_overlattice_rejects_bad_input():
    lat = ns_gram(0, 5).to_lattice()
    with pytest.raises(InvalidElementError):
        overlattice(lat, [RationalVector((Fraction(1, 7), Fraction(0)))])
    with pytest.raises(InvalidSubgroupError):
        # F*/1 has q != 0 for d = 1
        bad = ns_gram(1, 5).to_lattice()
        overlattice(bad, [RationalVector((Fraction(1, 5), Fraction(-2, 25)))])


def _class_closure(gens):
    """Brute oracle: the subgroup of T*/T the dual vectors generate, one
    representative per class with coordinates reduced into [0, 1)."""
    zero = tuple(Fraction(0) for _ in gens[0].coords)
    seen, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % 1 for a, b in zip(x, g.coords))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return [RationalVector(c) for c in seen]


def test_overlattice_index_matches_class_closure():
    # overlattice neither lists H nor tests its classes: it is refused
    # exactly when some class of H has odd square, and otherwise the
    # index it reads off L's basis is |H|
    outcomes = {True: 0, False: 0}
    for t in range(1, 8):
        for d in range(-t, 2 * t):
            lat = ns_gram(d, t).to_lattice()
            lf = ns_form(d, t).lf
            lifts = [lf.lift(e) for e in lf.form.elements() if e.is_isotropic()]
            for pair in combinations_with_replacement(lifts, 2):
                closure = _class_closure(pair)
                isotropic = all(x.square(lat.gram) % 2 == 0 for x in closure)
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
            lf = ns_form(d, t).lf
            lifts = [lf.lift(e) for e in lf.form.elements() if e.is_isotropic()]
            sets = [(x,) for x in lifts]
            sets += list(combinations_with_replacement(lifts, 2))
            for gens in sets:
                den = 1
                for g in gens:
                    for c in g.coords:
                        den = den * c.denominator // gcd(den, c.denominator)
                rows = [[den, 0], [0, den]]
                rows += [[int(c * den) for c in g.coords] for g in gens]
                assert len(row_hnf(rows, 2)) == 2, (d, t, gens)
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
                got = is_isometric_rank2(d, e, t)
                want = _isometric_closed_form(d, e, t)
                assert got == want, (d, e, t, got, want)


def test_rank2_isometries_verify_gram():
    for d, e, t in [(1, 4, 5), (2, 3, 5), (0, 0, 5), (6, 6, 6), (3, 3, 4)]:
        src = ns_gram(e, t).gram
        dst = ns_gram(d, t).gram
        for mat in rank2_isometries(d, e, t):
            assert mat.transpose() @ dst @ mat == src
            assert abs(mat.det()) == 1


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
        assert any(is_isometric_rank2(d, e, t) for e in reps)


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
                if not any(is_isometric_rank2(r, e, t) for r in reps):
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
