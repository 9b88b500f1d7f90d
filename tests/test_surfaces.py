"""Surface-level semantics: Jacobian calculus, twist-class counts, Mukai
vectors, fibration predicates, automorphism and partner counts, and the
headline classifier."""

import pickle
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import lattice_oracle
import orbit_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from k3fm import cli
from k3fm.discforms import (
    DFIsometry,
    NSForm,
    as_isometry,
    identity_isometry,
    isometry_between,
    isometry_group,
    neg_identity,
    ns_form,
)
from k3fm.errors import (
    CapacityError,
    InvalidIsometryError,
    InvalidMukaiVectorError,
    InvalidParameterError,
    NotApplicableError,
    OutOfScopeError,
)
from k3fm import kernels, surfaces
from k3fm.intmath import modulus, units_mod
from k3fm.lagrangians import (
    GSpec,
    _lagrangian_coords,
    enumerate_lagrangian_subgroups,
)
from k3fm.lattices import (
    genus_representatives,
    isotropic_rays,
    rank2_isometries,
)
from k3fm.surfaces import (
    HTClass,
    MukaiVector,
    allowed_G_orders,
    aut_orders,
    caldararu_class,
    coprime_jacobian_classes,
    de_counts,
    fibration_count,
    fibrations_isomorphic,
    fm_count,
    fm_sign,
    ht_classify,
    jac0_isomorphic,
    jacobian_class_canonical,
    jacobian_compose,
    jacobian_index,
    jspecial_torsor_exists,
    mukai_divisibility,
    _de_walk,
    _fm_walk,
    _is_square_unit,
    _isometry_order,
    o_lambda_image,
    o_plus_image,
    second_fibration_jacobian,
)
from test_acceptance import _brute_matrices


def _sign(d, t, order=2):
    return GSpec.sign_group(ns_form(d, t).form, order)


def _sigma4():
    return next(s for s in isometry_group(ns_form(0, 5).form) if s.order() == 4)


# ----------------------------------------------------------- Jacobian laws


def test_jacobian_index_values():
    assert jacobian_index(6, 4) == 3
    assert jacobian_index(6, 0) == 1  # the Jacobian proper has a section
    assert jacobian_index(6, 1) == 6
    assert jacobian_index(6, 6) == 1
    with pytest.raises(InvalidParameterError):
        jacobian_index(0, 1)


@settings(max_examples=200, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=-200, max_value=200),
    ell=st.integers(min_value=-200, max_value=200),
)
def test_jacobian_calculus_laws(t, k, ell):
    # periodicity and sign insensitivity
    assert jacobian_index(t, k) == jacobian_index(t, k % t)
    assert jacobian_class_canonical(k, t) == jacobian_class_canonical(-k, t)
    assert jacobian_class_canonical(k, t) == jacobian_class_canonical(k + t, t)
    # composing Jacobians multiplies the labels
    kl = jacobian_compose(k, ell, t)
    assert kl == jacobian_compose(ell, k, t)
    assert jacobian_index(t, kl) == t // gcd(t, k * ell)
    # the index-1 Jacobian of anything coprime is the surface's own class
    if gcd(k, t) == 1:
        assert jacobian_index(t, k) == t


def test_jacobian_canonical_range():
    for t in range(1, 20):
        for k in range(t):
            c = jacobian_class_canonical(k, t)
            assert 0 <= c <= t // 2
            assert c in (k % t, -k % t)


# ----------------------------------------------------- coprime twist classes


def test_coprime_jacobian_classes_values():
    assert coprime_jacobian_classes(5, {1, 4}) == (2, (1, 2))
    assert coprime_jacobian_classes(7, {1, 6}) == (3, (1, 2, 3))
    assert coprime_jacobian_classes(12, {1, 11}) == (2, (1, 5))
    # order-4 cyclic B mod 13
    assert coprime_jacobian_classes(13, {1, 5, 8, 12})[0] == 3


def test_coprime_jacobian_classes_rejections():
    with pytest.raises(OutOfScopeError):
        coprime_jacobian_classes(2, {1})
    with pytest.raises(InvalidParameterError):
        coprime_jacobian_classes(5, {1})  # missing -1
    with pytest.raises(InvalidParameterError):
        coprime_jacobian_classes(7, {1, 2, 6})  # not closed
    with pytest.raises(InvalidParameterError):
        coprime_jacobian_classes(10, {1, 5, 9})  # 5 is not a unit


def test_unit_subgroup_accepts_only_closed_sets_of_units():
    # a finite set of units closed under products is a group
    assert coprime_jacobian_classes(13, {1, 5, 8, 12}) == (3, (1, 2, 4))
    assert coprime_jacobian_classes(7, range(1, 7)) == (1, (1,))
    assert coprime_jacobian_classes(7, {8, 13}) == (3, (1, 2, 3))  # reduced mod 7
    with pytest.raises(InvalidParameterError, match="not closed under products"):
        coprime_jacobian_classes(13, {1, 5, 12})
    with pytest.raises(InvalidParameterError, match="units mod t"):
        coprime_jacobian_classes(6, {1, 2, 5})


def test_coprime_jacobian_classes_check_the_coset_count(monkeypatch):
    # a walk that misses the coset {1, -1} must not go unnoticed
    monkeypatch.setattr(surfaces, "units_mod", lambda t: units_mod(t)[1:-1])
    with pytest.raises(RuntimeError, match="coset count disagrees"):
        coprime_jacobian_classes(7, {1, 6})


def _admissible_twist_groups(t):
    """Every subgroup <g, -1> = {+-g^k} of (Z/t)* of order 2, 4 or 6."""
    groups = set()
    for g in units_mod(t):
        powers, x = {1}, g
        while x != 1:
            powers.add(x)
            x = x * g % t
        groups.add(frozenset(powers | {t - x for x in powers}))
    return sorted((sorted(b) for b in groups if len(b) in (2, 4, 6)))


def test_coprime_jacobian_classes_match_the_coset_walk():
    # the orbit walk the one-pass coset scan replaced, as the oracle
    checked = 0
    for t in range(3, 61):
        units = units_mod(t)
        for b in _admissible_twist_groups(t):
            cosets = orbit_oracle.orbits(units, int, [lambda u, x=x: u * x % t for x in b])
            reps = tuple(coset[0] for coset in cosets)
            assert coprime_jacobian_classes(t, b) == (len(reps), reps), (t, b)
            checked += 1
    assert checked == 130


# --------------------------------------------------------- special torsors


def test_jspecial_truth_table():
    assert [p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29) if jspecial_torsor_exists(p, 4)] == [5, 13, 17, 29]
    assert [p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29) if jspecial_torsor_exists(p, 6)] == [7, 13, 19]
    with pytest.raises(InvalidParameterError):
        jspecial_torsor_exists(2, 4)
    with pytest.raises(InvalidParameterError):
        jspecial_torsor_exists(9, 4)
    with pytest.raises(InvalidParameterError):
        jspecial_torsor_exists(5, 5)


# ------------------------------------------------------------ Mukai vectors


def test_mukai_vector_primitivity():
    MukaiVector(0, (0, 1), 0)
    MukaiVector(1, (0, 0), 0)
    with pytest.raises(InvalidMukaiVectorError):
        MukaiVector(2, (2, 0), 2)
    with pytest.raises(InvalidMukaiVectorError):
        MukaiVector(0, (0, 0), 0)


def test_mukai_square():
    assert MukaiVector(0, (0, 1), 0).square(2, 5) == 0
    assert MukaiVector(1, (0, 0), 0).square(2, 5) == 0
    assert MukaiVector(1, (0, 0), 1).square(2, 5) == -2
    assert MukaiVector(0, (1, 0), 0).square(2, 5) == 4  # H^2 = 2d


def test_mukai_divisibility():
    assert mukai_divisibility(2, 5, MukaiVector(0, (0, 1), 0)) == 5
    assert mukai_divisibility(2, 5, MukaiVector(1, (0, 0), 0)) == 1
    assert mukai_divisibility(6, 6, MukaiVector(0, (0, 1), 0)) == 6


def test_caldararu_class_frozen():
    v = MukaiVector(0, (0, 1), 0)
    cls = caldararu_class(2, 5, v)
    nf = ns_form(2, 5)
    assert cls.coords == (20,)
    assert cls == -nf.vbar


def test_caldararu_fibre_class_is_minus_vbar():
    v = MukaiVector(0, (0, 1), 0)
    for t in range(2, 13):
        for d in range(t):
            assert caldararu_class(d, t, v) == -ns_form(d, t).vbar


def _square_zero_vectors(d, t):
    """Primitive Mukai vectors (r, x H + y F, s) of square 0 at (d, t):
    r s = x (d x + t y) over a small box of D, with t_v > 1 among them
    (r = s = 0, or r = 2 with s even)."""
    for x in (-1, 0, 2):
        for y in (-1, 1, 3):
            n = x * (d * x + t * y)
            rs = [(1, n), (-1, -n), (2, n // 2)] if n else [(0, 0), (0, 1), (1, 0)]
            for r, s in rs:
                if r * s == n and gcd(gcd(r, s), gcd(x, y)) == 1:
                    yield MukaiVector(r, (x, y), s)


def test_caldararu_class_matches_the_dual_vector_route():
    # the class of -D/t_v, read by element_from_dual off the Fraction
    # vector, t_v = gcd(r, s, H.D, F.D) computed here
    for t in range(1, 31):
        for d in range(-t, 2 * t):
            nf = ns_form(d, t)
            for v in _square_zero_vectors(d, t):
                x, y = v.D
                t_v = gcd(gcd(v.r, v.s), gcd(2 * d * x + t * y, t * x))
                want = lattice_oracle.element_from_dual(
                    nf, (Fraction(-x, t_v), Fraction(-y, t_v))
                )
                assert caldararu_class(d, t, v) == want, (d, t, v)


def test_caldararu_rejects_nonzero_square():
    with pytest.raises(InvalidMukaiVectorError):
        caldararu_class(2, 5, MukaiVector(1, (0, 0), 1))


def test_caldararu_structure_sheaf_is_trivial():
    assert caldararu_class(2, 5, MukaiVector(1, (0, 0), 0)).coords == (0,)


# --------------------------------------------------------------- fibrations


def test_fibration_count():
    assert fibration_count(4, 5) == 1
    assert fibration_count(1, 5) == 2
    assert fibration_count(0, 1) == 1
    assert fibration_count(1, 2) == 1
    assert fibration_count(0, 2) == 2


def test_fibrations_isomorphic():
    assert fibrations_isomorphic(1, 5, True) is True
    assert fibrations_isomorphic(2, 5, True) is False
    with pytest.raises(NotApplicableError):
        fibrations_isomorphic(4, 5, True)  # single fibration
    with pytest.raises(NotApplicableError):
        fibrations_isomorphic(1, 5, False)
    with pytest.raises(NotApplicableError):
        fibrations_isomorphic(0, 2, True)


def test_second_fibration_jacobian():
    assert second_fibration_jacobian(2, 5) == 3
    assert second_fibration_jacobian(1, 5) == 1
    assert second_fibration_jacobian(3, 7) == 5
    with pytest.raises(NotApplicableError):
        second_fibration_jacobian(0, 5)  # m > 1
    with pytest.raises(NotApplicableError):
        second_fibration_jacobian(4, 5)  # single fibration


def test_jac0_isomorphic():
    assert jac0_isomorphic(2, 5) is True
    assert jac0_isomorphic(2, 6) is False
    with pytest.raises(NotApplicableError):
        jac0_isomorphic(1, 5)
    with pytest.raises(NotApplicableError):
        jac0_isomorphic(4, 5)


# ------------------------------------------------------ the family member


def test_general_model():
    # the T-general member, G = {+-1}, is accepted at every t, also t <= 2
    # where +-1 coincide on A
    assert de_counts(6, 6, _sign(6, 6), True) == (4, 4)
    assert de_counts(0, 1, _sign(0, 1), True) == (1, 1)
    assert de_counts(1, 2, _sign(1, 2), True) == (1, 1)


def test_model_validation_rejections():
    with pytest.raises(InvalidParameterError, match="^t must be a positive integer"):
        de_counts(1, 0, _sign(1, 1), True)
    with pytest.raises(InvalidIsometryError, match="^G does not act on this family member"):
        de_counts(2, 5, _sign(1, 5), True)
    with pytest.raises(InvalidIsometryError, match="^G does not act on this family member"):
        de_counts(2, 5, _sign(1, 5), False)


def test_twist_groups_take_integers_only():
    # %-reduction and gcd would raise a bare TypeError on these, and
    # int() would truncate 9/2 to the unit 4
    for bad in [{1, 4.0}, {1, Fraction(4)}, {1, Fraction(9, 2)}]:
        with pytest.raises(InvalidParameterError, match="^B must consist of integers"):
            coprime_jacobian_classes(5, bad)
    # anything operator.index accepts is an integer
    assert coprime_jacobian_classes(5, {True, 4}) == (2, (1, 2))


def test_model_t_general_restricts_g():
    g4 = GSpec(_sigma4(), 4)
    with pytest.raises(InvalidParameterError, match="T-general"):
        de_counts(0, 5, g4, True)
    de_counts(0, 5, g4, False)


def test_moving_elements_at_t_2():
    # at (0, 2), A = (Z/2)^2 and -id = id: the swap is not central, although
    # its image has only two elements, the size of {+-1} elsewhere
    form = ns_form(0, 2).form
    swap = DFIsometry(form, form, ((0, 1), (1, 0)))
    g = GSpec(swap, 2)
    assert len(g.image_elements()) == 2
    assert g.moving_elements() == (swap,)
    with pytest.raises(InvalidParameterError, match="T-general"):
        de_counts(0, 2, g, True)
    de_counts(0, 2, g, False)
    for d, t in ((0, 2), (1, 2), (0, 5), (6, 6)):
        assert _sign(d, t).moving_elements() == ()
    sigma = _sigma4()
    assert GSpec(sigma, 4).moving_elements() == (sigma, sigma.powers()[2])


# ---------------------------------------------------------- isometry images


def test_o_images_frozen_sizes():
    table = {
        (1, 5): (2, 2, 2),
        (2, 5): (2, 2, 1),
        (4, 5): (2, 2, 1),
        (0, 5): (8, 4, 2),
        (6, 6): (8, 4, 2),
        (1, 1): (1, 1, 1),
        (0, 2): (2, 2, 2),
    }
    for (d, t), (oa, ol, op) in table.items():
        assert len(isometry_group(ns_form(d, t).form)) == oa, (d, t)
        assert len(o_lambda_image(d, t)) == ol, (d, t)
        assert len(o_plus_image(d, t)) == op, (d, t)


def test_o_images_structure():
    for t in range(1, 9):
        for d in range(t):
            form = ns_form(d, t).form
            oa = {s.images for s in isometry_group(form)}
            ol = {s.images for s in o_lambda_image(d, t)}
            op = {s.images for s in o_plus_image(d, t)}
            assert op <= ol <= oa
            assert identity_isometry(form).images in op
            assert neg_identity(form).images in ol
            lam = o_lambda_image(d, t)
            for x in lam:
                for y in lam:
                    assert x.compose(y).images in ol


def test_induced_isometry_matches_dual_vector_route():
    # the integer map against the Fraction route: M gen_i as a dual vector;
    # isometries with one key M adj(Gram) mod t^2 induce one map, and
    # distinct keys distinct maps, so o_lambda_order counts the maps
    for t in range(1, 31):
        n = t * t
        for d in range(-t, 2 * t):
            nf = ns_form(d, t)
            assert sorted(rows for rows, _ in nf.o_lambda_maps) == sorted(
                rank2_isometries(d, d, t)), (d, t)
            nef = isotropic_rays(d, t)[: fibration_count(d, t)]
            plus, keyed = set(), set()
            for m, iso in nf.o_lambda_maps:
                images = tuple(
                    lattice_oracle.element_from_dual(nf, tuple(
                        sum(m[i][k] * g[k] for k in range(2))
                        for i in range(2)
                    )).coords
                    for g in lattice_oracle.gens(nf)
                )
                assert iso.images == nf.induced_isometry(m).images == images
                key = tuple((-t * y % n, (2 * d * y - t * x) % n) for x, y in m)
                keyed.add((key, images))
                if (m[0][1], m[1][1]) in nef:
                    plus.add(images)
            full = {images for _, images in keyed}
            assert len(keyed) == len({key for key, _ in keyed}) == len(full), (d, t)
            assert len(full) == nf.o_lambda_order, (d, t)
            assert [s.images for s in o_lambda_image(d, t)] == sorted(full)
            assert [s.images for s in o_plus_image(d, t)] == sorted(plus), (d, t)


def test_lattice_isometries_computed_once_per_bundle(monkeypatch):
    calls = []

    def counted(d, e, t):
        calls.append((d, e, t))
        return rank2_isometries(d, e, t)

    monkeypatch.setattr("k3fm.discforms.rank2_isometries", counted)
    ns_form.cache_clear()
    g = _sign(1, 5)
    o_lambda_image(1, 5)
    o_plus_image(1, 5)
    aut_orders(1, 5, g)
    assert calls == [(1, 1, 5)]
    ns_form.cache_clear()
    o_lambda_image(1, 5)
    assert calls == [(1, 1, 5)] * 2


def test_o_lambda_maps_are_validated_once_per_bundle(monkeypatch):
    # a moving G lists the O(L) image of every genus class on every
    # fm_count call; the maps are validated on the first and kept
    calls = []
    real = NSForm.induced_isometry

    def counted(self, mat):
        calls.append(mat)
        return real(self, mat)

    monkeypatch.setattr(NSForm, "induced_isometry", counted)
    ns_form.cache_clear()
    form = ns_form(20, 25).form
    g = GSpec(as_isometry(form, form, ((4, 25), (4, 49))), 10)
    reps = genus_representatives(20, 25)
    assert len(reps) >= 2
    assert fm_count(20, 25, g) == 2
    validated = sum(len(ns_form(e, 25).o_lambda_maps) for e in reps)
    assert len(calls) == validated == sum(len(rank2_isometries(e, e, 25)) for e in reps)
    assert fm_count(20, 25, g) == 2
    o_lambda_image(20, 25)
    o_plus_image(20, 25)
    assert len(calls) == validated
    ns_form.cache_clear()
    # every lattice isometry keeps its own validated map, also where
    # several of them induce one map
    for t in range(1, 13):
        for d in range(t):
            maps = ns_form(d, t).o_lambda_maps
            assert sorted(rows for rows, _ in maps) == sorted(rank2_isometries(d, d, t))
            for rows, iso in maps:
                assert iso == real(ns_form(d, t), rows), (d, t, rows)


def test_aut_orders_frozen():
    assert aut_orders(1, 5, _sign(1, 5)) == (2, 1)
    assert aut_orders(2, 5, _sign(2, 5)) == (1, 1)
    assert aut_orders(4, 5, _sign(4, 5)) == (1, 1)
    assert aut_orders(0, 5, _sign(0, 5)) == (1, 1)
    assert aut_orders(1, 1, _sign(1, 1)) == (2, 2)
    assert aut_orders(1, 1, _sign(1, 1, 8)) == (8, 8)
    assert aut_orders(0, 2, _sign(0, 2)) == (2, 2)
    assert aut_orders(0, 5, GSpec(_sigma4(), 4)) == (1, 1)


def test_aut_orders_rejects_wrong_group():
    with pytest.raises(InvalidIsometryError):
        aut_orders(2, 5, _sign(1, 5))


def test_aut_fixing_fibre_is_kernel():
    # the fibre-fixing count never sees the lattice side at all
    for d, t in [(1, 5), (6, 6), (0, 5)]:
        g = _sign(d, t, 4)
        assert aut_orders(d, t, g)[1] == g.kernel_order == 2


# ------------------------------------------------------- derived structures


def test_de_counts_general_examples():
    assert de_counts(1, 5, _sign(1, 5), True) == (2, 1)
    assert de_counts(0, 5, _sign(0, 5), True) == (4, 2)
    assert de_counts(6, 6, _sign(6, 6), True) == (4, 4)
    assert de_counts(4, 10, _sign(4, 10), True) == (4, 2)  # m = 2


def test_de_counts_closed_form_beyond_budget(monkeypatch):
    monkeypatch.setenv("K3FM_BUDGET", "10")
    assert de_counts(0, 5, _sign(0, 5), True) == (4, 2)


def test_de_counts_non_general():
    g4 = GSpec(_sigma4(), 4)
    assert de_counts(0, 5, g4, False) == (2, 2)


def test_de_counts_capacity(monkeypatch):
    g4 = GSpec(_sigma4(), 4)  # built before the budget tightens
    monkeypatch.setenv("K3FM_BUDGET", "10")
    with pytest.raises(CapacityError):
        de_counts(0, 5, g4, False)


def test_de_counts_big_squarefree():
    t = 510510
    assert de_counts(t, t, _sign(t, t), True) == (5898240, 128)


def test_de_counts_raises_when_g_leaves_the_scan(monkeypatch):
    # the closed form and the subgroups then count one element more than
    # the scan holds
    g4 = GSpec(_sigma4(), 4)
    scan = surfaces._lagrangian_coords
    monkeypatch.setattr(surfaces, "_lagrangian_coords", lambda d, t: scan(d, t)[1:])
    with pytest.raises(RuntimeError, match="element scan disagrees with the closed form"):
        de_counts(0, 5, _sign(0, 5), True)
    with pytest.raises(RuntimeError, match="subgroups do not account for the scanned"):
        _de_walk(0, 5, _sign(0, 5))
    with pytest.raises(RuntimeError, match="subgroups do not account for the scanned"):
        de_counts(0, 5, g4, False)


def test_de_counts_checks_the_element_count_against_the_closed_form(monkeypatch):
    scan = surfaces._lagrangian_coords

    def without_a_pair(d, t):
        coords = scan(d, t)
        negative = tuple(-c % n for c, n in zip(coords[0], ns_form(d, t).form.orders))
        return [c for c in coords if c not in (coords[0], negative)]

    monkeypatch.setattr(surfaces, "_lagrangian_coords", without_a_pair)
    for d, t in [(0, 5), (1, 7), (4, 10)]:  # rank 2, rank 1, m = 2
        for t_general in (True, False):
            with pytest.raises(RuntimeError, match="element scan disagrees"):
                de_counts(d, t, _sign(d, t), t_general)
        with pytest.raises(RuntimeError, match="subgroups do not account for the scanned"):
            _de_walk(d, t, _sign(d, t))


def test_de_counts_checks_the_canonical_classes_against_the_scan(monkeypatch):
    # the class of F/t or of F'/t swapped for 0 keeps the scan's length
    scan = surfaces._lagrangian_coords
    for d, t in [(0, 5), (1, 7), (4, 10)]:  # rank 2, rank 1, m = 2
        nf = ns_form(d, t)
        zero = (0,) * nf.form.rank
        for v in (nf.vbar.coords, nf.vprime.coords):
            swapped = sorted([c for c in scan(d, t) if c != v] + [zero])
            assert len(swapped) == len(scan(d, t))
            monkeypatch.setattr(surfaces, "_lagrangian_coords", lambda d, t: swapped)
            with pytest.raises(RuntimeError, match="misses a canonical class"):
                de_counts(d, t, _sign(d, t), True)
            monkeypatch.setattr(surfaces, "_lagrangian_coords", scan)
        assert de_counts(d, t, _sign(d, t), True) == surfaces._de_closed_form(d, t)


def test_de_counts_checks_the_subgroup_count_against_the_closed_form(monkeypatch):
    subgroups = surfaces.enumerate_lagrangian_subgroups
    monkeypatch.setattr(
        surfaces, "enumerate_lagrangian_subgroups", lambda d, t: subgroups(d, t)[1:]
    )
    # only the walk reads the subgroups; its scan then holds phi(t)
    # elements more than the three subgroups left
    with pytest.raises(RuntimeError, match="subgroups do not account for the scanned"):
        _de_walk(6, 6, _sign(6, 6))
    assert de_counts(6, 6, _sign(6, 6), True) == (4, 4)


def _coordinate_images(sigma, points):
    """[sigma(c) for c in points] on coordinate tuples, in one pass.  On
    rank two sigma's 2x2 integer matrix is inlined; other ranks take the
    per-coordinate dot products of ``DFIsometry.action``."""
    if sigma.domain.rank != 2:
        return list(map(sigma.action(), points))
    (a, c), (b, d) = sigma.images
    n1, n2 = sigma.codomain.orders
    return [((a * x + b * y) % n1, (c * x + d * y) % n2) for x, y in points]


def _cycle_count(sigma, points):
    """Oracle for the first DE count: the number of orbits of <sigma> on
    ``points``, a list of distinct coordinate tuples that sigma maps onto
    itself, as the cycles of i -> index of sigma(points[i])."""
    index = {c: i for i, c in enumerate(points)}
    perm = [index[c] for c in _coordinate_images(sigma, points)]
    seen = bytearray(len(perm))
    cycles = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        cycles += 1
        while not seen[i]:
            seen[i] = 1
            i = perm[i]
    return cycles


def _check_cycle_count(sigma, coords):
    """The cycle count, after checking the batch images against the
    one-point move."""
    step = sigma.action()
    assert _coordinate_images(sigma, coords) == [step(c) for c in coords]
    return _cycle_count(sigma, coords)


def test_cycle_count_matches_the_orbit_walk_on_general_cells():
    ranks = set()
    for t in range(3, 31):
        for d in range(t):
            g = _sign(d, t)
            cycles = _check_cycle_count(g.generator, _lagrangian_coords(d, t))
            assert de_counts(d, t, g, True) == (cycles, _subgroup_orbits(d, t, g)), (d, t)
            ranks.add(ns_form(d, t).form.rank)
    assert ranks == {1, 2}


def test_cycle_count_matches_the_orbit_walk_on_order_four_groups():
    # every isometry keeps the Lagrangian elements, so each is checked;
    # the reflections of A(0, t) have non-symmetric matrices
    groups = isometries = 0
    for t in (5, 13, 17):
        for d in range(t):
            form = ns_form(d, t).form
            coords = _lagrangian_coords(d, t)
            for sigma in isometry_group(form):
                cycles = _check_cycle_count(sigma, coords)
                isometries += 1
                if sigma.order() != 4:
                    continue
                g = GSpec(sigma, 4)  # sigma^2 = -id at odd t
                assert de_counts(d, t, g, False)[0] == cycles
                groups += 1
    assert groups == 6  # two order-4 rotations of A(0, t) for each t = 1 mod 4
    assert isometries == 128  # 2(t - 1) on A(0, t), +-1 on the cyclic groups


def _subgroup_orbits(d, t, g):
    """Oracle for the second DE count: the cycles of G's generator on the
    subgroups, each image classified by Fraction pairings."""
    subs = enumerate_lagrangian_subgroups(d, t)
    return len(orbit_oracle.subgroup_partition(subs, g.generator))


def test_de_counts_match_the_cycle_count_for_every_cyclic_group():
    # G generated by each isometry whose powers hold -id, with the least
    # order GSpec accepts; the Burnside counts against sigma's cycles on
    # the elements and on the subgroups
    orders = [n for n in range(2, 801, 2) if 20 % modulus(n).phi == 0]
    pairs = 0
    for t in range(3, 41):
        for d in range(t):
            coords = _lagrangian_coords(d, t)
            for sigma in isometry_group(ns_form(d, t).form):
                k = sigma.order()
                n = next((n for n in orders if n % k == 0), None)
                if n is None:
                    continue
                try:
                    g = GSpec(sigma, n)
                except InvalidParameterError:
                    continue
                expected = (_cycle_count(sigma, coords), _subgroup_orbits(d, t, g))
                assert de_counts(d, t, g, False) == expected, (d, t)
                pairs += 1
    assert pairs == 1053


def _moved(monkeypatch, image):
    """Make the DE walk apply ``image(c)`` in place of sigma on coordinates."""
    monkeypatch.setattr(DFIsometry, "action", lambda sigma: image)


def test_de_counts_raises_when_sigma_is_not_a_unit_multiple(monkeypatch):
    # (1, 0) generates a Lagrangian subgroup of A(0, 5) = (Z/5)^2, and two
    # steps of the translate move it to (1, 2)
    _moved(monkeypatch, lambda c: (c[0], (c[1] + 1) % 5))
    with pytest.raises(RuntimeError, match="sigma\\^n is not the identity"):
        _de_walk(0, 5, _sign(0, 5))


def test_de_counts_raises_when_the_unit_order_does_not_divide(monkeypatch):
    # 2 has order 4 mod 5, so sigma^2 = 4 moves every generator of {+-1}'s
    # image, which has order n = 2
    _moved(monkeypatch, lambda c: tuple(2 * x % 5 for x in c))
    with pytest.raises(RuntimeError, match="sigma\\^n is not the identity"):
        _de_walk(0, 5, _sign(0, 5))


def test_de_counts_raises_when_a_burnside_sum_is_not_a_multiple_of_n(monkeypatch):
    # an involution that fixes (1, 0) and moves (0, 1) out of its subgroup,
    # so the subgroups' fixed points number 2 + 1 for n = 2
    _moved(monkeypatch, lambda c: ((c[0] + c[1]) % 5, -c[1] % 5))
    with pytest.raises(RuntimeError, match="Burnside sum is not a multiple"):
        _de_walk(0, 5, _sign(0, 5))


def test_de_counts_checks_p12_against_the_closed_form(monkeypatch, capsys):
    # the identity passes the sigma^n check but fixes all phi(t) generators
    # of each subgroup at both powers, twice the closed form, which the
    # sweep's check against the walk reports
    _moved(monkeypatch, lambda c: c)
    assert _de_walk(0, 5, _sign(0, 5)) == (8, 2)
    argv = ["sweep", "--t-min", "5", "--t-max", "5", "--d-min", "0", "--d-max", "0"]
    assert cli.main(argv) == 0
    assert cli.main([*argv, "--verify"]) == 1
    err = capsys.readouterr().err
    assert "cell d=0 t=5: de=4 de_orbits=2 but the subgroup walk gives 8 and 2" in err


def test_de_counts_is_the_subgroup_walk_for_the_sign_group():
    # the closed form against the Burnside walk, both flags; the
    # order-4 group acting through {+-1} has the same image
    cells = 0
    for t in range(3, 61):
        for d in range(-t, 2 * t):
            g = _sign(d, t)
            walked = _de_walk(d, t, g)
            assert de_counts(d, t, g, True) == walked == de_counts(d, t, g, False), (d, t)
            cells += 1
    assert cells == 5481
    for d, t in ((0, 5), (6, 12), (4, 10)):
        assert de_counts(d, t, _sign(d, t, 4), False) == _de_walk(d, t, _sign(d, t)), (d, t)


def test_de_counts_for_the_sign_group_builds_no_subgroup(monkeypatch):
    def refuse(d, t):
        raise AssertionError("subgroups enumerated")

    calls = []
    scan = kernels.scan_isotropic_elements
    monkeypatch.setattr(surfaces, "enumerate_lagrangian_subgroups", refuse)
    monkeypatch.setattr(
        kernels, "scan_isotropic_elements", lambda *a: calls.append(a) or scan(*a)
    )
    assert de_counts(6, 12, _sign(6, 12), True) == (8, 4)
    assert de_counts(0, 5, _sign(0, 5), False) == (4, 2)
    assert len(calls) == 2
    with pytest.raises(AssertionError, match="subgroups enumerated"):
        de_counts(0, 5, GSpec(_sigma4(), 4), False)


def test_de_counts_scans_once_within_the_budget_and_never_beyond(monkeypatch):
    calls = []
    scan = kernels.scan_isotropic_elements
    monkeypatch.setattr(
        kernels, "scan_isotropic_elements", lambda *a: calls.append(a) or scan(*a)
    )
    assert de_counts(30, 2000, _sign(30, 2000), True) == (1600, 4)
    assert len(calls) == 1
    monkeypatch.setenv("K3FM_BUDGET", "100")
    assert de_counts(30, 2000, _sign(30, 2000), True) == (1600, 4)
    assert len(calls) == 1


# -------------------------------------------------------------- classifier


def test_ht_classify_table():
    assert ht_classify(1, 5, True) == HTClass.SingleFibrationCovers
    assert ht_classify(0, 5, True) == HTClass.TwoFibrationsCover
    assert ht_classify(4, 8, True) == HTClass.TwoFibrationsCover  # m = 4 = 2^2
    assert ht_classify(6, 6, True) == HTClass.NonJacobianPartnersExist
    assert ht_classify(6, 6, False) == HTClass.Inconclusive
    assert ht_classify(510510, 510510, False) == HTClass.NonJacobianPartnersExist
    assert ht_classify(0, 1, False) == HTClass.SingleFibrationCovers


def test_ht_classify_depends_on_d_mod_t():
    for t in range(1, 15):
        for d in range(t):
            for flag in (True, False):
                assert ht_classify(d, t, flag) == ht_classify(d + 3 * t, t, flag)


def test_ht_classify_rejects_bad_t():
    with pytest.raises(InvalidParameterError):
        ht_classify(1, 0, True)


# ---------------------------------------------------------- partner counts


def test_fm_count_frozen():
    assert fm_count(1, 5, _sign(1, 5)) == 2
    assert fm_count(4, 5, _sign(4, 5)) == 2  # same genus, same answer
    assert fm_count(0, 5, _sign(0, 5)) == 2
    assert fm_count(2, 5, _sign(2, 5)) == 1
    assert fm_count(6, 6, _sign(6, 6)) == 2
    assert fm_count(0, 6, _sign(0, 6)) == 2
    assert fm_count(1, 4, _sign(1, 4)) == 1
    for d in (0, 1, 3):
        assert fm_count(d, 1, _sign(d, 1)) == 1


def test_fm_count_checks_each_genus_member(monkeypatch):
    # 2 is not a square mod 5, so A_2 is not isometric to A_1; the walk,
    # the oracle of the sign group's closed form, anchors every class
    monkeypatch.setattr("k3fm.surfaces.genus_representatives", lambda d, t: (1, 2))
    with pytest.raises(RuntimeError, match="genus member lost its form isometry"):
        _fm_walk(1, 5, _sign(1, 5))


def test_fm_count_checks_the_least_genus_member(monkeypatch):
    # every class is anchored onto the least member; 2 is not in the
    # genus of (1, 5), so neither 1 nor 2 itself has an anchor onto it
    monkeypatch.setattr("k3fm.surfaces._genus_least", lambda d, t: 2)
    with pytest.raises(RuntimeError, match="genus member lost its form isometry"):
        fm_count(1, 5, _sign(1, 5))


def test_genus_least_is_the_walked_genus_least_member():
    # the genus depends on d mod t only, so each walk serves three d
    for t in range(1, 301):
        for d in range(t):
            least = genus_representatives(d, t)[0]
            for e in (d - t, d, d + t):
                assert surfaces._genus_least(e, t) == least, (e, t)


def _recording_between(monkeypatch):
    calls = []

    def wrapper(source, target):
        phi = isometry_between(source, target)
        calls.append((source, phi))
        return phi

    monkeypatch.setattr("k3fm.surfaces.isometry_between", wrapper)
    return calls


def test_fm_count_searches_each_bundle_part_once_in_a_sweep(monkeypatch):
    # the t = 3..30 sweep in row order: each bundle anchors each of its
    # parts once onto the least member of its genus (1,800 searches when
    # every cell matched every class again)
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    ns_form.cache_clear()
    calls = _recording_between(monkeypatch)
    cells = [(d, t) for t in range(3, 31) for d in range(t)]
    for d, t in cells:
        fm_count(d, t, _sign(d, t))
    part_of = {
        id(part.form): (d, t, part.prime)
        for d, t in cells
        for part in ns_form(d, t).primary_parts
    }
    searched = Counter(part_of[id(source)] for source, _ in calls)
    assert len(calls) == sum(searched.values()) == 738
    assert max(searched.values()) == 1
    assert all(phi is not None for _, phi in calls)
    assert sum(phi.is_identity() for _, phi in calls) == 395


def test_fm_count_anchors_live_on_the_cached_bundle(monkeypatch):
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    ns_form.cache_clear()
    calls = _recording_between(monkeypatch)
    assert genus_representatives(1, 5) == (1, 4)
    assert _fm_walk(4, 5, _sign(4, 5)) == 2
    # one part, 4's, onto the part of 1; the least member is not searched
    # onto itself
    assert len(calls) == 1
    assert ns_form(4, 5).anchors == {1} and ns_form(1, 5).anchors == set()
    calls.clear()
    assert _fm_walk(1, 5, _sign(1, 5)) == 2
    assert calls == []
    # the gates run before any anchor is read: a cached anchor lets nothing
    # past a smaller budget
    monkeypatch.setenv("K3FM_BUDGET", "10")
    with pytest.raises(CapacityError):
        fm_count(4, 5, _sign(4, 5))
    monkeypatch.delenv("K3FM_BUDGET")
    ns_form.cache_clear()
    assert ns_form(1, 5).anchors == set()
    assert _fm_walk(1, 5, _sign(1, 5)) == 2
    assert len(calls) == 1


def test_fm_count_moving_terms_search_their_own_isometries(monkeypatch):
    # with the anchors of (0, 5) cached, a moving G still needs phi_p
    g = GSpec(_sigma4(), 4)
    assert fm_count(0, 5, g) == 1
    monkeypatch.setattr("k3fm.surfaces.isometry_between", lambda source, target: None)
    assert fm_count(0, 5, _sign(0, 5)) == 2
    with pytest.raises(RuntimeError, match="genus member lost its form isometry"):
        fm_count(0, 5, g)


def test_fm_count_larger_group_merges():
    assert fm_count(0, 5, GSpec(_sigma4(), 4)) == 1


def test_fm_count_rejects_wrong_group():
    with pytest.raises(InvalidIsometryError):
        fm_count(2, 5, _sign(1, 5))


def test_fm_count_at_least_one():
    for t in range(1, 11):
        for d in range(t):
            assert fm_count(d, t, _sign(d, t)) >= 1


def _walk_fm(d, t, g):
    """The double cosets O(L) \\ Isom(A, A_L) / G walked one isometry at a
    time: orbits of the left moves x -> u x (u in the O(L) image) and the
    right move x -> x sigma, |O(L) image| + 1 compositions per isometry."""
    nf = ns_form(d, t)
    own = isometry_group(nf.form)
    total = 0
    for e in genus_representatives(d, t):
        phi = isometry_between(nf.form, ns_form(e, t).form)
        moves = [u.compose for u in o_lambda_image(e, t)]
        moves.append(lambda x: x.compose(g.generator))
        ambient = (phi.compose(x) for x in own)
        total += len(orbit_oracle.orbits(ambient, lambda x: x.images, moves))
    return total


def test_fm_count_matches_double_coset_walk():
    cells = [(d, t) for t in range(2, 31) for d in range(-t, 2 * t)]
    assert len(cells) == 1392
    for d, t in cells:
        g = _sign(d, t)
        assert fm_count(d, t, g) == _walk_fm(d, t, g), (d, t)
    groups = 0
    for t in range(2, 13):
        for d in range(-t, 2 * t):
            seen = set()
            for sigma in isometry_group(ns_form(d, t).form):
                try:
                    g = GSpec(sigma, 4)
                except InvalidParameterError:
                    continue
                image = frozenset(s.images for s in g.image_elements())
                if len(image) == 4 and image not in seen:
                    seen.add(image)
                    groups += 1
                    assert fm_count(d, t, g) == _walk_fm(d, t, g), (d, t, sigma)
    assert groups == 12


def test_fm_count_multiplies_the_part_counts(monkeypatch):
    # With H = G's own image as the only genus class, h x = x s has
    # solutions on every primary part, so each moving term is a product
    # of local counts; the walk over H \ O(A) / G is the oracle.  (With
    # the real O(L) images these cells have no such term.)
    checked = 0
    for d, t in ((0, 10), (5, 10), (0, 26), (13, 26), (0, 65), (0, 85)):
        own = isometry_group(ns_form(d, t).form)
        for sigma in own:
            try:
                g = GSpec(sigma, 4)
            except InvalidParameterError:
                continue
            if not g.moving_elements():
                continue
            h = g.image_elements()
            monkeypatch.setattr("k3fm.surfaces.genus_representatives", lambda d, t: (d,))
            monkeypatch.setattr("k3fm.surfaces.o_lambda_image", lambda e, t: h)
            moves = [u.compose for u in h] + [lambda x: x.compose(sigma)]
            walk = len(orbit_oracle.orbits(own, lambda x: x.images, moves))
            assert fm_count(d, t, g) == walk, (d, t, sigma.images)
            checked += 1
    assert checked == 20


def test_fm_count_is_the_jacobian_count_when_m_is_one():
    cells = [(d, t) for t in range(3, 61) for d in range(t) if gcd(d, t) == 1]
    assert len(cells) == 1100
    for d, t in cells:
        assert fm_count(d, t, _sign(d, t)) == cli._jacobian_class_count(d, t), (d, t)


def test_fm_count_checks_the_o_lambda_image(monkeypatch):
    real = o_lambda_image
    form = ns_form(0, 5).form
    central = {identity_isometry(form).images, neg_identity(form).images}
    assert len(isometry_group(form)) == 8 and len(real(0, 5)) == 4
    sigma = next(s for s in isometry_group(form) if s.images == ((2, 0), (0, 3)))
    swap = next(s for s in isometry_group(form) if s.images == ((0, 1), (1, 0)))

    # the walk under G = {+-1} reads |H| off the integer isometry rows;
    # without -I they have no -id
    minus_one = ((-1, 0), (0, -1))
    monkeypatch.setattr(
        "k3fm.discforms.rank2_isometries",
        lambda d, e, t: [rows for rows in rank2_isometries(d, e, t) if rows != minus_one],
    )
    ns_form.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="does not contain -id"):
            _fm_walk(0, 5, _sign(0, 5))
    finally:
        monkeypatch.undo()
        ns_form.cache_clear()

    monkeypatch.setattr(NSForm, "o_lambda_order", property(lambda nf: 3))
    with pytest.raises(RuntimeError, match="does not divide"):
        _fm_walk(0, 5, _sign(0, 5))
    monkeypatch.undo()

    # a moving G lists H, which must have |H| elements and hold -id
    def swapped_for_neg(e, t):
        neg = neg_identity(ns_form(e, t).form).images
        return tuple(sigma if u.images == neg else u for u in real(e, t))

    monkeypatch.setattr("k3fm.surfaces.o_lambda_image", swapped_for_neg)
    with pytest.raises(RuntimeError, match="does not contain -id"):
        fm_count(0, 5, GSpec(sigma, 4))

    def three_of_four(e, t):
        image = real(e, t)
        drop = next(u for u in image if u.images not in central)
        return tuple(u for u in image if u is not drop)

    monkeypatch.setattr("k3fm.surfaces.o_lambda_image", three_of_four)
    with pytest.raises(RuntimeError, match="disagrees with its order"):
        fm_count(0, 5, GSpec(sigma, 4))

    # +-id with two isometries that do not close up to a group of order 4
    not_a_group = (identity_isometry(form), neg_identity(form), sigma, swap)
    monkeypatch.setattr("k3fm.surfaces.o_lambda_image", lambda e, t: not_a_group)
    with pytest.raises(RuntimeError, match="Burnside sum"):
        fm_count(0, 5, GSpec(sigma, 4))


def test_fm_count_checks_each_moving_term(monkeypatch):
    # |O(A)| = 24 and sigma has 12 commuting isometries; a fake H of size
    # 8 holding sigma but not sigma^-1 gives the term 12 for sigma
    form = ns_form(0, 13).form
    group = isometry_group(form)
    assert len(group) == 24
    sigma = next(s for s in group if s.images == ((5, 0), (0, 8)))
    keep = {identity_isometry(form).images, neg_identity(form).images, sigma.images}
    others = [s for s in group if s.images not in keep | {sigma.inverse().images}]
    fake = tuple(s for s in group if s.images in keep) + tuple(others[:5])
    monkeypatch.setattr("k3fm.surfaces.o_lambda_image", lambda e, t: fake)
    monkeypatch.setattr(NSForm, "o_lambda_order", property(lambda nf: len(fake)))
    with pytest.raises(RuntimeError, match="moving Burnside term"):
        fm_count(0, 13, GSpec(sigma, 4))


def test_fm_count_checks_the_part_groups_against_their_orders(monkeypatch):
    # a moving G enumerates O(A_p); the table must agree with the scan
    monkeypatch.setattr("k3fm.surfaces._isometry_order", lambda d, factors: 4)
    with pytest.raises(RuntimeError, match="disagree with their orders"):
        fm_count(0, 5, GSpec(_sigma4(), 4))


def test_part_order_matches_the_isometry_scan():
    # A_p(d, t) is A(d mod p^k, p^k), so the forms (d, p^k) with
    # p^k <= 100 are every part the default isometry budget admits
    checked = 0
    for q in range(2, 101):
        if len(modulus(q).primes) != 1:
            continue
        for d in range(q):
            nf = ns_form(d, q)
            (part,) = nf.primary_parts
            assert _isometry_order(d, q) == len(isometry_group(part.form)), (d, q)
            checked += 1
    assert checked == 1375


def test_one_prime_form_is_its_own_part():
    # at t = p^k, |A| = t^2 has one prime: the part's form is the bundle's
    # form object, and restricting a map of the O(L) image gives it back
    checked = 0
    for q in range(2, 101):
        if len(modulus(q).primes) != 1:
            continue
        for d in range(-q, 2 * q):
            nf = ns_form(d, q)
            (part,) = nf.primary_parts
            assert part.form is nf.form, (d, q)
            assert part.indices == tuple(range(nf.form.rank)), (d, q)
            for iso in o_lambda_image(d, q):
                assert part.restrict(iso).images == iso.images, (d, q)
            checked += 1
    assert checked == 3 * sum(q for q in range(2, 101) if len(modulus(q).primes) == 1)


def test_de_counts_each_fm_partner_with_its_fibrations(monkeypatch):
    # probe P17, for G = +-1 and t >= 3: with w(e) = |O(A)| / |H_e| over
    # the genus classes e, fm = sum w(e), and de = sum w(e) (2 - [e = +-1
    # mod t]): each partner with its two fibrations F and F', which count
    # once where an automorphism swaps them (e = 1) and where F' is a wall
    # away (e = -1).  |O(A)| comes from the table, |H_e| from the lattice
    # isometries, de from the Lagrangian subgroups
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    cells = 0
    for t in range(3, 61):
        for d in range(-t, 2 * t):
            order = _isometry_order(d, t)
            fm = de = 0
            for e in genus_representatives(d, t):
                w, r = divmod(order, ns_form(e, t).o_lambda_order)
                assert r == 0, (d, t, e)
                fm += w
                de += w * (1 if e in (1, t - 1) else 2)
            g = _sign(d, t)
            assert fm_count(d, t, g) == fm, (d, t)
            assert de_counts(d, t, g, True)[0] == de, (d, t)
            cells += 1
    assert cells == 5481


def test_isometry_order_of_the_klein_group_follows_the_parity_of_d():
    # 2 || t makes A_2 = (Z/2)^2 on every family cell; its q leaves one
    # transposition of the nonzero elements for even d and none for odd d
    for t in range(2, 43, 4):
        for d in range(-t, 2 * t):
            part = ns_form(d, t).primary_parts[0]
            assert part.form.orders == (2, 2), (d, t)
            order = 2 if d % 2 == 0 else 1
            assert len(isometry_group(part.form)) == order, (d, t)
            assert _isometry_order(d, 2) == order, (d, t)


def test_o_lambda_order_matches_the_image():
    for t in range(1, 61):
        for e in range(t):
            assert ns_form(e, t).o_lambda_order == len(o_lambda_image(e, t)), (e, t)


def test_o_lambda_order_matches_a_brute_box_search():
    # |H| against the distinct maps on A that the isometries of an
    # exhaustive box search induce, each read through the Fraction route:
    # (H, F) -> (v, w) sends the dual vector g0 H + g1 F to g0 v + g1 w
    for t in range(1, 31):
        for e in range(t):
            nf = ns_form(e, t)
            maps = {
                tuple(
                    lattice_oracle.element_from_dual(nf, (
                        v[0] * g[0] + w[0] * g[1],
                        v[1] * g[0] + w[1] * g[1],
                    )).coords
                    for g in lattice_oracle.gens(nf)
                )
                for v, w in _brute_matrices(e, t)
            }
            assert ns_form(e, t).o_lambda_order == len(maps), (e, t)


def _part_group_order(d, t):
    order = 1
    for part in ns_form(d, t).primary_parts:
        order *= len(isometry_group(part.form))
    return order


def test_part_isometry_groups_multiply_to_the_whole_group():
    # O(A) = prod_p O(A_p); the scan over the whole group is the oracle
    for t in range(2, 31):
        for d in range(-t, 2 * t):
            whole = len(isometry_group(ns_form(d, t).form))
            assert _part_group_order(d, t) == whole, (d, t)
            assert _isometry_order(d, t) == whole, (d, t)


def test_cyclic_odd_part_groups_have_two_to_the_omega():
    # probe P5: for gcd(2d, t) = 1, A = Z/t^2 and O(A) = {l : l^2 = 1}
    cells = [(d, t) for t in range(3, 80, 2) for d in range(t) if gcd(2 * d, t) == 1]
    cells += [(1, 1001), (2, 15015), (4, 255255)]
    for d, t in cells:
        assert _part_group_order(d, t) == 2 ** len(modulus(t).primes), (d, t)


def test_fm_count_is_the_jacobian_count_past_the_old_wall(monkeypatch):
    # |A| = t^2 is far above the default isometry budget; every part is
    # under it.  fm is constant on a genus, so one d per genus of units.
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    for t, genera in ((210, 8), (1001, 8), (1155, 16)):
        cells = [d for d in range(1, 100) if gcd(d, t) == 1]
        seen = set()
        for d in cells:
            genus = genus_representatives(d, t)
            if genus in seen:
                continue
            seen.add(genus)
            assert fm_count(d, t, _sign(d, t)) == cli._jacobian_class_count(d, t), (d, t)
        assert len(seen) == genera, t


def test_fm_count_enumerates_isometries_on_parts_only(monkeypatch):
    sizes = []

    def recording(real):
        def wrapper(form, *rest):
            sizes.append(form.size)
            return real(form, *rest)
        return wrapper

    monkeypatch.setattr("k3fm.surfaces.isometry_group", recording(isometry_group))
    monkeypatch.setattr("k3fm.surfaces.isometry_between", recording(isometry_between))
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    for d, t in ((0, 30), (0, 100)):
        sizes.clear()
        largest = max(part.form.size for part in ns_form(d, t).primary_parts)
        fm_count(d, t, _sign(d, t))
        assert sizes and max(sizes) == largest < ns_form(d, t).form.size, (d, t)


def test_fm_count_composes_nothing_for_the_sign_group(monkeypatch):
    # nor enumerates O(A_p) or lists the O(L) images: the orders suffice
    groups = {(d, t): _sign(d, t) for d, t in ((0, 30), (1, 29))}
    calls = []

    def recording(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(DFIsometry, "compose", recording("compose", DFIsometry.compose))
    monkeypatch.setattr(
        "k3fm.surfaces.isometry_group", recording("group", isometry_group)
    )
    monkeypatch.setattr(
        "k3fm.surfaces.o_lambda_image", recording("image", o_lambda_image)
    )
    assert fm_count(0, 30, groups[0, 30]) == 16
    assert fm_count(1, 29, groups[1, 29]) == cli._jacobian_class_count(1, 29)
    assert calls == []
    fm_count(0, 5, GSpec(_sigma4(), 4))
    assert set(calls) == {"compose", "group", "image"}


def test_fm_count_builds_neg_identity_once(monkeypatch):
    # -id is needed only to check the O(L) images a moving G lists: none
    # is built under +-1, also over many genus classes ((1, 29) has
    # eight), and one per call under an order-4 G
    assert len(genus_representatives(1, 29)) == 8
    form = ns_form(0, 5).form
    quarter = GSpec(as_isometry(form, form, ((2, 0), (0, 3))), 4)
    assert len(quarter.image_elements()) == 4
    calls = []

    def counted(form):
        calls.append(form)
        return neg_identity(form)

    monkeypatch.setattr("k3fm.surfaces.neg_identity", counted)
    for d, t in ((0, 30), (1, 29)):
        calls.clear()
        fm_count(d, t, _sign(d, t))
        assert calls == [], (d, t)
    calls.clear()
    fm_count(0, 5, quarter)
    assert calls == [form]


def test_fm_sign_is_the_genus_walk():
    # probe P11: the closed form against the class-by-class Burnside sum
    cells = 0
    for t in range(3, 101):
        for d in range(-t, 2 * t):
            assert fm_sign(d, t) == _fm_walk(d, t, _sign(d, t)), (d, t)
            cells += 1
    assert cells == 15141
    for d, t in ((0, 1), (1, 1), (0, 2), (1, 2), (-3, 2)):
        assert fm_sign(d, t) == 1 == fm_count(d, t, _sign(d, t)), (d, t)


def test_fm_sign_past_the_budgets():
    # cells whose genus walk or largest part is over the default budgets
    values = {(0, 101): 50, (1, 997): 250, (6, 1000): 200, (1, 8633): 2114}
    values[1, 1000003] = 250001
    for (d, t), fm in values.items():
        assert fm_sign(d, t) == fm, (d, t)
    assert fm_sign(1, 8633) == cli._jacobian_class_count(1, 8633)
    with pytest.raises(InvalidParameterError):
        fm_sign(1, 0)


def test_fm_sign_checks_its_numerator(monkeypatch):
    monkeypatch.setattr("k3fm.surfaces._isometry_order", lambda d, factors: 2)
    with pytest.raises(RuntimeError, match="not a multiple of 4"):
        fm_sign(0, 5)  # 2 (|Q| = 1 + eps = 0)


def test_square_units_match_sympy():
    # Euler's criterion at odd p and the rule mod 2^min(k, 3) against an
    # independent quadratic-residue test, on every unit mod t
    residue = pytest.importorskip("sympy.ntheory.residue_ntheory")
    pairs = 0
    for t in range(2, 401):
        factors = modulus(t).factors
        for x in range(1, t):
            if gcd(x, t) == 1:
                assert _is_square_unit(x, factors) == residue.is_quad_residue(x, t), (x, t)
                pairs += 1
    assert pairs == 48_677


def test_groups_pickle_after_their_action_is_used():
    # the coordinate action is built per call and kept by its caller, not
    # stored on the isometry, so a used group still pickles
    sign = _sign(6, 12)
    de_counts(6, 12, sign, True)
    assert pickle.loads(pickle.dumps(sign)) == sign
    form = ns_form(0, 5).form
    g = GSpec(as_isometry(form, form, ((2, 0), (0, 3))), 4)
    de_counts(0, 5, g, False)
    fm_count(0, 5, g)
    assert pickle.loads(pickle.dumps(g)) == g


def test_cold_fm_builds_two_bundles_and_searches_its_own_parts(monkeypatch):
    # the sign group's count reads no other genus class: a cold fm misses
    # ns_form for its own bundle and the least member's, and searches only
    # its own parts' anchors onto the least member's
    monkeypatch.delenv("K3FM_BUDGET", raising=False)
    d, t = 18, 41
    reps = genus_representatives(d, t)
    assert len(reps) > 2 and d not in reps
    ns_form.cache_clear()
    calls = _recording_between(monkeypatch)
    assert cli.main(["fm", "--d", str(d), "--t", str(t)]) == 0
    assert ns_form.cache_info().misses == 2
    own = {id(part.form) for part in ns_form(d, t).primary_parts}
    assert calls and {id(source) for source, _ in calls} <= own
    assert set(ns_form(d, t).anchors) == {reps[0]}
    ns_form.cache_clear()


# ------------------------------------------------------------ order bounds


def test_allowed_g_orders():
    assert allowed_G_orders(20) == (2, 4, 6, 8, 10, 12, 22, 44, 50, 66)
    with pytest.raises(InvalidParameterError):
        allowed_G_orders(0)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(allowed_G_orders(20)))
def test_allowed_orders_are_gspec_legal(n):
    form = ns_form(1, 5).form
    assert GSpec.sign_group(form, n).order == n
