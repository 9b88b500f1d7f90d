"""Surface-level semantics: Jacobian calculus, twist-class counts, Mukai
vectors, fibration predicates, automorphism and partner counts, and the
headline classifier."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3fm import cli
from k3fm.discforms import (
    DFIsometry,
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
from k3fm.lagrangians import GSpec, _orbits
from k3fm.lattices import (
    RationalVector,
    genus_representatives,
    isotropic_rays,
    ns_gram,
    rank2_isometries,
)
from k3fm.surfaces import (
    HTClass,
    J_1728,
    J_GENERIC,
    J_ZERO,
    MukaiVector,
    SurfaceModel,
    allowed_G_orders,
    aut_orders,
    caldararu_class,
    coprime_jacobian_classes,
    de_counts,
    fibration_count,
    fibrations_isomorphic,
    fm_count,
    ht_classify,
    jac0_isomorphic,
    jacobian_class_canonical,
    jacobian_compose,
    jacobian_index,
    jspecial_torsor_exists,
    mukai_divisibility,
    o_lambda_image,
    o_plus_image,
    second_fibration_jacobian,
)


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


# ------------------------------------------------------------ SurfaceModel


def test_general_model():
    model = SurfaceModel.general(6, 6)
    assert model.m == 6
    assert model.B == frozenset({1, 5})
    SurfaceModel.general(0, 1)
    SurfaceModel.general(1, 2)


def test_model_validation_rejections():
    with pytest.raises(InvalidParameterError):
        SurfaceModel(1, 0, _sign(1, 1), frozenset({0}), frozenset({0}))
    with pytest.raises(InvalidIsometryError):
        SurfaceModel(2, 5, _sign(1, 5), frozenset({1, 4}), frozenset({1, 4}))
    with pytest.raises(InvalidParameterError):
        SurfaceModel(1, 5, _sign(1, 5), frozenset({1}), frozenset({1}))  # no -1
    with pytest.raises(InvalidParameterError):
        SurfaceModel(1, 7, _sign(1, 7), frozenset({1, 2, 6}), frozenset({1, 2, 6}))
    with pytest.raises(InvalidParameterError):  # order 8 is not 2, 4 or 6
        units15 = frozenset({1, 2, 4, 7, 8, 11, 13, 14})
        SurfaceModel(1, 15, _sign(1, 15), units15, units15)
    with pytest.raises(InvalidParameterError):  # B must sit inside Btilde
        SurfaceModel(1, 5, _sign(1, 5), frozenset({1, 4}), frozenset({1}))
    with pytest.raises(InvalidParameterError):
        SurfaceModel(1, 5, _sign(1, 5), frozenset({1, 4}), frozenset({1, 4}),
                     isotrivial_j="weird")


def test_model_isotrivial_constraints():
    b4 = frozenset({1, 5, 8, 12})  # cyclic of order 4 mod 13
    with pytest.raises(InvalidParameterError):
        SurfaceModel(1, 13, _sign(1, 13), b4, b4)
    SurfaceModel(1, 13, _sign(1, 13), b4, b4, isotrivial_j=J_1728)
    klein = frozenset({1, 5, 7, 11})  # not cyclic mod 12
    with pytest.raises(InvalidParameterError):
        SurfaceModel(1, 12, _sign(1, 12), klein, klein, isotrivial_j=J_1728)
    b6 = frozenset({1, 2, 3, 4, 5, 6})
    with pytest.raises(InvalidParameterError):
        SurfaceModel(1, 7, _sign(1, 7), b6, b6)
    SurfaceModel(1, 7, _sign(1, 7), b6, b6, isotrivial_j=J_ZERO)


def test_model_t_general_restricts_g():
    g4 = GSpec(_sigma4(), 4)
    b = frozenset({1, 4})
    with pytest.raises(InvalidParameterError):
        SurfaceModel(0, 5, g4, b, b, t_general=True)
    SurfaceModel(0, 5, g4, b, b, t_general=False)


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
    # the integer map against the Fraction route: M gen_i as a dual vector
    for t in range(1, 31):
        for d in range(-t, 2 * t):
            nf = ns_form(d, t)
            lf = nf.lf
            pairs = nf.lattice_isometries
            assert [mat for mat, _ in pairs] == list(rank2_isometries(d, d, t))
            nef = isotropic_rays(ns_gram(d, t))[: fibration_count(d, t)]
            full, plus = set(), set()
            for mat, iso in pairs:
                m = mat.entries
                images = tuple(
                    lf.element_from_dual(RationalVector(tuple(
                        sum(m[i][k] * g.coords[k] for k in range(2))
                        for i in range(2)
                    ))).coords
                    for g in lf.gens
                )
                assert lf.induced_isometry(mat).images == iso.images == images
                full.add(images)
                if RationalVector.make(mat.column(1)) in nef:
                    plus.add(images)
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
    assert de_counts(SurfaceModel.general(1, 5)) == (2, 1)
    assert de_counts(SurfaceModel.general(0, 5)) == (4, 2)
    assert de_counts(SurfaceModel.general(6, 6)) == (4, 4)
    assert de_counts(SurfaceModel.general(4, 10)) == (4, 2)  # m = 2


def test_de_counts_closed_form_beyond_budget(monkeypatch):
    monkeypatch.setenv("K3FM_BUDGET", "10")
    assert de_counts(SurfaceModel.general(0, 5)) == (4, 2)


def test_de_counts_non_general():
    g4 = GSpec(_sigma4(), 4)
    b = frozenset({1, 4})
    model = SurfaceModel(0, 5, g4, b, b, t_general=False)
    assert de_counts(model) == (2, 2)


def test_de_counts_capacity(monkeypatch):
    g4 = GSpec(_sigma4(), 4)  # built before the budget tightens
    b = frozenset({1, 4})
    model = SurfaceModel(0, 5, g4, b, b, t_general=False)
    monkeypatch.setenv("K3FM_BUDGET", "10")
    with pytest.raises(CapacityError):
        de_counts(model)


def test_de_counts_big_squarefree():
    t = 510510
    assert de_counts(SurfaceModel.general(t, t)) == (5898240, 128)


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
    # 2 is not a square mod 5, so A_2 is not isometric to A_1
    monkeypatch.setattr("k3fm.surfaces.genus_representatives", lambda d, t: (1, 2))
    with pytest.raises(RuntimeError, match="genus member lost its form isometry"):
        fm_count(1, 5, _sign(1, 5))


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
        total += len(_orbits(ambient, lambda x: x.images, moves))
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

    def without_neg(e, t):
        neg = neg_identity(ns_form(e, t).form).images
        return tuple(u for u in real(e, t) if u.images != neg)

    monkeypatch.setattr("k3fm.surfaces.o_lambda_image", without_neg)
    with pytest.raises(RuntimeError, match="does not contain -id"):
        fm_count(0, 5, _sign(0, 5))

    def three_of_four(e, t):
        image = real(e, t)
        drop = next(u for u in image if u.images not in central)
        return tuple(u for u in image if u is not drop)

    monkeypatch.setattr("k3fm.surfaces.o_lambda_image", three_of_four)
    with pytest.raises(RuntimeError, match="does not divide"):
        fm_count(0, 5, _sign(0, 5))

    # +-id with two isometries that do not close up to a group of order 4
    sigma = next(s for s in isometry_group(form) if s.images == ((2, 0), (0, 3)))
    swap = next(s for s in isometry_group(form) if s.images == ((0, 1), (1, 0)))
    not_a_group = (identity_isometry(form), neg_identity(form), sigma, swap)
    monkeypatch.setattr("k3fm.surfaces.o_lambda_image", lambda e, t: not_a_group)
    with pytest.raises(RuntimeError, match="Burnside sum"):
        fm_count(0, 5, GSpec(sigma, 4))


def test_fm_count_composes_nothing_for_the_sign_group(monkeypatch):
    groups = {(d, t): _sign(d, t) for d, t in ((0, 30), (1, 29))}
    calls = []
    real = DFIsometry.compose

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(DFIsometry, "compose", counted)
    assert fm_count(0, 30, groups[0, 30]) == 16
    assert fm_count(1, 29, groups[1, 29]) == cli._jacobian_class_count(1, 29)
    assert calls == []
    fm_count(0, 5, GSpec(_sigma4(), 4))
    assert calls


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
