"""Discriminant-form layer.

The independent oracle for q and b is rational arithmetic on dual-vector
lifts against the Gram matrix; the coordinate implementations must agree
with it everywhere on small groups.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3fm.discforms import (
    DFElement,
    DFIsometry,
    FiniteQuadForm,
    as_isometry,
    b_eval,
    from_lattice,
    identity_isometry,
    isometry_between,
    isometry_group,
    neg_identity,
    ns_form,
    primary_decomposition,
    q_eval,
    structure_invariants,
)
from k3fm.errors import (
    CapacityError,
    InvalidElementError,
    InvalidIsometryError,
    InvalidParameterError,
    OutOfScopeError,
)
from k3fm.lagrangians import GSpec
from k3fm.lattices import IntMatrix, Lattice, RationalVector, isotropic_rays, ns_gram

GRID = [(d, t) for t in range(1, 13) for d in range(t)]


def _diag_lattice(*entries):
    n = len(entries)
    rows = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return Lattice(IntMatrix.from_rows(rows))


# ---------------------------------------------------------------- structure


def test_structure_invariants_against_snf():
    # closed form (gcd(2d, t), t^2/gcd) vs the SNF route in from_lattice
    for d, t in GRID:
        a, b = structure_invariants(d, t)
        assert a * b == t * t
        assert b % a == 0
        expected = tuple(n for n in (a, b) if n > 1)
        assert ns_form(d, t).form.orders == expected


def test_structure_invariants_rejects_bad_t():
    with pytest.raises(InvalidParameterError):
        structure_invariants(1, 0)
    with pytest.raises(InvalidParameterError):
        q_eval(1, -3, 0, 1)


def test_form_size_is_t_squared():
    for d, t in GRID:
        assert ns_form(d, t).form.size == t * t


# ------------------------------------------------------------------ q and b


def _dual_vector(d, t, a, b):
    # a F* + b H* in (H, F) coordinates; F* pairs 1 with F, H* with H
    return RationalVector(
        (Fraction(a, t), Fraction(b, t) - Fraction(2 * a * d, t * t))
    )


def test_q_eval_against_rational_lift():
    for d, t in GRID:
        gram = ns_gram(d, t).to_lattice().gram
        ns = ns_form(d, t)
        for a in range(t):
            for b in range(t):
                vec = _dual_vector(d, t, a, b)
                expected = vec.square(gram) % 2
                assert q_eval(d, t, a, b) == expected
                assert ns.fh(a, b).q() == expected


def test_b_eval_against_rational_lift():
    for d, t in [(1, 5), (0, 6), (6, 6), (3, 4), (2, 9)]:
        gram = ns_gram(d, t).to_lattice().gram
        ns = ns_form(d, t)
        pts = [(0, 1), (1, 0), (1, 1), (2, 3)]
        for a1, b1 in pts:
            for a2, b2 in pts:
                v1 = _dual_vector(d, t, a1, b1)
                v2 = _dual_vector(d, t, a2, b2)
                assert b_eval(ns.fh(a1, b1), ns.fh(a2, b2)) == v1.pair(gram, v2) % 1


def test_b_eval_rejects_mixed_groups():
    with pytest.raises(InvalidElementError):
        b_eval(ns_form(1, 5).vbar, ns_form(2, 5).vbar)


@settings(max_examples=200, deadline=None)
@given(
    pair=st.sampled_from([(1, 5), (0, 6), (6, 6), (3, 8), (2, 9), (5, 12)]),
    c1=st.integers(min_value=0, max_value=143),
    c2=st.integers(min_value=0, max_value=143),
)
def test_polarization_identity(pair, c1, c2):
    form = ns_form(*pair).form
    xs = list(form.elements())
    x = xs[c1 % len(xs)]
    y = xs[c2 % len(xs)]
    assert b_eval(x, y) == ((x + y).q() - x.q() - y.q()) / 2 % 1


@settings(max_examples=200, deadline=None)
@given(
    pair=st.sampled_from([(1, 5), (0, 6), (6, 6), (3, 8)]),
    c=st.integers(min_value=0, max_value=63),
    k=st.integers(min_value=-8, max_value=8),
)
def test_q_scales_by_square(pair, c, k):
    form = ns_form(*pair).form
    xs = list(form.elements())
    x = xs[c % len(xs)]
    assert (k * x).q() == (k * k * x.q()) % 2


# ----------------------------------------------------------------- elements


def test_element_arithmetic_and_order():
    form = ns_form(0, 6).form
    for e in form.elements():
        assert (e + (-e)).coords == form.zero().coords
        brute = next(
            k for k in range(1, form.size + 1) if (k * e).coords == form.zero().coords
        )
        assert e.order() == brute


def test_element_coordinate_reduction():
    form = ns_form(1, 5).form
    assert form.element((27,)).coords == (2,)
    assert (-form.element((1,))).coords == (24,)


def test_vbar_vprime_relations():
    ns = ns_form(2, 5)
    assert ns.vbar.coords == (5,)
    assert ns.vprime.coords == (15,)
    assert ns.vprime == (-2) * ns.vbar  # m = 1 so v' = -d v
    for d, t in GRID:
        ns = ns_form(d, t)
        if t == 1:
            continue
        assert ns.vbar.order() == t
        assert ns.vbar.is_isotropic()
        assert ns.vprime.is_isotropic()
        assert ns.fh(0, 1) == ns.vbar


def test_lift_round_trip():
    for d, t in [(1, 5), (0, 6), (6, 6), (3, 4)]:
        lf = ns_form(d, t).lf
        for e in lf.form.elements():
            vec = lf.lift(e)
            assert lf.lattice.in_dual(vec)
            assert lf.element_from_dual(vec) == e


def test_element_from_dual_rejects_non_dual():
    lf = ns_form(1, 5).lf
    with pytest.raises(InvalidElementError):
        lf.element_from_dual(RationalVector((Fraction(1, 7), Fraction(0))))


def test_lift_rejects_foreign_element():
    with pytest.raises(InvalidElementError):
        ns_form(1, 5).lf.lift(ns_form(2, 5).vbar)


def test_induced_isometry_validates():
    lf = ns_form(1, 5).lf
    assert lf.induced_isometry(IntMatrix.identity(2)) == identity_isometry(lf.form)
    for bad in (
        IntMatrix.identity(3),  # wrong size
        IntMatrix.from_rows([[1, 1], [0, 1]]),  # does not keep L*
        IntMatrix.from_rows([[2, 0], [0, 2]]),  # keeps L*, not q
    ):
        with pytest.raises(InvalidIsometryError):
            lf.induced_isometry(bad)


def test_ns_form_matches_fraction_route():
    """from_lattice reads q and b off integer SNF data, and ns_form takes
    vbar and vprime as classes of integer vectors; the Fraction route
    they replaced is rebuilt here from public pieces."""
    for t in range(1, 61):
        for d in range(-t, 2 * t):
            nf = ns_form(d, t)
            lf, ns = nf.lf, ns_gram(d, t)
            gram = ns.gram
            assert nf.form.q_gen == tuple(g.square(gram) % 2 for g in lf.gens)
            assert nf.form.b_matrix == tuple(
                tuple(x.pair(gram, y) % 1 for y in lf.gens) for x in lf.gens
            )
            f, fprime = isotropic_rays(ns)
            assert nf.vbar == lf.element_from_dual(Fraction(1, t) * f)
            assert nf.vprime == lf.element_from_dual(Fraction(1, t) * fprime)


def _fraction_q(form, x):
    r = form.rank
    total = sum((x[i] * x[i] * form.q_gen[i] for i in range(r)), Fraction(0))
    total += sum(
        (2 * x[i] * x[j] * form.b_matrix[i][j]
         for i in range(r) for j in range(i + 1, r)),
        Fraction(0),
    )
    return total % 2


def _fraction_b(form, x, y):
    r = form.rank
    return sum(
        (x[i] * y[j] * form.b_matrix[i][j] for i in range(r) for j in range(r)),
        Fraction(0),
    ) % 1


def test_integer_q_and_b_match_fraction_sums():
    """q and b on integer numerators against Fraction sums: q on every
    element, b of every element with the generators, vbar and vprime,
    and b on every pair of elements when t <= 6."""
    for t in range(1, 13):
        for d in range(-t, 2 * t):
            nf = ns_form(d, t)
            form = nf.form
            elems = [e.coords for e in form.elements()]
            r = form.rank
            units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
            partners = elems if t <= 6 else units + [nf.vbar.coords, nf.vprime.coords]
            for x in elems:
                assert form.q(x) == _fraction_q(form, x)
                for y in partners:
                    assert form.b(x, y) == _fraction_b(form, x, y)


# --------------------------------------------------------------- validation


def test_form_validation_rejections():
    half = Fraction(1, 2)
    with pytest.raises(InvalidParameterError):
        FiniteQuadForm((3, 2), (Fraction(2, 3), half), ((Fraction(2, 3), 0), (0, half)))
    with pytest.raises(InvalidParameterError):
        FiniteQuadForm((2,), (Fraction(5, 2),), ((half,),))
    with pytest.raises(InvalidParameterError):
        FiniteQuadForm((2,), (Fraction(1, 3),), ((Fraction(1, 3),),))
    with pytest.raises(InvalidParameterError):
        FiniteQuadForm(
            (2, 2), (half, half), ((half, Fraction(0)), (half, half))
        )
    with pytest.raises(InvalidParameterError):
        FiniteQuadForm((2,), (half,), ((Fraction(0),),))


def test_make_reduces_representatives():
    form = FiniteQuadForm.make((4,), (Fraction(9, 4),), ((Fraction(5, 4),),))
    assert form.q_gen == (Fraction(1, 4),)
    assert form.b_matrix == ((Fraction(1, 4),),)


# ------------------------------------------------------ primary decomposition


def test_primary_decomposition_reassembles():
    for d, t in [(6, 6), (0, 6), (5, 12), (2, 10)]:
        form = ns_form(d, t).form
        parts = primary_decomposition(form)
        assert [p.prime for p in parts] == sorted({p.prime for p in parts})
        size = 1
        for p in parts:
            size *= p.form.size
        assert size == form.size
        for e in form.elements():
            back = form.zero()
            qsum = Fraction(0)
            for p in parts:
                piece = p.project(e)
                back = back + p.embed(piece)
                qsum += piece.q()
            assert back == e
            assert qsum % 2 == e.q()
        # distinct parts pair to zero
        for i, p in enumerate(parts):
            for r in parts[i + 1 :]:
                for x in p.form.elements():
                    for y in r.form.elements():
                        assert b_eval(p.embed(x), r.embed(y)) == 0


def test_primary_part_rejects_foreign_elements():
    parts = primary_decomposition(ns_form(6, 6).form)
    with pytest.raises(InvalidElementError):
        parts[0].project(ns_form(1, 5).vbar)
    with pytest.raises(InvalidElementError):
        parts[0].embed(ns_form(6, 6).vbar)


# ---------------------------------------------------------------- isometries


def test_isometry_group_frozen_orders():
    assert len(isometry_group(ns_form(0, 5).form)) == 8
    assert len(isometry_group(ns_form(1, 5).form)) == 2
    assert len(isometry_group(ns_form(2, 5).form)) == 2
    assert len(isometry_group(ns_form(0, 2).form)) == 2


def test_isometry_group_is_a_group():
    for d, t in [(0, 5), (6, 6), (1, 5), (0, 4)]:
        form = ns_form(d, t).form
        group = isometry_group(form)
        keys = {g.images for g in group}
        assert len(keys) == len(group)
        assert identity_isometry(form).images in keys
        assert neg_identity(form).images in keys
        for g in group:
            as_isometry(form, form, g.images)  # revalidates q and bijectivity
            assert g.compose(g.inverse()).is_identity()
            powers = g.powers()
            assert powers[-1].is_identity()
            assert len(powers) == g.order()
            inverse = powers[-2] if len(powers) > 1 else identity_isometry(form)
            assert g.inverse() == inverse
            for h in group:
                assert g.compose(h).images in keys


def test_isometry_apply_preserves_q():
    form = ns_form(0, 6).form
    for g in isometry_group(form):
        for e in form.elements():
            assert g.apply(e).q() == e.q()
            assert g.apply(e).order() == e.order()


def test_isometry_between_equivalent_forms():
    f15 = ns_form(1, 5).form
    f45 = ns_form(4, 5).form
    phi = isometry_between(f15, f45)
    assert phi is not None
    assert phi.images == ((12,),)
    elems = list(f15.elements())
    assert sorted(phi.apply(e).coords for e in elems) == sorted(
        e.coords for e in elems
    )
    for e in elems:
        assert phi.apply(e).q() == e.q()
    back = phi.inverse()
    for e in elems:
        assert back.apply(phi.apply(e)) == e


def test_isometry_between_inequivalent_forms():
    # 2 is not a square mod 5, so the two quadratic spaces differ
    assert isometry_between(ns_form(1, 5).form, ns_form(2, 5).form) is None
    # different groups entirely
    assert isometry_between(ns_form(1, 5).form, ns_form(0, 5).form) is None


def test_isometry_between_same_form_is_identity():
    form = ns_form(3, 7).form
    phi = isometry_between(form, form)
    assert phi is not None and phi.is_identity()


def test_generic_rank3_isometry_group():
    # every form of the family, and every primary part of one, has rank
    # <= 2; a rank-3 form is refused before the orders, the budget and the
    # equal-forms shortcut are looked at
    form = from_lattice(_diag_lattice(2, 2, 2)).form
    assert form.orders == (2, 2, 2)
    for cap in (None, 1):
        with pytest.raises(OutOfScopeError, match="rank <= 2"):
            isometry_group(form, cap=cap)
    # diag(2,2,2): q marks the standard basis, so the isometries are the
    # six permutations, and as_isometry still accepts each of them
    for perm in permutations(range(3)):
        images = tuple(tuple(int(j == p) for j in range(3)) for p in perm)
        assert as_isometry(form, form, images).images == images


def test_generic_rank3_isometry_between():
    source = from_lattice(_diag_lattice(2, 2, 8)).form
    # same form rewritten on the basis (g1, g2, g1 + g3)
    half, eighth = Fraction(1, 2), Fraction(1, 8)
    target = FiniteQuadForm.make(
        (2, 2, 8),
        (half, half, half + eighth),
        (
            (half, 0, half),
            (0, half, 0),
            (half, 0, half + eighth),
        ),
    )
    diag222 = from_lattice(_diag_lattice(2, 2, 2)).form
    for call in (
        lambda: isometry_between(source, target),
        lambda: isometry_between(source, source),
        lambda: isometry_between(source, source, cap=1),
        lambda: isometry_between(diag222, source),
        lambda: isometry_between(diag222, diag222, cap=1),
    ):
        with pytest.raises(OutOfScopeError, match="rank <= 2"):
            call()
    # the isometry the search used to find is still accepted when given:
    # g3 = (g1 + g3) - g1
    phi = as_isometry(source, target, ((1, 0, 0), (0, 1, 0), (1, 0, 1)))
    for e in source.elements():
        assert phi.apply(e).q() == e.q()


def test_as_isometry_rejections():
    form = ns_form(1, 5).form
    with pytest.raises(InvalidIsometryError):
        as_isometry(form, form, ())  # wrong shape
    with pytest.raises(InvalidIsometryError):
        as_isometry(form, form, ((0,),))  # not surjective
    with pytest.raises(InvalidIsometryError):
        as_isometry(form, form, ((2,),))  # breaks q
    big = ns_form(0, 5).form
    with pytest.raises(InvalidIsometryError):
        as_isometry(big, big, ((1, 0), (1, 0)))  # not injective
    with pytest.raises(InvalidIsometryError):
        as_isometry(big, form, ((1,), (2,)))  # different groups


def test_isometry_budget():
    form = ns_form(0, 5).form
    with pytest.raises(CapacityError):
        isometry_group(form, cap=3)
    with pytest.raises(CapacityError):
        isometry_between(form, form, cap=3)


def test_isometry_compose_order_inverse():
    form = ns_form(0, 5).form
    neg = neg_identity(form)
    assert neg.order() == 2
    assert neg.compose(neg).is_identity()
    with pytest.raises(InvalidIsometryError, match="automorphism"):
        DFIsometry(form, ns_form(5, 5).form, ((1, 0), (0, 1))).order()


def test_isometry_image_shape_is_checked():
    # images are not cut or padded to fit: one per domain generator, each
    # with one coordinate per codomain generator
    form = ns_form(1, 5).form
    for images in (((24, 5, 9),), ((1,), (2,)), (), ((),)):
        with pytest.raises(InvalidIsometryError, match="shape"):
            DFIsometry(form, form, images)
        with pytest.raises(InvalidIsometryError, match="shape"):
            GSpec(DFIsometry(form, form, images), 2)
    with pytest.raises(InvalidIsometryError, match="shape"):
        DFIsometry(ns_form(0, 5).form, form, ((1, 0), (0, 1)))
    assert DFIsometry(form, form, ((49,),)).images == ((24,),)
    trivial = ns_form(1, 1).form
    assert trivial.rank == 0
    assert DFIsometry(trivial, trivial, ()).images == ()


def test_order_of_a_non_automorphism_stops_at_group_size():
    # no automorphism of a nontrivial finite group has order >= |G|, so
    # the zero map on Z/25 is refused after at most 25 powers
    form = ns_form(1, 5).form
    assert form.orders == (25,)
    with pytest.raises(RuntimeError, match="runaway"):
        DFIsometry(form, form, ((0,),)).order()


def test_order_of_doubling_on_z25():
    form = ns_form(1, 5).form
    assert DFIsometry(form, form, ((2,),)).order() == 20
    # order |G| - 1, the largest an automorphism can have
    z5 = FiniteQuadForm.make((5,), (Fraction(2, 5),), ((Fraction(2, 5),),))
    assert DFIsometry(z5, z5, ((2,),)).order() == 4
