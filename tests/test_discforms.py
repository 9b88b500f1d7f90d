"""Discriminant-form layer.

The independent oracle for q and b is rational arithmetic on dual-vector
lifts against the Gram matrix; the coordinate implementations must agree
with it everywhere on small groups.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import pytest
import lattice_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from snf_oracle import smith_normal_form

from k3fm.discforms import (
    DFElement,
    DFIsometry,
    FiniteQuadForm,
    PrimaryPart,
    as_isometry,
    from_lattice,
    identity_isometry,
    isometry_between,
    isometry_group,
    neg_identity,
    ns_form,
    primary_decomposition,
    structure_invariants,
)
from k3fm.errors import (
    CapacityError,
    InvalidElementError,
    InvalidIsometryError,
    InvalidParameterError,
    OutOfScopeError,
)
from k3fm.intmath import modulus
from k3fm.lagrangians import GSpec
from k3fm.lattices import (
    Lattice,
    dual_generators,
    genus_representatives,
    isotropic_rays,
    ns_gram,
)
from k3fm.surfaces import fm_count

GRID = [(d, t) for t in range(1, 13) for d in range(t)]


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
        ns_form(1, -3)
    # a cached (1, 5) bundle answers no call with t = 5.0 or d = 1.0
    ns_form(1, 5)
    for d, t in ((1, 5.0), (1.0, 5)):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            ns_form(d, t)


def test_form_size_is_t_squared():
    for d, t in GRID:
        assert ns_form(d, t).form.size == t * t


# ------------------------------------------------------------------ q and b


def _dual_vector(d, t, a, b):
    # a F* + b H* in (H, F) coordinates; F* pairs 1 with F, H* with H
    return Fraction(a, t), Fraction(b, t) - Fraction(2 * a * d, t * t)


def test_q_eval_against_rational_lift():
    for d, t in GRID:
        gram = ns_gram(d, t).gram
        ns = ns_form(d, t)
        for a in range(t):
            for b in range(t):
                vec = _dual_vector(d, t, a, b)
                expected = lattice_oracle.square(gram, vec) % 2
                assert ns.fh(a, b).q() == expected


def test_b_against_rational_lift():
    for d, t in [(1, 5), (0, 6), (6, 6), (3, 4), (2, 9)]:
        gram = ns_gram(d, t).gram
        ns = ns_form(d, t)
        pts = [(0, 1), (1, 0), (1, 1), (2, 3)]
        for a1, b1 in pts:
            for a2, b2 in pts:
                v1 = _dual_vector(d, t, a1, b1)
                v2 = _dual_vector(d, t, a2, b2)
                want = lattice_oracle.pair(gram, v1, v2) % 1
                assert ns.form.b(ns.fh(a1, b1).coords, ns.fh(a2, b2).coords) == want


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
    assert form.b(x.coords, y.coords) == ((x + y).q() - x.q() - y.q()) / 2 % 1


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
        nf = ns_form(d, t)
        for e in nf.form.elements():
            vec = lattice_oracle.lift(nf, e)
            assert lattice_oracle.in_dual(ns_gram(d, t), vec)
            assert lattice_oracle.element_from_dual(nf, vec) == e


def test_element_from_dual_rejects_non_dual():
    with pytest.raises(InvalidElementError):
        lattice_oracle.element_from_dual(ns_form(1, 5), (Fraction(1, 7), 0))


def test_lift_rejects_foreign_element():
    with pytest.raises(InvalidElementError):
        lattice_oracle.lift(ns_form(1, 5), ns_form(2, 5).vbar)


def test_induced_isometry_validates():
    nf = ns_form(1, 5)
    assert nf.induced_isometry(((1, 0), (0, 1))) == identity_isometry(nf.form)
    for bad, message in (
        (((1,),), "size"),
        (((1, 0), (0, 1), (0, 0)), "size"),
        ([[1, 0, 0], [0, 1, 0]], "size"),
        ([[Fraction(1, 2), 0], [0, 1]], "integers"),
        ([[1.0, 0], [0, 1]], "integers"),
        ([[1, 1], [0, 1]], "dual lattice"),  # does not keep L*
        ([[2, 0], [0, 2]], "q not preserved"),  # keeps L*, not q
    ):
        with pytest.raises(InvalidIsometryError, match=message):
            nf.induced_isometry(bad)


def test_ns_form_matches_fraction_route():
    """ns_form reads q and b off integer SNF data, and takes
    vbar and vprime as classes of integer vectors; the Fraction route
    they replaced is rebuilt here from public pieces."""
    for t in range(1, 61):
        for d in range(-t, 2 * t):
            nf = ns_form(d, t)
            gram, gens = ns_gram(d, t).gram, lattice_oracle.gens(nf)
            assert nf.form.q_gen == tuple(lattice_oracle.square(gram, g) % 2 for g in gens)
            assert nf.form.b_matrix == tuple(
                tuple(lattice_oracle.pair(gram, x, y) % 1 for y in gens) for x in gens
            )
            f, fprime = isotropic_rays(d, t)
            assert nf.vbar == lattice_oracle.element_from_dual(nf, [c / t for c in f])
            assert nf.vprime == lattice_oracle.element_from_dual(nf, [c / t for c in fprime])


def _eager_bundle(d, t):
    """The route ns_form took before the 2x2 SNF and the lazy pieces:
    the generic Smith normal form (``snf_oracle``), and every piece built
    with the bundle."""
    gram = ns_gram(d, t).gram
    d_mat, u_rows, v_rows = smith_normal_form(gram)
    diag = (d_mat[0][0], d_mat[1][1])
    orders = tuple(x for x in diag if x != 1)
    cols = [tuple(row[i] for row in v_rows) for i in range(2) if diag[i] != 1]
    gv = [[sum(a * b for a, b in zip(row, c)) for row in gram] for c in cols]
    vgv = [[sum(a * b for a, b in zip(c, w)) for w in gv] for c in cols]
    q_gen = tuple(
        Fraction(vgv[i][i] % (2 * ni * ni), ni * ni) for i, ni in enumerate(orders)
    )
    b_matrix = tuple(
        tuple(Fraction(x % (ni * nj), ni * nj) for x, nj in zip(vgv[i], orders))
        for i, ni in enumerate(orders)
    )
    gens = tuple(tuple(Fraction(x, ni) for x in c) for c, ni in zip(cols, orders))
    form = FiniteQuadForm.make(orders, q_gen, b_matrix)
    m = gcd(d, t)

    def class_of(gx):
        return DFElement(
            form,
            tuple(
                sum(a * b for a, b in zip(row, gx))
                for row, ni in zip(u_rows, diag)
                if ni != 1
            ),
        )

    return {
        "form": form,
        "diag": diag,
        "u_rows": u_rows,
        "gens": gens,
        "vbar": class_of((1, 0)),
        "vprime": class_of((d // m, t // m)),
        "parts": primary_decomposition(form),
    }


def _assert_lazy_pieces_match(nf, want):
    assert lattice_oracle.gens(nf) == want["gens"]
    for name in ("vbar", "vprime"):
        assert getattr(nf, name) == want[name], name


def test_ns_form_matches_the_eager_generic_route():
    ns_form.cache_clear()
    for t in range(1, 61):
        for d in range(-t, 2 * t):
            nf, want = ns_form(d, t), _eager_bundle(d, t)
            form = want["form"]
            assert nf.form.orders == form.orders, (d, t)
            assert nf.form.q_gen == form.q_gen, (d, t)
            assert nf.form.b_matrix == form.b_matrix, (d, t)
            assert nf.form == form, (d, t)
            # the bundle keeps the rows of U at the invariants above 1
            assert nf.u_rows == tuple(
                tuple(row) for row, ni in zip(want["u_rows"], want["diag"]) if ni != 1
            ), (d, t)
            _assert_lazy_pieces_match(nf, want)
            assert nf.primary_parts == want["parts"], (d, t)
    ns_form.cache_clear()


def test_fm_count_leaves_genus_members_unexpanded():
    # a genus member that fm_count only counts costs its SNF, form and
    # parts; the dual classes and rational generators wait for a reader
    ns_form.cache_clear()
    d, t = 7, 47
    assert fm_count(d, t, GSpec.sign_group(ns_form(d, t).form)) == 12
    others = [e for e in genus_representatives(d, t) if e != d]
    assert others
    for e in others:
        nf = ns_form(e, t)
        assert nf.primary_parts
        assert not {"vbar", "vprime", "o_lambda_maps"} & set(vars(nf)), e
    assert ns_form.cache_info().misses == len(others) + 1
    for e in others:
        _assert_lazy_pieces_match(ns_form(e, t), _eager_bundle(e, t))
    ns_form.cache_clear()


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
    # each case breaks one condition; the fields are numerators over den
    cases = [
        ((3, 2), 6, (4, 3), ((4, 0), (0, 3))),  # orders not ascending
        ((1,), 1, (0,), ((0,),)),  # an order below 2
        ((2,), 2, (1, 1), ((1,),)),  # q and orders of different lengths
        ((2,), 2, (1,), ((1, 0),)),  # b not square
        ((2,), 2, (5,), ((1,),)),  # q = 5/2 outside [0, 2)
        ((2,), 3, (1,), ((1,),)),  # q = 1/3 not well defined on Z/2
        ((2, 2), 2, (1, 1), ((1, 0), (1, 1))),  # b not symmetric
        ((2,), 2, (1,), ((0,),)),  # b(g, g) != q(g) mod 1
        ((2, 2), 2, (1, 1), ((1, 2), (2, 1))),  # b = 1 outside [0, 1)
        ((2, 2), 4, (2, 2), ((2, 1), (1, 2))),  # b = 1/4 not well defined
        ((2,), 4, (2,), ((2,),)),  # q = 2/4: den not in lowest terms
        ((), 2, (), ()),  # the zero form over den 2
        ((2,), -2, (-1,), ((-1,),)),  # a negative den
    ]
    for orders, den, qn, bn in cases:
        with pytest.raises(InvalidParameterError):
            FiniteQuadForm(orders, den, qn, bn)
    assert FiniteQuadForm((2,), 2, (1,), ((1,),)) == FiniteQuadForm.make(
        (2,), (Fraction(1, 2),), ((Fraction(1, 2),),)
    )


def test_make_rebuilds_every_family_form_in_lowest_terms():
    """make on the Fraction views gives back each bundle form and each
    primary part, and den is the lcm of the reduced denominators."""
    for t in range(1, 61):
        for d in range(-t, 2 * t):
            nf = ns_form(d, t)
            for f in (nf.form, *(part.form for part in nf.primary_parts)):
                assert FiniteQuadForm.make(f.orders, f.q_gen, f.b_matrix) == f, (d, t)
                dens = [x.denominator for x in chain(f.q_gen, *f.b_matrix)]
                assert f.den == lcm(*dens), (d, t)


def test_fh_matches_the_dual_generator_route():
    # the class of a F* + b H* against element_from_dual of the Fraction
    # vector built from dual_generators
    for t in range(1, 31):
        for d in range(-t, 2 * t):
            nf = ns_form(d, t)
            fstar, hstar = dual_generators(d, t)
            pairs = [(0, 1), (1, 0)] + [(k, (3 * k + 1) % t) for k in range(0, t, 4)]
            for a, b in pairs + [(-a, b - t) for a, b in pairs]:
                vec = [a * x + b * y for x, y in zip(fstar, hstar)]
                want = lattice_oracle.element_from_dual(nf, vec)
                assert nf.fh(a, b) == want, (d, t, a, b)


def test_make_reduces_representatives():
    form = FiniteQuadForm.make((4,), (Fraction(9, 4),), ((Fraction(5, 4),),))
    assert form.q_gen == (Fraction(1, 4),)
    assert form.b_matrix == ((Fraction(1, 4),),)


def test_make_and_as_isometry_take_integers_only():
    # an order or image coordinate that is not an integer used to be
    # truncated by int(): the order 11/2 gave a form on Z/5, and the
    # images 9/2 and 4.7 both gave the image 4
    with pytest.raises(InvalidParameterError, match="orders must be integers"):
        FiniteQuadForm.make((Fraction(11, 2),), (Fraction(2, 5),), ((Fraction(2, 5),),))
    form = FiniteQuadForm.make((5,), (Fraction(2, 5),), ((Fraction(2, 5),),))
    for image in (Fraction(9, 2), 4.7):
        with pytest.raises(InvalidIsometryError, match="must be integers"):
            as_isometry(form, form, ((image,),))
    assert as_isometry(form, form, ((4,),)).images == ((4,),)


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
                        assert form.b(p.embed(x).coords, r.embed(y).coords) == 0


def _fraction_primary_decomposition(form):
    """The Fraction construction primary_decomposition used before it
    read the parent's integer view: q_i m_i^2 mod 2, b_ij m_i m_j mod 1."""
    parts = []
    for p in modulus(form.size).primes:
        indices, part_orders, cofactors = [], [], []
        for i, n in enumerate(form.orders):
            pk = 1
            while n % p == 0:
                pk, n = pk * p, n // p
            if pk > 1:
                indices.append(i)
                part_orders.append(pk)
                cofactors.append(n)
        q_gen = tuple((form.q_gen[i] * m * m) % 2 for i, m in zip(indices, cofactors))
        b_matrix = tuple(
            tuple((form.b_matrix[i][j] * mi * mj) % 1 for j, mj in zip(indices, cofactors))
            for i, mi in zip(indices, cofactors)
        )
        part = FiniteQuadForm.make(tuple(part_orders), q_gen, b_matrix)
        parts.append(PrimaryPart(p, part, form, tuple(indices), tuple(cofactors)))
    return tuple(parts)


def test_primary_decomposition_matches_fraction_route():
    cells = [(d, t) for t in range(1, 31) for d in range(-t, 2 * t)]
    for d, t in cells:
        form = ns_form(d, t).form
        assert primary_decomposition(form) == _fraction_primary_decomposition(form), (d, t)
    # a form whose q and b carry different denominators in each part
    third, sixth, five_12 = Fraction(1, 3), Fraction(1, 6), Fraction(5, 12)
    form = FiniteQuadForm.make(
        (6, 12), (third, five_12), ((third, sixth), (sixth, five_12))
    )
    assert primary_decomposition(form) == _fraction_primary_decomposition(form)


def test_primary_parts_are_cached_on_the_bundle():
    ns_form.cache_clear()
    nf = ns_form(6, 12)
    parts = nf.primary_parts
    assert parts == primary_decomposition(nf.form)
    assert ns_form(6, 12).primary_parts is parts
    ns_form.cache_clear()
    assert ns_form(6, 12).primary_parts is not parts


def test_restrict_agrees_with_the_whole_isometry():
    """sigma(x) is the sum over p of the embedded restrictions applied to
    the projections of x, for every isometry of the whole form."""
    for d, t in [(6, 6), (0, 6), (5, 12), (2, 10), (0, 12), (3, 18)]:
        form = ns_form(d, t).form
        parts = primary_decomposition(form)
        for sigma in isometry_group(form):
            local = [part.restrict(sigma) for part in parts]
            for part, s in zip(parts, local):
                as_isometry(part.form, part.form, s.images)
                # the element route: embed each part generator, apply, project
                assert s.images == tuple(
                    part.project(sigma.apply(part.embed(part.form.element(unit)))).coords
                    for unit in identity_isometry(part.form).images
                )
            for x in form.elements():
                back = form.zero()
                for part, s in zip(parts, local):
                    back = back + part.embed(s.apply(part.project(x)))
                assert back == sigma.apply(x), (d, t, sigma.images, x.coords)


def test_primary_part_rejects_foreign_elements():
    parts = primary_decomposition(ns_form(6, 6).form)
    with pytest.raises(InvalidElementError):
        parts[0].project(ns_form(1, 5).vbar)
    with pytest.raises(InvalidElementError):
        parts[0].embed(ns_form(6, 6).vbar)
    with pytest.raises(InvalidElementError):
        parts[0].restrict(identity_isometry(ns_form(1, 5).form))


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


def _set_budget(monkeypatch, value):
    if value is None:
        monkeypatch.delenv("K3FM_BUDGET", raising=False)
    else:
        monkeypatch.setenv("K3FM_BUDGET", value)


def _diag_rows(*entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def test_generic_rank3_isometry_group(monkeypatch):
    # every form of the family, and every primary part of one, has rank
    # <= 2, and no rank-3 form can be built for isometry_group to see:
    # diag(2, 2, 2) is refused as a lattice and its discriminant form
    # (Z/2)^3 as a form, whatever the budget ("0" would be refused if read)
    half = Fraction(1, 2)
    for value in (None, "1", "0"):
        _set_budget(monkeypatch, value)
        with pytest.raises(OutOfScopeError, match="rank 2"):
            from_lattice(Lattice(_diag_rows(2, 2, 2)))
        with pytest.raises(OutOfScopeError, match="rank <= 2"):
            FiniteQuadForm.make((2, 2, 2), (half,) * 3, _diag_rows(half, half, half))
        with pytest.raises(OutOfScopeError, match="rank <= 2"):
            FiniteQuadForm((2, 2, 2), 2, (1, 1, 1), tuple(map(tuple, _diag_rows(1, 1, 1))))


def test_generic_rank3_isometry_between(monkeypatch):
    # diag(2, 2, 8) and its form rewritten on the basis (g1, g2, g1 + g3)
    # are refused before isometry_between could be asked to match them
    half, eighth = Fraction(1, 2), Fraction(1, 8)
    for value in (None, "1", "0"):
        _set_budget(monkeypatch, value)
        with pytest.raises(OutOfScopeError, match="rank 2"):
            from_lattice(Lattice(_diag_rows(2, 2, 8)))
        with pytest.raises(OutOfScopeError, match="rank <= 2"):
            FiniteQuadForm.make(
                (2, 2, 8),
                (half, half, half + eighth),
                (
                    (half, 0, half),
                    (0, half, 0),
                    (half, 0, half + eighth),
                ),
            )


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


def test_isometry_budget(monkeypatch):
    form = ns_form(0, 5).form
    monkeypatch.setenv("K3FM_BUDGET", "3")
    for call in (isometry_group, lambda f: isometry_between(f, f)):
        with pytest.raises(CapacityError) as info:
            call(form)
        assert info.value.budget == 3


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
