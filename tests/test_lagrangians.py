"""Lagrangian elements, subgroups, the selector involution, the unit
action and the group G.  The counting law is cross-checked by full
enumeration on a grid; the classification is cross-checked by
partitioning the enumerated elements into the enumerated subgroups."""

from fractions import Fraction
from math import gcd

import lattice_oracle
import orbit_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3fm.discforms import (
    DFIsometry,
    as_isometry,
    identity_isometry,
    isometry_between,
    isometry_group,
    neg_identity,
    ns_form,
)
from k3fm.errors import (
    CapacityError,
    InvalidElementError,
    InvalidIsometryError,
    InvalidParameterError,
    InvalidSubgroupError,
)
from k3fm.intmath import modulus
from k3fm.lagrangians import (
    SELECT_V,
    SELECT_VPRIME,
    GSpec,
    LagrangianElement,
    LagrangianSubgroup,
    _selector,
    _subgroup_of,
    canonical_pair,
    count_lagrangians,
    enumerate_lagrangian_elements,
    enumerate_lagrangian_subgroups,
    involution,
    subgroup_generated_by,
    units_action,
)
from k3fm.surfaces import de_counts

GRID = [(d, t) for t in range(1, 17) for d in range(t)]


def test_count_law_against_enumeration():
    for d, t in GRID:
        elems = enumerate_lagrangian_elements(d, t)
        subs = enumerate_lagrangian_subgroups(d, t)
        want_elems, want_subs = count_lagrangians(d, t)
        assert len(elems) == want_elems, (d, t)
        assert len(subs) == want_subs, (d, t)
        omega_m = len(modulus(gcd(d, t)).primes)
        assert want_subs == 2**omega_m
        assert want_elems == modulus(t).phi * 2**omega_m


def test_count_rejects_bad_t():
    with pytest.raises(InvalidParameterError):
        count_lagrangians(1, 0)


def test_frozen_small_enumerations():
    assert [w.coords for w in enumerate_lagrangian_elements(1, 5)] == [
        (5,),
        (10,),
        (15,),
        (20,),
    ]
    assert [w.coords for w in enumerate_lagrangian_elements(0, 2)] == [
        (0, 1),
        (1, 0),
    ]
    subs = enumerate_lagrangian_subgroups(0, 5)
    assert [L.selector for L in subs] == [
        ((5, SELECT_V),),
        ((5, SELECT_VPRIME),),
    ]
    assert [L.generator.coords for L in subs] == [(1, 0), (0, 1)]


def test_generators_partition_elements():
    # every Lagrangian element generates exactly one Lagrangian subgroup,
    # so the phi(t)-element generator lists tile the element list
    for d, t in [(6, 6), (0, 5), (4, 10), (6, 12), (1, 7), (0, 8), (9, 15)]:
        elems = sorted(w.coords for w in enumerate_lagrangian_elements(d, t))
        tiled = sorted(
            w.coords
            for L in enumerate_lagrangian_subgroups(d, t)
            for w in lattice_oracle.lagrangian_generators(L)
        )
        assert tiled == elems


def test_subgroup_elements_are_isotropic_and_closed():
    for d, t in [(6, 6), (0, 5), (4, 10)]:
        for L in enumerate_lagrangian_subgroups(d, t):
            elems = L.elements()
            assert len({e.coords for e in elems}) == t
            for e in elems:
                assert e.is_isotropic()
                assert L.contains(e)


def test_canonical_pair_properties():
    for d, t in GRID:
        vbar, vprime = canonical_pair(d, t)
        assert vbar.t == t and vprime.t == t
        m = gcd(d, t)
        if m == 1 and t > 1:
            assert vprime.elem == (-d) * vbar.elem
        same = subgroup_generated_by(d, t, vbar) == subgroup_generated_by(d, t, vprime)
        assert same == (m == 1)


def test_classification_round_trip():
    for d, t in [(6, 6), (0, 5), (4, 10), (2, 8), (9, 15)]:
        for w in enumerate_lagrangian_elements(d, t):
            L = subgroup_generated_by(d, t, w)
            assert L.contains(w.elem)
            assert w.coords in {x.coords for x in lattice_oracle.lagrangian_generators(L)}


def _multiples(g, t):
    """The coordinates of s g for s in [0, t)."""
    orders = g.form.orders
    return {tuple(s * c % n for c, n in zip(g.coords, orders)) for s in range(t)}


def test_membership_against_multiples():
    # contains tests b(x, generator) = 0, which is membership only because
    # L = L-perp; here membership is read off the list of multiples
    for t in range(1, 17):
        for d in range(-t, 2 * t):
            form = ns_form(d, t).form
            for L in enumerate_lagrangian_subgroups(d, t):
                members = _multiples(L.generator, t)
                for x in form.elements():
                    assert L.contains(x) == (x.coords in members), (d, t, x.coords)
            for w in enumerate_lagrangian_elements(d, t):
                sub = subgroup_generated_by(d, t, w)
                assert w.coords in _multiples(sub.generator, t), (d, t, w.coords)


def test_classification_matches_fraction_oracle():
    checked = 0
    for t in range(1, 31):
        for d in range(-t, 2 * t):
            for w in enumerate_lagrangian_elements(d, t):
                got = subgroup_generated_by(d, t, w)
                assert got == orbit_oracle.generated_subgroup(d, t, w.elem), (d, t, w.coords)
                checked += 1
    assert checked == 23_328


def test_classifier_keeps_both_subgroup_checks():
    # (2, 6): m = 2, A = Z/2 + Z/18.  The 2-part of (0, 1) pairs to nonzero
    # with both canonical 2-parts; (0, 2) classifies as all-V but pairs
    # to nonzero with the generator of <vbar>
    with pytest.raises(InvalidSubgroupError, match="neither canonical subgroup"):
        _selector(2, 6, (0, 1))
    assert _selector(2, 6, (0, 2)) == ((2, SELECT_V),)
    with pytest.raises(
        InvalidSubgroupError, match="not in the subgroup its selector names"
    ):
        _subgroup_of(2, 6, (0, 2))
    assert _subgroup_of(2, 6, ns_form(2, 6).vbar.coords).selector == ((2, SELECT_V),)


def test_classification_rejects_foreign_element():
    w = enumerate_lagrangian_elements(1, 5)[0]
    with pytest.raises(InvalidElementError):
        subgroup_generated_by(2, 5, w)


def test_selector_validation():
    nf = ns_form(6, 6)
    both = ((2, SELECT_V), (3, SELECT_V))
    with pytest.raises(InvalidSubgroupError, match="selector primes"):
        LagrangianSubgroup(6, 6, ((2, SELECT_V),))  # missing prime 3
    with pytest.raises(InvalidSubgroupError, match="V or Vprime"):
        LagrangianSubgroup(6, 6, ((2, "W"), (3, SELECT_V)))
    with pytest.raises(InvalidSubgroupError, match="positive integer"):
        LagrangianSubgroup(6, 0, ())
    # the all-V subgroup is <vbar>, and a subgroup is its selector
    sub = LagrangianSubgroup(6, 6, both)
    assert sub.generator == nf.vbar
    assert sub == enumerate_lagrangian_subgroups(6, 6)[0] and sub is not nf
    # q = 1 is not isotropic: q lives in Q/2Z, not Q/Z
    q_one = ns_form(0, 6).form.element((1, 3))
    assert (q_one.order(), q_one.q(), q_one.is_isotropic()) == (6, 1, False)
    with pytest.raises(InvalidElementError, match="not isotropic"):
        LagrangianElement(q_one)


def test_subgroup_generators_on_the_grid():
    # each derived generator has order t, is isotropic and lies in the
    # family's form, and every unit multiple of it generates its subgroup
    checked = 0
    for t in range(1, 61):
        units = [u for u in (1, 2, t - 1) if gcd(u, t) == 1]
        for d in range(-t, 2 * t):
            form = ns_form(d, t).form
            for sub in enumerate_lagrangian_subgroups(d, t):
                g = sub.generator
                assert g.form is form, (d, t)
                assert g.order() == t and g.is_isotropic(), (d, t, sub.selector)
                for u in units:
                    w = LagrangianElement(u * g)
                    assert subgroup_generated_by(d, t, w) == sub, (d, t, sub.selector, u)
                checked += 1
    assert checked == 8_364  # sum of 2^omega(gcd(d, t)) over the grid


def test_involution_is_an_involution():
    for d, t in [(6, 6), (0, 5), (4, 10), (1, 5), (12, 18)]:
        for L in enumerate_lagrangian_subgroups(d, t):
            image = involution(d, t, L)
            assert involution(d, t, image) == L
            flips = sum(
                1
                for (p, c), (p2, c2) in zip(L.selector, image.selector)
                if c != c2
            )
            assert flips == len(L.selector)
    # m = 1: no selector entries, the involution is the identity
    only = enumerate_lagrangian_subgroups(1, 5)[0]
    assert involution(1, 5, only) == only


def test_involution_swaps_canonical_subgroups():
    vbar, vprime = canonical_pair(6, 6)
    lv = subgroup_generated_by(6, 6, vbar)
    lp = subgroup_generated_by(6, 6, vprime)
    assert involution(6, 6, lv) == lp
    assert lv != lp


def test_involution_rejects_wrong_family():
    L = enumerate_lagrangian_subgroups(0, 5)[0]
    with pytest.raises(InvalidSubgroupError):
        involution(0, 10, L)


def test_units_action_example():
    w = canonical_pair(2, 5)[0]
    moved = units_action(2, w)
    assert moved.elem == 3 * w.elem  # 2^-1 = 3 mod 5


@settings(max_examples=120, deadline=None)
@given(
    pair=st.sampled_from([(1, 5), (6, 6), (0, 7), (4, 10)]),
    idx=st.integers(min_value=0, max_value=500),
    k=st.integers(min_value=1, max_value=60),
    l=st.integers(min_value=1, max_value=60),
)
def test_units_action_is_an_action(pair, idx, k, l):
    d, t = pair
    elems = enumerate_lagrangian_elements(d, t)
    w = elems[idx % len(elems)]
    if gcd(k, t) != 1 or gcd(l, t) != 1:
        with pytest.raises(InvalidParameterError):
            units_action(k if gcd(k, t) != 1 else l, w)
        return
    assert units_action(1, w) == w
    assert units_action(k, units_action(l, w)) == units_action(k * l, w)
    assert units_action(k, w).coords in {x.coords for x in elems}


def test_units_action_preserves_subgroup():
    for d, t in [(6, 6), (0, 5)]:
        for w in enumerate_lagrangian_elements(d, t):
            L = subgroup_generated_by(d, t, w)
            for k in range(1, t):
                if gcd(k, t) == 1:
                    assert subgroup_generated_by(d, t, units_action(k, w)) == L


def test_units_action_trivial_t1():
    w = enumerate_lagrangian_elements(0, 1)[0]
    assert units_action(7, w) == w


# ----------------------------------------------------------------- GSpec


def test_gspec_validation():
    form = ns_form(1, 5).form
    neg = neg_identity(form)
    assert GSpec.sign_group(form).order == 2
    assert GSpec(neg, 8).kernel_order == 4
    with pytest.raises(InvalidParameterError):
        GSpec(neg, 3)  # odd
    with pytest.raises(InvalidParameterError):
        GSpec(neg, 34)  # totient 16 does not divide 20
    with pytest.raises(InvalidParameterError):
        GSpec(neg, 2 * 20 * 20 + 2)  # above the rank bound
    with pytest.raises(InvalidParameterError):
        GSpec(identity_isometry(form), 2)  # image misses -id
    sigma4 = next(
        s for s in isometry_group(ns_form(0, 5).form) if s.order() == 4
    )
    with pytest.raises(InvalidParameterError):
        GSpec(sigma4, 6)  # 6 is not a multiple of the image order 4
    assert GSpec(sigma4, 4).kernel_order == 1
    assert GSpec(sigma4, 4).image_elements() == sigma4.powers()
    assert GSpec(sigma4, 8).kernel_order == 2
    # the order is an integer, never a float, Fraction or string read as one
    for order in (4.0, Fraction(4), "4", None):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            GSpec.sign_group(form, order)


def test_sign_group_is_not_revalidated(monkeypatch):
    # -id is an isometry of every form; any other generator is validated
    calls = []

    def counted(*args):
        calls.append(args)
        return as_isometry(*args)

    monkeypatch.setattr("k3fm.lagrangians.as_isometry", counted)
    for d, t in ((1, 5), (0, 30), (6, 6), (0, 1)):
        GSpec.sign_group(ns_form(d, t).form)
        GSpec.sign_group(ns_form(d, t).form, 4)
    assert calls == []
    sigma4 = next(s for s in isometry_group(ns_form(0, 5).form) if s.order() == 4)
    GSpec(sigma4, 4)
    assert len(calls) == 1


def test_gspec_rejects_non_automorphism():
    f15, f45 = ns_form(1, 5).form, ns_form(4, 5).form
    phi = isometry_between(f15, f45)
    with pytest.raises(InvalidIsometryError):
        GSpec(phi, 2)
    # x -> 7x is an automorphism of A = Z/25 of order 4 whose square is
    # -id, but it does not preserve q
    with pytest.raises(InvalidIsometryError):
        GSpec(DFIsometry(f15, f15, ((7,),)), 4)


def test_gspec_image_elements(monkeypatch):
    form = ns_form(0, 5).form
    g = GSpec.sign_group(form, 4)
    imgs = g.image_elements()
    assert len(imgs) == 2
    assert imgs[-1].is_identity()
    # the image <sigma> is walked once, at construction: sigma^2, sigma^3
    # and sigma^4 = id cost three compositions, whatever is asked later
    sigma4 = next(s for s in isometry_group(form) if s.order() == 4)
    calls = []
    compose = DFIsometry.compose
    monkeypatch.setattr(
        DFIsometry, "compose", lambda a, b: calls.append(1) or compose(a, b)
    )
    g = GSpec(sigma4, 8)
    assert (len(g.image_elements()), g.kernel_order, len(g.image_elements())) == (4, 2, 4)
    assert len(calls) == 3


# ------------------------------------------------------------ big inputs


def test_squarefree_giant_t_stays_cheap():
    t = 510510  # 2*3*5*7*11*13*17
    subs = enumerate_lagrangian_subgroups(t, t)
    assert len(subs) == 128
    assert count_lagrangians(t, t) == (11796480, 128)
    L = subs[0]
    assert involution(t, t, involution(t, t, L)) == L
    w = LagrangianElement(L.generator)
    assert subgroup_generated_by(t, t, w) == L
    assert de_counts(t, t, GSpec.sign_group(ns_form(t, t).form), True) == (5898240, 128)


def test_element_budget(monkeypatch):
    monkeypatch.setenv("K3FM_BUDGET", "10")
    with pytest.raises(CapacityError):
        enumerate_lagrangian_elements(1, 5)
    monkeypatch.setenv("K3FM_BUDGET", "not-a-number")
    with pytest.raises(InvalidParameterError):
        enumerate_lagrangian_elements(1, 5)
