"""Lagrangian elements, subgroups, the selector involution and orbit
counting.  The counting law is cross-checked by full enumeration on a
grid; the classification is cross-checked by partitioning the enumerated
elements into the enumerated subgroups."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    InvalidElementError,
    InvalidIsometryError,
    InvalidParameterError,
    InvalidSubgroupError,
)
from k3fm.intmath import distinct_primes, totient
from k3fm.lagrangians import (
    SELECT_V,
    SELECT_VPRIME,
    GSpec,
    LagrangianElement,
    LagrangianSubgroup,
    canonical_pair,
    count_lagrangians,
    double_quotient,
    enumerate_lagrangian_elements,
    enumerate_lagrangian_subgroups,
    g_orbits,
    involution,
    subgroup_generated_by,
    units_action,
)
from k3fm.surfaces import SurfaceModel, de_counts

GRID = [(d, t) for t in range(1, 17) for d in range(t)]


def test_count_law_against_enumeration():
    for d, t in GRID:
        elems = enumerate_lagrangian_elements(d, t)
        subs = enumerate_lagrangian_subgroups(d, t)
        want_elems, want_subs = count_lagrangians(d, t)
        assert len(elems) == want_elems, (d, t)
        assert len(subs) == want_subs, (d, t)
        omega_m = len(distinct_primes(gcd(d, t)))
        assert want_subs == 2**omega_m
        assert want_elems == totient(t) * 2**omega_m


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
            for w in L.lagrangian_generators()
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
            assert w.coords in {x.coords for x in L.lagrangian_generators()}


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


def test_classification_rejects_foreign_element():
    w = enumerate_lagrangian_elements(1, 5)[0]
    with pytest.raises(InvalidElementError):
        subgroup_generated_by(2, 5, w)


def test_selector_validation():
    nf = ns_form(6, 6)
    with pytest.raises(InvalidSubgroupError):
        LagrangianSubgroup(6, 6, ((2, SELECT_V),), nf.vbar)  # missing prime 3
    with pytest.raises(InvalidSubgroupError):
        LagrangianSubgroup(6, 6, ((2, "W"), (3, SELECT_V)), nf.vbar)
    with pytest.raises(InvalidSubgroupError):
        LagrangianSubgroup(
            6, 6, ((2, SELECT_V), (3, SELECT_V)), 2 * nf.vbar
        )  # generator order 3, not 6
    with pytest.raises(InvalidSubgroupError):
        # isotropic of order 6, but in the group of (0, 6), not of (6, 6)
        LagrangianSubgroup(6, 6, ((2, SELECT_V), (3, SELECT_V)), ns_form(0, 6).vbar)


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


# ----------------------------------------------------------------- orbits


def test_g_orbits_sign_group_on_elements():
    elems = enumerate_lagrangian_elements(1, 5)
    g = GSpec.sign_group(ns_form(1, 5).form)
    orbits = g_orbits(elems, g)
    assert [[w.coords for w in orbit] for orbit in orbits] == [
        [(5,), (20,)],
        [(10,), (15,)],
    ]


def test_g_orbits_sorts_orbits_reached_from_a_partial_list():
    # neither least member (5,) nor (10,) is passed, and in either input
    # order the orbits come back listed by their least member
    by_coords = {w.coords: w for w in enumerate_lagrangian_elements(1, 5)}
    g = GSpec.sign_group(ns_form(1, 5).form)
    for given in ([(20,), (15,)], [(15,), (20,)]):
        orbits = g_orbits([by_coords[c] for c in given], g)
        assert [[w.coords for w in orbit] for orbit in orbits] == [
            [(5,), (20,)],
            [(10,), (15,)],
        ]


def test_g_orbits_sign_group_on_subgroups():
    # -id fixes every subgroup, so orbits are singletons
    subs = enumerate_lagrangian_subgroups(6, 6)
    g = GSpec.sign_group(ns_form(6, 6).form)
    orbits = g_orbits(subs, g)
    assert len(orbits) == len(subs)


def test_g_orbits_partition():
    for d, t in [(0, 5), (6, 6), (4, 10)]:
        form = ns_form(d, t).form
        elems = enumerate_lagrangian_elements(d, t)
        for sigma in isometry_group(form):
            if sigma.order() % 2 and not _contains_minus(sigma, form):
                continue
            try:
                g = GSpec(sigma, _valid_order(sigma.order()))
            except InvalidParameterError:
                continue
            orbits = g_orbits(elems, g)
            flat = [w.coords for orbit in orbits for w in orbit]
            assert sorted(flat) == sorted(w.coords for w in elems)


def _contains_minus(sigma, form):
    minus = neg_identity(form).images
    power = sigma
    for _ in range(sigma.order()):
        if power.images == minus:
            return True
        power = sigma.compose(power)
    return False


def _valid_order(img_order):
    n = img_order if img_order % 2 == 0 else 2 * img_order
    while totient(n) and 20 % totient(n):
        n *= 2
    return n


def test_g_orbits_rejects_mismatched_group():
    elems = enumerate_lagrangian_elements(1, 5)
    g = GSpec.sign_group(ns_form(2, 5).form)
    with pytest.raises(InvalidIsometryError):
        g_orbits(elems, g)


def test_double_quotient_frozen():
    sign = lambda d, t: GSpec.sign_group(ns_form(d, t).form)
    assert double_quotient(1, 5, sign(1, 5))[0] == 1
    assert double_quotient(0, 5, sign(0, 5))[0] == 1  # iota swaps the two
    count, reps = double_quotient(6, 6, sign(6, 6))
    assert count == 2
    assert len(reps) == 2


def test_double_quotient_reps_are_subgroups():
    g = GSpec.sign_group(ns_form(4, 10).form)
    count, reps = double_quotient(4, 10, g)
    selectors = {L.selector for L in enumerate_lagrangian_subgroups(4, 10)}
    assert all(L.selector in selectors for L in reps)
    assert count == len(reps)


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
    assert double_quotient(t, t, GSpec.sign_group(ns_form(t, t).form))[0] == 64
    assert de_counts(SurfaceModel.general(t, t)) == (5898240, 128)


def test_element_budget(monkeypatch):
    monkeypatch.setenv("K3FM_BUDGET", "10")
    with pytest.raises(CapacityError):
        enumerate_lagrangian_elements(1, 5)
    monkeypatch.setenv("K3FM_BUDGET", "not-a-number")
    with pytest.raises(InvalidParameterError):
        enumerate_lagrangian_elements(1, 5)
