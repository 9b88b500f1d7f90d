"""Orbit walks the library's counts are held to.

``orbits`` partitions everything a set of bijections reaches into orbits,
one point at a time; the tests use it for unit cosets and for double
cosets of isometries.  ``generated_subgroup`` classifies a Lagrangian
element by Fraction pairings of its p-parts, the way the library did
before integer functionals, and ``subgroup_partition`` walks the cycles
of an isometry on the Lagrangian subgroups through it: its orbit count
is the second DE count.
"""

from math import gcd

from k3fm.discforms import ns_form
from k3fm.errors import InvalidSubgroupError
from k3fm.intmath import modulus
from k3fm.lagrangians import SELECT_V, SELECT_VPRIME, LagrangianSubgroup


def orbits(items, key, moves):
    """Orbits of the group generated by ``moves`` on everything reachable
    from ``items``.

    The moves must be bijections of one finite set, so the points a walk
    reaches from x are exactly the orbit of x.  Each orbit is a tuple
    sorted by ``key``, and the orbits are listed by their least member,
    also when that member was not among ``items``.
    """
    seen = set()
    out = []
    for item in items:
        k = key(item)
        if k in seen:
            continue
        seen.add(k)
        orbit = [item]
        for x in orbit:
            for move in moves:
                y = move(x)
                k = key(y)
                if k not in seen:
                    seen.add(k)
                    orbit.append(y)
        out.append(tuple(sorted(orbit, key=key)))
    return tuple(sorted(out, key=lambda o: key(o[0])))


def generated_subgroup(d, t, elem):
    """The Lagrangian subgroup ``elem`` generates: Fraction pairings of
    DFElement p-parts, and membership by the pairing ``b``."""
    nf = ns_form(d, t)
    b = nf.form.b
    idem = modulus(t).idempotents
    selector = []
    for p in modulus(gcd(d, t)).primes:
        wp = idem[p] * elem
        if b(wp.coords, (idem[p] * nf.vbar).coords) == 0:
            selector.append((p, SELECT_V))
        elif b(wp.coords, (idem[p] * nf.vprime).coords) == 0:
            selector.append((p, SELECT_VPRIME))
        else:
            raise InvalidSubgroupError(
                f"p-part at {p} generates neither canonical subgroup"
            )
    sub = LagrangianSubgroup(d, t, tuple(selector))
    if b(elem.coords, sub.generator.coords) != 0:
        raise InvalidSubgroupError(
            "element is not in the subgroup its selector names"
        )
    return sub


def subgroup_partition(subs, sigma):
    """Selectors of the orbits of <sigma> on ``subs``, all of one (d, t),
    walked through ``generated_subgroup``: each orbit of a cyclic group
    is a cycle of sigma."""
    d, t = subs[0].d, subs[0].t
    seen, parts = set(), []
    for L in subs:
        cycle = []
        while L.selector not in seen:
            seen.add(L.selector)
            cycle.append(L.selector)
            L = generated_subgroup(d, t, sigma.apply(L.generator))
        if cycle:
            parts.append(tuple(sorted(cycle)))
    return sorted(parts)
