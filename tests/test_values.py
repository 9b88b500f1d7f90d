"""The value classes: equality and hash over their compared fields only,
and a pickle round trip, on one instance of each."""

import copy
import pickle

import pytest

from k3fm.cli import Flag
from k3fm.discforms import (
    DFElement,
    DFIsometry,
    FiniteQuadForm,
    NSForm,
    PrimaryPart,
    from_lattice,
    neg_identity,
    ns_form,
    primary_decomposition,
)
from k3fm.lagrangians import (
    GSpec,
    LagrangianElement,
    LagrangianSubgroup,
    canonical_pair,
    enumerate_lagrangian_subgroups,
)
from k3fm.lattices import Lattice, ns_gram
from k3fm.surfaces import MukaiVector

# each class, a function making one instance, and its compared fields
CASES = [
    (Lattice, lambda: ns_gram(1, 5), ("gram",)),
    (FiniteQuadForm, lambda: from_lattice(ns_gram(3, 4)), ("orders", "den", "qn", "bn")),
    (DFElement, lambda: ns_form(3, 4).form.element((1, 5)), ("form", "coords")),
    (DFIsometry, lambda: neg_identity(ns_form(3, 4).form), ("domain", "codomain", "images")),
    (NSForm, lambda: NSForm(3, 4), ("d", "t")),
    (PrimaryPart, lambda: primary_decomposition(from_lattice(ns_gram(6, 12)))[0],
     ("prime", "form", "parent", "indices", "cofactors")),
    (LagrangianElement, lambda: canonical_pair(3, 4)[0], ("elem",)),
    (LagrangianSubgroup, lambda: enumerate_lagrangian_subgroups(6, 12)[1],
     ("d", "t", "selector")),
    (GSpec, lambda: GSpec.sign_group(ns_form(3, 4).form, 4), ("generator", "order")),
    (MukaiVector, lambda: MukaiVector(0, [0, 1], 0), ("r", "D", "s")),
    (Flag, lambda: Flag("--d", int, True, help="degree"),
     ("name", "type", "required", "default", "help", "group")),
]
# fields kept on an instance but left out of equality and hash
EXCLUDED = {
    NSForm: ("form", "u_rows", "columns", "anchors"),
    LagrangianSubgroup: ("generator",),
    GSpec: ("_powers", "_moving"),
}


@pytest.mark.parametrize("cls, make, fields", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_classes_compare_their_fields_and_pickle(cls, make, fields):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert cls._fields == fields
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a).startswith(f"{cls.__name__}({fields[0]}=")
    for name in fields:
        changed = copy.copy(a)
        setattr(changed, name, object())
        assert changed != a and a != changed, name
    for name in EXCLUDED.get(cls, ()):
        changed = copy.copy(a)
        setattr(changed, name, ())
        assert changed == a and hash(changed) == hash(a), name
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a)
    assert [getattr(back, name) for name in fields] == [getattr(a, name) for name in fields]
