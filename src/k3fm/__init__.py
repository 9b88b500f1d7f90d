"""Exact arithmetic for the rank-two Neron-Severi lattices of elliptic
K3 surfaces: discriminant forms, Lagrangian subgroups and their
involution, Jacobian calculus, derived elliptic structures, and
Fourier-Mukai partner counts.

Everything is integer or Fraction arithmetic; nothing is floating point.
The two enumeration hot spots (isotropic element lists, built from the
cyclic subgroups of the wanted order, and isometry scans) are plain
Python on arbitrary-precision integers.

Sign convention: computations happen on the Neron-Severi discriminant
form; the transcendental one is the same group with q negated, which
changes none of the counts.  See the discforms module docstring.
"""

from .budget import DEFAULT_ELEMENT_CAP, DEFAULT_ISOMETRY_CAP, element_cap, isometry_cap
from .discforms import (
    DFElement,
    DFIsometry,
    FiniteQuadForm,
    NSForm,
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
from .errors import (
    CapacityError,
    InvalidElementError,
    InvalidIsometryError,
    InvalidLatticeError,
    InvalidMukaiVectorError,
    InvalidParameterError,
    InvalidSubgroupError,
    K3FMError,
    NotApplicableError,
    OutOfScopeError,
)
from .lagrangians import (
    GSpec,
    LagrangianElement,
    LagrangianSubgroup,
    canonical_pair,
    count_lagrangians,
    enumerate_lagrangian_elements,
    enumerate_lagrangian_subgroups,
    involution,
    subgroup_generated_by,
    units_action,
)
from .lattices import (
    Lattice,
    dual_generators,
    genus_representatives,
    isotropic_rays,
    ns_gram,
    overlattice,
    rank2_isometries,
)
from .surfaces import (
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
    o_lambda_image,
    o_plus_image,
    second_fibration_jacobian,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_ELEMENT_CAP",
    "DEFAULT_ISOMETRY_CAP",
    "CapacityError",
    "DFElement",
    "DFIsometry",
    "FiniteQuadForm",
    "GSpec",
    "HTClass",
    "InvalidElementError",
    "InvalidIsometryError",
    "InvalidLatticeError",
    "InvalidMukaiVectorError",
    "InvalidParameterError",
    "InvalidSubgroupError",
    "K3FMError",
    "LagrangianElement",
    "LagrangianSubgroup",
    "Lattice",
    "MukaiVector",
    "NSForm",
    "NotApplicableError",
    "OutOfScopeError",
    "PrimaryPart",
    "allowed_G_orders",
    "as_isometry",
    "aut_orders",
    "caldararu_class",
    "canonical_pair",
    "coprime_jacobian_classes",
    "count_lagrangians",
    "de_counts",
    "dual_generators",
    "element_cap",
    "enumerate_lagrangian_elements",
    "enumerate_lagrangian_subgroups",
    "fibration_count",
    "fibrations_isomorphic",
    "fm_count",
    "fm_sign",
    "from_lattice",
    "genus_representatives",
    "ht_classify",
    "identity_isometry",
    "involution",
    "isometry_between",
    "isometry_cap",
    "isometry_group",
    "isotropic_rays",
    "jac0_isomorphic",
    "jacobian_class_canonical",
    "jacobian_compose",
    "jacobian_index",
    "jspecial_torsor_exists",
    "mukai_divisibility",
    "neg_identity",
    "ns_form",
    "ns_gram",
    "o_lambda_image",
    "o_plus_image",
    "overlattice",
    "primary_decomposition",
    "rank2_isometries",
    "second_fibration_jacobian",
    "structure_invariants",
    "subgroup_generated_by",
    "units_action",
]
