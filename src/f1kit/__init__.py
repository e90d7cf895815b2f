"""f1kit: monoid spectra, torified schemes and counting polynomials.

The package models varieties that are unions of split tori: pointed
monoids and their prime spectra, torifications with exact counting
polynomials, schemes given by a monoid-level space plus a rank part,
strong and weak morphisms between them, group objects presented as
extensions of a finite component group by a torus, and the GL(n),
parabolic and Grassmannian catalog with quotient and descent checks.
All arithmetic is exact: integers, fractions and polynomials with
integer coefficients; no floats anywhere.
"""

from .errors import (
    AxiomsFailed,
    CocycleInvalid,
    F1KitError,
    InfiniteHomSet,
    InvalidComposition,
    MembershipUndecidedWithinBound,
    NonDivisible,
    NotASubgroup,
    NotPrime,
    OutOfScale,
    SelectorError,
    ShapeMismatch,
    ThetaNotHomomorphism,
    TooManyGenerators,
    TypeNotMaximal,
    ZeroPolynomial,
    guard,
)
from .report import Report, jsonable
from .linalg import Mat, det, feasible, kernel_basis, rank, relations
from .monoids import (
    AFFINE,
    GROUP_WITH_ZERO,
    FgAbelianGroup,
    GroupHom,
    PointedMonoid,
    compose_hom,
    hom_count,
    member,
    monoid_from_json,
    units_of,
    validate_hom,
)
from .spectrum import (
    MoPoint,
    MoSpace,
    disjoint_union,
    point_count_poly,
    space_report,
    spec,
)
from .counting import (
    IntPolynomial,
    LimitResult,
    brute_count,
    compare_counts,
    gauss_binomial,
    gauss_factorial,
    gauss_number,
    torification_poly,
    vanishing_order_and_limit,
)
from .schemes import (
    Cell,
    F1Scheme,
    MonomialMap,
    RankScheme,
    StrongMorphismRk,
    Torification,
    WeakMorphism,
    additive_chain,
    affine_toric,
    check_strong,
    check_weak,
    compose_maps,
    compose_strong,
    compose_weak,
    f1_points,
    from_torification,
    h_points_count,
    induced_monomial,
    match_components,
    monomial_morphism,
    point_scheme,
    product_scheme,
    rank_part,
    strong_to_weak,
)
from .groups import (
    Cocycle,
    ExtensionLaw,
    FiniteGroupTable,
    GroupModel,
    ThetaRep,
    check_action,
    check_group_axioms,
    constant_group,
    extension_model,
    f1_points_group,
    inversion_weak_morphism,
    law_weak_morphism,
    require_group,
    self_action,
    sigma_check,
    torus_group,
    unit_weak_morphism,
    z_rank_group,
)
from .reductive import (
    block_perms,
    coset_subset,
    coset_subset_bijection,
    gl_counting_identity,
    gl_model,
    grassmannian_model,
    lambda_action,
    one_line_perms,
    parabolic_model,
    perm_compose,
    perm_length,
    perm_matrix,
    quotient_model,
    quotient_square_check,
    schubert_dim,
    symmetric_table,
    tau_check,
    tau_morphism,
    universality_check,
)

__version__ = "0.1.0"
