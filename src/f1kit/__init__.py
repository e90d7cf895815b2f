"""f1kit: monoid spectra, torified schemes and counting polynomials.

The package models varieties that are unions of split tori: pointed
monoids and their prime spectra, torifications with exact counting
polynomials, schemes given by a monoid-level space plus a rank part,
strong and weak morphisms between them, group objects presented as
extensions of a finite component group by a torus, and the GL(n),
parabolic and Grassmannian catalog with quotient and descent checks.
All arithmetic is exact: integers, fractions and polynomials with
integer coefficients; no floats anywhere.

``import f1kit`` loads only the exceptions and ``guard`` (``errors``).
Every other name in ``__all__`` lives in the submodule that _EXPORTS names
and loads with it on first use, as does ``f1kit.<submodule>``.  Once a
submodule loads, by whatever import, the package binds all of its exports.
"""

import importlib
import sys

from .errors import (
    AxiomsFailed, CocycleInvalid, F1KitError, InfiniteHomSet, InvalidComposition,
    MembershipUndecidedWithinBound, NonDivisible, NotASubgroup, NotPrime, OutOfScale,
    SelectorError, ShapeMismatch, ThetaNotHomomorphism, TooManyGenerators,
    TypeNotMaximal, ZeroPolynomial, guard,
)

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "report": ("Report",),
    "linalg": ("Mat", "det", "feasible", "kernel_basis", "rank", "relations"),
    "monoids": ("AFFINE", "GROUP_WITH_ZERO", "FgAbelianGroup", "GroupHom", "PointedMonoid",
                "compose_hom", "hom_count", "member", "monoid_from_json", "units_of",
                "validate_hom"),
    "spectrum": ("MoPoint", "MoSpace", "disjoint_union", "point_count_poly", "space_report",
                 "spec"),
    "counting": ("IntPolynomial", "LimitResult", "brute_count", "compare_counts",
                 "gauss_binomial", "gauss_factorial", "gauss_number", "torification_poly",
                 "vanishing_order_and_limit"),
    "schemes": ("Cell", "F1Scheme", "MonomialMap", "RankScheme", "StrongMorphismRk",
                "Torification", "WeakMorphism", "additive_chain", "affine_toric",
                "check_strong", "check_weak", "compose_maps", "compose_strong", "compose_weak",
                "f1_points", "from_torification", "h_points_count", "induced_monomial",
                "match_components", "monomial_morphism", "point_scheme", "product_scheme",
                "rank_part", "strong_to_weak"),
    "groups": ("Cocycle", "ExtensionLaw", "FiniteGroupTable", "GroupModel", "ThetaRep",
               "check_action", "check_group_axioms", "constant_group", "extension_model",
               "f1_points_group", "inversion_weak_morphism", "law_weak_morphism",
               "require_group", "sigma_check", "torus_group", "unit_weak_morphism",
               "z_rank_group"),
    "reductive": ("block_perms", "coset_subset", "coset_subset_bijection",
                  "gl_counting_identity", "gl_model", "grassmannian_model", "lambda_action",
                  "one_line_perms", "parabolic_model", "perm_compose", "perm_length",
                  "perm_matrix", "quotient_model", "quotient_square_check", "schubert_dim",
                  "symmetric_table", "tau_check", "tau_morphism", "universality_check"),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the exceptions and guard bound above, then every lazily loaded name
__all__ = sorted([name for name in globals() if name[0].isupper()] + ["guard", *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(type(sys)):
    """The package's module type.  The import system sets each submodule
    as a package attribute once the submodule has run; that binds its
    exports here too, so vars(f1kit) holds them before any lookup."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package
