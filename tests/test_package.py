"""The package front door: the names it exports, and the modules that each
entry point loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import f1kit

# every public name of the package, by the module that defines it
PUBLIC = {
    "errors": ("AxiomsFailed", "CocycleInvalid", "F1KitError", "InfiniteHomSet",
               "InvalidComposition", "MembershipUndecidedWithinBound", "NonDivisible",
               "NotASubgroup", "NotPrime", "OutOfScale", "SelectorError", "ShapeMismatch",
               "ThetaNotHomomorphism", "TooManyGenerators", "TypeNotMaximal",
               "ZeroPolynomial", "guard"),
    "report": ("Report",),
    "linalg": ("Mat", "det", "feasible", "kernel_basis", "rank", "relations"),
    "monoids": ("AFFINE", "FgAbelianGroup", "GROUP_WITH_ZERO", "GroupHom", "PointedMonoid",
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
               "require_group", "sigma_check", "torus_group",
               "unit_weak_morphism", "z_rank_group"),
    "reductive": ("block_perms", "coset_subset", "coset_subset_bijection",
                  "gl_counting_identity", "gl_model", "grassmannian_model", "lambda_action",
                  "one_line_perms", "parabolic_model", "perm_compose", "perm_length",
                  "perm_matrix", "quotient_model", "quotient_square_check", "schubert_dim",
                  "symmetric_table", "tau_check", "tau_morphism", "universality_check"),
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)
NUM23 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "num23.json"
HEAVY = {"f1kit.groups", "f1kit.reductive", "f1kit.schemes"}


def _fresh(code: str, *argv: str) -> str:
    """The last line that code prints in a fresh interpreter, run with argv."""
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1]


def _loaded(code: str, *argv: str) -> set[str]:
    """The f1kit modules, and fractions and dataclasses, loaded after code."""
    return set(_fresh(code + "\nimport sys\nprint(*sorted(m for m in sys.modules if "
                      "m.startswith('f1kit') or m in ('fractions', 'dataclasses')))",
                      *argv).split())


def test_public_names_resolve_to_their_defining_modules():
    assert len(NAMES) == 110
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"f1kit.{module}")
        for name in names:
            assert getattr(f1kit, name) is getattr(home, name), name
    assert sorted(f1kit.__all__) == NAMES
    assert set(NAMES) <= set(dir(f1kit))
    star = {}
    exec("from f1kit import *", star)
    assert sorted(set(star) - {"__builtins__"}) == NAMES
    with pytest.raises(AttributeError):
        f1kit.no_such_name


def test_loading_a_submodule_binds_its_exports_at_once():
    missing = _fresh("import f1kit.groups\n"
                     f"print(*sorted(set({PUBLIC['groups']!r}) - set(vars(f1kit))) or ['none'])")
    assert missing == "none"


@pytest.mark.parametrize("code, expected", [
    ("import f1kit", {"f1kit", "f1kit.errors"}),
    ("import f1kit.cli", {"f1kit", "f1kit.cli", "f1kit.errors"}),
])
def test_front_doors_load_no_library_module(code, expected):
    assert _loaded(code) == expected


@pytest.mark.parametrize("argv", [
    ("spec", "additive:3"),
    ("count", f"monoid:{NUM23}"),
    ("oracle", f"monoid:{NUM23}", "--q", "2,3"),
])
def test_monoid_commands_load_no_group_or_scheme_module(argv):
    loaded = _loaded("import sys\nfrom f1kit.cli import main\nassert main(sys.argv[1:]) == 0",
                     *argv)
    assert "f1kit.cli" in loaded and not loaded & HEAVY


def test_group_checks_load_the_group_modules():
    loaded = _loaded("import sys\nfrom f1kit.cli import main\nassert main(sys.argv[1:]) == 0",
                     "check", "gl:2", "--suite", "group")
    assert {"f1kit.groups", "f1kit.reductive"} <= loaded
