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
# what every command that builds a model loads, and what the cells of the
# type-A catalog add to it
CORE = {"f1kit", "f1kit._record", "f1kit.cli", "f1kit.errors", "f1kit.linalg", "f1kit.monoids",
        "f1kit.report"}
CELLS = CORE | {"f1kit.counting", "f1kit.reductive", "f1kit.schemes"}


def _fresh(code: str, *argv: str) -> str:
    """The last line that code prints in a fresh interpreter, run with argv."""
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1]


def _loaded(code: str, *argv: str) -> set[str]:
    """The f1kit modules, and fractions and dataclasses if loaded, after code."""
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


@pytest.mark.parametrize("argv, code, expected", [
    (("spec", "additive:3"), 0, CORE | {"f1kit.spectrum"}),
    (("count", f"monoid:{NUM23}"), 0, CORE | {"f1kit.counting", "f1kit.spectrum"}),
    (("oracle", f"monoid:{NUM23}", "--q", "2,3"), 0, CORE | {"f1kit.counting", "f1kit.spectrum"}),
    # counts and F1-points of the type-A catalog read the cells, not the law
    (("count", "gl:3"), 0, CELLS),
    (("points", "gr:2,4"), 0, CELLS),
    (("oracle", "gl:2", "--q", "2"), 0, CELLS),
    (("count", "gl:7"), 2, CELLS),
    (("points", "gl:7"), 2, CELLS),
    (("check", "gl:2", "--suite", "group"), 0, CELLS | {"f1kit.groups"}),
    (("count", "mystery:1"), 2, {"f1kit", "f1kit.cli", "f1kit.errors"}),
])
def test_each_command_loads_exactly_its_modules(argv, code, expected):
    # exact sets: no command loads dataclasses or fractions either
    assert _loaded("import sys\nfrom f1kit.cli import main\n"
                   f"assert main(sys.argv[1:]) == {code}", *argv) == expected
