"""Command line front end: spec, points, count, check, oracle.

Models are named by selectors:

    gl:N              the GL(N) model
    parabolic:N:K1+K2+...   standard parabolic of that type in GL(N)
    gr:K,N            Grassmannian of K-planes in N-space
    torus:R           split torus of rank R
    additive:N        affine N-space with its refined cell structure
    monoid:FILE       affine monoid or group-with-zero from a JSON file
    const:FILE        constant group model from a JSON multiplication table
    ext:FILE          extension model (components, theta, cocycle, cells)

Output is deterministic JSON on stdout: keys sorted, compact separators,
no timestamps, one trailing newline.  --pretty switches to indented form.
Exit status: 0 success, 1 a requested check or oracle comparison failed,
2 bad selector, bad arguments, or an out-of-scale request.

Each command imports the library modules it uses when it runs:
``import f1kit.cli`` loads only ``errors``, and ``spec``, or ``count`` and
``oracle`` on a ``monoid:`` file, load no schemes, groups or reductive code.
"""

import argparse
import json
import sys
from functools import cached_property

from .errors import F1KitError, SelectorError


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SelectorError(f"{path} is not valid JSON: {e}") from e
    except (OSError, ValueError) as e:    # ValueError: a NUL in the path, or not UTF-8
        raise SelectorError(f"cannot read {path!r}: {e}") from e


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _table_from_json(data: dict) -> "FiniteGroupTable":
    from .groups import FiniteGroupTable
    try:
        labels, table = data["labels"], data["table"]
    except (KeyError, TypeError) as e:
        raise SelectorError(f"group file needs 'labels' and 'table': {e}") from e
    if not _is_str_list(labels):
        raise SelectorError(f"'labels' must be a JSON list of strings, got {labels!r}")
    if not (isinstance(table, list) and len(table) == len(labels)
            and all(_is_str_list(row) and len(row) == len(labels) for row in table)):
        raise SelectorError("'table' must be a |labels| x |labels| grid of label strings")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise SelectorError("labels must be distinct")

    def mul(a, b):
        return table[index[a]][index[b]]

    return FiniteGroupTable.build(labels, mul)


def _extension_from_json(data: dict) -> "GroupModel":
    from .groups import Cocycle, ExtensionLaw, ThetaRep, extension_model
    from .linalg import Mat
    from .report import json_ints
    w = _table_from_json(data)
    try:
        r = json_ints(data["r"], "r")
        theta_rows = json_ints(data["theta"], "theta", 3)
        cells = data["cells"]
    except KeyError as e:
        raise SelectorError(f"extension file needs 'r', 'theta', 'cells': missing {e}") from e
    if len(theta_rows) != w.order():
        raise SelectorError("'theta' needs one matrix per label")
    theta = ThetaRep(w, r, tuple(Mat.from_rows(r, r, m) for m in theta_rows))
    raw = data.get("cocycle")
    if raw is None:
        cocycle = Cocycle.trivial(w, r)
    else:
        cocycle = Cocycle(w, r, tuple(
            tuple(tuple(v) for v in row) for row in json_ints(raw, "cocycle", 3)
        ))
    if not isinstance(cells, dict):
        raise SelectorError("'cells' must map each component label to a dimension")
    dims = {}
    for lab in w.elements:
        if lab not in cells:
            raise SelectorError(f"'cells' is missing component {lab!r}")
        dims[lab] = json_ints(cells[lab], f"cells[{lab!r}]")
    mo_law = data.get("mo_law", "twisted")
    return extension_model(ExtensionLaw(theta, cocycle), dims, mo_law)


class Selection:
    """A parsed selector with lazy builders for each view of the model."""

    def __init__(self, kind: str, text: str, **params):
        self.kind = kind
        self.text = text
        self.params = params

    @cached_property
    def monoid(self) -> "PointedMonoid":
        """The monoid presentation, built once per selection so that the
        counting polynomial and every brute q share one facet computation."""
        from .monoids import PointedMonoid, monoid_from_json
        if self.kind == "monoid":
            return monoid_from_json(_load_json(self.params["path"]))
        if self.kind == "torus":
            return PointedMonoid.torus(self.params["r"])
        if self.kind == "additive":
            return PointedMonoid.orthant(self.params["n"])
        raise SelectorError(f"{self.text!r} has no monoid presentation; "
                            f"use monoid:FILE, torus:R or additive:N")

    @cached_property
    def group(self) -> "GroupModel":
        """The group model, built once per selection so that the checks of
        one suite share it."""
        k = self.kind
        if k == "gl":
            from .reductive import gl_model
            return gl_model(self.params["n"])
        if k == "parabolic":
            from .reductive import parabolic_model
            return parabolic_model(self.params["n"], self.params["parts"])
        if k == "torus":
            from .groups import torus_group
            return torus_group(self.params["r"])
        if k == "const":
            from .groups import constant_group
            return constant_group(_table_from_json(_load_json(self.params["path"])))
        if k == "ext":
            return _extension_from_json(_load_json(self.params["path"]))
        raise SelectorError(f"{self.text!r} is not a group model selector")

    def scheme(self) -> "F1Scheme":
        k = self.kind
        if k == "gr":
            from .reductive import grassmannian_model
            return grassmannian_model(self.params["k"], self.params["n"])
        if k == "additive":
            from .schemes import additive_chain
            return additive_chain(self.params["n"])
        if k == "monoid":
            m = self.monoid
            if m.kind != "affine":
                raise SelectorError("points of a group-with-zero need the affine presentation")
            from .schemes import affine_toric
            return affine_toric(m)
        return self.group.scheme()

    def counting_poly(self):
        if self.kind == "monoid":
            from .spectrum import point_count_poly
            return point_count_poly(self.monoid)
        from .counting import torification_poly
        return torification_poly(self.scheme().cells)

    def oracle_spec(self) -> tuple[str, dict]:
        k = self.kind
        if k == "gr":
            return "subspaces", {"k": self.params["k"], "n": self.params["n"]}
        if k == "gl":
            return "gl", {"n": self.params["n"]}
        if k in ("monoid", "torus", "additive"):
            return "monoid_homs", {"monoid": self.monoid}
        raise SelectorError(f"no brute-force oracle for {self.text!r}")


def parse_selector(text: str) -> Selection:
    """Parse a model selector; malformed input raises SelectorError.

    >>> parse_selector("gr:2,4").params
    {'k': 2, 'n': 4}
    >>> parse_selector("parabolic:4:1+3").params
    {'n': 4, 'parts': (1, 3)}
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise SelectorError(f"selector {text!r} needs a ':'")
    try:
        if head == "gl":
            return Selection("gl", text, n=int(rest))
        if head == "parabolic":
            nstr, sep2, parts = rest.partition(":")
            if not sep2:
                raise ValueError("missing ':parts'")
            return Selection("parabolic", text, n=int(nstr),
                             parts=tuple(int(p) for p in parts.split("+")))
        if head == "gr":
            kstr, sep2, nstr = rest.partition(",")
            if not sep2:
                raise ValueError("missing ',N'")
            return Selection("gr", text, k=int(kstr), n=int(nstr))
        if head == "torus":
            return Selection("torus", text, r=int(rest))
        if head == "additive":
            return Selection("additive", text, n=int(rest))
        if head in ("monoid", "const", "ext"):
            if not rest:
                raise ValueError("missing file path")
            return Selection(head, text, path=rest)
    except ValueError as e:
        raise SelectorError(f"bad selector {text!r}: {e}") from e
    raise SelectorError(f"unknown selector kind {head!r}")


def _emit(obj, pretty: bool) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2 if pretty else None,
                      separators=None if pretty else (",", ":"))
    sys.stdout.write(text + "\n")


def _report_json(r: "Report") -> dict:
    return {
        "pass": r.ok,
        "checks": r.checks,
        "witness": r.witness,
        "notes": list(r.notes),
    }


def cmd_spec(args) -> int:
    sel = parse_selector(args.selector)
    m = sel.monoid
    from .spectrum import space_report, spec
    _emit(space_report(spec(m)), args.pretty)
    return 0


def _parse_over(text: str) -> "FgAbelianGroup | None":
    if text == "f1":
        return None
    if text.startswith("h:"):
        try:
            orders = [int(t) for t in text[2:].split(",")]
        except ValueError as e:
            raise SelectorError(f"bad --over {text!r}: {e}") from e
        if any(t <= 0 for t in orders):
            raise SelectorError("--over torsion orders must be positive")
        from .monoids import FgAbelianGroup
        return FgAbelianGroup.from_orders(orders)
    raise SelectorError(f"--over must be 'f1' or 'h:T1,T2,...', got {text!r}")


def cmd_points(args) -> int:
    sel = parse_selector(args.selector)
    x = sel.scheme()
    h = _parse_over(args.over)
    from .schemes import f1_points, h_points_count
    if h is None:
        labels = f1_points(x)
        _emit({"count": len(labels), "labels": list(labels)}, args.pretty)
    else:
        _emit({"count": h_points_count(x, h), "over": list(h.torsion)}, args.pretty)
    return 0


def cmd_count(args) -> int:
    sel = parse_selector(args.selector)
    poly = sel.counting_poly()
    out = {
        "poly_q": list(poly.coeffs),
        "poly_qminus1": list(poly.in_qminus1_basis()),
        "pretty": poly.pretty(),
    }
    if args.limit:
        from .counting import vanishing_order_and_limit
        res = vanishing_order_and_limit(poly)
        out["rho"] = res.rho
        out["limit"] = res.limit
    if args.eval:
        try:
            qs = [int(t) for t in args.eval.split(",")]
        except ValueError as e:
            raise SelectorError(f"bad --eval: {e}") from e
        out["evals"] = {str(q): poly(q) for q in qs}
    _emit(out, args.pretty)
    return 0


def _run_check(name: str, sel: Selection) -> "Report":
    # each branch imports what it calls: an import statement costs about a
    # microsecond even when the module is loaded, and small suites are run
    # in process by the thousand
    if name == "group":
        from .groups import check_group_axioms
        return check_group_axioms(sel.group)
    if name == "sigma":
        from .groups import sigma_check
        return sigma_check(sel.group)
    if name == "action":
        from .groups import check_action, law_weak_morphism
        g = sel.group
        return check_action(g, g.rank_scheme, law_weak_morphism(g))
    if name == "strongweak":
        from .groups import inversion_weak_morphism, law_weak_morphism, unit_weak_morphism
        from .report import Report
        from .schemes import check_weak
        g = sel.group
        parts = [check_weak(law_weak_morphism(g)),
                 check_weak(unit_weak_morphism(g)),
                 check_weak(inversion_weak_morphism(g))]
        merged = Report.merge(parts)
        return Report(merged.ok, merged.checks, merged.witness,
                      merged.notes + (f"kind:{g.kind}",))
    if name.startswith("quotient:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError as e:
            raise SelectorError(f"bad check {name!r}: {e}") from e
        if sel.kind != "gl":
            raise SelectorError("quotient checks need a gl:N selector")
        g = sel.group
        n = sel.params["n"]
        if not 0 < k < n:
            raise SelectorError(f"quotient:k needs 0 < k < {n}")
        from .reductive import (parabolic_model, quotient_maps, quotient_square_check,
                                tau_check, universality_check)
        from .report import Report
        p = parabolic_model(n, (k, n - k))
        maps = quotient_maps(p, g)
        square = quotient_square_check(p, g, maps)
        return Report.merge([
            square,
            universality_check(p, g, square, maps),
            tau_check(g, k, maps),
        ])
    raise SelectorError(f"unknown check {name!r}")


def cmd_check(args) -> int:
    sel = parse_selector(args.selector)
    names = list(dict.fromkeys(t for t in args.suite.split(",") if t))    # each distinct check once
    if not names:
        raise SelectorError("--suite must name at least one check")
    suite = {}
    ok = True
    for name in names:
        r = _run_check(name, sel)
        suite[name] = _report_json(r)
        ok = ok and r.ok
    _emit({"suite": suite, "pass": ok}, args.pretty)
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    sel = parse_selector(args.selector)
    kind, params = sel.oracle_spec()
    try:
        qs = [int(t) for t in args.q.split(",")]
    except ValueError as e:
        raise SelectorError(f"bad --q: {e}") from e
    from .counting import compare_counts
    rep = compare_counts(sel.counting_poly(), kind, params, qs)
    rep["kind"] = kind
    _emit(rep, args.pretty)
    return 0 if rep["equal"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f1kit",
        description="monoid spectra, torified models and counting polynomials",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spec", parents=[common],
                       help="monoid spectrum: faces, ranks, specializations")
    p.add_argument("selector")
    p.set_defaults(func=cmd_spec)

    p = sub.add_parser("points", parents=[common],
                       help="points over F1 or a finite group")
    p.add_argument("selector")
    p.add_argument("--over", default="f1", help="'f1' (default) or 'h:T1,T2,...'")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("count", parents=[common],
                       help="counting polynomial in q and q-1")
    p.add_argument("selector")
    p.add_argument("--limit", action="store_true",
                   help="include the vanishing order and limit at q=1")
    p.add_argument("--eval", default="", help="comma list of q values to evaluate")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("check", parents=[common],
                       help="run verification suites on a model")
    p.add_argument("selector")
    p.add_argument("--suite", required=True,
                   help="comma list: group,sigma,action,strongweak,quotient:K")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", parents=[common],
                       help="compare the polynomial with brute enumeration")
    p.add_argument("selector")
    p.add_argument("--q", required=True, help="comma list of primes")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except F1KitError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
