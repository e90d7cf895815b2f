"""Group models: tables, representations, cocycles, axiom checking."""

from dataclasses import replace
from pathlib import Path

import pytest

from f1kit.errors import (
    AxiomsFailed,
    CocycleInvalid,
    OutOfScale,
    ShapeMismatch,
    ThetaNotHomomorphism,
)
from f1kit.linalg import Mat
from f1kit.groups import (
    PRODUCT,
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
    sigma_check,
    table_violation,
    tables_isomorphic_by,
    theta_violation,
    torus_group,
    unit_weak_morphism,
    z_rank_group,
)
from f1kit import schemes
from f1kit.cli import main, parse_selector
from f1kit.monoids import FgAbelianGroup, GroupHom
from f1kit.reductive import gl_model, lambda_action, parabolic_model, tau_morphism
from f1kit.schemes import (
    Cell,
    MonomialMap,
    RankScheme,
    StrongMorphismRk,
    Torification,
    WeakMorphism,
    apply_exponent_to_signs,
    check_weak,
    mul_signs,
    product_scheme,
)


def sl2_model() -> GroupModel:
    w = FiniteGroupTable.cyclic(2, ("e", "s"))
    theta = ThetaRep(w, 1, (Mat.identity(1), Mat.from_rows(1, 1, [[-1]])))
    cocycle = Cocycle(w, 1, (((1,), (1,)), ((1,), (-1,))))
    return extension_model(ExtensionLaw(theta, cocycle), {"e": 1, "s": 2})


def test_table_build_and_validation():
    t = FiniteGroupTable.cyclic(4)
    assert t.order() == 4
    assert t.mul(1, 3) == 0
    assert t.inv(1) == 3
    # non-closed multiplication is rejected
    with pytest.raises(AxiomsFailed):
        FiniteGroupTable.build((0, 1), lambda a, b: a + b)
    # non-associative magma is rejected
    with pytest.raises(AxiomsFailed):
        FiniteGroupTable.build(tuple(range(3)), lambda a, b: min(a * b + 1, 2) % 3
                               if (a, b) != (0, 0) else 0)


def test_table_product():
    t = FiniteGroupTable.cyclic(2).product(FiniteGroupTable.cyclic(3))
    assert t.order() == 6
    iso = {x: x for x in t.elements}
    assert tables_isomorphic_by(iso, t, t)
    bad = dict(iso)
    keys = list(bad)
    bad[keys[0]], bad[keys[1]] = bad[keys[1]], bad[keys[0]]
    assert not tables_isomorphic_by(bad, t, t)


def test_table_index_is_a_lookup_that_rejects_unknown_labels():
    t = FiniteGroupTable.cyclic(4)
    assert [t.index(x) for x in t.elements] == [0, 1, 2, 3]
    for label in ("g9", ["g"]):
        with pytest.raises(ValueError):
            t.index(label)
    # tables_isomorphic_by reads an unknown image label as "not an isomorphism"
    assert not tables_isomorphic_by({x: "h" if x == "g" else x for x in t.elements}, t, t)
    assert not tables_isomorphic_by({x: [x] for x in t.elements}, t, t)


def _extend(theta: ThetaRep, cocycle: Cocycle | None = None) -> GroupModel:
    """extension_model on theta and a cochain (trivial by default), with
    cells of the torus rank."""
    w, r = theta.w, theta.r
    law = ExtensionLaw(theta, Cocycle.trivial(w, r) if cocycle is None else cocycle)
    return extension_model(law, {label: r for label in w.elements})


def test_theta_validation():
    w = FiniteGroupTable.cyclic(2, ("e", "s"))
    with pytest.raises(ThetaNotHomomorphism):
        _extend(ThetaRep(w, 1, (Mat.identity(1), Mat.from_rows(1, 1, [[2]]))))
    with pytest.raises(ThetaNotHomomorphism):
        # s * s = e but M_s^2 is not the identity matrix for M_s = [[1]] shifted
        _extend(ThetaRep(w, 2, (Mat.identity(2), Mat.from_rows(2, 2, [[1, 1], [0, 1]]))))
    good = ThetaRep(w, 1, (Mat.identity(1), Mat.from_rows(1, 1, [[-1]])))
    assert theta_violation(good) is None
    assert _extend(good).law.violation is None


def test_cocycle_validation():
    w = FiniteGroupTable.cyclic(2, ("e", "s"))
    theta = ThetaRep.trivial(w, 1)
    # normalization failure: c(e, s) != 1
    bad = Cocycle(w, 1, (((1,), (-1,)), ((1,), (1,))))
    with pytest.raises(CocycleInvalid, match=r"^left normalization fails at \('s'\)$"):
        _extend(theta, bad)
    # the sign cocycle of the weak model satisfies the identity
    assert _extend(theta, Cocycle(w, 1, (((1,), (1,)), ((1,), (-1,))))).kind == "weak"


def test_constant_and_torus_models():
    c = constant_group(FiniteGroupTable.cyclic(3, ("0", "1", "2")))
    assert c.kind == "strong"
    assert check_group_axioms(c).ok
    assert f1_points_group(c).order() == 3
    t = torus_group(2)
    assert t.r == 2 and t.w.order() == 1
    assert check_group_axioms(t).ok
    require_group(t)


def test_extension_model_shape_guards():
    w = FiniteGroupTable.cyclic(2, ("e", "s"))
    law = ExtensionLaw(ThetaRep.trivial(w, 1), Cocycle.trivial(w, 1))
    with pytest.raises(ShapeMismatch):
        extension_model(law, {"e": 1})           # missing a component
    with pytest.raises(ShapeMismatch):
        extension_model(law, {"e": 0, "s": 1})   # cell below the torus rank


def test_weak_model_axioms():
    g = sl2_model()
    assert g.kind == "weak"
    rep = check_group_axioms(g)
    assert rep.ok
    assert f1_points_group(g).order() == 2


def test_weak_model_z_rank_group_is_cyclic_4():
    g = sl2_model()
    table = z_rank_group(g)
    assert table.order() == 4
    orders = []
    for i in range(4):
        power, k = i, 1
        while power != table.identity:
            power = table.mul(power, i)
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 2, 4, 4]
    # and it is isomorphic to Z/4 under a canonical generator map
    z4 = FiniteGroupTable.cyclic(4)
    gen = next(i for i, k in enumerate(orders) if k == 4)
    f = {}
    power = table.identity
    for n in range(4):
        f[table.elements[power]] = z4.elements[n]
        power = table.mul(power, gen)
    assert tables_isomorphic_by(f, table, z4)


def test_weak_model_sigma_fails_at_s_s():
    rep = sigma_check(sl2_model())
    assert not rep.ok
    assert rep.witness == {"pair": ["s", "s"], "cocycle": [-1]}
    assert "section-not-homomorphism" in rep.notes


def test_strong_model_sigma_splits():
    c = constant_group(FiniteGroupTable.cyclic(2))
    rep = sigma_check(c)
    assert rep.ok and "section-splits" in rep.notes


def _z_rank_models():
    # the sl2 model once more, with its identity listed second
    w = FiniteGroupTable.build(("s", "e"), lambda a, b: "e" if a == b else "s")
    theta = ThetaRep(w, 1, (Mat.from_rows(1, 1, [[-1]]), Mat.identity(1)))
    cocycle = Cocycle(w, 1, (((-1,), (1,)), ((1,), (1,))))
    late_e = extension_model(ExtensionLaw(theta, cocycle), {"s": 2, "e": 1})
    return [sl2_model(), torus_group(1), torus_group(2), gl_model(2), late_e]


def test_z_rank_projection(monkeypatch):
    models = _z_rank_models()
    builds = []
    monkeypatch.setattr(FiniteGroupTable, "build", lambda *a: builds.append(a))
    for g in models:
        table = z_rank_group(g)
        assert table_violation(table) is None
        # (s, w) -> w is a hom onto W with kernel the 2^r sign vectors
        proj = [g.w.index(label) for _, label in table.elements]
        n = table.order()
        assert all(proj[table.mul(x, y)] == g.w.mul(proj[x], proj[y])
                   for x in range(n) for y in range(n))
        assert proj.count(g.w.identity) == 1 << g.r
    assert builds == []


def test_z_rank_group_matches_the_extension_law_on_labels():
    # the table a label-level product gives through FiniteGroupTable.build
    for g in _z_rank_models():
        sign_vecs = [tuple(1 - 2 * (bits >> k & 1) for k in range(g.r))
                     for bits in range(1 << g.r)]

        def mul(x, y, g=g):
            (s, la), (t, lb) = x, y
            i, j = g.w.index(la), g.w.index(lb)
            theta_t = apply_exponent_to_signs(g.law.theta.matrix(i), t)
            return (mul_signs(mul_signs(s, theta_t), g.law.cocycle.value(i, j)),
                    g.w.elements[g.w.mul(i, j)])

        labels = [(s, label) for s in sign_vecs for label in g.w.elements]
        assert z_rank_group(g) == FiniteGroupTable.build(labels, mul)


def test_z_rank_scale_guard():
    with pytest.raises(OutOfScale):
        z_rank_group(torus_group(13))


def test_z_rank_guard_names_guard_estimate_cap_and_override(monkeypatch):
    with pytest.raises(OutOfScale, match=r"^integral points guard: \(2\^13 x 1 components\)\^2 "
                                         r"table entries = 67108864 exceeds cap 16777216 "
                                         r"\(scale caps with F1KIT_MAX_SCALE\)$"):
        z_rank_group(torus_group(13))
    g = sl2_model()
    # 4096^2 x 9/4096^2 = 9 entries
    monkeypatch.setenv("F1KIT_MAX_SCALE", "9/16777216")
    with pytest.raises(OutOfScale, match=r"^integral points guard: \(2\^1 x 2 components\)\^2 "
                                         r"table entries = 16 exceeds cap 9 "):
        z_rank_group(g)


def test_law_morphisms_check_weak():
    g = sl2_model()
    law = check_weak(law_weak_morphism(g))
    assert law.ok and "not-strong" in law.notes
    assert check_weak(unit_weak_morphism(g)).ok
    assert check_weak(inversion_weak_morphism(g)).ok
    c = constant_group(FiniteGroupTable.cyclic(2))
    law_c = check_weak(law_weak_morphism(c))
    assert law_c.ok and "strong" in law_c.notes


def test_broken_law_is_caught():
    # a cocycle that breaks normalization cannot even be built into a law;
    # instead break associativity by corrupting theta on a product model
    w = FiniteGroupTable.cyclic(3, ("e", "a", "b"))
    mats = (Mat.identity(1), Mat.from_rows(1, 1, [[-1]]), Mat.identity(1))
    with pytest.raises(ThetaNotHomomorphism):
        extension_model(ExtensionLaw(ThetaRep(w, 1, mats), Cocycle.trivial(w, 1)),
                        {"e": 1, "a": 1, "b": 1})


def test_build_rejects_nonassociative_loop_of_order_129():
    # Z/129 with one row cycle switch: rows 1 and 44 trade their entries in
    # the three columns where row 1 holds 2, 45 or 88.  Rows and columns stay
    # permutations and row 0, column 0 and every 0 entry are untouched, so
    # this is a loop with two-sided inverses, but it is not associative.
    n = 129
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    for y in range(n):
        if table[1][y] in (2, 45, 88):
            table[1][y], table[44][y] = table[44][y], table[1][y]
    with pytest.raises(AxiomsFailed, match="associativity"):
        FiniteGroupTable.build(range(n), lambda a, b: table[a][b])


def test_theta_validate_rejects_bad_theta_on_151_elements():
    # k -> (-1)^k is not a homomorphism on Z/151, which has odd order
    w = FiniteGroupTable.cyclic(151)
    mats = tuple(Mat.from_rows(1, 1, [[(-1) ** k]]) for k in range(151))
    with pytest.raises(ThetaNotHomomorphism):
        _extend(ThetaRep(w, 1, mats))


def test_cocycle_guard_names_guard_estimate_cap_and_override(monkeypatch):
    g = sl2_model()
    monkeypatch.setenv("F1KIT_MAX_SCALE", "3/2000000")
    # g's law keeps the verdict it reached at the default cap ...
    assert check_group_axioms(g).ok
    # ... so the lowered cap shows on a fresh law only
    with pytest.raises(OutOfScale, match=r"^cocycle identity guard: 2\^2 x 1 generator triples = 4 "
                                         r"exceeds cap 3 \(scale caps with F1KIT_MAX_SCALE\)$"):
        extension_model(ExtensionLaw(g.law.theta, g.law.cocycle), {"e": 1, "s": 2})


def test_group_suite_checks_count_diagram_instances():
    assert check_group_axioms(gl_model(2)).checks == 32
    assert check_group_axioms(gl_model(3)).checks == 480


# -- literal diagram oracle ---------------------------------------------------

def literal_diagram_failures(g: GroupModel):
    """Every diagram instance of g, evaluated literally.

    Instances run in the order side (mo, z) > unit, inverse, associativity
    > components; each composes the law, unit and inversion morphisms' own
    per-component exponent blocks and signs with Mat products and
    apply_exponent_to_signs.  Returns the number of instances and a dict
    from each failing (side, diagram, labels, part) to its position.
    """
    w, r = g.w, g.r
    n, e = w.order(), w.identity
    law, unit, inv = law_weak_morphism(g), unit_weak_morphism(g), inversion_weak_morphism(g)
    ident, one = Mat.identity(r), (1,) * r
    idn = (ident, one)
    diag = (ident.vstack(ident), one + one)
    terminal = (Mat.zeros(0, r), ())

    def comp(f, side, label):
        """(target component, (exponent, signs)) of f at a source component."""
        if side == "z":
            i = f.z_side.source.index(label)
            return w.index(f.z_side.targets[i]), (f.z_side.exponents[i], f.z_side.signs[i])
        i = f.mo_side.source.index(label)
        exp = f.mo_side.comaps[i].free_matrix.transpose()
        return w.index(f.mo_side.targets[i]), (exp, (1,) * exp.rows)

    def after(outer, inner):
        return outer[0] * inner[0], mul_signs(outer[1], apply_exponent_to_signs(outer[0], inner[1]))

    def times(f, h):
        a, b = f[0], h[0]
        return (a.hstack(Mat.zeros(a.rows, b.cols)).vstack(Mat.zeros(b.rows, a.cols).hstack(b)),
                f[1] + h[1])

    failures, pos = {}, 0

    def record(side, diagram, at, got, want):
        labels = tuple(w.elements[i] for i in at)
        for part, k in (("exponent", 0), ("signs", 1)):
            if got[k] != want[k]:
                failures[(side, diagram, labels, part)] = pos

    for side in ("mo", "z"):
        def mu(i, j):
            return comp(law, side, (w.elements[i], w.elements[j]))
        u = comp(unit, side, "*")[1]
        for a in range(n):
            pos += 2
            (t1, m1), (t2, m2) = mu(e, a), mu(a, e)
            if t1 != a or t2 != a:
                failures[(side, "unit", (w.elements[a],), "component")] = pos
                continue
            record(side, "left-unit", [a], after(m1, times(u, idn)), idn)
            record(side, "right-unit", [a], after(m2, times(idn, u)), idn)
        for a in range(n):
            pos += 2
            ai, i_a = comp(inv, side, w.elements[a])
            (t1, m1), (t2, m2) = mu(ai, a), mu(a, ai)
            if t1 != e or t2 != e:
                failures[(side, "inverse", (w.elements[a],), "component")] = pos
                continue
            const = after(u, terminal)
            record(side, "left-inverse", [a], after(m1, after(times(i_a, idn), diag)), const)
            record(side, "right-inverse", [a], after(m2, after(times(idn, i_a), diag)), const)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    pos += 1
                    (ab, m_ab), (bc, m_bc) = mu(a, b), mu(b, c)
                    (t1, m1), (t2, m2) = mu(ab, c), mu(a, bc)
                    if t1 != t2:
                        labels = tuple(w.elements[i] for i in (a, b, c))
                        failures[(side, "associativity", labels, "component")] = pos
                        continue
                    record(side, "associativity", [a, b, c],
                           after(m1, times(m_ab, idn)), after(m2, times(idn, m_bc)))
    return pos, failures


def _c(k):
    return FiniteGroupTable.cyclic(k)


V4 = FiniteGroupTable.cyclic(2).product(FiniteGroupTable.cyclic(2))   # generators 1, 2


def _hand_built(w, mats, minus=(), mo_law="twisted"):
    """Model straight from GroupModel, bypassing extension_model.

    mats gives theta as row lists (an int is a 1x1 matrix); the cochain
    is -1 at the index pairs in minus and +1 elsewhere.
    """
    mats = tuple(Mat.from_rows(1, 1, [[m]]) if isinstance(m, int) else
                 Mat.from_rows(len(m), len(m), m) for m in mats)
    r = mats[0].rows
    n = w.order()
    cocycle = tuple(tuple((-1 if (i, j) in minus else 1,) * r for j in range(n)) for i in range(n))
    cells = Torification(tuple(Cell(r, label, 0) for label in w.elements))
    return GroupModel(ExtensionLaw(ThetaRep(w, r, mats), Cocycle(w, r, cocycle)), cells, mo_law)


def _table(c, mult, identity, inverses):
    return constant_group(FiniteGroupTable(c.elements, tuple(map(tuple, mult)), identity, inverses))


I2, U = [[1, 0], [0, 1]], [[1, 1], [0, 1]]

ORACLE_MODELS = {
    **{f"gl:{n}": (lambda n=n: gl_model(n)) for n in (1, 2, 3)},
    **{"parabolic:3:" + "+".join(map(str, parts)): (lambda parts=parts: parabolic_model(3, parts))
       for parts in ((3,), (1, 2), (2, 1), (1, 1, 1))},
    **{f"const:cyclic{k}": (lambda k=k: constant_group(_c(k))) for k in (2, 3, 4, 5)},
    "torus:1": lambda: torus_group(1),
    "torus:2": lambda: torus_group(2),
    "sl2-weak": sl2_model,
    "sl2-product": lambda: extension_model(sl2_model().law, {"e": 1, "s": 2}, PRODUCT),
    # hand-built models; each one breaks a law
    "theta-not-hom": lambda: _hand_built(_c(3), (1, -1, 1)),
    "theta-not-hom-product": lambda: _hand_built(_c(3), (1, -1, 1), mo_law=PRODUCT),
    "theta-not-hom-at-second-generator": lambda: _hand_built(V4, (I2, I2, U, U)),
    "theta-not-unimodular": lambda: _hand_built(_c(2), (1, 2)),
    "theta-e-not-identity": lambda: _hand_built(_c(2), (-1, 1)),
    "cochain-left-unnormalized": lambda: _hand_built(_c(2), (1, 1), {(0, 1)}),
    "cochain-right-unnormalized": lambda: _hand_built(_c(2), (1, -1), {(1, 0)}),
    # -1 everywhere satisfies the cocycle identity but not normalization
    "cochain-constant-minus-one":
        lambda: _hand_built(_c(2), (1, 1), {(0, 0), (0, 1), (1, 0), (1, 1)}),
    "cochain-not-cocycle": lambda: _hand_built(_c(3), (1, 1, 1), {(1, 1)}),
    "cochain-not-cocycle-at-second-generator":
        lambda: _hand_built(V4, (1, 1, 1, 1), {(2, 3), (3, 2)}),
    "table-not-associative": lambda: _table(
        _c(4), [[0, 1, 2, 3], [1, 3, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]], 0, (0, 3, 2, 1)),
    "table-not-associative-at-second-generator": lambda: _table(
        _c(4), [[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 0, 0], [3, 3, 0, 0]], 0, (0, 1, 2, 3)),
    "table-bad-inverses": lambda: _table(_c(3), _c(3).mult, 0, (0, 1, 2)),
    "table-bad-identity": lambda: _table(_c(3), _c(3).mult, 1, (2, 1, 0)),
}
BROKEN = ("theta-", "cochain-", "table-")


@pytest.mark.parametrize("name", list(ORACLE_MODELS))
def test_group_axioms_agree_with_literal_diagrams(name):
    g = ORACLE_MODELS[name]()
    assert g.w.order() <= 6
    instances, failures = literal_diagram_failures(g)
    rep = check_group_axioms(g)
    assert rep.ok == (not failures), failures
    assert rep.ok != name.startswith(BROKEN)
    if rep.ok:
        assert rep.checks == instances
    else:
        wit = rep.witness
        key = (wit["side"], wit["diagram"], tuple(wit["at"]), wit["part"])
        assert failures.get(key) == rep.checks, (key, rep.checks, failures)


EXT_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
LAMBDA_MODELS = {
    **{name: ORACLE_MODELS[name] for name in ORACLE_MODELS if not name.startswith(BROKEN)},
    **{f"ext:{f}": (lambda f=f: parse_selector(f"ext:{EXT_DATA / f}").group)
       for f in ("ext.json", "ext_product.json")},
}


def test_self_action_satisfies_action_axioms():
    # lambda is the law restricted to P x G, so on P = G it is the law
    # morphism, cocycle signs and monoid law included: an action on weak
    # models too
    for name, build in LAMBDA_MODELS.items():
        g = build()
        assert check_group_axioms(g).ok, name
        lam = lambda_action(g, g)
        assert lam == law_weak_morphism(g), name
        rep = check_action(g, g.rank_scheme, lam)
        assert rep.ok, (name, rep.witness)


def test_strong_law_morphisms_check_and_table_their_blocks_once(monkeypatch):
    g = gl_model(4)
    g.rank_scheme       # built before counting: the inversion maps it to itself
    checks, tables = [], []
    real_check, real_table = schemes._Tabled._check, schemes._table
    monkeypatch.setattr(schemes._Tabled, "_check", lambda self: checks.append(self) or real_check(self))
    monkeypatch.setattr(schemes, "_table", lambda *columns: tables.append(1) or real_table(*columns))
    law_weak_morphism(g)
    # +1 signs and one set of blocks: the monoid side's check covers both sides
    assert len(checks) == 1
    tables.clear()
    inversion_weak_morphism(g)
    # its exponents, tabled once for both sides
    assert len(tables) == 1


# -- exhaustive action oracle -------------------------------------------------

def action_blocks(g: GroupModel, y: RankScheme, act: WeakMorphism, side: str, i: int, yc: int):
    """Exponent blocks [A | B], signs and target position of act's side at
    the component labeled (i, yc), looked up by its label."""
    half = act.z_side if side == "z" else act.mo_side
    idx = half.source.index((g.w.elements[i], y.components[yc][0]))
    e = half.exponents[idx] if side == "z" else half.comaps[idx].free_matrix.transpose()
    signs = half.signs[idx] if side == "z" else (1,) * e.rows
    return e.col_slice(0, g.r), e.col_slice(g.r, e.cols), signs, y.index(half.targets[idx])


def exhaustive_action_failures(g: GroupModel, y: RankScheme, act: WeakMorphism):
    """Every action diagram instance of act, evaluated one by one.

    This is check_action's original exhaustive loop: instances run side
    (mo, z) > unit, then (i, j, y) over all of W x W x Y, and each reads
    its three blocks with action_blocks.  An instance records its
    first failing part (component, exponent, signs).  Returns the number
    of instances and a dict from each failing (side, diagram, labels,
    part) to its position.
    """
    w = g.w
    n, m = w.order(), len(y.components)
    failures, pos = {}, 0
    for side in ("mo", "z"):
        for yc in range(m):
            pos += 1
            a, b, signs, out = action_blocks(g, y, act, side, w.identity, yc)
            key = (side, "action-unit", (y.components[yc][0],))
            if out != yc:
                failures[key + ("component",)] = pos
            elif not b.is_identity():
                failures[key + ("exponent",)] = pos
            elif any(s != 1 for s in signs):
                failures[key + ("signs",)] = pos
        for i in range(n):
            for j in range(n):
                ij = w.mul(i, j)
                la, lb, ls = g.law_blocks(side, i, j)
                for yc in range(m):
                    pos += 1
                    key = (side, "action-associativity",
                           (w.elements[i], w.elements[j], y.components[yc][0]))
                    aj, bj, sj, yj = action_blocks(g, y, act, side, j, yc)
                    ai, bi, si, yi = action_blocks(g, y, act, side, i, yj)
                    am, bm, sm, ym = action_blocks(g, y, act, side, ij, yc)
                    if ym != yi:
                        failures[key + ("component",)] = pos
                    elif (am * la, am * lb, bm) != (ai, bi * aj, bi * bj):
                        failures[key + ("exponent",)] = pos
                    elif (mul_signs(sm, apply_exponent_to_signs(am, ls))
                          != mul_signs(si, apply_exponent_to_signs(bi, sj))):
                        failures[key + ("signs",)] = pos
    return pos, failures


def _self(g):
    return g, g.rank_scheme, law_weak_morphism(g)


def _lam(n, parts):
    p, g = parabolic_model(n, parts), gl_model(n)
    return p, g.rank_scheme, lambda_action(p, g)


def _tau(n, k):
    g = gl_model(n)
    return (g,) + tau_morphism(g, k)


def _flipped(side, part, at_unit=False):
    """gl:3's self-action with one datum changed at a component (j, y),
    j outside {e} u generators, or j = e: a target, an exponent entry (in
    the group block A, or at j = e in the Y block B) or a sign."""
    g, y, act = _self(gl_model(3))
    w = g.w
    j = w.identity if at_unit else next(
        x for x in range(w.order()) if x != w.identity and x not in w.generators)
    col = -1 if at_unit else 1
    k = act.z_side.source.index((w.elements[j], y.components[1][0]))
    half = act.z_side if side == "z" else act.mo_side
    targets = list(half.targets)
    if part == "target":
        targets[k] = y.components[(y.index(targets[k]) + 1) % len(y.components)][0]
        half = replace(half, targets=tuple(targets))
    elif part == "sign":
        signs = list(half.signs)
        signs[k] = (-signs[k][0],) + signs[k][1:]
        half = replace(half, signs=tuple(signs))
    else:
        def flip(e):
            rows = [list(r) for r in e.data]
            rows[0][col] = 1 - rows[0][col]
            return Mat.from_rows(e.rows, e.cols, rows)
        if side == "z":
            exps = list(half.exponents)
            exps[k] = flip(exps[k])
            half = replace(half, exponents=tuple(exps))
        else:
            comaps = list(half.comaps)
            # the comap's free matrix is the transposed exponent [A | B]
            flipped = flip(comaps[k].free_matrix.transpose()).transpose()
            comaps[k] = replace(comaps[k], free_matrix=flipped)
            half = replace(half, comaps=tuple(comaps))
    act = WeakMorphism(act.mo_side, half) if side == "z" else WeakMorphism(half, act.z_side)
    return g, y, act


def _borrowed(side):
    """gl:3's self-action whose block at (j, y), j outside {e} u generators,
    is a new object equal to the block that the unit's row shares: [I | I]
    where [I | theta_j] belongs.  The check splits and multiplies it as
    its own object, so the shared block's verdict cannot hide it."""
    g, y, act = _self(gl_model(3))
    w = g.w
    j = next(x for x in range(w.order()) if x != w.identity and x not in w.generators)
    k, unit = (act.z_side.source.index((w.elements[x], y.components[1][0]))
               for x in (j, w.identity))
    if side == "z":
        exps = list(act.z_side.exponents)
        exps[k] = Mat.from_rows(exps[unit].rows, exps[unit].cols, exps[unit].data)
        return g, y, WeakMorphism(act.mo_side, replace(act.z_side, exponents=tuple(exps)))
    comaps = list(act.mo_side.comaps)
    h = comaps[unit]
    comaps[k] = replace(h, free_matrix=Mat.from_rows(h.free_matrix.rows, h.free_matrix.cols,
                                                     h.free_matrix.data))
    return g, y, WeakMorphism(replace(act.mo_side, comaps=tuple(comaps)), act.z_side)


def _raised(m, j):
    """m with its entry (0, j) raised by 2, as a new object."""
    row = m.data[0]
    return Mat(m.rows, m.cols, (row[:j] + (row[j] + 2,) + row[j + 1:],) + m.data[1:])


def _odd_entry(side, part, row):
    """gl:3's self-action, whose rows share one block and one sign object
    per element, with one entry (x, y) changed to a new object of another
    value: its exponent block, or on the scheme side its signs.  x is the
    first generator (an operand j of the scan) or the last element, y the
    last component, so the row pair scan must find it among entries that
    share their objects and report the exhaustive scan's first failure."""
    g, y, act = _self(gl_model(3))
    w = g.w
    x = w.generators[0] if row == "generator" else w.order() - 1
    k = act.z_side.source.index((w.elements[x], y.components[-1][0]))
    if part == "sign":
        signs = list(act.z_side.signs)
        signs[k] = (-signs[k][0],) + signs[k][1:]
        return g, y, WeakMorphism(act.mo_side, replace(act.z_side, signs=tuple(signs)))
    if side == "z":
        exps = list(act.z_side.exponents)
        exps[k] = _raised(exps[k], 5)
        return g, y, WeakMorphism(act.mo_side, replace(act.z_side, exponents=tuple(exps)))
    comaps = list(act.mo_side.comaps)
    h = comaps[k]
    comaps[k] = replace(h, free_matrix=_raised(h.free_matrix, 2))
    return g, y, WeakMorphism(replace(act.mo_side, comaps=tuple(comaps)), act.z_side)


def _coboundary_on_v4():
    """V4 with trivial theta, one shared 1x1 identity, and the coboundary
    c(i, j) = f(i) f(j) f(ij) of f = (1, -1, 1, 1).  Its self-action is an
    action, and the row pairs (0, 1) and (3, 2) share ij = 1 and the law's
    B block but not the law's signs: c(0, 1) = 1, c(3, 2) = -1."""
    f, one = (1, -1, 1, 1), Mat.identity(1)
    table = tuple(tuple((f[i] * f[j] * f[V4.mul(i, j)],) for j in range(4)) for i in range(4))
    cells = Torification(tuple(Cell(1, label, 0) for label in V4.elements))
    return _self(GroupModel(ExtensionLaw(ThetaRep(V4, 1, (one,) * 4), Cocycle(V4, 1, table)), cells))


def _partial(s_pos):
    """A component-only map act: gl:3 x {p0, p1} -> {p0, p1} that satisfies
    the action law at j = e and j = s, the generator at s_pos, but is not
    an action: w swaps the points exactly on the coset r<s> of the first
    r outside <s> = {e, s}.  Only the instances at the other generator (and
    at j outside {e} u generators) fail."""
    g = gl_model(3)
    w = g.w
    s = w.generators[s_pos]
    r = next(x for x in range(w.order()) if x not in (w.identity, s))
    swap = {r, w.mul(r, s)}
    pt = FgAbelianGroup.trivial()
    y = RankScheme((("p0", pt), ("p1", pt)))
    src = product_scheme(g.rank_scheme, y)
    targets = tuple(f"p{yc ^ (x in swap)}" for x in range(w.order()) for yc in range(2))
    comaps = tuple(GroupHom.on_free(pt, FgAbelianGroup.free(3), Mat.zeros(3, 0)) for _ in targets)
    exps = tuple(Mat.zeros(0, 3) for _ in targets)
    act = WeakMorphism(StrongMorphismRk(src, y, targets, comaps),
                       MonomialMap(src, y, targets, exps, ((),) * len(targets)))
    return g, y, act


def _conjugated_group_block():
    """gl:3's self-action with the scheme side's group block A at (x, y)
    replaced by theta_x D theta_x^-1, D unipotent.  The B-block and sign
    comparisons all hold (theta_i A(j, y) = A(ij, y) theta_i), so only
    comparing A(ij, y) with A(i, act(j, y)) catches it."""
    g, y, act = _self(gl_model(3))
    w, theta, r = g.w, g.law.theta, g.r
    d = Mat.from_rows(3, 3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    exps = []
    for ((x, _), _), e in zip(act.z_side.source.components, act.z_side.exponents):
        i = w.index(x)
        a = theta.matrix(i) * d * theta.matrix(w.inv(i))
        exps.append(a.hstack(e.col_slice(r, e.cols)))
    return g, y, WeakMorphism(act.mo_side, replace(act.z_side, exponents=tuple(exps)))


PARABOLIC_PARTS = {3: ((3,), (1, 2), (2, 1), (1, 1, 1)),
                   # the proper parabolics; (4,) is gl:4, whose exhaustive scan takes seconds
                   4: ((1, 3), (3, 1), (2, 2), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1))}

ACTIONS = {
    **{f"self:gl:{n}": (lambda n=n: _self(gl_model(n))) for n in (1, 2, 3)},
    **{f"self:parabolic:{n}:" + "+".join(map(str, parts)):
       (lambda n=n, parts=parts: _self(parabolic_model(n, parts)))
       for n, all_parts in PARABOLIC_PARTS.items() for parts in all_parts},
    **{f"self:const:cyclic{k}": (lambda k=k: _self(constant_group(_c(k)))) for k in (2, 3, 4, 5)},
    "self:torus:1": lambda: _self(torus_group(1)),
    "self:torus:2": lambda: _self(torus_group(2)),
    "self:sl2-weak": lambda: _self(sl2_model()),
    "self:sl2-product": lambda: _self(extension_model(sl2_model().law, {"e": 1, "s": 2}, PRODUCT)),
    "self:coboundary-on-v4": _coboundary_on_v4,
    **{f"lambda:parabolic:{n}:" + "+".join(map(str, parts)):
       (lambda n=n, parts=parts: _lam(n, parts))
       for n, all_parts in PARABOLIC_PARTS.items() for parts in all_parts},
    **{f"tau:gl:{n}:{k}": (lambda n=n, k=k: _tau(n, k)) for n in (3, 4) for k in range(1, n)},
    # broken actions
    **{f"broken:{side}-{part}": (lambda side=side, part=part: _flipped(side, part))
       for side in ("mo", "z") for part in ("target", "exponent")},
    "broken:z-sign": lambda: _flipped("z", "sign"),
    **{f"broken:unit-{side}-{part}": (lambda side=side, part=part: _flipped(side, part, True))
       for side in ("mo", "z") for part in ("target", "exponent")},
    "broken:unit-z-sign": lambda: _flipped("z", "sign", True),
    "broken:conjugated-group-block": _conjugated_group_block,
    **{f"broken:{side}-copy-of-a-shared-block": (lambda side=side: _borrowed(side))
       for side in ("mo", "z")},
    **{f"broken:odd-{side}-{part}-at-{row}": (lambda side=side, part=part, row=row:
                                               _odd_entry(side, part, row))
       for side, part in (("mo", "exponent"), ("z", "exponent"), ("z", "sign"))
       for row in ("generator", "last")},
    "broken:only-at-second-generator": lambda: _partial(0),
    "broken:only-at-first-generator": lambda: _partial(1),
}


@pytest.mark.parametrize("name", list(ACTIONS))
def test_action_check_agrees_with_exhaustive_scan(name):
    g, y, act = ACTIONS[name]()
    instances, failures = exhaustive_action_failures(g, y, act)
    rep = check_action(g, y, act)
    assert rep.ok == (not failures), failures
    assert rep.ok != name.startswith("broken:")
    if rep.ok:
        assert rep.checks == instances
    else:
        wit = rep.witness
        key = (wit["side"], wit["diagram"], tuple(wit["at"]), wit["part"])
        assert failures.get(key) == rep.checks, (key, rep.checks, failures)


def test_action_halves_must_map_g_x_y_in_product_order_to_y():
    # both halves are read by position, so a monoid side that lists the same
    # components in another order is refused before any instance is checked
    g, y, act = _self(gl_model(2))
    mo, k = act.mo_side, len(y.components)
    flip = list(range(k, 2 * k)) + list(range(k))       # the second row of components first
    swapped = StrongMorphismRk(RankScheme(tuple(mo.source.components[x] for x in flip)), mo.target,
                               tuple(mo.targets[x] for x in flip), tuple(mo.comaps[x] for x in flip))
    # a monoid side into a larger target is refused too; neither pair is a weak morphism
    larger = StrongMorphismRk(mo.source, RankScheme(y.components + (("extra", FgAbelianGroup.free(2)),)),
                              mo.targets, mo.comaps)
    for bad in (swapped, larger):
        assert check_weak(WeakMorphism(bad, act.z_side)).witness["reason"] == "halves live on different schemes"
        rep = check_action(g, y, WeakMorphism(bad, act.z_side))
        assert not rep.ok and rep.checks == 1
        assert rep.witness == {"reason": "action must map G x Y to Y"}


def test_action_check_requires_a_group_law():
    g = ORACLE_MODELS["cochain-not-cocycle"]()
    with pytest.raises(AxiomsFailed, match="group axioms fail"):
        check_action(g, g.rank_scheme, law_weak_morphism(g))


def test_action_and_law_morphism_guards_refuse_before_work(monkeypatch, capsys):
    # caps 1,000,000 x 1/10000 = 100 and 100,000 x 3/10000 = 30; at 1/10000 the
    # law morphism (36 components, cap 10) would refuse first, so it is built before
    g = gl_model(3)
    act = law_weak_morphism(g)
    y = g.rank_scheme
    lookups = []
    monkeypatch.setattr(RankScheme, "index", lambda *a: lookups.append(a))
    monkeypatch.setenv("F1KIT_MAX_SCALE", "1/10000")
    with pytest.raises(OutOfScale, match=r"^action law guard: 2 x 6 x 2 generators x 6 instances "
                       r"= 144 exceeds cap 100 \(scale caps with F1KIT_MAX_SCALE\)$"):
        check_action(g, y, act)
    assert lookups == []
    monkeypatch.setenv("F1KIT_MAX_SCALE", "3/10000")
    assert main(["check", "gl:3", "--suite", "strongweak"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: law morphism guard: 6^2 components = 36 exceeds cap 30 "
                   "(scale caps with F1KIT_MAX_SCALE)\n")
