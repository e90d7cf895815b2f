"""Torified schemes, rank parts, strong and weak morphisms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from f1kit import schemes, spectrum
from f1kit.counting import torification_poly
from f1kit.errors import InfiniteHomSet, OutOfScale, ShapeMismatch
from f1kit.groups import FiniteGroupTable, constant_group, law_weak_morphism
from f1kit.linalg import Mat
from f1kit.monoids import FgAbelianGroup, GroupHom, PointedMonoid, compose_hom
from f1kit.reductive import gl_model, grassmannian_model
from f1kit.schemes import (
    Cell,
    F1Scheme,
    MonomialMap,
    RankScheme,
    StrongMorphismRk,
    Torification,
    WeakMorphism,
    additive_chain,
    affine_toric,
    apply_exponent_to_signs,
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
    mul_signs,
    point_scheme,
    product_scheme,
    rank_part,
    strong_to_weak,
)
from f1kit.spectrum import MoPoint, MoSpace, point_count_poly, space_report


def free(r):
    return FgAbelianGroup.free(r)


def test_cell_and_torification_validation():
    c = Cell(2, "x", 3)
    assert c.torus_count() == 8
    with pytest.raises(ShapeMismatch):
        Cell(-1, "x")
    with pytest.raises(ShapeMismatch):
        Torification(())
    with pytest.raises(ShapeMismatch):
        Torification((Cell(0, "a"), Cell(1, "a")))
    t = Torification((Cell(0, "a"), Cell(1, "b"), Cell(0, "c", 1)))
    assert t.min_dim() == 0
    assert tuple(x.label for x in t.minimal_cells()) == ("a", "c")
    assert t.torus_count() == 4


def test_rank_scheme_and_products():
    a = RankScheme((("p", free(1)), ("q", free(0))))
    assert a.labels() == ("p", "q")
    assert a.stalk("p").rank == 1
    prod = product_scheme(a, point_scheme())
    assert prod.components[0][0] == ("p", "*")
    assert prod.components[0][1].rank == 1
    with pytest.raises(ShapeMismatch):
        RankScheme((("p", free(1)), ("p", free(2))))


def test_additive_chain_counts():
    for n in range(4):
        x = additive_chain(n)
        assert torification_poly(x.cells)(3) == 3 ** n
        assert len(f1_points(x)) == 1
        assert h_points_count(x, FgAbelianGroup.trivial()) == 2 ** n


def test_affine_toric_matches_spectrum():
    x = affine_toric(PointedMonoid.orthant(2))
    assert len(x.cells.cells) == 4
    assert torification_poly(x.cells)(5) == 25
    # eval pairs link every monoid point to its cell with equal rank
    assert len(x.eval_pairs) == x.mo.point_count()


def test_affine_toric_builds_its_spectrum_on_first_use(monkeypatch):
    real = spectrum.spec
    calls = []
    monkeypatch.setattr(spectrum, "spec", lambda m: calls.append(m) or real(m))
    # a line through +-e3 under a pointed cone, and an orthant
    line = [(0, 0, 1), (0, 0, -1), (1, 0, 2), (1, 1, -1), (1, 2, 0), (2, 1, 1)]
    for m in (PointedMonoid.affine(3, line), PointedMonoid.orthant(3)):
        eager = real(m)
        x = affine_toric(m)
        assert x.cells.cells == tuple(Cell(p.unit_group.rank, p.face) for p in eager.points)
        minimal = tuple(p.face for p in eager.points if p.unit_group.rank == eager.min_rank())
        assert f1_points(x) == rank_part(x).labels() == minimal
        assert h_points_count(x, FgAbelianGroup.from_orders([3])) == point_count_poly(m)(4)
        assert calls == []
        assert space_report(x.mo) == space_report(eager) and len(calls) == 1
        assert x.eval_pairs == tuple((p.id, p.face) for p in eager.points)
        assert x.mo is x.mo and len(calls) == 1
        y = affine_toric(m)
        assert y.eval_pairs == x.eval_pairs and len(calls) == 2
        calls.clear()

    # the pairing is still checked when the spectrum is built
    def wrong_rank(m):
        s = real(m)
        p = s.points[0]
        bad = MoPoint(p.id, p.patch, p.face, FgAbelianGroup.free(p.unit_group.rank + 1))
        return MoSpace(s.patches, (bad, *s.points[1:]), s.specialization)

    monkeypatch.setattr(spectrum, "spec", wrong_rank)
    x = affine_toric(PointedMonoid.orthant(2))
    for _ in range(2):
        with pytest.raises(ShapeMismatch, match="point 0 has rank 1, cell"):
            x.mo


def test_lazy_monoid_side_budget():
    big = from_torification(Torification((Cell(0, "e", 40),)))
    # counting and points never touch the monoid side
    assert torification_poly(big.cells)(2) == 2 ** 40
    assert f1_points(big) == ("e",)
    with pytest.raises(OutOfScale):
        big.mo  # 2^40 patches would be needed


def test_monoid_side_guard_names_guard_estimate_cap_and_override(monkeypatch):
    with pytest.raises(OutOfScale, match=r"^monoid side guard: torus points = 65536 exceeds cap 32768 "
                                         r"\(scale caps with F1KIT_MAX_SCALE\)$"):
        additive_chain(16).mo
    monkeypatch.setenv("F1KIT_MAX_SCALE", "7/32768")
    with pytest.raises(OutOfScale, match=r"^monoid side guard: torus points = 8 exceeds cap 7 "):
        additive_chain(3).eval_pairs


def test_materialized_monoid_side_small():
    x = from_torification(Torification((Cell(1, "t", 1),)))
    assert x.mo.point_count() == 2
    labels = {label for _, label in x.eval_pairs}
    assert labels == {"t", ("t", (1,))}


def test_h_points_infinite_guard():
    with pytest.raises(InfiniteHomSet):
        h_points_count(additive_chain(2), free(1))


def test_h_points_over_a_positive_rank_group_count_point_cells():
    # every cell a point (dim 0, affine 0): one point per cell over any h
    assert h_points_count(constant_group(FiniteGroupTable.cyclic(3)).scheme(), free(1)) == 3
    # a Grassmannian has positive-dimensional Schubert cells
    with pytest.raises(InfiniteHomSet, match="families of rank up to 4$"):
        h_points_count(grassmannian_model(2, 4), free(1))


def test_monomial_map_algebra():
    a = RankScheme((("x", free(2)),))
    b = RankScheme((("y", free(2)),))
    swap = Mat.from_rows(2, 2, [[0, 1], [1, 0]])
    f = MonomialMap(a, b, ("y",), (swap,), ((1, -1),))
    i = MonomialMap(a, a, ("x",), (Mat.identity(2),), ((1, 1),))
    assert compose_maps(f, i) == f
    gf = compose_maps(f, compose_maps(i, i))
    assert gf == f
    # signs push through exponents: swap carries (1,-1) to (-1,1), which
    # cancels against g's own (-1,1)
    g = MonomialMap(b, a, ("x",), (swap,), ((-1, 1),))
    h = compose_maps(g, f)
    assert h.exponents[0].is_identity()
    assert h.signs[0] == (1, 1)
    # one sign object pushed through two different blocks: two pushes
    ab = RankScheme((("x", free(2)), ("y", free(2))))
    s, one = (1, -1), (1, 1)
    f2 = MonomialMap(ab, ab, ("x", "y"), (Mat.identity(2),) * 2, (s, s))
    g2 = MonomialMap(ab, ab, ("x", "y"), (Mat.identity(2), swap), (one, one))
    assert compose_maps(g2, f2).signs == ((1, -1), (-1, 1))


def test_strong_morphisms_and_checks():
    a = RankScheme((("p", free(1)), ("q", free(2))))
    b = RankScheme((("r", free(1)),))
    comaps = (
        GroupHom.on_free(free(1), free(1), Mat.from_rows(1, 1, [[2]])),
        GroupHom.on_free(free(1), free(2), Mat.from_rows(2, 1, [[1], [0]])),
    )
    f = StrongMorphismRk(a, b, ("r", "r"), comaps)
    assert check_strong(f).ok
    def ident(r):
        return GroupHom.on_free(free(r), free(r), Mat.identity(r))
    id_b = StrongMorphismRk(b, b, ("r",), (ident(1),))
    id_a = StrongMorphismRk(a, a, ("p", "q"), (ident(1), ident(2)))
    assert compose_strong(id_b, f) == f
    assert compose_strong(f, id_a) == f
    with pytest.raises(ShapeMismatch):
        StrongMorphismRk(a, b, ("r",), comaps)


def test_induced_monomial_transposes():
    a = RankScheme((("p", free(2)),))
    b = RankScheme((("r", free(1)),))
    comap = GroupHom.on_free(free(1), free(2), Mat.from_rows(2, 1, [[3], [5]]))
    f = StrongMorphismRk(a, b, ("r",), (comap,))
    z = induced_monomial(f)
    assert z.exponents[0] == Mat.from_rows(1, 2, [[3, 5]])
    assert z.signs[0] == (1,)


def test_weak_morphism_component_agreement():
    a = RankScheme((("p", free(1)),))
    b = RankScheme((("r", free(1)), ("s", free(1))))
    comap = GroupHom.on_free(free(1), free(1), Mat.identity(1))
    mo = StrongMorphismRk(a, b, ("r",), (comap,))
    z_good = MonomialMap(a, b, ("r",), (Mat.identity(1),), ((1,),))
    z_bad = MonomialMap(a, b, ("s",), (Mat.identity(1),), ((1,),))
    assert check_weak(WeakMorphism(mo, z_good)).ok
    assert not check_weak(WeakMorphism(mo, z_bad)).ok


def test_weak_morphism_sign_twist_is_weak_only():
    a = RankScheme((("p", free(1)),))
    b = RankScheme((("r", free(1)),))
    comap = GroupHom.on_free(free(1), free(1), Mat.identity(1))
    mo = StrongMorphismRk(a, b, ("r",), (comap,))
    z = MonomialMap(a, b, ("r",), (Mat.identity(1),), ((-1,),))
    rep = check_weak(WeakMorphism(mo, z))
    assert rep.ok
    assert "not-strong" in rep.notes


def test_monomial_morphism_defaults_and_transposed_comaps():
    a = RankScheme((("p", free(2)), ("q", free(2))))
    b = RankScheme((("r", free(1)), ("s", free(3))))
    e, e2 = Mat.from_rows(1, 2, [[3, 5]]), Mat.from_rows(3, 2, [[1, 0], [0, 1], [1, 1]])
    f = monomial_morphism(a, b, ("r", "s"), (e, e2))
    # signs are +1 of each block's row count, and the monoid side is strong
    assert f.z_side.signs == ((1,), (1, 1, 1))
    assert f == strong_to_weak(f.mo_side)
    assert "strong" in check_weak(f).notes
    twisted = monomial_morphism(a, b, ("r", "s"), (e, e2), ((-1,), (1, -1, 1)))
    assert twisted.mo_side == f.mo_side
    assert "not-strong" in check_weak(twisted).notes
    # mo_exponents replaces the blocks on the monoid side only
    mo = Mat.from_rows(1, 2, [[1, 1]])
    split = monomial_morphism(a, b, ("r", "s"), (e, e2), mo_exponents=(mo, e2))
    assert split.z_side == f.z_side
    assert split.mo_side.comaps[0].free_matrix == mo.transpose()
    assert split.mo_side.comaps[1] == f.mo_side.comaps[1]
    with pytest.raises(ShapeMismatch):
        monomial_morphism(a, b, ("s", "r"), (e, e2))


def test_monomial_morphism_shares_one_comap_per_block_object():
    a = RankScheme(tuple((f"p{i}", free(2)) for i in range(4)))
    b = RankScheme((("r", free(1)),))
    e = Mat.from_rows(1, 2, [[3, 5]])
    f = monomial_morphism(a, b, ("r",) * 4, (e, e, Mat.from_rows(1, 2, [[3, 5]]), Mat.zeros(1, 2)))
    c = f.mo_side.comaps
    # equal blocks share one comap, whether or not they are one object
    assert c[0] is c[1] is c[2] and c[3] is not c[0] and c[3].free_matrix == Mat.zeros(2, 1)
    # the law morphism reads its blocks once per left factor: |W| comaps, not |W|^2
    law = law_weak_morphism(gl_model(3))
    assert len(law.mo_side.comaps) == 36
    assert len({id(h) for h in law.mo_side.comaps}) == 6


def test_shape_checks_see_each_component_stalk():
    # one block object on two components whose target stalks differ in rank
    a = RankScheme((("p", free(1)), ("q", free(1))))
    b = RankScheme((("r", free(1)), ("s", free(2))))
    e, one = Mat.identity(1), (1,)
    with pytest.raises(ShapeMismatch, match="^component 1: exponent is 1x1, needs 2x1$"):
        MonomialMap(a, b, ("r", "s"), (e, e), (one, one))
    h = GroupHom.on_free(free(1), free(1), e)
    with pytest.raises(ShapeMismatch, match="^component 1: comap source is not the target stalk$"):
        StrongMorphismRk(a, b, ("r", "s"), (h, h))


def test_shape_checks_name_the_first_failing_component():
    # components 0 and 1 share every object and pass; component 2 reuses
    # the objects it can and fails, so the message must name component 2
    a = RankScheme((("p", free(1)), ("q", free(1)), ("u", free(2))))
    b = RankScheme((("r", free(1)), ("s", free(2))))
    e, e12, one = Mat.identity(1), Mat.from_rows(1, 2, [[1, 0]]), (1,)
    h, h21 = GroupHom.on_free(free(1), free(1), e), GroupHom.on_free(free(1), free(2), e12.transpose())
    monomial = {
        "^no component labeled 'x'$": (("r", "r", "x"), (e, e, e12), (one, one, one)),
        "^component 2: exponent is 1x1, needs 1x2$": (("r", "r", "r"), (e, e, e), (one, one, one)),
        "^component 2: signs must be \\+-1 of length 1$": (("r", "r", "r"), (e, e, e12), (one, one, (2,))),
        "^component 2: signs must be \\+-1 of length 2$": (("r", "r", "s"), (e, e, Mat.identity(2)),
                                                          (one, one, one)),
        # the first failure in component order wins over a later unknown label
        "^component 1: exponent is 1x2, needs 1x1$": (("r", "r", "x"), (e, e12, e12), (one, one, one)),
    }
    for message, (targets, exps, signs) in monomial.items():
        with pytest.raises(ShapeMismatch, match=message):
            MonomialMap(a, b, targets, exps, signs)
    # monomial_morphism checks the monoid side first (the comaps of the
    # blocks), then the signs
    for message, mo_message in zip(monomial, ("^no component labeled 'x'$",
                                              "^component 2: comap target is not the source stalk$")):
        targets, exps, signs = monomial[message]
        with pytest.raises(ShapeMismatch, match=mo_message):
            monomial_morphism(a, b, targets, exps, signs)
    for message in ("^component 2: signs must be \\+-1 of length 1$", "^component 2: signs must be \\+-1 of length 2$"):
        targets, exps, signs = monomial[message]
        with pytest.raises(ShapeMismatch, match=message):
            monomial_morphism(a, b, targets, exps, signs)
    strong = {
        "^no component labeled 'x'$": (("r", "r", "x"), (h, h, h21)),
        "^component 2: comap source is not the target stalk$": (("r", "r", "s"), (h, h, h21)),
        "^component 2: comap target is not the source stalk$": (("r", "r", "r"), (h, h, h)),
        "^component 1: comap target is not the source stalk$": (("r", "r", "x"), (h, h21, h21)),
    }
    for message, (targets, comaps) in strong.items():
        with pytest.raises(ShapeMismatch, match=message):
            StrongMorphismRk(a, b, targets, comaps)
    # monomial_morphism checks the monoid side first, as its own blocks
    with pytest.raises(ShapeMismatch, match="^component 2: comap target is not the source stalk$"):
        monomial_morphism(a, b, ("r", "r", "r"), (e, e, e12), mo_exponents=(e, e, e))
    with pytest.raises(ShapeMismatch, match="^per-component data must align with source components$"):
        monomial_morphism(a, b, ("r", "r", "r"), (e, e12), mo_exponents=(e, e, e12))


def test_composites_run_no_shape_check(monkeypatch):
    checks = []
    real = schemes._Tabled._check
    monkeypatch.setattr(schemes._Tabled, "_check", lambda self: checks.append(self) or real(self))
    g = gl_model(3)
    law_weak_morphism(g)
    # a strong law passes +1 signs and one set of blocks, so the monoid
    # side's check covers both sides
    assert len(checks) == 1
    f = monomial_morphism(g.rank_scheme, g.rank_scheme, g.w.elements, (Mat.identity(3),) * 6)
    assert len(checks) == 2
    checks.clear()
    compose_weak(f, compose_weak(f, f))
    strong_to_weak(f.mo_side)
    assert checks == []


# -- composition against the per-component reference -------------------------

def _compose_maps_reference(g, f):
    """compose_maps as one product and one sign push per component."""
    targets, exps, signs = [], [], []
    for i in range(len(f.source.components)):
        j = g.source.index(f.targets[i])
        targets.append(g.targets[j])
        exps.append(g.exponents[j] * f.exponents[i])
        signs.append(mul_signs(g.signs[j], apply_exponent_to_signs(g.exponents[j], f.signs[i])))
    return MonomialMap(f.source, g.target, tuple(targets), tuple(exps), tuple(signs))


def _compose_strong_reference(g, f):
    """compose_strong as one comap composition per component."""
    targets, comaps = [], []
    for i in range(len(f.source.components)):
        j = g.source.index(f.targets[i])
        targets.append(g.targets[j])
        comaps.append(compose_hom(f.comaps[i], g.comaps[j]))
    return StrongMorphismRk(f.source, g.target, tuple(targets), tuple(comaps))


def _weak_pair(rng):
    """Weak morphisms f: a -> b and g: b -> c on free stalks.  Each kind
    of datum (blocks, comaps, signs) of each morphism is shared (one
    object per shape), equal (new objects equal to the first), distinct
    (new random objects) or mixed (one of two objects per shape, or a
    copy of one), so the inputs range from fully shared to fully
    distinct; signs may be -1."""
    stalks = {r: free(r) for r in range(3)} if rng.random() < 0.5 else None

    def scheme():
        size = rng.randint(1, 5)
        ranks = rng.choices(range(3), k=size) if rng.random() < 0.5 else [rng.randrange(3)] * size
        return RankScheme(tuple((f"c{i}", stalks[r] if stalks else free(r))
                                for i, r in enumerate(ranks)))

    def picker(fresh, copy):
        mode, pool = rng.choice(("shared", "equal", "distinct", "mixed")), {}

        def pick(shape):
            slot = (shape, rng.randrange(2) if mode == "mixed" else 0)
            if mode == "distinct" or slot not in pool:
                pool[slot] = fresh(shape)
                return pool[slot]
            reuse = mode == "shared" or mode == "mixed" and rng.random() < 0.5
            return pool[slot] if reuse else copy(pool[slot])
        return pick

    def mat(rows, cols):
        return Mat.from_rows(rows, cols, [[rng.randint(-2, 2) for _ in range(cols)]
                                          for _ in range(rows)])

    def weak(a, b):
        block = picker(lambda shape: mat(*shape), lambda e: Mat.from_rows(e.rows, e.cols, e.data))
        comap = picker(lambda shape: GroupHom.on_free(free(shape[0]), free(shape[1]),
                                                      mat(shape[1], shape[0])),
                       lambda h: GroupHom.on_free(h.source, h.target, h.free_matrix))
        sign = picker(lambda r: tuple(rng.choice((1, -1)) for _ in range(r)),
                      lambda v: tuple(list(v)))
        targets, exps, homs, signs = [], [], [], []
        for _, sa in a.components:
            label, sb = rng.choice(b.components)
            targets.append(label)
            exps.append(block((sb.rank, sa.rank)))
            homs.append(comap((sb.rank, sa.rank)))
            signs.append(sign(sb.rank))
        return WeakMorphism(StrongMorphismRk(a, b, tuple(targets), tuple(homs)),
                            MonomialMap(a, b, tuple(targets), tuple(exps), tuple(signs)))

    a, b, c = scheme(), scheme(), scheme()
    return weak(b, c), weak(a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_compositions_agree_with_the_per_component_reference(rng):
    g, f = _weak_pair(rng)
    z = _compose_maps_reference(g.z_side, f.z_side)
    mo = _compose_strong_reference(g.mo_side, f.mo_side)
    assert compose_maps(g.z_side, f.z_side) == z
    assert compose_strong(g.mo_side, f.mo_side) == mo
    out = compose_weak(g, f)
    assert out == WeakMorphism(mo, z)
    # components with the same input objects share one result object
    for i in range(len(f.z_side.targets)):
        for k in range(i):
            j, l = (g.z_side.source.index(f.z_side.targets[x]) for x in (i, k))
            if g.z_side.exponents[j] is g.z_side.exponents[l]:
                if f.z_side.exponents[i] is f.z_side.exponents[k]:
                    assert out.z_side.exponents[i] is out.z_side.exponents[k]
                if (g.z_side.signs[j] is g.z_side.signs[l]
                        and f.z_side.signs[i] is f.z_side.signs[k]):
                    assert out.z_side.signs[i] is out.z_side.signs[k]
            if g.mo_side.comaps[j] is g.mo_side.comaps[l] and f.mo_side.comaps[i] is f.mo_side.comaps[k]:
                assert out.mo_side.comaps[i] is out.mo_side.comaps[k]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_unchecked_composites_equal_checked_constructions(rng):
    # compose_maps and compose_strong build without the shape check; the
    # public constructors, which check, must accept the same per-component
    # data and give equal morphisms
    g, f = _weak_pair(rng)
    z, mo = compose_maps(g.z_side, f.z_side), compose_strong(g.mo_side, f.mo_side)
    z_ref, mo_ref = _compose_maps_reference(g.z_side, f.z_side), _compose_strong_reference(g.mo_side, f.mo_side)
    assert MonomialMap(z.source, z.target, z.targets, z.exponents, z.signs) == z == z_ref
    assert StrongMorphismRk(mo.source, mo.target, mo.targets, mo.comaps) == mo == mo_ref


def random_scheme(rng):
    n = rng.randint(1, 3)
    return RankScheme(tuple(
        (f"c{i}", free(rng.randint(0, 3))) for i in range(n)
    ))


def random_strong(rng, a, b):
    targets, comaps = [], []
    for _, sa in a.components:
        j = rng.randrange(len(b.components))
        lb, sb = b.components[j]
        targets.append(lb)
        m = Mat.from_rows(sa.rank, sb.rank,
                          [[rng.randint(-2, 2) for _ in range(sb.rank)]
                           for _ in range(sa.rank)])
        comaps.append(GroupHom.on_free(sb, sa, m))
    return StrongMorphismRk(a, b, tuple(targets), tuple(comaps))


def test_random_strong_morphism_corpus():
    rng = random.Random(20260823)
    for _ in range(100):
        a, b, c = random_scheme(rng), random_scheme(rng), random_scheme(rng)
        f, g = random_strong(rng, a, b), random_strong(rng, b, c)
        assert check_strong(f).ok
        gf = compose_strong(g, f)
        assert check_strong(gf).ok
        wf, wg = strong_to_weak(f), strong_to_weak(g)
        assert check_weak(wf).ok and check_weak(wg).ok
        assert compose_weak(wg, wf) == strong_to_weak(gf)


def test_match_components_up_to_relabeling():
    x = affine_toric(PointedMonoid.orthant(2))
    renamed = from_torification(Torification(tuple(
        Cell(c.dim, ("new", i), c.affine) for i, c in enumerate(x.cells.cells)
    )))
    m = match_components(rank_part(x), rank_part(renamed))
    assert m is not None
    # a rank mismatch kills the matching
    other = from_torification(Torification((Cell(1, "z"),)))
    assert match_components(rank_part(x), rank_part(other)) is None
