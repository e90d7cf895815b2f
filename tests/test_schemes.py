"""Torified schemes, rank parts, strong and weak morphisms."""

import random

import pytest

from f1kit.counting import torification_poly
from f1kit.errors import InfiniteHomSet, OutOfScale, ShapeMismatch
from f1kit.groups import law_weak_morphism
from f1kit.linalg import Mat
from f1kit.monoids import FgAbelianGroup, GroupHom, PointedMonoid
from f1kit.reductive import gl_model
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


def test_strong_morphisms_and_checks():
    a = RankScheme((("p", free(1)), ("q", free(2))))
    b = RankScheme((("r", free(1)),))
    comaps = (
        GroupHom.on_free(free(1), free(1), Mat.from_rows(1, 1, [[2]])),
        GroupHom.on_free(free(1), free(2), Mat.from_rows(2, 1, [[1], [0]])),
    )
    f = StrongMorphismRk(a, b, ("r", "r"), comaps)
    assert check_strong(f).ok
    id_b = StrongMorphismRk(b, b, ("r",), (GroupHom.identity(free(1)),))
    id_a = StrongMorphismRk(a, a, ("p", "q"),
                            (GroupHom.identity(free(1)), GroupHom.identity(free(2))))
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
    f = monomial_morphism(a, b, ("r",) * 4, (e, e, Mat.from_rows(1, 2, [[3, 5]]), e))
    c = f.mo_side.comaps
    assert c[0] is c[1] is c[3] and c[2] is not c[0] and c[2] == c[0]
    # the law morphism reads its blocks once per left factor: |W| comaps, not |W|^2
    law = law_weak_morphism(gl_model(3))
    assert len(law.mo_side.comaps) == 36
    assert len({id(h) for h in law.mo_side.comaps}) == 6


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
