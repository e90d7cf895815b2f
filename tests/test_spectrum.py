"""Prime spectra of pointed monoids: faces, ranks, specialization."""

import random
from itertools import combinations

import pytest

from f1kit import monoids, spectrum
from f1kit.counting import IntPolynomial, brute_count_monoid_homs
from f1kit.errors import OutOfScale, TooManyGenerators
from f1kit.schemes import affine_toric
from f1kit.linalg import Mat, double_description, feasible, kernel_basis, rank
from f1kit.monoids import FgAbelianGroup, PointedMonoid, units_of
from f1kit.spectrum import (
    disjoint_union,
    face_masks,
    point_count_poly,
    space_report,
    spec,
)


def test_orthant_spectrum_is_the_subset_lattice():
    for d in range(5):
        s = spec(PointedMonoid.orthant(d))
        assert s.point_count() == 2 ** d
        faces = sorted(p.face for p in s.points)
        expected = sorted(
            sub for k in range(d + 1) for sub in combinations(range(d), k)
        )
        assert faces == expected
        # specialization is containment of faces
        by_id = {p.id: set(p.face) for p in s.points}
        pairs = {(i, j) for i in by_id for j in by_id if by_id[j] <= by_id[i]}
        assert set(s.specialization) == pairs


def test_orthant_point_ranks():
    s = spec(PointedMonoid.orthant(3))
    for p in s.points:
        assert p.unit_group.rank == len(p.face)
    assert s.min_rank() == 0


def test_torus_spectrum_single_point():
    s = spec(PointedMonoid.torus(2))
    assert s.point_count() == 1
    assert s.points[0].unit_group.rank == 2
    assert point_count_poly(PointedMonoid.torus(2)) == IntPolynomial.of(1, -2, 1)


def test_halfline_with_unit_direction():
    # generators e1, -e1, e2: faces are {} plus {e1, -e1} and everything
    m = PointedMonoid.affine(2, [(1, 0), (-1, 0), (0, 1)])
    s = spec(m)
    assert s.point_count() == 2
    ranks = sorted(p.unit_group.rank for p in s.points)
    assert ranks == [1, 2]
    assert point_count_poly(m) == IntPolynomial.of(0, -1, 1)  # (q-1) + (q-1)^2 = q^2 - q


def test_numerical_monoid_spectrum():
    # <2, 3> inside N: not saturated, still two faces ({} and all)
    m = PointedMonoid.affine(1, [(2,), (3,)])
    s = spec(m)
    assert s.point_count() == 2
    assert point_count_poly(m) == IntPolynomial.of(0, 1)  # 1 + (q - 1) = q


def test_point_count_poly_orthant_is_q_power():
    for d in range(5):
        assert point_count_poly(PointedMonoid.orthant(d)) == IntPolynomial.q_power(d)


def test_smash_spectrum_multiplies():
    a = PointedMonoid.orthant(1)
    b = PointedMonoid.affine(1, [(2,), (3,)])
    # their smash product: the generators side by side in block-diagonal position
    ab = PointedMonoid.affine(2, [g + (0,) for g in a.generators]
                              + [(0,) + h for h in b.generators])
    s = spec(ab)
    sa, sb = spec(a), spec(b)
    assert s.point_count() == sa.point_count() * sb.point_count()
    # rank is additive across the smash
    ranks = sorted(p.unit_group.rank for p in s.points)
    expect = sorted(pa.unit_group.rank + pb.unit_group.rank
                    for pa in sa.points for pb in sb.points)
    assert ranks == expect
    assert point_count_poly(ab) == point_count_poly(a) * point_count_poly(b)


def test_group_with_zero_spectrum():
    g = PointedMonoid.group_with_zero(FgAbelianGroup.free(3))
    s = spec(g)
    assert s.point_count() == 1
    assert s.points[0].unit_group.rank == 3


def test_disjoint_union_offsets():
    s1 = spec(PointedMonoid.orthant(1))
    s2 = spec(PointedMonoid.torus(1))
    u = disjoint_union([s1, s2])
    assert u.point_count() == 3
    patches = sorted(p.patch for p in u.points)
    assert patches == [0, 0, 1]
    # no cross-patch specialization
    for i, j in u.specialization:
        assert u.points[i].patch == u.points[j].patch


def test_spectrum_generator_cap():
    with pytest.raises(TooManyGenerators):
        spec(PointedMonoid.orthant(15))


def test_space_report_shape():
    rep = space_report(spec(PointedMonoid.orthant(1)))
    assert set(rep) == {"points", "specialization", "min_rank"}
    assert rep["min_rank"] == 0
    assert {p["rank"] for p in rep["points"]} == {0, 1}


def _faces_by_subsets(gens, d):
    """Every one of the 2^k generator subsets tested on its own by
    Fourier-Motzkin: the oracle for the faces read off the facets."""
    return {mask for mask in range(1 << len(gens)) if spectrum._is_face(gens, mask, d)}


def _report_from_faces(gens, d, masks):
    """space_report of a spectrum with the given faces, built directly."""
    faces = sorted(tuple(j for j in range(len(gens)) if mask >> j & 1) for mask in masks)
    ranks = [rank(Mat.from_rows(len(f), d, [gens[j] for j in f])) if f else 0 for f in faces]
    return {
        "points": [{"patch": 0, "face": list(f), "rank": r} for f, r in zip(faces, ranks)],
        "specialization": [[i, j] for i, fi in enumerate(faces) for j, fj in enumerate(faces)
                           if set(fj) <= set(fi)],
        "min_rank": min(ranks),
    }


def _face_condition_reference(gens, subset: frozenset) -> bool:
    """The brute counter's former support condition: no rational relation
    among the generators is >= 0 off the subset and positive somewhere."""
    d = len(gens[0]) if gens else 0
    kernel = kernel_basis(Mat.from_rows(d, len(gens), list(zip(*gens)))) if gens else []
    off = [j for j in range(len(gens)) if j not in subset]
    if not off or not kernel:
        return True
    cons = [(tuple(v[j] for v in kernel), 0, "ge") for j in off]
    cons.append((tuple(sum(v[j] for j in off) for v in kernel), -1, "ge"))
    return not feasible(cons, len(kernel))


def _oracle_corpus():
    """(d, gens) pairs from a fixed seed: orthants 1..8, pointed cones and
    cones with a line in d = 1..4 with k <= 10, among them repeated,
    parallel and opposite generators and a zero generator, and <2, -2, 4>."""
    corpus = [(d, [tuple(int(i == j) for i in range(d)) for j in range(d)]) for d in range(1, 9)]
    corpus.append((1, [(2,), (-2,), (4,)]))
    rng = random.Random(3)
    for d in range(1, 5):
        for shape in ("pointed", "line", "any") * 4:
            draws = []
            for _ in range(rng.randint(1, 8)):
                g = [rng.randint(-4, 4) for _ in range(d)]
                if shape != "any":
                    g[0] = rng.randint(1, 4)   # e1* > 0: pointed, before the extras
                draws.append(tuple(g))
            gens = [g for g in dict.fromkeys(draws) if any(g)]
            if shape == "line":
                gens.append(tuple(-x for x in rng.choice(gens)))
            extra = rng.choice(["repeat", "parallel", "opposite", "zero", None])
            g = rng.choice(gens)
            if extra == "repeat":
                gens.append(g)
            elif extra == "parallel":
                gens.append(tuple(2 * x for x in g))
            elif extra == "opposite":
                gens.append(tuple(-x for x in g))
            elif extra == "zero":
                gens.append((0,) * d)
            rng.shuffle(gens)
            corpus.append((d, gens))
    return corpus


def _is_monoid(gens):
    return len(set(gens)) == len(gens) and all(any(g) for g in gens)


def test_face_walk_matches_subset_enumeration():
    monoids = 0
    for d, gens in _oracle_corpus():
        want = _faces_by_subsets(gens, d)
        assert face_masks(gens, d) == want, gens
        if _is_monoid(gens):
            monoids += 1
            got = space_report(spec(PointedMonoid.affine(d, gens)))
            assert got == _report_from_faces(gens, d, want), gens
    assert monoids >= 30


def test_face_set_is_the_farkas_support_condition():
    for d, gens in _oracle_corpus():
        faces = face_masks(gens, d)
        for mask in range(1 << len(gens)):
            subset = frozenset(j for j in range(len(gens)) if mask >> j & 1)
            assert (mask in faces) == _face_condition_reference(gens, subset), (gens, mask)


def _dd_work(monkeypatch, run) -> tuple[int, int]:
    """(double description passes, rays summed over their steps) that run
    makes, wherever spectrum or monoids start a pass."""
    work = [0, 0]

    def counted(gens, d):
        work[0] += 1
        for lin, rays in double_description(gens, d):
            work[1] += len(rays)
            yield lin, rays

    for module in (spectrum, monoids):
        monkeypatch.setattr(module, "double_description", counted)
    run()
    return tuple(work)


def _dd_passes(monkeypatch, run) -> int:
    return _dd_work(monkeypatch, run)[0]


def test_face_walk_work_counts(monkeypatch):
    # pointed, 12 rays of a polygon-like cone in Z^2 (two are extreme)
    fan = PointedMonoid.affine(2, [(1, i) for i in range(12)])
    # a line through +-e3 under a pointed cone in the (x, y) plane
    line = PointedMonoid.affine(3, [(0, 0, 1), (0, 0, -1), (1, 0, 2), (1, 1, -1),
                                    (1, 2, 0), (1, 3, 5), (2, 1, 1), (3, 1, -4)])
    wedge = PointedMonoid.affine(2, [(1, 0), (1, 1), (1, 2), (2, 1), (3, 1), (0, 1)])
    # the cone over a cube after a zero generator, which is on every facet:
    # pairs of rays that share enough zeros but are not adjacent are dropped
    cube = [(0, 0, 0, 0)] + [(1, a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    # one pass each; the rays it holds, summed over its steps, stay far
    # below the 2^k subsets a subset enumeration would test
    cases = [
        (4, lambda: spec(PointedMonoid.orthant(4)), 10),
        (12, lambda: spec(fan), 23),
        (8, lambda: spec(line), 25),
        (6, lambda: brute_count_monoid_homs(wedge, 2), 11),
        (9, lambda: face_masks(cube, 4), 33),
    ]
    for k, run, rays in cases:
        assert _dd_work(monkeypatch, run) == (1, rays)
        assert rays < 2 ** k


class _Steps(dict):
    """Face masks to point ids, counting the steps of _specializations: one
    per submask the walk looks up, one per face a scan reads."""
    steps = 0

    def __contains__(self, mask):
        self.steps += 1
        return super().__contains__(mask)

    def __iter__(self):
        for mask in super().__iter__():
            self.steps += 1
            yield mask


def test_specialization_steps():
    # the fan <(1, i) : i < 14> has 4 faces; its full face alone would walk
    # 2^14 submasks, where a scan of the faces reads 4: 1 + 2 + 2 + 4 steps.
    # An orthant keeps the walk: 3^4 submasks over its 2^4 faces.
    fan = PointedMonoid.affine(2, [(1, i) for i in range(14)])
    for m, steps, count in ((fan, 9, 9), (PointedMonoid.orthant(4), 81, 81)):
        faces = _Steps({mask: i for i, (mask, _) in enumerate(spectrum.face_ranks(m))})
        pairs = spectrum._specializations(faces)
        assert faces.steps == steps
        assert sorted(pairs) == sorted((i, j) for a, i in faces.items() for b, j in faces.items()
                                       if a & b == b)
        assert tuple(sorted(pairs)) == spec(m).specialization and len(pairs) == count


def test_walk_ranks_are_the_rank_of_each_face():
    for d, gens in _oracle_corpus():
        if not _is_monoid(gens):
            continue
        ranks = dict(spectrum.face_ranks(PointedMonoid.affine(d, gens)))
        assert set(ranks) == face_masks(gens, d)
        for mask, r in ranks.items():
            rows = [g for j, g in enumerate(gens) if mask >> j & 1]
            assert r == rank(Mat.from_rows(len(rows), d, rows)), (gens, mask)


def test_one_walk_per_instance(monkeypatch):
    gens = [(0, 0, 1), (0, 0, -1), (1, 0, 2), (1, 1, -1),
            (1, 2, 0), (1, 3, 5), (2, 1, 1), (3, 1, -4)]
    assert _dd_passes(monkeypatch, lambda: face_masks(gens, 3)) == 1
    m = PointedMonoid.affine(3, gens)
    fresh = PointedMonoid.affine(3, gens)
    before = (hash(m), repr(m))

    def consumers():
        spec(m)
        point_count_poly(m)
        affine_toric(m)
        brute_count_monoid_homs(m, 2)
        brute_count_monoid_homs(m, 3)
        units_of(m)

    assert _dd_passes(monkeypatch, consumers) == 1
    assert _dd_passes(monkeypatch, consumers) == 0
    # the memo is not part of the value: equality, hash and repr ignore it,
    # and a value-equal instance computes on its own
    assert m == fresh and (hash(m), repr(m)) == before == (hash(fresh), repr(fresh))
    assert _dd_passes(monkeypatch, lambda: spec(fresh)) == 1


def _dense_cone(seed, d, k=14):
    """k draws from 0..4 in Z^d, zero vectors dropped."""
    rng = random.Random(seed)
    gens = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(k)]
    return [g for g in gens if any(g)]


def test_dense_cone_faces(monkeypatch):
    # a dense pointed cone, on which a single Fourier-Motzkin face test
    # can take seconds to come out infeasible
    gens = _dense_cone(614, 6)
    m = PointedMonoid.affine(6, gens)
    ranks = {}
    # one pass, which keeps only the adjacent combinations of its rays:
    # 48 facets, and 277 rays held over its steps
    assert _dd_work(monkeypatch, lambda: ranks.update(spectrum.face_ranks(m))) == (1, 277)
    assert len(m._facets[1]) == 48
    assert len(ranks) == 352
    # each face spans a face (one Farkas test each), has the rank of its
    # generators, and the f-vector of the pointed cone has Euler
    # characteristic 0: sum over faces of (-1)^rank
    for mask, r in ranks.items():
        rows = [g for j, g in enumerate(gens) if mask >> j & 1]
        assert r == rank(Mat.from_rows(len(rows), 6, rows))
        assert spectrum._is_face(gens, mask, 6), mask
    assert sum((-1) ** r for r in ranks.values()) == 0
    assert face_masks(gens, 6) == set(ranks)


def test_double_description_guard_names_estimate_cap_and_override(monkeypatch):
    # the moment curve in Z^3: a polygon cone with 8 facets; with the caps
    # scaled by 1/100000, the lattice guard lets d = 3 through and the
    # double description cap is 10
    polygon = [(1, t, t * t) for t in range(8)]
    monkeypatch.setenv("F1KIT_MAX_SCALE", "1/100000")
    with pytest.raises(OutOfScale, match=r"^double description guard: rays \+ pos x neg pairs "
                       r"= 11 exceeds cap 10 \(scale caps with F1KIT_MAX_SCALE\)$"):
        units_of(PointedMonoid.affine(3, polygon))
    monkeypatch.delenv("F1KIT_MAX_SCALE")
    assert units_of(PointedMonoid.affine(3, polygon)).rank == 0


def test_generator_guard_names_estimate_cap_and_override(monkeypatch):
    with pytest.raises(TooManyGenerators, match=r"^face enumeration guard: 2\^15 faces = 32768 "
                       r"exceeds cap 16384 \(scale caps with F1KIT_MAX_SCALE\)$"):
        spec(PointedMonoid.orthant(15))
    # 2^14 x 1/2048 = 2^3 faces
    monkeypatch.setenv("F1KIT_MAX_SCALE", "1/2048")
    with pytest.raises(TooManyGenerators, match=r"^face enumeration guard: 2\^4 faces = 16 exceeds cap 8 "):
        point_count_poly(PointedMonoid.orthant(4))
