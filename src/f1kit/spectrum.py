"""Prime spectra of pointed monoids.

Primes of a pointed monoid are complements of faces: a subset S of the
generators spans a face exactly when some rational functional vanishes
on S and is strictly positive on the rest.  The spectrum of an affine
monoid is therefore a finite poset of faces; a group with zero has the
single empty face.  Each point carries the unit group of its stalk (the
sublattice spanned by the face), whose rank is the local torus dimension.

The faces are found by walking up the face lattice from the minimal face
(Bruns-Gubeladze, Polytopes, Rings and K-Theory, ch. 1-2): the covers of
a face F are rays of the pointed cone C/span(F), so each is F plus one
class of generators whose images there are positive multiples of each
other.  That costs about #faces * k feasibility calls, not one for each
of the 2^k generator subsets.  The walk reads each face's rank off the
same kernel computation (rank F = d - #functionals vanishing on F), and
its {face: rank} map is kept on the monoid instance, so spec,
point_count_poly, affine_toric and the brute hom counter walk once per
instance between them.  monoids.units_of reads the unit group off the
same minimal_face that the walk starts from.
"""

from dataclasses import dataclass
from math import gcd
from operator import mul

from .counting import IntPolynomial, cell_dimension_guard
from .errors import TooManyGenerators, guard
from .linalg import Mat, feasible, kernel_basis, rank
from .monoids import GROUP_WITH_ZERO, FgAbelianGroup, PointedMonoid


@dataclass(frozen=True)
class MoPoint:
    """One prime: the face it corresponds to and the stalk unit group."""
    id: int
    patch: int
    face: tuple[int, ...]
    unit_group: FgAbelianGroup


@dataclass(frozen=True)
class MoSpace:
    """Finite monoid spectrum: patches, points, and specialization order.

    specialization holds pairs (i, j) meaning point j lies in the closure
    of point i (prime_i contained in prime_j, face_i containing face_j).
    The relation is reflexive; pairs never cross patches.
    """

    patches: tuple[PointedMonoid, ...]
    points: tuple[MoPoint, ...]
    specialization: tuple[tuple[int, int], ...]

    def point_count(self) -> int:
        return len(self.points)

    def min_rank(self) -> int:
        return min(p.unit_group.rank for p in self.points)


def _is_face(gens, subset_mask: int, d: int) -> bool:
    """Feasibility of: functional zero on the subset, >= 1 off it."""
    cons = [(g, 0, "eq") if subset_mask >> j & 1 else (g, -1, "ge")
            for j, g in enumerate(gens)]
    return feasible(cons, d)


def _cover_classes(gens, face: int, d: int, cone_rank: int) -> tuple[list[int], int, bool]:
    """Generators off the face grouped by ray in C/span(F), as masks, the
    rank of F, and whether those rays are linearly independent.

    Integer functionals vanishing on the face give coordinates on
    Q^d/span(F); two generators share a class when their images have the
    same primitive vector.  rank F = d - #functionals, and the rays span
    the image of span(C), of dimension rank C - rank F.
    """
    rows = [g for j, g in enumerate(gens) if face >> j & 1]
    funcs = kernel_basis(Mat.from_rows(len(rows), d, rows))
    face_rank = d - len(funcs)
    classes: dict[tuple[int, ...], int] = {}
    for j, g in enumerate(gens):
        if not face >> j & 1:
            image = [sum(map(mul, u, g)) for u in funcs]
            step = gcd(*image)
            key = tuple(x // step for x in image)
            classes[key] = classes.get(key, 0) | 1 << j
    return list(classes.values()), face_rank, len(classes) == cone_rank - face_rank


def minimal_face(gens, d: int) -> int:
    """The minimal face of the cone, as a generator mask.

    It is the empty set when the cone is pointed and no generator is
    zero (one feasibility call), otherwise the generators g_j whose
    negatives lie in the cone (one more call per generator).  Each call
    is in the d variables of a functional u.  By Farkas' lemma -g_j is
    in the cone exactly when no u has u.g >= 0 on every generator and
    u.(-g_j) < 0; scaling u, exactly when {u.g >= 0 for all g,
    u.g_j >= 1} is infeasible.
    """
    if _is_face(gens, 0, d):
        return 0
    dual = [(g, 0, "ge") for g in gens]
    return sum(1 << j for j, g in enumerate(gens) if not feasible(dual + [(g, -1, "ge")], d))


def _walk(gens, d: int) -> dict[int, int]:
    """{face mask: rank} for the generator subsets that span faces.

    Starts at the minimal face.  F is a face, so F = C cap span(F): every
    generator off F has a nonzero image in C/span(F), and that cone is
    pointed.  Each class of F is tested once with one feasibility call,
    unless the class rays are linearly independent: then C/span(F) is
    simplicial, every class is a ray, and no call is needed.  Every face
    found is expanded once, which is where its rank is read.
    """
    bottom = minimal_face(gens, d)
    cone_rank = rank(Mat.from_rows(len(gens), d, gens))
    ranks: dict[int, int] = {}
    found = {bottom}
    rejected = set()
    todo = [bottom]
    while todo:
        face = todo.pop()
        classes, ranks[face], simplicial = _cover_classes(gens, face, d, cone_rank)
        for mask in classes:
            up = face | mask
            if up in found or up in rejected:
                continue
            if simplicial or _is_face(gens, up, d):
                found.add(up)
                todo.append(up)
            else:
                rejected.add(up)
    return ranks


def face_masks(gens, d: int) -> set[int]:
    """Generator subsets (as bitmasks) that span faces of the cone.

    A pure function of the generator list, which need not be a valid
    monoid (zero or repeated generators are fine).
    """
    return set(_walk(gens, d))


def _subset(mask: int, k: int) -> tuple[int, ...]:
    return tuple(j for j in range(k) if mask >> j & 1)


def face_ranks(m: PointedMonoid) -> tuple[tuple[int, int], ...]:
    """(face mask, rank) pairs of an affine monoid, lex by face subset.

    The walk runs once per instance: its result is kept on the instance,
    outside the dataclass fields, so ==, hash and repr do not see it and
    a value-equal instance walks again.  Before it walks, the face guard
    refuses a cone that may have more than 2^14 faces.
    """
    faces = m.__dict__.get("_face_ranks")
    if faces is None:
        k = len(m.generators)
        guard("face enumeration", f"2^{k} faces", 1 << k, 1 << 14, TooManyGenerators)
        faces = tuple(sorted(_walk(m.generators, m.ambient_dim).items(),
                             key=lambda item: _subset(item[0], k)))
        object.__setattr__(m, "_face_ranks", faces)
    return faces


def spec(m: PointedMonoid) -> MoSpace:
    """Spectrum of a single monoid, points ordered lex by face subset.

    >>> s = spec(PointedMonoid.orthant(2))
    >>> [p.face for p in s.points]
    [(), (0,), (0, 1), (1,)]
    >>> [p.unit_group.rank for p in s.points]
    [0, 1, 2, 1]
    """
    if m.kind == GROUP_WITH_ZERO:
        point = MoPoint(0, 0, (), m.group)
        return MoSpace((m,), (point,), ((0, 0),))

    k = len(m.generators)
    free = [FgAbelianGroup.free(r) for r in range(m.ambient_dim + 1)]
    points = []
    mask_to_id = {}
    for i, (mask, r) in enumerate(face_ranks(m)):
        points.append(MoPoint(i, 0, _subset(mask, k), free[r]))
        mask_to_id[mask] = i

    pairs = []
    for mask, i in mask_to_id.items():
        sub = mask
        while True:
            if sub in mask_to_id:
                pairs.append((i, mask_to_id[sub]))
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return MoSpace((m,), tuple(points), tuple(sorted(pairs)))


def disjoint_union(spaces) -> MoSpace:
    """Concatenate spectra; points and patches reindex, order preserved."""
    patches: list[PointedMonoid] = []
    points: list[MoPoint] = []
    pairs: list[tuple[int, int]] = []
    for s in spaces:
        patch_off = len(patches)
        point_off = len(points)
        patches.extend(s.patches)
        for p in s.points:
            points.append(MoPoint(p.id + point_off, p.patch + patch_off,
                                  p.face, p.unit_group))
        for i, j in s.specialization:
            pairs.append((i + point_off, j + point_off))
    return MoSpace(tuple(patches), tuple(points), tuple(pairs))


def point_count_poly(m: PointedMonoid) -> IntPolynomial:
    """Counting polynomial sum over faces of (q-1)^(face rank).

    For affine monoids this equals the number of monoid homs into a
    q-element field for every prime power q (each face contributes the
    characters of the free lattice it spans).  For a group with zero the
    formula reads the free rank only; torsion units would contribute
    gcd factors that are not polynomial in q.
    """
    if m.kind == GROUP_WITH_ZERO:
        cell_dimension_guard(m.group.rank)
        return IntPolynomial.qminus1_power(m.group.rank)
    per_rank = [0] * (m.ambient_dim + 1)
    for _, r in face_ranks(m):
        per_rank[r] += 1
    return IntPolynomial.from_qminus1_basis(per_rank)


def space_report(s: MoSpace) -> dict:
    """JSON-able summary: faces, ranks, specialization pairs, min rank."""
    return {
        "points": [
            {"patch": p.patch, "face": list(p.face), "rank": p.unit_group.rank}
            for p in s.points
        ],
        "specialization": [[i, j] for i, j in s.specialization],
        "min_rank": s.min_rank(),
    }
