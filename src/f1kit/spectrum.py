"""Prime spectra of pointed monoids.

Primes of a pointed monoid are complements of faces: a subset S of the
generators spans a face exactly when some rational functional vanishes
on S and is strictly positive on the rest.  The spectrum of an affine
monoid is therefore a finite poset of faces; a group with zero has the
single empty face.  Each point carries the unit group of its stalk (the
sublattice spanned by the face), whose rank is the local torus dimension.

The faces are read off the cone's facets, which one double description
pass finds with their incidence masks (Motzkin et al. 1953; Fukuda and
Prodon 1996; linalg.double_description).  Every face is an intersection
of facets, the whole cone the empty one (Ziegler, Lectures on Polytopes,
ch. 2), so the face masks are the full mask closed under AND with each
facet mask, and the minimal face is the AND of them all.  Ranks come from
the lattice's grading (face_ranks).  The pass and the {face: rank} map
are kept on the monoid instance: spec, point_count_poly, affine_toric,
the brute hom counter and monoids.units_of share one pass.
"""

from functools import reduce
from operator import and_

from ._record import record
from .errors import TooManyGenerators, guard
from .linalg import double_description, feasible
from .monoids import GROUP_WITH_ZERO, FgAbelianGroup, PointedMonoid


@record
class MoPoint:
    """One prime: the face it corresponds to and the stalk unit group."""
    id: int
    patch: int
    face: tuple[int, ...]
    unit_group: FgAbelianGroup


@record
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
    """Feasibility of: functional zero on the subset, >= 1 off it.  The
    one-subset reference that the facets' face lattice is tested against."""
    cons = [(g, 0, "eq") if subset_mask >> j & 1 else (g, -1, "ge")
            for j, g in enumerate(gens)]
    return feasible(cons, d)


def _closure(facets, k: int) -> set[int]:
    """The full mask of k generators closed under AND with each facet mask."""
    faces = {(1 << k) - 1}
    for _, z in facets:
        faces |= {face & z for face in faces}
    return faces


def minimal_face(gens, d: int) -> int:
    """The minimal face of the cone, as a generator mask: the generators
    on every facet, or all of them when the cone is a linear space."""
    *_, (_, facets) = double_description(gens, d)
    return reduce(and_, (z for _, z in facets), (1 << len(gens)) - 1)


def face_masks(gens, d: int) -> set[int]:
    """Generator subsets (as bitmasks) that span faces of the cone.

    A pure function of the generator list, which need not be a valid
    monoid (zero or repeated generators are fine).
    """
    *_, (_, facets) = double_description(gens, d)
    return _closure(facets, len(gens))


def _subset(mask: int, k: int) -> tuple[int, ...]:
    return tuple([j for j in range(k) if mask >> j & 1])


def face_ranks(m: PointedMonoid) -> tuple[tuple[int, int], ...]:
    """(face mask, rank) pairs of an affine monoid, lex by face subset.

    The faces come from the instance's facets (PointedMonoid._facets).
    The lattice is graded by rank, and F's own facets are among its
    proper intersections with the cone's facets, so F's height over the
    minimal face is one more than the largest of theirs; the whole cone
    has rank d minus the dual lineality.  Kept on the instance, outside
    the record's fields, so ==, hash and repr do not see it.  First the
    face guard refuses a cone that may have more than 2^14 faces.
    """
    faces = m.__dict__.get("_face_ranks")
    if faces is None:
        k = len(m.generators)
        guard("face enumeration", f"2^{k} faces", 1 << k, 1 << 14, TooManyGenerators)
        lin, facets = m._facets
        height: dict[int, int] = {}
        for face in sorted(_closure(facets, k), key=int.bit_count):
            height[face] = 1 + max((height[face & z] for _, z in facets if face & z != face),
                                   default=-1)
        top = m.ambient_dim - len(lin) - height[(1 << k) - 1]
        faces = tuple(sorted(((face, top + h) for face, h in height.items()),
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

    return MoSpace((m,), tuple(points), tuple(sorted(_specializations(mask_to_id))))


def _specializations(faces: dict[int, int]) -> list[tuple[int, int]]:
    """(i, j) for every face j inside face i of faces (mask -> point id),
    per face by the shorter of its 2^|F| submasks and the face list."""
    pairs = []
    for mask, i in faces.items():
        if 1 << mask.bit_count() > len(faces):
            pairs += [(i, faces[sub]) for sub in faces if sub & mask == sub]
            continue
        sub = mask
        while True:
            if sub in faces:
                pairs.append((i, faces[sub]))
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return pairs


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


def point_count_poly(m: PointedMonoid) -> "IntPolynomial":
    """Counting polynomial sum over faces of (q-1)^(face rank).

    For affine monoids this equals the number of monoid homs into a
    q-element field for every prime power q (each face contributes the
    characters of the free lattice it spans).  For a group with zero the
    formula reads the free rank only; torsion units would contribute
    gcd factors that are not polynomial in q.
    """
    from .counting import IntPolynomial, cell_dimension_guard
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
        "specialization": list(map(list, s.specialization)),
        "min_rank": s.min_rank(),
    }
