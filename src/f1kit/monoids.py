"""Pointed monoids, their unit groups, and abelian-group bookkeeping.

Two families of commutative pointed monoids (absorbing 0, unit 1) cover
everything downstream:

* Affine: the submonoid of (Z^d, +) generated by finitely many lattice
  vectors, with a base point 0 adjoined.  Multiplicative notation in the
  geometry corresponds to additive exponent vectors here.
* GroupWithZero: {0} u H for a finitely generated abelian group H.

Abelian groups appear as unit groups and as stalks, so the module also
carries a small invariant-factor representation for them together with
homomorphisms given on generators.

Membership in an affine monoid and its unit group are always decided.
Both read one split of the generators at the minimal face of the cone:
the face spans the unit lattice, and the cone is pointed modulo it.
"""

from functools import cache, cached_property, reduce
from math import gcd, lcm, prod
from operator import and_, mul

from ._record import record
from .errors import (
    InfiniteHomSet,
    SelectorError,
    ShapeMismatch,
    guard,
)
from .linalg import Mat, double_description, relations
from .report import Report, json_ints


@record
class FgAbelianGroup:
    """Z^rank + Z/t_1 + ... + Z/t_k with t_1 | t_2 | ... | t_k, t_i >= 2.

    >>> FgAbelianGroup.from_orders([2, 3]).torsion
    (6,)
    >>> FgAbelianGroup(1, (2, 4)).order()
    Traceback (most recent call last):
        ...
    f1kit.errors.InfiniteHomSet: group has positive rank
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ShapeMismatch("negative rank")
        if any(t < 2 for t in self.torsion):
            raise ShapeMismatch("torsion orders must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ShapeMismatch(f"torsion {self.torsion} is not a divisibility chain")

    @staticmethod
    @cache      # one shared instance per rank; safe because the group is frozen
    def free(r: int) -> "FgAbelianGroup":
        return FgAbelianGroup(r, ())

    @staticmethod
    def trivial() -> "FgAbelianGroup":
        return FgAbelianGroup(0, ())

    @staticmethod
    def from_orders(orders) -> "FgAbelianGroup":
        """Normalize a list of cyclic orders into invariant factors.

        Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), so each order m merges into
        the chain from the smallest factor up: t becomes gcd(t, m) and m
        carries on as lcm(t, m).  The chain stays a divisibility chain, and
        no order is factored, so a large prime costs one gcd per factor.
        """
        chain: list[int] = []
        for m in orders:
            if m < 1:
                raise ShapeMismatch("cyclic orders must be positive")
            for i, t in enumerate(chain):
                chain[i], m = gcd(t, m), lcm(t, m)
            chain.append(m)
        return FgAbelianGroup(0, tuple(t for t in chain if t > 1))

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def order(self) -> int:
        if self.rank > 0:
            raise InfiniteHomSet("group has positive rank")
        return prod(self.torsion)

    def generator_count(self) -> int:
        return self.rank + len(self.torsion)

    def direct_sum(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        if not (self.torsion or other.torsion):
            return FgAbelianGroup(self.rank + other.rank)
        merged = FgAbelianGroup.from_orders(list(self.torsion) + list(other.torsion))
        return FgAbelianGroup(self.rank + other.rank, merged.torsion)


def hom_count(a: FgAbelianGroup, h: FgAbelianGroup) -> int:
    """Number of homomorphisms a -> h, exactly.

    For finite h this is |h|^rank(a) * prod gcd(m_i, t_j) over torsion
    orders m_i of a and t_j of h.  A positive-rank h is still fine when a
    is pure torsion (the free part of h receives nothing); the count is
    infinite only when both ranks are positive.

    >>> hom_count(FgAbelianGroup(0, (2,)), FgAbelianGroup(0, (4,)))
    2
    >>> hom_count(FgAbelianGroup(2, ()), FgAbelianGroup(0, (2,)))
    4
    """
    if h.rank > 0 and a.rank > 0:
        raise InfiniteHomSet(
            f"hom set is a free module of rank {a.rank * h.rank} plus torsion"
        )
    total = h.order() ** a.rank if h.rank == 0 else 1
    for m in a.torsion:
        for t in h.torsion:
            total *= gcd(m, t)
    return total


@record
class GroupHom:
    """Homomorphism candidate given by images of all source generators.

    Source generators are ordered free-first then torsion.  Column j of
    free_matrix (shape target-rank x generator-count) is the free part of
    the image of generator j; column j of torsion_block (shape
    target-torsion-count x generator-count) is its torsion part, stored
    reduced modulo the target orders.  Candidates that violate the order
    relations exist on purpose; validate_hom flags them.
    """

    source: FgAbelianGroup
    target: FgAbelianGroup
    free_matrix: Mat
    torsion_block: Mat

    def __post_init__(self):
        n = self.source.generator_count()
        if self.free_matrix.rows != self.target.rank or self.free_matrix.cols != n:
            raise ShapeMismatch(
                f"free_matrix must be {self.target.rank}x{n}, "
                f"got {self.free_matrix.rows}x{self.free_matrix.cols}"
            )
        if (self.torsion_block.rows != len(self.target.torsion)
                or self.torsion_block.cols != n):
            raise ShapeMismatch(
                f"torsion_block must be {len(self.target.torsion)}x{n}, "
                f"got {self.torsion_block.rows}x{self.torsion_block.cols}"
            )
        if not self.target.torsion:
            return
        reduced = tuple(
            tuple(x % t for x in row)
            for row, t in zip(self.torsion_block.data, self.target.torsion)
        )
        object.__setattr__(self, "torsion_block",
                           Mat(self.torsion_block.rows, self.torsion_block.cols, reduced))

    @staticmethod
    def on_free(source: FgAbelianGroup, target: FgAbelianGroup, matrix: Mat) -> "GroupHom":
        """Hom between free groups from a plain integer matrix."""
        if source.torsion or target.torsion:
            raise ShapeMismatch("on_free needs torsion-free source and target")
        return GroupHom(source, target, matrix, Mat.zeros(0, source.rank))


def validate_hom(f: GroupHom) -> Report:
    """Check that the stated generator images define a homomorphism.

    The only condition is that the image of each torsion generator of
    order m is killed by m in the target: its free part must vanish and
    m times its torsion part must reduce to zero.

    >>> z = FgAbelianGroup.free(1)
    >>> z2 = FgAbelianGroup(0, (2,))
    >>> bad = GroupHom(z2, z, Mat.from_rows(1, 1, [[1]]), Mat.zeros(0, 1))
    >>> validate_hom(bad).ok
    False
    """
    checks = 0
    for k, m in enumerate(f.source.torsion):
        j = f.source.rank + k
        checks += 1
        free_col = tuple(f.free_matrix.data[i][j] for i in range(f.free_matrix.rows))
        if any(m * x != 0 for x in free_col):
            return Report.failed(checks, {
                "generator": j, "order": m,
                "reason": "free part of image not killed", "free_part": list(free_col),
            })
        for i, t in enumerate(f.target.torsion):
            if (m * f.torsion_block.data[i][j]) % t != 0:
                return Report.failed(checks, {
                    "generator": j, "order": m,
                    "reason": f"image component of order {t} not killed",
                })
    return Report.passed(max(checks, 1))


def compose_hom(g: GroupHom, f: GroupHom) -> GroupHom:
    """g after f.  Both arguments must be valid homs on matching groups."""
    if f.target != g.source:
        raise ShapeMismatch("compose_hom needs f.target == g.source")
    stacked = f.free_matrix.vstack(f.torsion_block)
    return GroupHom(f.source, g.target,
                    g.free_matrix * stacked, g.torsion_block * stacked)


AFFINE = "affine"
GROUP_WITH_ZERO = "group_with_zero"


def _lattice_guard(d: int) -> None:
    """Refuse cone work in Z^d: its kernels carry a d x d identity block."""
    guard("lattice", f"{d}^2 kernel entries", d * d, 1_000_000)


@record
class PointedMonoid:
    kind: str
    ambient_dim: int = 0
    generators: tuple[tuple[int, ...], ...] = ()
    group: FgAbelianGroup | None = None

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise ShapeMismatch(f"ambient_dim {self.ambient_dim} is negative")
        if self.kind == AFFINE:
            _lattice_guard(self.ambient_dim)
            seen = set()
            for g in self.generators:
                if len(g) != self.ambient_dim:
                    raise ShapeMismatch(f"generator {g} not of length {self.ambient_dim}")
                if all(x == 0 for x in g):
                    raise ShapeMismatch("the zero vector is not a generator (it is the unit)")
                if g in seen:
                    raise ShapeMismatch(f"duplicate generator {g}")
                seen.add(g)
        elif self.kind == GROUP_WITH_ZERO:
            if self.group is None:
                raise ShapeMismatch("group_with_zero needs a group")
        else:
            raise ShapeMismatch(f"unknown monoid kind {self.kind!r}")

    @staticmethod
    def affine(ambient_dim: int, generators) -> "PointedMonoid":
        gens = tuple(tuple(int(x) for x in g) for g in generators)
        return PointedMonoid(AFFINE, ambient_dim, gens, None)

    @staticmethod
    def orthant(d: int) -> "PointedMonoid":
        """N^d with zero adjoined: the coordinate monoid of A^d."""
        _lattice_guard(d)
        basis = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
        return PointedMonoid.affine(d, basis)

    @staticmethod
    def torus(r: int) -> "PointedMonoid":
        """Z^r with zero adjoined: the coordinate monoid of G_m^r."""
        return PointedMonoid.group_with_zero(FgAbelianGroup.free(r))

    @staticmethod
    def group_with_zero(group: FgAbelianGroup) -> "PointedMonoid":
        return PointedMonoid(GROUP_WITH_ZERO, 0, (), group)

    def generator_count(self) -> int:
        if self.kind == AFFINE:
            return len(self.generators)
        return self.group.generator_count()

    @cached_property
    def _passes(self):
        """Every state of one linalg.double_description pass over the
        generators from the last back, kept on the instance: state i is
        cone(generators[k - i:]), its masks indexing the reversed list."""
        return list(double_description(self.generators[::-1], self.ambient_dim))

    @cached_property
    def _facets(self):
        """The cone's H-representation, _passes' last state with masks in
        generator order: the unit split and spectrum.face_ranks read it."""
        k = len(self.generators)
        lin, rays = self._passes[-1]
        return lin, [(u, int(f"{z:0{k}b}"[::-1], 2)) for u, z in rays]

    @cached_property
    def _unit_split(self):
        """The generators on the minimal face (on every facet), those off
        it, and a lattice basis of the integer functionals vanishing on the
        face: integer coordinates on Q^d / span(face).  Kept on the instance."""
        face = reduce(and_, (z for _, z in self._facets[1]), (1 << len(self.generators)) - 1)
        units = tuple(g for j, g in enumerate(self.generators) if face >> j & 1)
        rest = tuple(g for j, g in enumerate(self.generators) if not face >> j & 1)
        return units, rest, tuple(relations(list(zip(*units)) or [()] * self.ambient_dim))

    @cached_property
    def _tail(self):
        """member's search data, kept off _unit_split so that units_of pays
        for the face alone: the map to Q^d / span(face), the images of the
        off-face generators there, and the first level s from which those
        images are linearly independent.  Kept on the instance."""
        _, rest, funcs = self._unit_split
        quotient = Mat.from_rows(len(funcs), self.ambient_dim, funcs)
        images = tuple(quotient.apply(v) for v in rest)
        s = max(0, len(rest) - len(funcs))
        while relations(images[s:]):
            s += 1
        return quotient, images, s

    @cached_property
    def _level_cones(self):
        """The H-representation of cone(images[start:]) for each level start:
        one pass over the images from the last back meets every one.  With
        no units the quotient is the identity and the images are the
        generators, so that pass is _passes; member reads no masks here."""
        units, _, funcs = self._unit_split
        if not units:
            return self._passes[::-1]
        _, images, _ = self._tail
        return list(double_description(images[::-1], len(funcs)))[::-1]

    @cached_property
    def _period(self):
        """P for member's innermost free level s - 1: the least P >= 1 with
        P v in N tail + ZU, where v is that level's generator, tail the
        generators from level s on and U those on the face; None when no
        such P exists.  Kept on the instance.

        v lies in span(tail, U), since s - 1 is not a tail level.  In an
        integer relation p v + n.tail + w.U = 0, n = -p alpha, where alpha
        are the rational coordinates of v's image on the tail's images.
        So the p that occur are the multiples of g, the gcd of the last
        coordinates of a lattice basis of the relations, and g v lies in
        N tail + ZU exactly when alpha >= 0; otherwise no multiple does.
        """
        units, rest, _ = self._unit_split
        s = self._tail[2]
        basis = relations([*units, *rest[s:], rest[s - 1]])
        some = next(rel for rel in basis if rel[-1])
        if any(x * some[-1] > 0 for x in some[len(units):-1]):
            return None
        return gcd(*(rel[-1] for rel in basis))


def _in_group(columns, r: tuple[int, ...]) -> bool:
    """Is r in the group the columns span?  The last coordinates of the
    integer relations among [columns | r] are the multiples n with n r in
    that group, and those of a lattice basis of the relations generate
    them.  So r is in the group exactly when their gcd is 1."""
    return gcd(*(rel[-1] for rel in relations([*columns, r]))) == 1


def member(m: PointedMonoid, target) -> bool:
    """Is the lattice vector an element of the affine monoid?

    Always decided.  Split the generators at the minimal face F of the
    cone C: U on F, V off it.  For u in U, -u lies in C cap span(F) = F,
    so -Nu is in the monoid of U for some N >= 1 and -u = (N - 1)u + (-Nu)
    is too: U generates the group ZU.  Hence t is a member exactly when
    t - sum c_j v_j lies in ZU for some c in N^V.

    Root: a member lies in the group all generators span, which is
    decided by one kernel (_in_group); a target outside it is refused.

    Levels 0 .. s - 1 are free: a depth-first search fixes c_j one
    generator of V at a time, raising it from 0 for as long as the
    rational relaxation holds: the residual's image in Q^d / span(F) lies
    in the cone of the images of v_j and the later generators.  By
    Farkas and Minkowski-Weyl that is: zero on the cone's dual lineality
    and >= 0 on each facet normal (PointedMonoid._level_cones).  A
    witness keeps every relaxation on its path true up to its own c_j,
    so the search cannot pass it.  Each loop ends: C / span(F) is
    pointed and every v_j has a nonzero image there.  A failed (level,
    residual) pair is remembered and not searched again.

    Tail: from level s on, the images of V are linearly independent
    (PointedMonoid._tail), so their coefficients are the unique rational
    solution for the residual's image.  The relations among [tail images
    | image of r] form a lattice of rank at most 1.  An integer solution
    exists exactly when its basis vector ends in +-1, and reads off it;
    it must be >= 0.  What remains lies in span(F), and it must lie in
    ZU (the same kernel test as the root, on [U | rest]).

    Innermost free level s - 1: with P as in PointedMonoid._period,
    a witness with c_{s-1} >= P stays a witness after c_{s-1} - P, since
    P v_{s-1} = n.tail + w.U with n >= 0 moves onto the tail and the
    units.  So that level stops at c < P (the group relaxation; Rosales
    and Garcia-Sanchez, Numerical Semigroups, 2009).  P is computed the
    first time the level gets past c = 0.  The outer free levels, and
    this one when P does not exist, walk as far as the relaxation lets
    them.

    >>> member(PointedMonoid.orthant(2), (3, 1))
    True
    >>> member(PointedMonoid.orthant(2), (-1, 0))
    False
    >>> member(PointedMonoid.affine(1, [(2,), (-2,)]), (1,))
    False
    """
    if m.kind != AFFINE:
        raise ShapeMismatch("membership is a lattice question; needs an affine monoid")
    target = tuple(target)
    if any(type(x) is not int for x in target):
        raise ShapeMismatch(f"vector {target} has a coordinate that is not an int")
    d = m.ambient_dim
    if len(target) != d:
        raise ShapeMismatch(f"vector of length {len(target)} in ambient dimension {d}")
    if all(x == 0 for x in target):
        return True
    if not _in_group(m.generators, target):
        return False
    units, rest, _ = m._unit_split
    quotient, images, s = m._tail

    def relax(start: int, residual: tuple[int, ...]) -> bool:
        lin, facets = m._level_cones[start]
        y = quotient.apply(residual)
        return not any(sum(map(mul, u, y)) for u in lin) and \
            all(sum(map(mul, u, y)) >= 0 for u, _ in facets)

    def solve(residual: tuple[int, ...]) -> bool:
        basis = relations([*images[s:], quotient.apply(residual)])
        if not basis or basis[0][-1] not in (1, -1):
            return False
        sign = basis[0][-1]
        for x, v in zip(basis[0], rest[s:]):
            if x * sign > 0:
                return False
            residual = tuple(y + x * sign * z for y, z in zip(residual, v))
        return all(x == 0 for x in residual) or _in_group(units, residual)

    dead: set[tuple[int, tuple[int, ...]]] = set()

    def dfs(start: int, residual: tuple[int, ...]) -> bool:
        if all(x == 0 for x in residual):
            return True
        if start == s:
            return solve(residual)
        key = (start, residual)
        if key in dead:
            return False
        current, c = residual, 0
        while relax(start, current):
            if dfs(start + 1, current):
                return True
            c += 1
            if start == s - 1 and m._period is not None and c >= m._period:
                break
            current = tuple(x - y for x, y in zip(current, rest[start]))
        dead.add(key)
        return False

    return dfs(0, target)


def units_of(m: PointedMonoid) -> FgAbelianGroup:
    """Unit group of the monoid.

    For a group with zero this is the group itself.  For an affine monoid
    the units form the lattice spanned by the minimal face of the cone:
    the generators whose negatives lie in the rational cone, which by
    Farkas' lemma are those on every facet.  The result records its rank
    (the lattice is free), d minus the number of functionals that vanish
    on the face.  Each such g is a unit: if -g = sum lambda_h h with
    rational lambda >= 0, then -Ng is in the monoid for a common
    denominator N, so -g = (N - 1)g + (-Ng) is too.  Conversely, if u and
    -u are in the monoid, their representations add up to 0, so every
    generator that u uses is on the minimal face.  Always decided, from
    the instance's one double description pass (PointedMonoid._facets).
    member's search data (_tail, _level_cones, _period) is not computed.

    >>> units_of(PointedMonoid.affine(2, [(1, 0), (-1, 0), (0, 1)]))
    FgAbelianGroup(rank=1, torsion=())
    """
    if m.kind == GROUP_WITH_ZERO:
        return m.group
    return FgAbelianGroup.free(m.ambient_dim - len(m._unit_split[2]))


def monoid_from_json(data: dict) -> PointedMonoid:
    """The monoid a JSON object describes; SelectorError if it is malformed."""
    if not isinstance(data, dict):
        raise SelectorError(f"a monoid file holds a JSON object, not a {type(data).__name__}")
    kind = data.get("kind")
    try:
        if kind == AFFINE:
            return PointedMonoid.affine(json_ints(data["ambient_dim"], "ambient_dim"),
                                        json_ints(data["generators"], "generators", 2))
        if kind == GROUP_WITH_ZERO:
            group = FgAbelianGroup(json_ints(data.get("rank", 0), "rank"),
                                   tuple(json_ints(data.get("torsion", []), "torsion", 1)))
            return PointedMonoid.group_with_zero(group)
    except KeyError as e:
        raise SelectorError(f"malformed {kind} monoid: missing field {e}") from e
    raise ShapeMismatch(f"unknown monoid kind {kind!r}")
