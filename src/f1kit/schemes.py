"""Torified schemes: cell data, rank parts, and monomial morphisms.

A model here is a triple: a monoid-level space, an ordinary scheme
presented only through a decomposition into split tori (the cells), and
an identification matching points to cells of the same dimension.  All
morphism calculus happens on the rank part: the finite disjoint union of
minimal cells, each carrying a free stalk lattice.

Cells are stored in families: a Cell with affine = a stands for the
2^a subset tori of dimensions dim .. dim+a that refine the product of a
dim-torus with an a-dimensional affine cell.  Counting and minimal-cell
data read off families exactly, so nothing is lost, and catalog models
whose explicit torus count is astronomical stay cheap.

Catalog morphisms repeat a few blocks, comaps and sign vectors over many
components, so a morphism keeps its distinct blocks and each component's
index into them (_Tabled).  Shapes are checked where data comes in, by
the public constructors and monomial_morphism, once per distinct (block,
source stalk, target stalk).  Composites are built unchecked (_Tabled._of
has the proof), and composition, check_strong, check_weak and the action
check run their kernels once per distinct block or pair of blocks.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Any

from .counting import cell_dimension_guard
from .errors import InfiniteHomSet, ShapeMismatch, guard
from .linalg import Mat
from .monoids import FgAbelianGroup, GroupHom, PointedMonoid, compose_hom, validate_hom
from .report import Report
from .spectrum import MoSpace, _subset, disjoint_union, face_ranks, spec

Label = Any


@dataclass(frozen=True)
class Cell:
    """A torus cell, or with affine > 0 a family of subset tori."""
    dim: int
    label: Label
    affine: int = 0

    def __post_init__(self):
        if self.dim < 0 or self.affine < 0:
            raise ShapeMismatch("cell dimensions must be nonnegative")

    def torus_count(self) -> int:
        return 1 << self.affine


@dataclass(frozen=True)
class Torification:
    """Nonempty list of cells with distinct labels.

    The largest cell dimension, dim + affine, is guarded here, before
    any count or point set is built from the cells.
    """
    cells: tuple[Cell, ...]

    def __post_init__(self):
        if not self.cells:
            raise ShapeMismatch("a torification needs at least one cell")
        labels = [c.label for c in self.cells]
        if len(set(labels)) != len(labels):
            raise ShapeMismatch("cell labels must be distinct")
        cell_dimension_guard(max(c.dim + c.affine for c in self.cells))

    def min_dim(self) -> int:
        return min(c.dim for c in self.cells)

    def minimal_cells(self) -> tuple[Cell, ...]:
        d = self.min_dim()
        return tuple(c for c in self.cells if c.dim == d)

    def torus_count(self) -> int:
        return sum(c.torus_count() for c in self.cells)


@dataclass(frozen=True)
class RankScheme:
    """Disjoint finite union of labeled components with stalk groups."""
    components: tuple[tuple[Label, FgAbelianGroup], ...]

    def __post_init__(self):
        positions = {l: i for i, (l, _) in enumerate(self.components)}
        if len(positions) != len(self.components):
            raise ShapeMismatch("component labels must be distinct")
        # lookup tables, not fields: ==, hash and repr see components only;
        # _stalks is the distinct stalks (as 1-tuples) and each component's
        # index among them
        vars(self).update(_positions=positions, _stalks=_table(map(itemgetter(1), self.components)))

    def labels(self) -> tuple[Label, ...]:
        return tuple(l for l, _ in self.components)

    def stalk(self, label: Label) -> FgAbelianGroup:
        return self.components[self.index(label)][1]

    def index(self, label: Label) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise ShapeMismatch(f"no component labeled {label!r}") from None

    def is_free(self) -> bool:
        return all(not g.torsion for _, g in self.components)


def point_scheme() -> RankScheme:
    return RankScheme((("*", FgAbelianGroup.trivial()),))


def _table(*columns) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """The distinct rows of aligned columns, first seen first, and each
    row's index among them.  Catalog columns often repeat one row
    throughout, and otherwise come in runs of one object, so a row is
    hashed only where it differs from the one before."""
    rows = list(zip(*columns))
    if rows and rows[-1] == rows[0] and rows.count(rows[0]) == len(rows):
        return (rows[0],), (0,) * len(rows)
    number: dict = {}
    kinds, last, k = [], (), 0
    for row in rows:
        if row != last:
            k, last = number.setdefault(row, len(number)), row
        kinds.append(k)
    return tuple(number), tuple(kinds)


def _positions(target: "RankScheme", labels) -> tuple[int, ...] | None:
    """Each label's component position in target, or None if one is unknown."""
    try:
        return tuple(map(target._positions.__getitem__, labels))
    except (KeyError, TypeError):
        return None


def product_scheme(a: RankScheme, b: RankScheme) -> RankScheme:
    """a x b, components in (a, b) order; one direct sum per pair of
    distinct stalks."""
    (sa, ka), (sb, kb) = a._stalks, b._stalks
    sums = [[x.direct_sum(y) for (y,) in sb] for (x,) in sa]
    return RankScheme(tuple(((la, lb), sums[i][j]) for (la, _), i in zip(a.components, ka)
                            for (lb, _), j in zip(b.components, kb)))


class F1Scheme:
    """Cells plus a lazily materialized monoid-level space.

    Models built straight from a torification delay the monoid side: it
    is the discrete union of one group-with-zero patch per torus, which
    for family-compressed catalogs can be astronomically large.  The
    rank part, F1-points and counting never force it; accessing .mo or
    .eval_pairs builds it once, through _monoid_side, under a point
    budget.  affine_toric's schemes build their spectrum the same way.
    """

    def __init__(self, cells: Torification):
        self.cells = cells

    def _monoid_side(self) -> tuple[MoSpace, tuple[tuple[int, Label], ...]]:
        """The monoid side and its (point id, cell label) pairs: one
        group-with-zero patch per torus of each family."""
        guard("monoid side", "torus points", self.cells.torus_count(), 1 << 15)
        spaces, pairs = [], []
        for cell in self.cells.cells:
            for k in range(cell.affine + 1):
                for subset in combinations(range(1, cell.affine + 1), k):
                    pairs.append((len(spaces), cell.label if not subset else (cell.label, subset)))
                    spaces.append(spec(PointedMonoid.group_with_zero(FgAbelianGroup.free(cell.dim + k))))
        return disjoint_union(spaces), tuple(pairs)

    # a getter that raises stores nothing, so a failed build raises on every access
    @cached_property
    def _side(self):
        return self._monoid_side()

    @property
    def mo(self) -> MoSpace:
        return self._side[0]

    @property
    def eval_pairs(self) -> tuple[tuple[int, Label], ...]:
        return self._side[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, F1Scheme) and self.cells == other.cells

    def __repr__(self) -> str:
        return f"F1Scheme({len(self.cells.cells)} cells, min_dim={self.cells.min_dim()})"


def from_torification(t: Torification) -> F1Scheme:
    """Scheme whose monoid side is one split torus patch per cell."""
    return F1Scheme(t)


def additive_chain(n: int) -> F1Scheme:
    """A^n with its refined cell structure: 2^n subset tori, unit rank 0.

    Stored as the single family Cell(0, "e", n); the unique minimal cell
    is the unit point, so there is exactly one F1-point.
    """
    if n < 0:
        raise ShapeMismatch("ambient dimension must be nonnegative")
    return from_torification(Torification((Cell(0, "e", n),)))


class _Toric(F1Scheme):
    """affine_toric's scheme, whose monoid side is spec(m), built on first use."""

    def __init__(self, cells: Torification, m: PointedMonoid):
        super().__init__(cells)
        self._monoid = m

    def _monoid_side(self):
        """spec(m), each point matched to its face's cell, which must be a
        plain cell of the point's unit rank that no other point matched."""
        s = spec(self._monoid)
        cells = {c.label: c for c in self.cells.cells}
        for p in s.points:
            cell = cells.pop(p.face, None)
            if cell is None or cell.affine != 0:
                raise ShapeMismatch(f"point {p.id} names no unmatched plain cell {p.face!r}")
            if p.unit_group.rank != cell.dim:
                raise ShapeMismatch(
                    f"point {p.id} has rank {p.unit_group.rank}, cell {p.face!r} has dim {cell.dim}")
        return s, tuple((p.id, p.face) for p in s.points)


def affine_toric(m: PointedMonoid) -> F1Scheme:
    """Scheme of an affine monoid: one cell per face, labeled by the face.

    The cells come from the face ranks alone; the monoid side, spec(m)
    with each point matched to its face's cell, is built and checked on
    first use, so F1-points and point counts build no specialization pair.

    >>> x = affine_toric(PointedMonoid.orthant(2))
    >>> [c.dim for c in x.cells.cells]
    [0, 1, 2, 1]
    """
    if m.kind != "affine":
        raise ShapeMismatch("affine_toric needs an affine monoid")
    k = len(m.generators)
    return _Toric(Torification(tuple(Cell(r, _subset(face, k)) for face, r in face_ranks(m))), m)


def rank_part(x: F1Scheme) -> RankScheme:
    """Minimal cells with their free stalk lattices, in cell order."""
    return RankScheme(tuple(
        (c.label, FgAbelianGroup.free(c.dim)) for c in x.cells.minimal_cells()
    ))


def f1_points(x: F1Scheme) -> tuple[Label, ...]:
    """Labels of the minimal cells: the points over the base."""
    return rank_part(x).labels()


def h_points_count(x: F1Scheme, h: FgAbelianGroup) -> int:
    """Number of points with coordinates in {0} u h: one hom set per torus.

    A d-dimensional torus contributes |h|^d and a refined affine family of
    extra dimension a sums to |h|^d (|h|+1)^a over its subset tori, so the
    total is the counting polynomial evaluated at |h| + 1.  When every
    cell is a point, each contributes one point over any h; otherwise a
    positive-rank h makes the set a union of positive-dimensional families
    and only its parametrization rank would be reportable.
    """
    top = max(c.dim + c.affine for c in x.cells.cells)
    if top == 0:
        return len(x.cells.cells)
    if h.rank > 0:
        raise InfiniteHomSet(
            f"points over a rank-{h.rank} group form families of rank up to {top * h.rank}"
        )
    t = h.order()
    return sum(t ** c.dim * (t + 1) ** c.affine for c in x.cells.cells)


SignVec = tuple[int, ...]


def apply_exponent_to_signs(e: Mat, signs: SignVec) -> SignVec:
    """Push a +-1 vector through a monomial map: out_i = prod s_j^(e_ij)."""
    if len(signs) != e.cols:
        raise ShapeMismatch("sign vector length does not match exponent columns")
    if -1 not in signs:
        return (1,) * e.rows
    out = []
    for row in e.data:
        v = 1
        for coef, s in zip(row, signs):
            if coef % 2 and s == -1:
                v = -v
        out.append(v)
    return tuple(out)


def mul_signs(a: SignVec, b: SignVec) -> SignVec:
    return tuple(x * y for x, y in zip(a, b))


def _push_signs(e: Mat, outer: SignVec, inner: SignVec) -> SignVec:
    """Signs of outer * t^e after inner * t: outer times inner pushed through e."""
    return mul_signs(outer, apply_exponent_to_signs(e, inner))


def _align(source: RankScheme, *columns) -> None:
    if set(map(len, columns)) != {len(source.components)}:
        raise ShapeMismatch("per-component data must align with source components")


class _Tabled:
    """Per-component data kept as distinct blocks plus indices.

    _blocks holds the distinct blocks, tuples of one value per name in the
    subclass's _columns; _kinds holds each component's index into _blocks,
    and _at its target position (None when a label names no component).
    """

    def __post_init__(self):
        columns = [getattr(self, c) for c in self._columns]
        _align(self.source, self.targets, *columns)
        blocks, kinds = _table(*columns)
        vars(self).update(_at=_positions(self.target, self.targets), _blocks=blocks, _kinds=kinds)
        self._check()

    @classmethod
    def _of(cls, source: RankScheme, target: RankScheme, targets, at, blocks, kinds):
        """The morphism with these blocks, built without the shape check.

        Its callers build only shape-valid morphisms:
        * compose_maps, compose_strong: component i of g . f goes where g
          takes f's target, a component of g.source = f.target.  So g's
          (t x s) block times f's (s x r) block is t x r, signs pushed
          through g's block have length t, and a composed comap maps the
          target stalk back to the source stalk through f's target stalk.
        * induced_monomial: a checked comap maps the target stalk to the
          source stalk, so its transpose is (target rank x source rank).
        """
        m = object.__new__(cls)
        fields = vars(m)
        fields.update(source=source, target=target, targets=targets, _at=at, _blocks=blocks, _kinds=kinds)
        for name, column in zip(cls._columns, zip(*blocks) if blocks else [()] * len(cls._columns)):
            fields[name] = (column[0],) * len(kinds) if len(column) == 1 else tuple(map(column.__getitem__, kinds))
        return m

    def _check(self):
        """Raise ShapeMismatch at the first component whose block does not
        fit its stalks.  Each distinct (block, source stalk, target stalk)
        is tested once; only when one fails, or a label names no component,
        are the components walked in order to name the first failure."""
        (src, sk), (tgt, tk) = self.source._stalks, self.target._stalks
        if self._at is not None and not any(
                self._fault(*src[s], *tgt[t], *self._blocks[k])
                for k, s, t in set(zip(self._kinds, sk, map(tk.__getitem__, self._at)))):
            return self
        for i, ((_, stalk), label, k) in enumerate(zip(self.source.components, self.targets, self._kinds)):
            if fault := self._fault(stalk, self.target.stalk(label), *self._blocks[k]):
                raise ShapeMismatch(f"component {i}: {fault}")


@dataclass(frozen=True)
class MonomialMap(_Tabled):
    """Componentwise monomial morphism between free rank schemes.

    Component i of the source maps to component targets[i]; on torus
    coordinates t the map is  t  |->  signs[i] * t^exponents[i]  with an
    integer exponent matrix of shape (target rank x source rank).
    """

    source: RankScheme
    target: RankScheme
    targets: tuple[Label, ...]
    exponents: tuple[Mat, ...]
    signs: tuple[SignVec, ...]

    _columns = ("exponents", "signs")

    @staticmethod
    def _fault(src: FgAbelianGroup, tgt: FgAbelianGroup, e: Mat, s: SignVec) -> str | None:
        if e.rows != tgt.rank or e.cols != src.rank:
            return f"exponent is {e.rows}x{e.cols}, needs {tgt.rank}x{src.rank}"
        if len(s) != tgt.rank or any(v not in (1, -1) for v in s):
            return f"signs must be +-1 of length {tgt.rank}"
        return None


def compose_maps(g: MonomialMap, f: MonomialMap) -> MonomialMap:
    """g after f; target components, exponents and signs all compose, once
    per distinct pair of blocks: each product once per pair of exponents,
    each sign push once per (g exponent, g signs, f signs)."""
    if f.target != g.source:
        raise ShapeMismatch("compose_maps needs f.target == g.source")
    pairs, kinds = _table(map(g._kinds.__getitem__, f._at), f._kinds)
    products, pushes, blocks = {}, {}, []
    for (ge, gs), (fe, fs) in ((g._blocks[a], f._blocks[b]) for a, b in pairs):
        if (ge, fe) not in products:
            products[ge, fe] = ge * fe
        if (ge, gs, fs) not in pushes:
            pushes[ge, gs, fs] = _push_signs(ge, gs, fs)
        blocks.append((products[ge, fe], pushes[ge, gs, fs]))
    return MonomialMap._of(f.source, g.target, tuple(map(g.targets.__getitem__, f._at)),
                           tuple(map(g._at.__getitem__, f._at)), tuple(blocks), kinds)


@dataclass(frozen=True)
class StrongMorphismRk(_Tabled):
    """Rank-part morphism with genuine stalk comaps.

    comaps[i] maps the unit group of the target component hit by source
    component i back to the unit group of source component i (the usual
    contravariant direction for functions).
    """

    source: RankScheme
    target: RankScheme
    targets: tuple[Label, ...]
    comaps: tuple[GroupHom, ...]

    _columns = ("comaps",)

    @staticmethod
    def _fault(src: FgAbelianGroup, tgt: FgAbelianGroup, h: GroupHom) -> str | None:
        if h.source is not tgt and h.source != tgt:
            return "comap source is not the target stalk"
        if h.target is not src and h.target != src:
            return "comap target is not the source stalk"
        return None


def check_strong(f: StrongMorphismRk) -> Report:
    """Validate each stalk comap; shapes were enforced at construction.

    Each distinct comap is validated once, and the components that share
    it share its report; checks still counts every component.
    """
    table = tuple(validate_hom(h) for (h,) in f._blocks)
    reports = list(map(table.__getitem__, f._kinds))
    i = None if all(table) else next((i for i, r in enumerate(reports) if not r), None)
    if i is None:
        return Report.merge(reports)
    return Report.failed(i + 1, {"component": i, "hom": reports[i].witness})


def compose_strong(g: StrongMorphismRk, f: StrongMorphismRk) -> StrongMorphismRk:
    """g after f, each comap composition once per distinct pair of comaps."""
    if f.target != g.source:
        raise ShapeMismatch("compose_strong needs f.target == g.source")
    pairs, kinds = _table(f._kinds, map(g._kinds.__getitem__, f._at))
    blocks = tuple((compose_hom(f._blocks[a][0], g._blocks[b][0]),) for a, b in pairs)
    return StrongMorphismRk._of(f.source, g.target, tuple(map(g.targets.__getitem__, f._at)),
                                tuple(map(g._at.__getitem__, f._at)), blocks, kinds)


def induced_monomial(f: StrongMorphismRk) -> MonomialMap:
    """Torus-coordinate map of a strong morphism: transposed comaps, +1 signs."""
    if not (f.source.is_free() and f.target.is_free()):
        raise ShapeMismatch("monomial coordinates need free stalks")
    exps = (h.free_matrix.transpose() for (h,) in f._blocks)
    return MonomialMap._of(f.source, f.target, f.targets, f._at, tuple((e, (1,) * e.rows) for e in exps),
                           f._kinds)


@dataclass(frozen=True)
class WeakMorphism:
    """A monoid-side rank morphism and a scheme-side monomial map.

    The two halves must agree on components; the scheme side may twist
    coordinates by signs and exponents that no monoid-side comap induces,
    which is exactly the freedom weak morphisms add.
    """

    mo_side: StrongMorphismRk
    z_side: MonomialMap


def strong_to_weak(f: StrongMorphismRk) -> WeakMorphism:
    return WeakMorphism(f, induced_monomial(f))


def monomial_morphism(source: RankScheme, target: RankScheme, targets, exponents,
                      signs=None, mo_exponents=None) -> WeakMorphism:
    """The weak morphism t -> signs[i] t^exponents[i] on source component i.

    Component i goes to targets[i]; signs default to +1.  The monoid
    side's comaps are the transposed blocks of mo_exponents, for a monoid
    law that differs from the scheme side's, else of exponents.
    Components with equal blocks share one comap.  The monoid side is
    checked first.  Without mo_exponents its check covers the exponents'
    shapes, since a comap free(e.rows) -> free(e.cols) that maps the
    target stalk to the source stalk makes e fit them; then only signs
    that are not +-1 of length e.rows send the scheme side to its check.
    """
    targets, exponents = tuple(targets), tuple(exponents)
    mo_exponents = exponents if mo_exponents is None else tuple(mo_exponents)
    at = _positions(target, targets)
    _align(source, targets, mo_exponents)
    exps, kinds = _table(mo_exponents)
    comaps = tuple((GroupHom.on_free(FgAbelianGroup.free(e.rows), FgAbelianGroup.free(e.cols),
                                     e.transpose()),) for (e,) in exps)
    mo = StrongMorphismRk._of(source, target, targets, at, comaps, kinds)._check()
    if signs is None:
        _align(source, exponents)
        exps, kinds = (exps, kinds) if mo_exponents is exponents else _table(exponents)
        blocks = tuple((e, (1,) * e.rows) for (e,) in exps)
    else:
        _align(source, exponents, signs := tuple(signs))
        blocks, kinds = _table(exponents, signs)
    z = MonomialMap._of(source, target, targets, at, blocks, kinds)
    if mo_exponents is not exponents or any(len(s) != e.rows or {*s} - {1, -1} for e, s in blocks):
        z._check()
    return WeakMorphism(mo, z)


def check_weak(w: WeakMorphism) -> Report:
    """Consistency of the two halves, plus whether the map is strong.

    ok means the pair is a valid weak morphism; the notes record
    "strong" or "not-strong" according to whether the scheme side is the
    transposed comap with trivial signs, compared once per distinct
    pair of blocks.
    """
    f, z = w.mo_side, w.z_side
    if f.source != z.source or f.target != z.target:
        return Report.failed(1, {"reason": "halves live on different schemes"})
    checks = len(f.source.components)
    if f._at != z._at:
        i = next(i for i, (a, b) in enumerate(zip(f._at, z._at)) if a != b)
        return Report.failed(i + 1, {
            "component": i, "reason": "component maps disagree", "mo": f.targets[i], "z": z.targets[i],
        })
    hom_ok = check_strong(f)
    if not hom_ok.ok:
        return Report.failed(checks + hom_ok.checks, hom_ok.witness)
    is_strong = all(_is_transpose(z._blocks[a][0], f._blocks[b][0].free_matrix)
                    and all(x == 1 for x in z._blocks[a][1]) for a, b in set(zip(z._kinds, f._kinds)))
    note = "strong" if is_strong else "not-strong"
    return Report(True, checks + hom_ok.checks, None, (note,))


def _is_transpose(e: Mat, m: Mat) -> bool:
    """e == m.transpose(), compared entry by entry without building it."""
    return (e.rows, e.cols) == (m.cols, m.rows) and all(
        x == m.data[j][i] for i, row in enumerate(e.data) for j, x in enumerate(row))


def compose_weak(g: WeakMorphism, f: WeakMorphism) -> WeakMorphism:
    return WeakMorphism(
        compose_strong(g.mo_side, f.mo_side),
        compose_maps(g.z_side, f.z_side),
    )


def match_components(a: RankScheme, b: RankScheme) -> dict | None:
    """Bijection of components with equal stalks, or None.

    Used to compare two presentations of the same scheme up to
    relabeling: components pair off greedily within equal stalk types,
    preserving order, so the result is deterministic.
    """
    if len(a.components) != len(b.components):
        return None
    pool: dict[FgAbelianGroup, list[Label]] = {}
    for lb, gb in b.components:
        pool.setdefault(gb, []).append(lb)
    out = {}
    for la, ga in a.components:
        if not pool.get(ga):
            return None
        out[repr(la)] = pool[ga].pop(0)
    return out
