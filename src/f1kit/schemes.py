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

Catalog morphisms share a few block, comap and sign objects among many
components, so each per-component kernel runs once per distinct tuple
of input objects (_each and the shape checks, keyed by id() for one
call), and the components sharing those inputs share the result object.
"""

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter, mul
from typing import Any

from .counting import cell_dimension_guard
from .errors import InfiniteHomSet, ShapeMismatch, guard
from .linalg import Mat
from .monoids import FgAbelianGroup, GroupHom, PointedMonoid, compose_hom, validate_hom
from .report import Report
from .spectrum import MoSpace, disjoint_union, spec

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
        # a lookup table, not a field: ==, hash and repr see components only
        object.__setattr__(self, "_positions", positions)

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


def _each(fn, *columns) -> tuple:
    """fn over the rows of the columns, run once per distinct tuple of row
    objects; the rows that share their objects share the result object."""
    keys = list(zip(*(map(id, c) for c in columns)))
    memo = {k: fn(*row) for k, row in dict(zip(keys, zip(*columns))).items()}
    return tuple(map(memo.__getitem__, keys))


def product_scheme(a: RankScheme, b: RankScheme) -> RankScheme:
    pairs = [(ca, cb) for ca in a.components for cb in b.components]
    sums = _each(FgAbelianGroup.direct_sum, [ca[1] for ca, _ in pairs], [cb[1] for _, cb in pairs])
    return RankScheme(tuple(((ca[0], cb[0]), s) for (ca, cb), s in zip(pairs, sums)))


class F1Scheme:
    """Cells plus a lazily materialized monoid-level space.

    Models built straight from a torification delay the monoid side: it
    is the discrete union of one group-with-zero patch per torus, which
    for family-compressed catalogs can be astronomically large.  The
    rank part, F1-points and counting never force it; accessing .mo or
    .eval_pairs materializes it under a point budget.
    """

    def __init__(self, cells: Torification,
                 mo: MoSpace | None = None,
                 eval_pairs: tuple[tuple[int, Label], ...] | None = None):
        self.cells = cells
        self._mo = mo
        self._eval = eval_pairs
        if (mo is None) != (eval_pairs is None):
            raise ShapeMismatch("mo and eval_pairs come together or not at all")
        if mo is not None:
            self._check_eval()

    def _check_eval(self) -> None:
        by_label = {c.label: c for c in self.cells.cells}
        if len(self._eval) != len(self._mo.points):
            raise ShapeMismatch("eval must cover every point exactly once")
        seen = set()
        for point_id, label in self._eval:
            key = repr(label)
            if key in seen:
                raise ShapeMismatch(f"cell {label!r} matched twice")
            seen.add(key)
            cell = by_label.get(label)
            if cell is None or cell.affine != 0:
                raise ShapeMismatch(f"eval names no plain cell {label!r}")
            p = self._mo.points[point_id]
            if p.unit_group.rank != cell.dim:
                raise ShapeMismatch(
                    f"point {point_id} has rank {p.unit_group.rank}, cell {label!r} has dim {cell.dim}"
                )

    def _materialize(self) -> None:
        guard("monoid side", "torus points", self.cells.torus_count(), 1 << 15)
        spaces = []
        pairs = []
        i = 0
        for cell in self.cells.cells:
            for k in range(cell.affine + 1):
                for subset in combinations(range(1, cell.affine + 1), k):
                    label = cell.label if not subset else (cell.label, subset)
                    group = FgAbelianGroup.free(cell.dim + len(subset))
                    spaces.append(spec(PointedMonoid.group_with_zero(group)))
                    pairs.append((i, label))
                    i += 1
        self._mo = disjoint_union(spaces)
        self._eval = tuple(pairs)

    @property
    def mo(self) -> MoSpace:
        if self._mo is None:
            self._materialize()
        return self._mo

    @property
    def eval_pairs(self) -> tuple[tuple[int, Label], ...]:
        if self._eval is None:
            self._materialize()
        return self._eval

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


def affine_toric(m: PointedMonoid) -> F1Scheme:
    """Scheme of an affine monoid: one cell per face, labeled by the face.

    >>> x = affine_toric(PointedMonoid.orthant(2))
    >>> [c.dim for c in x.cells.cells]
    [0, 1, 2, 1]
    """
    if m.kind != "affine":
        raise ShapeMismatch("affine_toric needs an affine monoid")
    s = spec(m)
    cells = tuple(Cell(p.unit_group.rank, p.face, 0) for p in s.points)
    pairs = tuple((p.id, p.face) for p in s.points)
    return F1Scheme(Torification(cells), s, pairs)


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
    total is the counting polynomial evaluated at |h| + 1.  h must be
    finite; a positive-rank h makes the set a union of positive-dimensional
    families and only its parametrization rank would be reportable.
    """
    if h.rank > 0:
        top = max(c.dim + c.affine for c in x.cells.cells)
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


@dataclass(frozen=True)
class MonomialMap:
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

    def __post_init__(self):
        n = len(self.source.components)
        if not (len(self.targets) == len(self.exponents) == len(self.signs) == n):
            raise ShapeMismatch("per-component data must align with source components")
        first, stalks = {}, {}
        for i, ((_, src), label, e, s) in enumerate(zip(self.source.components, self.targets,
                                                        self.exponents, self.signs)):
            tgt = stalks.get(id(label)) or stalks.setdefault(id(label), self.target.stalk(label))
            if first.setdefault((id(src), id(tgt), id(e), id(s)), i) != i:
                continue    # an earlier component with these objects passed
            if e.rows != tgt.rank or e.cols != src.rank:
                raise ShapeMismatch(
                    f"component {i}: exponent is {e.rows}x{e.cols}, needs {tgt.rank}x{src.rank}"
                )
            if len(s) != tgt.rank or any(v not in (1, -1) for v in s):
                raise ShapeMismatch(f"component {i}: signs must be +-1 of length {tgt.rank}")


def compose_maps(g: MonomialMap, f: MonomialMap) -> MonomialMap:
    """g after f; target components, exponents and signs all compose."""
    if f.target != g.source:
        raise ShapeMismatch("compose_maps needs f.target == g.source")
    js = list(map(g.source._positions.__getitem__, f.targets))    # f's targets are g's source labels
    ges, gss = (list(map(x.__getitem__, js)) for x in (g.exponents, g.signs))
    return MonomialMap(f.source, g.target, tuple(map(g.targets.__getitem__, js)),
                       _each(mul, ges, f.exponents), _each(_push_signs, ges, gss, f.signs))


@dataclass(frozen=True)
class StrongMorphismRk:
    """Rank-part morphism with genuine stalk comaps.

    comaps[i] maps the unit group of the target component hit by source
    component i back to the unit group of source component i (the usual
    contravariant direction for functions).
    """

    source: RankScheme
    target: RankScheme
    targets: tuple[Label, ...]
    comaps: tuple[GroupHom, ...]

    def __post_init__(self):
        n = len(self.source.components)
        if len(self.targets) != n or len(self.comaps) != n:
            raise ShapeMismatch("per-component data must align with source components")
        first, stalks = {}, {}
        for i, ((_, src), label, h) in enumerate(zip(self.source.components, self.targets, self.comaps)):
            tgt = stalks.get(id(label)) or stalks.setdefault(id(label), self.target.stalk(label))
            if first.setdefault((id(tgt), id(src), id(h)), i) != i:
                continue    # an earlier component with these objects passed
            if h.source != tgt:
                raise ShapeMismatch(f"component {i}: comap source is not the target stalk")
            if h.target != src:
                raise ShapeMismatch(f"component {i}: comap target is not the source stalk")


def check_strong(f: StrongMorphismRk) -> Report:
    """Validate each stalk comap; shapes were enforced at construction.

    Components that share one comap object share its report, so each
    distinct comap is validated once; checks still counts every component.
    """
    reports = _each(validate_hom, f.comaps)
    if all(reports):
        return Report.merge(list(reports))
    i = next(i for i, r in enumerate(reports) if not r)
    return Report.failed(i + 1, {"component": i, "hom": reports[i].witness})


def compose_strong(g: StrongMorphismRk, f: StrongMorphismRk) -> StrongMorphismRk:
    if f.target != g.source:
        raise ShapeMismatch("compose_strong needs f.target == g.source")
    js = list(map(g.source._positions.__getitem__, f.targets))
    return StrongMorphismRk(f.source, g.target, tuple(map(g.targets.__getitem__, js)),
                            _each(compose_hom, f.comaps, list(map(g.comaps.__getitem__, js))))


def induced_monomial(f: StrongMorphismRk) -> MonomialMap:
    """Torus-coordinate map of a strong morphism: transposed comaps, +1 signs."""
    if not (f.source.is_free() and f.target.is_free()):
        raise ShapeMismatch("monomial coordinates need free stalks")
    exps = tuple(h.free_matrix.transpose() for h in f.comaps)
    signs = tuple((1,) * e.rows for e in exps)
    return MonomialMap(f.source, f.target, f.targets, exps, signs)


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
    Components that share one block object share one comap.
    """
    targets, exponents = tuple(targets), tuple(exponents)
    mo_exponents = exponents if mo_exponents is None else tuple(mo_exponents)
    comaps = {k: GroupHom.on_free(FgAbelianGroup.free(e.rows), FgAbelianGroup.free(e.cols), e.transpose())
              for k, e in dict(zip(map(id, mo_exponents), mo_exponents)).items()}
    if signs is None:
        ones = {}
        signs = (ones.setdefault(e.rows, (1,) * e.rows) for e in exponents)
    return WeakMorphism(
        StrongMorphismRk(source, target, targets, tuple(map(comaps.__getitem__, map(id, mo_exponents)))),
        MonomialMap(source, target, targets, exponents, tuple(signs)),
    )


def check_weak(w: WeakMorphism) -> Report:
    """Consistency of the two halves, plus whether the map is strong.

    ok means the pair is a valid weak morphism; the notes record
    "strong" or "not-strong" according to whether the scheme side is the
    transposed comap with trivial signs, compared once per distinct
    (exponent, comap, signs) triple of objects.
    """
    f, z = w.mo_side, w.z_side
    if f.source != z.source or f.target != z.target:
        return Report.failed(1, {"reason": "halves live on different schemes"})
    checks = len(f.source.components)
    if tuple(f.targets) != tuple(z.targets):
        i = next(i for i, (a, b) in enumerate(zip(f.targets, z.targets)) if a != b)
        return Report.failed(i + 1, {
            "component": i, "reason": "component maps disagree", "mo": f.targets[i], "z": z.targets[i],
        })
    hom_ok = check_strong(f)
    if not hom_ok.ok:
        return Report.failed(checks + hom_ok.checks, hom_ok.witness)
    is_strong = all(_each(lambda e, h, s: _is_transpose(e, h.free_matrix) and all(x == 1 for x in s),
                          z.exponents, f.comaps, z.signs))
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


def _restrict(f: WeakMorphism, keep, source: RankScheme) -> WeakMorphism:
    """f on its source components at the positions keep (two or more), which
    source lists in that order."""
    mo, z, pick = f.mo_side, f.z_side, itemgetter(*keep)
    return WeakMorphism(StrongMorphismRk(source, mo.target, pick(mo.targets), pick(mo.comaps)),
                        MonomialMap(source, z.target, pick(z.targets), pick(z.exponents), pick(z.signs)))


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
