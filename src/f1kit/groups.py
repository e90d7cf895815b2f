"""Group objects on torified models: extensions of finite groups by tori.

A model is determined by a finite component group W, a rank r, an
integral representation theta of W on the rank-r torus, and a 2-cocycle
of signs.  The multiplication on components (s, w) is

    (s, w) * (s', w') = (s * theta_w(s') * c(w, w'), w w')

with unit (+1, e) and the inverse forced by the cocycle.  The scheme
side carries the signs; the monoid side sees only exponents.

The five group diagrams (associativity, both unit laws, both inverse
laws) on both sides hold exactly when three law facts hold: W's table
is a group, theta is a homomorphism, and the cochain is a normalized
2-cocycle.  Each fact has one verification kernel, run over the table's
generating set, that returns its first violation or None.  Each verdict
is kept on the object that owns the fact and computed at most once per
object: FiniteGroupTable.violation holds the table's, and
ExtensionLaw.violation the theta-then-cocycle verdict, since the
cocycle identity rests on theta.  FiniteGroupTable.build,
extension_model and check_group_axioms read these verdicts, and so does
require_group through check_group_axioms.  The action law rests on the
same argument: once the group law is verified, check_action needs
act(x x', y) = act(x, act(x', y)) only for x' in the components of the
generators (see its docstring).

The catalog stores laws as (theta, cocycle) and materializes per-pair
morphism data only when a check asks for it.  _left_translation alone
builds the multiplication on rows x G, signs and monoid law included: it
is law_weak_morphism on G x G, and reductive's lambda on a subgroup.
check_action reads an action's components by position in G x Y, splits
each block of the halves' tables (schemes) once, reads each row pair
(i, j) once, and compares exponents and signs once per distinct tuple
of operands.
"""

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import AxiomsFailed, CocycleInvalid, ShapeMismatch, ThetaNotHomomorphism, guard
from .linalg import Mat, det
from .monoids import FgAbelianGroup
from .report import Report
from .schemes import (
    Cell,
    F1Scheme,
    RankScheme,
    Torification,
    WeakMorphism,
    _push_signs,
    _table,
    apply_exponent_to_signs,
    from_torification,
    monomial_morphism,
    mul_signs,
    point_scheme,
    product_scheme,
    rank_part,
)


@dataclass(frozen=True)
class FiniteGroupTable:
    """Finite group as an explicit multiplication table over labels."""

    elements: tuple
    mult: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]

    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.mult[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def index(self, label) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise ValueError(f"{label!r} is not an element of the table") from None

    @cached_property
    def _positions(self) -> dict:
        """Label -> first position, built once per table."""
        positions = {}
        for i, label in enumerate(self.elements):
            positions.setdefault(label, i)
        return positions

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Each element, in order, that the right products e s1 ... sk of
        the earlier picks do not reach; on lexicographic S_n these are the
        adjacent transpositions (see reductive.symmetric_table)."""
        picks, reached = [], {self.identity}
        for x in range(self.order()):
            if x not in reached:
                picks.append(x)
                stack = list(reached)
                while stack:
                    row = self.mult[stack.pop()]
                    new = {row[s] for s in picks} - reached
                    reached |= new
                    stack.extend(new)
        return tuple(picks)

    @cached_property
    def violation(self):
        """table_violation of this table, computed once per table."""
        return table_violation(self)

    @staticmethod
    def build(elements, mul) -> "FiniteGroupTable":
        """Assemble a table from labels and a label-level product.

        Locates the identity and inverses, then raises on the table's
        violation: O(n^2) for units and inverses, Light's test over the
        generating set for associativity.
        """
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        if len(index) != len(elements):
            raise AxiomsFailed("duplicate element labels")
        try:
            table = tuple(
                tuple(index[mul(a, b)] for b in elements) for a in elements
            )
        except KeyError as bad:
            raise AxiomsFailed(f"product leaves the element set: {bad.args[0]!r}")
        return FiniteGroupTable._from_rows(elements, table)

    @staticmethod
    def _from_rows(elements: tuple, table: tuple) -> "FiniteGroupTable":
        """build's table from its index rows: identity, inverses, verdict."""
        try:
            identity = table.index(tuple(range(len(elements))))
        except ValueError:
            raise AxiomsFailed("no two-sided identity") from None
        # right inverses; a row without the identity keeps e, which the kernel rejects
        inverses = tuple(row.index(identity) if identity in row else identity for row in table)
        t = FiniteGroupTable(elements, table, identity, inverses)
        _raise_on(t.violation, t, AxiomsFailed)
        return t

    @staticmethod
    def trivial(label="e") -> "FiniteGroupTable":
        return FiniteGroupTable((label,), ((0,),), 0, (0,))

    @staticmethod
    def cyclic(n: int, labels=None) -> "FiniteGroupTable":
        if labels is None:
            labels = tuple("e" if i == 0 else f"g{i}" if i > 1 else "g" for i in range(n))
        labels = tuple(labels)
        if len(labels) != n:
            raise ShapeMismatch("need one label per element")
        pos = {l: i for i, l in enumerate(labels)}
        return FiniteGroupTable.build(labels, lambda a, b: labels[(pos[a] + pos[b]) % n])

    def product(self, other: "FiniteGroupTable") -> "FiniteGroupTable":
        labels = tuple((a, b) for a in self.elements for b in other.elements)
        sa, sb = self, other

        def mul(x, y):
            return (sa.elements[sa.mul(sa.index(x[0]), sa.index(y[0]))],
                    sb.elements[sb.mul(sb.index(x[1]), sb.index(y[1]))])

        return FiniteGroupTable.build(labels, mul)


def _raise_on(violation, w: FiniteGroupTable, error: type) -> None:
    """Raise error naming a kernel's violation, if there is one."""
    if violation is not None:
        kind, at = violation
        raise error(f"{kind} fails at ({', '.join(repr(w.elements[i]) for i in at)})")


def table_violation(t: FiniteGroupTable):
    """First failure of the group laws on t's table, or None.

    Returns (kind, indices): ("two-sided identity", (a,)), ("two-sided
    inverse", (a,)) for a's stored inverse, or ("associativity", (x, s, y)).
    Associativity is Light's test (Clifford-Preston I, 1.2): the s with
    (x s) y = x (s y) for all x, y are closed under products and hold e,
    so s need only run over the generators: n^2 |S| lookups, not n^3.
    """
    m, e, n = t.mult, t.identity, t.order()
    for a in range(n):
        if m[e][a] != a or m[a][e] != a:
            return "two-sided identity", (a,)
        b = t.inverses[a]
        if m[a][b] != e or m[b][a] != e:
            return "two-sided inverse", (a,)
    # x (s y) over all y is row x gathered through row s (n >= 2, so a tuple)
    gathers = [(s, itemgetter(*m[s])) for s in t.generators]
    for x, row in enumerate(m):
        for s, gather in gathers:
            left = m[row[s]]
            if left != gather(row):
                return "associativity", (x, s, next(y for y, sy in enumerate(m[s]) if left[y] != row[sy]))
    return None


def tables_isomorphic_by(f: dict, a: FiniteGroupTable, b: FiniteGroupTable) -> bool:
    """Does the label dictionary define an isomorphism a -> b?"""
    if len(f) != a.order() or a.order() != b.order():
        return False
    try:
        image = [b.index(f[x]) for x in a.elements]
    except (KeyError, ValueError):
        return False
    if len(set(image)) != len(image):
        return False
    for i in range(a.order()):
        for j in range(a.order()):
            if b.mul(image[i], image[j]) != image[a.mul(i, j)]:
                return False
    return True


@dataclass(frozen=True)
class ThetaRep:
    """Integral representation of W on Z^r by unimodular matrices."""

    w: FiniteGroupTable
    r: int
    matrices: tuple[Mat, ...]

    def __post_init__(self):
        if len(self.matrices) != self.w.order():
            raise ShapeMismatch("need one matrix per group element")
        for m in self.matrices:
            if m.rows != self.r or m.cols != self.r:
                raise ShapeMismatch(f"theta matrices must be {self.r}x{self.r}")

    def matrix(self, i: int) -> Mat:
        return self.matrices[i]

    @staticmethod
    def trivial(w: FiniteGroupTable, r: int) -> "ThetaRep":
        return ThetaRep(w, r, tuple(Mat.identity(r) for _ in range(w.order())))


def theta_violation(theta: ThetaRep):
    """First failure of theta's laws, or None.

    Returns ("unimodularity", (g,)) when det theta(g) is not +-1,
    ("theta(e) = 1", (e,)), or ("homomorphism law", (g, s)) when
    theta(g) theta(s) != theta(gs).  s runs over W's generating set
    only: every h is e s1 ... sk, so theta(gh) = theta(g) theta(h)
    follows by induction on k.  That costs |W| |S| matrix products, after
    |W| determinants of r^3 steps each, which are guarded.
    """
    w, mats = theta.w, theta.matrices
    guard("theta determinant", f"{len(mats)} x {theta.r}^3 elimination steps",
          len(mats) * theta.r ** 3, 8_000_000)
    for g, m in enumerate(mats):
        if det(m) not in (1, -1):
            return "unimodularity", (g,)
    if not mats[w.identity].is_identity():
        return "theta(e) = 1", (w.identity,)
    for g, m in enumerate(mats):
        for s in w.generators:
            if m * mats[s] != mats[w.mul(g, s)]:
                return "homomorphism law", (g, s)
    return None


@dataclass(frozen=True)
class Cocycle:
    """Sign-valued 2-cochain on W x W, one +-1 vector of length r per pair."""

    w: FiniteGroupTable
    r: int
    table: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        n = self.w.order()
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ShapeMismatch("cocycle table must be |W| x |W|")
        # a table usually holds |W|^2 references to a few rows and vectors; test each once
        for v in {v for (row,) in _table(self.table)[0] for v in row}:
            if len(v) != self.r or any(s not in (1, -1) for s in v):
                raise ShapeMismatch("cocycle values must be +-1 vectors of length r")

    def value(self, i: int, j: int) -> tuple[int, ...]:
        return self.table[i][j]

    @cached_property
    def is_trivial(self) -> bool:
        """Is every value +1?  Computed once per cocycle."""
        ones = ((1,) * self.r,) * self.w.order()
        return all(row == ones for row in self.table)

    @staticmethod
    def trivial(w: FiniteGroupTable, r: int) -> "Cocycle":
        row = ((1,) * r,) * w.order()
        return Cocycle(w, r, (row,) * w.order())


def cocycle_violation(cocycle: Cocycle, theta: ThetaRep):
    """First failure of normalization or the 2-cocycle identity, or None.

    Returns ("left normalization", (a,)) when c(e, a) != 1,
    ("right normalization", (a,)) when c(a, e) != 1, or
    ("cocycle identity", (a, s, b)) when
    theta_a(c(s, b)) * c(a, sb) != c(a, s) * c(as, b).
    The identity is checked for s in W's generating set only, which
    suffices once theta is a homomorphism and c is normalized.  Proof:
    the identity at all (a, b, c) is associativity of the sign extension
    (u, a)(v, b) = (u theta_a(v) c(a, b), ab); the pairs (u, e) and
    (1, s) generate it, (x (u, e)) y = x ((u, e) y) holds by
    normalization, and for (1, s) it is the identity at (a, s, b), so
    Light's test gives associativity.  A trivial table is skipped.
    """
    if cocycle.is_trivial:
        return None
    w = cocycle.w
    n = w.order()
    e = w.identity
    one = (1,) * cocycle.r
    for a in range(n):
        if cocycle.value(e, a) != one:
            return "left normalization", (a,)
        if cocycle.value(a, e) != one:
            return "right normalization", (a,)
    gens = w.generators
    guard("cocycle identity", f"{n}^2 x {len(gens)} generator triples",
          n * n * len(gens), 2_000_000)
    for a in range(n):
        ma = theta.matrix(a)
        for s in gens:
            a_s = w.mul(a, s)
            c_as = cocycle.value(a, s)
            for b in range(n):
                lhs = _push_signs(ma, cocycle.value(a, w.mul(s, b)), cocycle.value(s, b))
                if lhs != mul_signs(c_as, cocycle.value(a_s, b)):
                    return "cocycle identity", (a, s, b)
    return None


@dataclass(frozen=True)
class ExtensionLaw:
    """The scheme-side group law data: a representation and a sign cocycle."""

    theta: ThetaRep
    cocycle: Cocycle

    def __post_init__(self):
        if self.cocycle.w is not self.theta.w and self.cocycle.w != self.theta.w:
            raise ShapeMismatch("theta and cocycle must share the component group")
        if self.cocycle.r != self.theta.r:
            raise ShapeMismatch("theta and cocycle must share the rank")

    @cached_property
    def violation(self):
        """theta_violation, else cocycle_violation, whose proof needs theta
        to be a homomorphism; computed once per law."""
        return theta_violation(self.theta) or cocycle_violation(self.cocycle, self.theta)


TWISTED = "twisted"
PRODUCT = "product"


class GroupModel:
    """Torified group model: components W, rank r, law, cells.

    mo_law picks the monoid-side comultiplication: "twisted" uses the
    same theta-exponents as the scheme side (sign-free), "product" the
    plain product comultiplication.  kind is "strong" when the scheme
    side is induced by the monoid side, i.e. the cocycle is trivial and
    the monoid law is the twisted one.
    """

    def __init__(self, law: ExtensionLaw, cells: Torification, mo_law: str = TWISTED):
        if mo_law not in (TWISTED, PRODUCT):
            raise ShapeMismatch(f"unknown mo_law {mo_law!r}")
        self.law = law
        self.cells = cells
        self.mo_law = mo_law
        self.kind = "strong" if (law.cocycle.is_trivial and mo_law == TWISTED) else "weak"

    @property
    def w(self) -> FiniteGroupTable:
        return self.law.theta.w

    @property
    def r(self) -> int:
        return self.law.theta.r

    @cached_property
    def rank_scheme(self) -> RankScheme:
        free = FgAbelianGroup.free(self.r)
        return RankScheme(tuple((label, free) for label in self.w.elements))

    def scheme(self) -> F1Scheme:
        return from_torification(self.cells)

    # law accessors: exponent blocks [A | B] and signs for component pair (i, j)

    @cached_property
    def _unit_blocks(self) -> tuple[Mat, tuple[int, ...]]:
        """The r x r identity block and the +1 sign vector, built once."""
        return Mat.identity(self.r), (1,) * self.r

    def law_blocks(self, side: str, i: int, j: int):
        ident, one = self._unit_blocks
        if side == "z":
            return ident, self.law.theta.matrix(i), self.law.cocycle.value(i, j)
        if self.mo_law == TWISTED:
            return ident, self.law.theta.matrix(i), one
        return ident, ident, one


def constant_group(table: FiniteGroupTable) -> GroupModel:
    """Rank-0 model: one point cell per element of the finite group."""
    theta = ThetaRep.trivial(table, 0)
    law = ExtensionLaw(theta, Cocycle.trivial(table, 0))
    cells = Torification(tuple(Cell(0, label, 0) for label in table.elements))
    return GroupModel(law, cells)


def torus_group(r: int) -> GroupModel:
    """The split torus of rank r as a one-component model.

    The cells come first: their dimension guard refuses a huge r before
    the r x r identity of theta is built.
    """
    cells = Torification((Cell(r, "e", 0),))
    w = FiniteGroupTable.trivial()
    law = ExtensionLaw(ThetaRep.trivial(w, r), Cocycle.trivial(w, r))
    return GroupModel(law, cells)


def extension_model(law: ExtensionLaw, cell_dims: dict, mo_law: str = TWISTED) -> GroupModel:
    """Model from an extension law and total cell dimensions per component.

    cell_dims maps each element label of W to the total dimension of its
    cell; the cell is the refined torification of G_m^r x A^(d - r), so
    every dimension must be at least r.  The law's verdict is read here,
    over W's generating set and at every size; a broken theta surfaces as
    ThetaNotHomomorphism, a broken cochain as CocycleInvalid.
    """
    bad = law.violation
    if bad is not None:
        fact = _FAILING_DIAGRAM[bad[0]][1]
        _raise_on(bad, law.theta.w, ThetaNotHomomorphism if fact == "exponent" else CocycleInvalid)
    r = law.theta.r
    cells = []
    for label in law.theta.w.elements:
        if label not in cell_dims:
            raise ShapeMismatch(f"no cell dimension for component {label!r}")
        d = int(cell_dims[label])
        if d < r:
            raise ShapeMismatch(f"cell dimension {d} below rank {r} at {label!r}")
        cells.append(Cell(r, label, d - r))
    return GroupModel(law, Torification(tuple(cells)), mo_law)


def f1_points_group(g: GroupModel) -> FiniteGroupTable:
    """Group structure induced on minimal cells: the component group W.

    The multiplication of rank components is read off the component map
    of the law, which is W's own table; identity and inverses were fixed
    when the table was built.
    """
    part = rank_part(g.scheme())
    if part.labels() != g.w.elements:
        raise AxiomsFailed("rank components do not match the component group")
    return g.w


def _diagram_witness(side, name, labels, part):
    return {"side": side, "diagram": name, "at": list(labels), "part": part}


# the diagram instance, and the part of it, that each kernel violation fails;
# the part names the fact: component for W's table, exponent for theta,
# signs for the cocycle
_FAILING_DIAGRAM = {
    "two-sided identity": ("unit", "component"),
    "two-sided inverse": ("inverse", "component"),
    "associativity": ("associativity", "component"),
    "unimodularity": ("right-inverse", "exponent"),
    "theta(e) = 1": ("left-unit", "exponent"),
    "homomorphism law": ("associativity", "exponent"),     # at (g, s, e)
    "left normalization": ("left-unit", "signs"),
    "right normalization": ("right-unit", "signs"),
    "cocycle identity": ("associativity", "signs"),
}


def check_group_axioms(g: GroupModel) -> Report:
    """All five group diagrams, on both sides, through the three law facts.

    The diagrams hold exactly when the table's and the law's stored
    verdicts find nothing; a violation names a failing diagram instance,
    and one of theta fails the monoid side only under the twisted law.
    Each side has 2|W| unit, 2|W| inverse and |W|^3 associativity instances,
    enumerated side (mo, z) > diagram > components; checks counts them
    all on a pass, and is the witness's position among them on a failure.
    """
    w = g.w
    n = w.order()
    bad = w.violation or g.law.violation
    if bad is None:
        return Report.passed(2 * (4 * n + n ** 3))
    kind, at = bad
    diagram, part = _FAILING_DIAGRAM[kind]
    side = "mo" if part == "component" or (part == "exponent" and g.mo_law == TWISTED) else "z"
    if kind == "homomorphism law":
        at += (w.identity,)
    pos = 0 if side == "mo" else 4 * n + n ** 3
    if diagram == "associativity":
        pos += 4 * n + (at[0] * n + at[1]) * n + at[2] + 1
    else:
        pos += 2 * at[0] + 2 + (2 * n if diagram.endswith("inverse") else 0)
    return Report.failed(pos, _diagram_witness(side, diagram, [w.elements[i] for i in at], part))


def require_group(g: GroupModel) -> None:
    r = check_group_axioms(g)
    if not r.ok:
        raise AxiomsFailed(f"group axioms fail: {r.witness}")


def law_weak_morphism(g: GroupModel) -> WeakMorphism:
    """The multiplication as an explicit morphism G x G -> G.

    Materializes |W|^2 components, so the count is guarded; intended
    for small models (checks, corpus tests).  It is G's left translation
    of itself, whose action diagrams are the group diagrams require_group
    proves; the action suite still scans it, as the end-to-end cross-check
    of the materialized blocks against the law they come from.
    """
    n = g.w.order()
    guard("law morphism", f"{n}^2 components", n * n, 100_000)
    return _left_translation(g, g.rank_scheme)


def _left_translation(g: GroupModel, rows: RankScheme) -> WeakMorphism:
    """rows x G -> G, rows labeled by elements of g: (u, w) goes to uw,
    read from W's table.  The blocks [A | B] depend on u alone and are
    read once per row; the scheme side adds the cocycle signs c(u, w)
    when the cocycle is nontrivial, and the monoid side takes its own
    blocks under the product law."""
    w, n = g.w, g.w.order()
    signed, product = not g.law.cocycle.is_trivial, g.mo_law == PRODUCT
    targets, exps, mo_exps, signs = [], [], [], []
    for u in rows.labels():
        i = w.index(u)
        za, zb, _ = g.law_blocks("z", i, w.identity)
        targets += map(w.elements.__getitem__, w.mult[i])
        exps += [za.hstack(zb)] * n
        if signed:
            signs += g.law.cocycle.table[i]
        if product:
            ma, mb, _ = g.law_blocks("mo", i, w.identity)
            mo_exps += [ma.hstack(mb)] * n
    return monomial_morphism(product_scheme(rows, g.rank_scheme), g.rank_scheme, targets, exps,
                             signs if signed else None, mo_exps if product else None)


def unit_weak_morphism(g: GroupModel) -> WeakMorphism:
    label = g.w.elements[g.w.identity]
    return monomial_morphism(point_scheme(), g.rank_scheme, (label,), (Mat.zeros(g.r, 0),))


def inversion_weak_morphism(g: GroupModel) -> WeakMorphism:
    w, cocycle = g.w, g.law.cocycle
    targets, exps, signs = [], [], []
    for i in range(w.order()):
        k = w.inv(i)
        targets.append(w.elements[k])
        exps.append(-g.law.theta.matrix(k))
        signs.append(cocycle.value(k, i))
    mo_exps = None if g.mo_law == TWISTED else (-Mat.identity(g.r),) * w.order()
    return monomial_morphism(g.rank_scheme, g.rank_scheme, targets, exps,
                             None if cocycle.is_trivial else signs, mo_exps)


def z_rank_group(g: GroupModel) -> FiniteGroupTable:
    """Integral points of the rank part: sign vectors extended by W.

    Elements are pairs (sign vector, component label), sign vectors in
    binary order (bit k set means -1 at k), then components in W's order;
    multiplication follows the extension law
    (s, a) (t, b) = (s theta_a(t) c(a, b), ab), with unit (+1, e).  The
    order is 2^r |W|; a full table is materialized, so the size is
    guarded.  require_group reads the law's stored verdicts; the table is
    then filled from the law by index arithmetic, and not verified again.
    """
    w = g.w
    n = w.order()
    order = (1 << g.r) * n
    guard("integral points", f"(2^{g.r} x {n} components)^2 table entries", order * order, 4096 ** 2)
    require_group(g)
    sign_vecs = [tuple(1 - 2 * (bits >> k & 1) for k in range(g.r))
                 for bits in range(1 << g.r)]
    # signs as bit masks, so that multiplying them is xor
    mask = {v: b for b, v in enumerate(sign_vecs)}
    twist = [[mask[apply_exponent_to_signs(g.law.theta.matrix(a), t)] for t in sign_vecs]
             for a in range(n)]
    cocycle = [[mask[g.law.cocycle.value(a, b)] for b in range(n)] for a in range(n)]
    mult = tuple(
        tuple((s ^ twist[a][t] ^ cocycle[a][b]) * n + w.mul(a, b)
              for t in range(len(sign_vecs)) for b in range(n))
        for s in range(len(sign_vecs)) for a in range(n))
    labels = tuple((v, label) for v in sign_vecs for label in w.elements)
    # (+1, e) sits at position e
    inverses = tuple(row.index(w.identity) for row in mult)
    return FiniteGroupTable(labels, mult, w.identity, inverses)


def sigma_check(g: GroupModel) -> Report:
    """Does w -> (+1, w) split the extension on integral points?

    ok means the section is a group homomorphism, which happens exactly
    when the cocycle is trivial; otherwise the witness is the first pair
    whose product picks up a sign.  The section lands in the correct
    component coset and splits the projection because e is W's unit,
    which table_violation verified when the table was built; checks
    still counts those |W| instances after the |W|^2 pairs.
    """
    w, cocycle = g.w, g.law.cocycle
    n = w.order()
    checks = n * n + n
    if cocycle.is_trivial:
        return Report.passed(checks, ("section-splits",))
    one = (1,) * g.r
    i, j = next((i, j) for i in range(n) for j in range(n) if cocycle.value(i, j) != one)
    witness = {"pair": [w.elements[i], w.elements[j]], "cocycle": list(cocycle.value(i, j))}
    return Report.failed(checks, witness, ("section-not-homomorphism",))


def check_action(g: GroupModel, y: RankScheme, act: WeakMorphism) -> Report:
    """Action diagrams for act: G x Y -> Y, both sides.

    Verifies act(e, -) = id and act(mu(g1,g2), -) = act(g1, act(g2, -))
    with exact component, exponent-block and sign comparisons.  Both
    halves must map G x Y to Y, so component (i, y) of each sits at
    i |Y| + y and is read by position.  One operand table holds each
    comap of the monoid half and each distinct (exponent, signs) pair of
    the scheme half, split into [A | B]; each row pair (i, j) is read
    once, every component compared, and exponents and signs once per
    distinct operand tuple.
    Associativity is checked at every (i, y) but only for j in
    S = w.generators, which suffices once g's law is a group law
    (require_group, first):

    * Fix the scheme side or the monoid side.  The points x' with
      act(x x', y) = act(x, act(x', y)) for all x, y are closed under
      products, because the law is associative.
    * The instance at j = s in S puts the whole component of s, all
      points (t, s), in that set.
    * These generate G.  With k the order of s, the products
      (t1, s) ... (tk, s) land in the identity component and sweep its
      torus as t1 varies; the components of S generate W.
    * For trivial W, S is empty, and the unit instances already say
      that act(t, y) = t^A y for some A, which is associative.
    * Two monomial maps with +-1 signs are equal exactly when they agree
      at the generic point, i.e. in components, exponents and signs; so
      the instance at every (i, j, y) holds.

    Each side has |Y| unit and |W|^2 |Y| associativity instances,
    enumerated side (mo, z) > unit, then (i, j, y); checks counts them
    all on a pass, and is the failing instance's position among them on
    a failure.  The scan costs 2 |W| |S| |Y| instances, guarded.
    """
    w = g.w
    n = w.order()
    m = len(y.components)
    js = w.generators
    guard("action law", f"2 x {n} x {len(js)} generators x {m} instances",
          2 * n * len(js) * m, 1_000_000)
    mo, z = act.mo_side, act.z_side
    expected_src = product_scheme(g.rank_scheme, y)
    if any(half.source != expected_src or half.target != y for half in (mo, z)):
        return Report.failed(1, {"reason": "action must map G x Y to Y"})
    require_group(g)
    halves = {}
    # one operand [A | B] and signs per block of each half: comaps transposed, with +1 signs
    blocks = [(h.free_matrix.transpose(), None) for (h,) in mo._blocks] + list(z._blocks)
    operands = [(e.col_slice(0, g.r), e.col_slice(g.r, e.cols), (1,) * e.rows if s is None else s)
                for e, s in blocks]
    z_nums = [len(mo._blocks) + k for k in z._kinds]

    def operand_part(cj: int, ci: int, cm: int) -> str:
        """The part (exponent, signs or "") failed at the current (i, j) by operands cj, ci, cm."""
        # LHS: act after (mu x id), by cm and the law blocks at (i, j) of cm's
        # side, where lb depends on i alone; RHS: act after (id x act), by ci and cj
        lhs, rhs = (cm, i, ls), (ci, cj)
        if lhs not in halves:
            am, bm, sm = operands[cm]
            # the law's group block A is always the identity, so am * A = am
            halves[lhs] = (am, am * lb, bm), _push_signs(am, sm, ls)
        if rhs not in halves:
            (aj, bj, sj), (ai, bi, si) = operands[cj], operands[ci]
            halves[rhs] = (ai, bi * aj, bi * bj), _push_signs(bi, si, sj)
        (left, left_signs), (right, right_signs) = halves[lhs], halves[rhs]
        return "exponent" if left != right else "signs" if left_signs != right_signs else ""

    per_side = m + n * n * m
    for pos, side, outs, nums in ((0, "mo", list(mo._at), mo._kinds), (per_side, "z", list(z._at), z_nums)):
        # row i: the target component and the operand number of each (i, y)
        rows = [(outs[i * m:(i + 1) * m], nums[i * m:(i + 1) * m]) for i in range(n)]
        oe, ce = rows[w.identity]
        for yc in range(m):
            # composing with the unit kills the group block A, so only the
            # Y block and the signs are constrained
            _, b, s = operands[ce[yc]]
            part = ("component" if oe[yc] != yc else "exponent" if not b.is_identity()
                    else "signs" if any(x != 1 for x in s) else None)
            if part:
                ylabel = y.components[yc][0]
                return Report.failed(pos + yc + 1, _diagram_witness(side, "action-unit", [ylabel], part))
        pos += m
        for i in range(n):
            oi, ci = rows[i]
            for j in js:
                ij = w.mul(i, j)
                _, lb, ls = g.law_blocks(side, i, j)
                (oj, cj), (om, cm) = rows[j], rows[ij]
                # every instance's component, each distinct operand tuple once; then find y
                if list(map(oi.__getitem__, oj)) == om and not any(
                        operand_part(*key) for key in set(zip(cj, map(ci.__getitem__, oj), cm))):
                    continue
                for yc, yj in enumerate(oj):
                    part = "component" if om[yc] != oi[yj] else operand_part(cj[yc], ci[yj], cm[yc])
                    if part:
                        labels = [w.elements[i], w.elements[j], y.components[yc][0]]
                        return Report.failed(pos + (i * n + j) * m + yc + 1,
                                             _diagram_witness(side, "action-associativity", labels, part))
    return Report.passed(2 * per_side)

