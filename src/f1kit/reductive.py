"""Type-A catalog: GL(n), parabolic subgroups, Grassmannians, quotients.

Permutations are one-line tuples, 1-based: w = (w(1), ..., w(n)), with
(v w)(i) = v(w(i)).  The GL(n) model has component group S_n, its table
walked from the Coxeter generators, acting on the rank-n torus by
permutation matrices in signed-permutation form, trivial cocycle, and
one cell per w of total dimension n + n(n-1)/2 + l(w), where l is the
inversion count.  Parabolic models restrict the components to a block
subgroup and pad every cell by the dimension of the unipotent radical.
Grassmannian cells are indexed by k-subsets of {1..n}; the projection
from GL(n) collapses each component w to the subset of positions sent
into {1..k}.  A quotient suite builds the projection, and lambda and pr2
on S_P x G only, S_P the parabolic's generators, once (quotient_maps);
quotient_square_check and universality_check say why S_P suffices, and
the suite shares the maps and the square's report between the checks.

The cells of GL(n) and its parabolics need only block permutations and
their lengths (_block_cells), so this module loads groups only inside
the functions that build or read a group law.
"""

from itertools import accumulate, combinations, permutations, product
from math import comb
from operator import itemgetter

from .counting import IntPolynomial
from .errors import InvalidComposition, NotASubgroup, ShapeMismatch, TypeNotMaximal, guard
from .linalg import Mat, _signed_perm
from .monoids import FgAbelianGroup
from .report import Report
from .schemes import (
    Cell,
    F1Scheme,
    RankScheme,
    Torification,
    WeakMorphism,
    compose_weak,
    from_torification,
    monomial_morphism,
    product_scheme,
    rank_part,
)

Perm = tuple[int, ...]


def one_line_perms(n: int) -> tuple[Perm, ...]:
    """All of S_n in one-line notation, lexicographic."""
    return tuple(permutations(range(1, n + 1)))


def perm_compose(v: Perm, w: Perm) -> Perm:
    """(v w)(i) = v(w(i))."""
    return tuple(v[w[i] - 1] for i in range(len(w)))


def perm_length(w: Perm) -> int:
    """Inversion count l(w).

    >>> perm_length((3, 1, 2))
    2
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def perm_matrix(w: Perm) -> Mat:
    """P(w) with P(w)_{ij} = 1 iff i = w(j), in signed-permutation form; P(v)P(w) = P(vw)."""
    return _signed_perm(tuple(sorted(range(len(w)), key=w.__getitem__)), (1,) * len(w))


def symmetric_table(n: int) -> "FiniteGroupTable":
    """S_n on one-line labels; its generators are the adjacent transpositions.

    >>> t = symmetric_table(4)
    >>> [t.elements[s] for s in t.generators]
    [(1, 2, 4, 3), (1, 3, 2, 4), (2, 1, 3, 4)]
    """
    return _block_table(n, (n,))


def _block_table(n: int, parts) -> "FiniteGroupTable":
    """block_perms(n, parts)'s table from its Coxeter generators, the adjacent
    transpositions s in the blocks (Bjorner and Brenti, 1.2): y -> s y swaps two
    values of y, a label permutation L_s, and row(x s)[y] = row(x)[L_s[y]], so a
    breadth-first walk of the Cayley graph gathers each row from its parent."""
    from .groups import FiniteGroupTable
    elements = block_perms(n, parts)
    index = {w: x for x, w in enumerate(elements)}
    e, cuts, steps = index[tuple(range(1, n + 1))], set(accumulate(parts)), []
    for i in (i for i in range(1, n) if i not in cuts):
        ls = [index[tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)] for w in elements]
        steps.append((ls[e], itemgetter(*ls)))      # |W| >= 2 here, so a tuple getter
    rows, walk = {e: tuple(range(len(elements)))}, [e]
    for x in walk:
        for s, gather in steps:
            if rows[x][s] not in rows:
                rows[rows[x][s]] = gather(rows[x])
                walk.append(rows[x][s])
    return FiniteGroupTable._from_rows(elements, tuple(map(rows.__getitem__, range(len(elements)))))


def gl_model(n: int) -> "GroupModel":
    """The GL(n) model: strong, components S_n, rank n.

    Total cell dimension over component w is n + n(n-1)/2 + l(w): the
    rank-n torus times the refined affine cell of the Bruhat stratum.
    It is the parabolic model of the one-block type (n).
    """
    return _block_model(n, (n,))


def _check_composition(n: int, parts) -> tuple[int, ...]:
    parts = tuple(int(k) for k in parts)
    if not parts or any(k <= 0 for k in parts) or sum(parts) != n:
        raise InvalidComposition(f"{parts} is not a composition of {n}")
    return parts


def block_perms(n: int, parts) -> tuple[Perm, ...]:
    """Embedded elements of S_{k_1} x ... x S_{k_r} inside S_n, sorted."""
    parts = _check_composition(n, parts)
    blocks, off = [], 0
    for k in parts:
        blocks.append(permutations(range(off + 1, off + k + 1)))
        off += k
    return tuple(sorted(sum(choice, ()) for choice in product(*blocks)))


def parabolic_model(n: int, parts) -> "GroupModel":
    """Standard parabolic of type (k_1, ..., k_r) inside the GL(n) model.

    Components are the block permutations; each cell picks up the
    unipotent-radical dimension (n^2 - sum k_i^2)/2 on top of the block
    Bruhat dimensions, so the counting polynomial factors as
    q^dim_u * prod N_GL(k_i).
    """
    return _block_model(n, parts)


def _block_cells(n: int, parts) -> Torification:
    """The cells of the block-permutation model of type parts, one per
    element w of block_perms(n, parts), in that order: the rank-n torus
    times an affine cell of dimension l(w) + sum k_i(k_i - 1)/2 + dim_u,
    dim_u = (n^2 - sum k_i^2)/2 the unipotent radical's.  They need no
    group law, so counts and F1-points of gl: and parabolic: read them
    alone (Selection.scheme).

    The component table guard still runs first, as for the whole model:
    the table has |W|^2 entries, |W| = prod k_i!; the guard checks the
    product as it grows, so that gl:1000000000 is refused at once, and
    says "at least" when it stops before the last factor.
    """
    parts = _check_composition(n, parts)
    order = 1
    for i in (i for k in parts for i in range(2, k + 1)):
        guard("component table", f"at least {order}^2 entries", order * order, 518_400)
        order *= i
    guard("component table", f"{order}^2 entries", order * order, 518_400)
    base = sum(k * (k - 1) // 2 for k in parts) + (n * n - sum(k * k for k in parts)) // 2
    return Torification(tuple(Cell(n, w, base + perm_length(w)) for w in block_perms(n, parts)))


def _block_model(n: int, parts) -> "GroupModel":
    """The block-permutation model of type parts: _block_cells' cells
    under the law of permutation matrices and the trivial cocycle on
    _block_table's components, which come in the same order."""
    cells = _block_cells(n, parts)
    from .groups import Cocycle, ExtensionLaw, ThetaRep, extension_model
    w = _block_table(n, parts)
    theta = ThetaRep(w, n, tuple(perm_matrix(p) for p in w.elements))
    law = ExtensionLaw(theta, Cocycle.trivial(w, n))
    return extension_model(law, {c.label: c.dim + c.affine for c in cells.cells})


def schubert_dim(subset: tuple[int, ...]) -> int:
    """Dimension of the Schubert cell of a sorted k-subset of {1..n}."""
    return sum(a - i for i, a in enumerate(subset, start=1))


def grassmannian_model(k: int, n: int) -> F1Scheme:
    """Grassmannian of k-planes: one refined affine cell per k-subset.

    Every cell has torus dimension 0, so all C(n, k) subsets are
    F1-points, and the counting polynomial is the Gauss binomial.  The
    guard counts C(n, k) cells of n positions each as C(n, k) = C(n, j),
    j = min(k, n - k), is built up through C(n - j + i, i), so that a
    huge n is refused at once ("at least" when it stops early).
    """
    if not 0 <= k <= n:
        raise ShapeMismatch(f"need 0 <= k <= n, got k = {k}, n = {n}")
    j, cells = min(k, n - k), 1
    for i in range(1, j + 1):
        guard("grassmannian cells", f"at least {cells} x {n} positions", cells * n, 560)
        cells = cells * (n - j + i) // i
    guard("grassmannian cells", f"C({n}, {k}) x {n} positions", cells * n, 560)
    cells = tuple(
        Cell(0, subset, schubert_dim(subset))
        for subset in combinations(range(1, n + 1), k)
    )
    return from_torification(Torification(cells))


def _require_subgroup(p: "GroupModel", g: "GroupModel") -> None:
    """Raise NotASubgroup unless p's whole law is g's on p's components:
    rank, monoid law, labels, theta, the table and the cocycle (skipped
    when both are trivial)."""
    if p.r != g.r:
        raise NotASubgroup("subgroup model must share the torus rank")
    if p.mo_law != g.mo_law:
        raise NotASubgroup("subgroup model must share the monoid law")
    at = [g.w._positions.get(u) for u in p.w.elements]
    if None in at:
        raise NotASubgroup(f"component {p.w.elements[at.index(None)]!r} not in the ambient model")
    pc, gc = p.law.cocycle, g.law.cocycle
    signed = not (pc.is_trivial and gc.is_trivial)
    for i, (u, gi) in enumerate(zip(p.w.elements, at)):
        if p.law.theta.matrix(i) != g.law.theta.matrix(gi):
            raise NotASubgroup(f"theta differs from the ambient model at {u!r}")
        for j, (v, gj) in enumerate(zip(p.w.elements, at)):
            if p.w.elements[p.w.mul(i, j)] != g.w.elements[g.w.mul(gi, gj)]:
                raise NotASubgroup(f"law differs from the ambient model at ({u!r}, {v!r})")
            if signed and pc.value(i, j) != gc.value(gi, gj):
                raise NotASubgroup(f"cocycle differs from the ambient model at ({u!r}, {v!r})")


def lambda_action(p: "GroupModel", g: "GroupModel") -> WeakMorphism:
    """Left translation of a subgroup model on the ambient rank part: the
    law morphism restricted to P x G, component (u, w) going to uw.  Its
    |W_P| |W| components are guarded as law_weak_morphism guards |W|^2,
    before the subgroup test reads the two laws."""
    guard("law morphism", f"{p.w.order()} x {g.w.order()} components",
          p.w.order() * g.w.order(), 100_000)
    _require_subgroup(p, g)
    from .groups import _left_translation
    return _left_translation(g, p.rank_scheme)


def coset_subset(w: Perm, k: int) -> tuple[int, ...]:
    """Positions sent into {1..k}: the subset attached to the coset of w."""
    return tuple(i + 1 for i, x in enumerate(w) if x <= k)


def coset_subset_bijection(k: int, n: int) -> dict[Perm, tuple[int, ...]]:
    """w -> subset, verified constant on block cosets and onto k-subsets.

    >>> coset_subset_bijection(2, 4)[(3, 4, 1, 2)]
    (3, 4)
    """
    if not 0 < k < n:
        raise TypeNotMaximal(f"need 0 < k < n, got k={k} n={n}")
    wp = block_perms(n, (k, n - k))
    out = {}
    fibers: dict[tuple[int, ...], int] = {}
    for w in one_line_perms(n):
        subset = coset_subset(w, k)
        out[w] = subset
        fibers[subset] = fibers.get(subset, 0) + 1
        for u in wp:
            if coset_subset(perm_compose(u, w), k) != subset:
                raise ShapeMismatch(f"subset not constant on the coset of {w}")
    expected = set(combinations(range(1, n + 1), k))
    if set(fibers) != expected or any(c != len(wp) for c in fibers.values()):
        raise ShapeMismatch("fibers are not uniform over all k-subsets")
    return out


def _recognize_two_block(p: "GroupModel", g: "GroupModel") -> int:
    """The k with components(p) = embedded S_k x S_(n-k), else raise, k being
    the size of 1's orbit {1..k}; the callers require p to be a subgroup of g."""
    n = g.r
    k = len({w[0] for w in p.w.elements})
    if 0 < k < n and set(block_perms(n, (k, n - k))) == set(p.w.elements):
        return k
    raise TypeNotMaximal("quotient needs a two-part parabolic (k, n-k); components do not match any")


def projection_to_quotient(g: "GroupModel", k: int) -> tuple[F1Scheme, WeakMorphism]:
    """Grassmannian quotient and the collapse morphism from the GL model."""
    n = g.r
    q = grassmannian_model(k, n)
    qrk = rank_part(q)
    label = {a: a for a in qrk.labels()}     # subsets as the quotient's own label objects
    targets = [label[coset_subset(w, k)] for w in g.w.elements]
    return q, monomial_morphism(g.rank_scheme, qrk, targets, (Mat.zeros(0, n),) * len(targets))


def quotient_model(p: "GroupModel", g: "GroupModel") -> tuple[F1Scheme, WeakMorphism]:
    """Categorical quotient of the ambient model by a two-block parabolic.

    Recognizes k from the components of p, returns the Grassmannian
    model together with the projection.  Any other parabolic type raises
    TypeNotMaximal.
    """
    _require_subgroup(p, g)
    return projection_to_quotient(g, _recognize_two_block(p, g))


def _pr2_weak(g: "GroupModel", source: RankScheme) -> WeakMorphism:
    """Second projection rows x G -> G as a weak (indeed strong) morphism,
    source being rows x G as groups._left_translation built it."""
    r = g.r
    e = Mat.zeros(r, r).hstack(Mat.identity(r))
    targets = g.w.elements * (len(source.components) // g.w.order())
    return monomial_morphism(source, g.rank_scheme, targets, (e,) * len(targets))


def quotient_maps(p: "GroupModel", g: "GroupModel") -> tuple[WeakMorphism, WeakMorphism, WeakMorphism]:
    """The projection to the quotient, and lambda and pr2 on S_P x G,
    S_P = p.w.generators, each built once after guarding their size.

    quotient_model requires p to be a subgroup of g before it recognizes
    the parabolic's type; the square's argument reads g's verified law.
    """
    gens = p.w.generators
    guard("quotient square", f"{len(gens)} x {g.w.order()} generator pairs",
          len(gens) * g.w.order(), 86_400)
    _, proj = quotient_model(p, g)
    from .groups import _left_translation, require_group
    require_group(g)
    lam = _left_translation(g, RankScheme(tuple(map(p.rank_scheme.components.__getitem__, gens))))
    return proj, lam, _pr2_weak(g, lam.z_side.source)


def quotient_square_check(p: "GroupModel", g: "GroupModel", maps=None) -> Report:
    """proj after lambda equals proj after pr2 on all of P x G.

    maps is quotient_maps(p, g), built here when not given.  Its lambda
    and pr2 have source S_P x G, S_P = p.w.generators, where the two
    composites are compared with exact matrices and signs.  That suffices:
    * lambda's targets are products in g's verified table, so for u a word
      s1 ... sk in S_P, proj(u w) = proj(s1 (s2 ... sk w)) = proj(s2 ... sk w)
      = ... = proj(w); at u = e, e w = w by the verified unit;
    * every block composes with proj's 0 x n blocks to an empty one.
    On a pass checks counts all |W_P| |W| pairs; a failure is its
    generator pair's position among the |S_P| |W|.
    """
    proj, lam, pr2 = maps or quotient_maps(p, g)
    left, right = compose_weak(proj, lam), compose_weak(proj, pr2)
    for i, (a, b) in enumerate(zip(left.z_side.targets, right.z_side.targets)):
        if a != b:
            return Report.failed(i + 1, {"pair": list(left.z_side.source.components[i][0]),
                                         "left": a, "right": b})
    if left != right:
        return Report.failed(len(left.z_side.targets), {"reason": "coordinate data differs"})
    return Report.passed(p.w.order() * g.w.order())


def _test_family(g: "GroupModel", k: int, subsets):
    """Coinvariant test morphisms out of g's rank part, two per target.

    Targets have free stalks of rank m = 0..n on one or C(n, k) components
    t0, t1, ...  Components are coset-constant (the coset's subset position
    in subsets, modulo the number of target components); the second
    variant puts sign -1 on the odd target components, and is the first
    one again, the same object, when it has no such sign to put.
    """
    n = g.r
    position = {s: i for i, s in enumerate(subsets)}
    cosets = [position[coset_subset(w, k)] for w in g.w.elements]
    for m, ncomp in product(range(n + 1), (1, comb(n, k))):
        labels = [f"t{c}" for c in range(ncomp)]
        target = RankScheme(tuple((t, FgAbelianGroup.free(m)) for t in labels))
        cis = [c % ncomp for c in cosets]
        exps, targets = (Mat.zeros(m, n),) * len(cis), tuple(labels[ci] for ci in cis)
        signs = ((1,) * m, (-1,) * m)
        yield (f := monomial_morphism(g.rank_scheme, target, targets, exps, [signs[0]] * len(cis)))
        yield f if m == 0 or ncomp == 1 else monomial_morphism(
            g.rank_scheme, target, targets, exps, [signs[ci % 2] for ci in cis])


def universality_check(p: "GroupModel", g: "GroupModel", square: Report | None = None,
                        maps=None) -> Report:
    """The projection coequalizes: every coinvariant map factors once.

    First the coequalizing square proj . lambda = proj . pr2 must hold
    (quotient_square_check; its failure is returned as is).  Then runs a
    programmatic family of targets (constant schemes and free stalks of
    rank up to n, one or C(n,k) components) and per target a family of
    test morphisms f with coset-constant components and signs; each must
    factor through the quotient, f = h . proj, uniquely.  Each member
    counts one check for coinvariance, which the square and the
    factorization discharge together: f . lambda = h . (proj . lambda)
    = h . (proj . pr2) = f . pr2, since composition is componentwise
    function composition and so associative.  A non-coinvariant control,
    separating one w of a coset from the rest, must be rejected by explicit
    composition with lambda and pr2 on S_P x G: s w != w at each s in S_P.
    A quotient suite passes in maps = quotient_maps(p, g) and the square's
    report, so that neither is built twice; both are built when not given.
    h reads f's targets and signs at one element per fiber (a coset, from
    coset_subset, not from proj), and f = h . proj is one comparison of
    whole morphisms, both halves at every component of G.
    """
    maps = maps or quotient_maps(p, g)
    if square is None:
        square = quotient_square_check(p, g, maps)
    if not square.ok:
        return square
    proj, lam, pr2 = maps
    qrk = proj.z_side.target
    subsets = qrk.labels()
    k = len(subsets[0])     # quotient_maps recognized the parabolic
    fibers = {s: [] for s in subsets}
    for i, w in enumerate(g.w.elements):
        fibers[coset_subset(w, k)].append(i)
    reps = [fiber[0] for fiber in fibers.values()]
    checks, prev = 0, None
    for f in _test_family(g, k, subsets):
        # coinvariance (from the square once f factors), factorization, uniqueness
        checks += 3
        if f is prev:
            continue    # the same test map again, which passed just above
        prev, z = f, f.z_side
        m = z.target.components[0][1].rank
        # factor through the quotient: h is forced by f on each fiber
        h = monomial_morphism(qrk, z.target, [z.targets[i] for i in reps],
                              (Mat.zeros(m, 0),) * len(subsets), [z.signs[i] for i in reps])
        if compose_weak(h, proj) != f:
            return Report.failed(checks - 1, {"target_rank": m, "reason": "factorization does not recover the map"})
        # uniqueness: component and sign data on each quotient component
        # are pinned by any single fiber element, and exponents out of a
        # rank-0 source admit exactly one matrix shape
    # negative control: a map separating two elements of one coset must be
    # caught as non-coinvariant; only meaningful when some fiber has > 1
    # element, i.e. when the parabolic has nontrivial components
    if p.w.order() > 1:
        n = g.r
        marked = next(fiber[0] for fiber in fibers.values() if len(fiber) > 1)
        target = RankScheme((("t0", FgAbelianGroup.trivial()), ("t1", FgAbelianGroup.trivial())))
        targets = ["t1" if i == marked else "t0" for i in range(g.w.order())]
        f_bad = monomial_morphism(g.rank_scheme, target, targets, (Mat.zeros(0, n),) * len(targets))
        checks += 1
        if compose_weak(f_bad, lam) == compose_weak(f_bad, pr2):
            return Report.failed(checks, {"reason": "non-coinvariant control passed"})
    return Report.passed(checks)


def tau_morphism(g: "GroupModel", k: int, qrk: RankScheme | None = None) -> tuple[RankScheme, WeakMorphism]:
    """Transported action of the model on the quotient components.

    Component (sigma, A) goes to sigma(A); all stalk data is trivial
    because quotient components are rank 0.  qrk is the quotient's rank
    part, built here when not given.
    """
    n = g.r
    qrk = qrk or rank_part(grassmannian_model(k, n))
    src = product_scheme(g.rank_scheme, qrk)
    label = {a: a for a in qrk.labels()}     # sigma(A) as the quotient's own label object
    targets = [label[tuple(sorted(sigma[a - 1] for a in subset))]
               for sigma in g.w.elements for subset in label]
    return qrk, monomial_morphism(src, qrk, targets, (Mat.zeros(0, n),) * len(targets))


def tau_check(g: "GroupModel", k: int, maps=None) -> Report:
    """Coset transport matches the subset action, and tau is an action.

    The coset of w sigma^(-1), read from g's verified component table,
    must carry sigma(subset(w)), read from tau's targets, and tau must pass
    check_action.  The transport is compared at sigma in S = w.generators,
    |S| |W| pairs, which gives it at every sigma:
    * check_action proves tau's unit and associativity laws;
    * so the sigma at which it holds for every w contain e and are closed
      under products: the coset of w (sigma rho)^(-1) = (w rho^(-1)) sigma^(-1)
      carries sigma(rho(subset(w))) = (sigma rho)(subset(w));
    * S generates W.
    checks counts all |W|^2 pairs, then the action's instances; a transport
    failure is its pair's position among the |W|^2.  A quotient suite
    passes in maps = quotient_maps(p, g), p of type (k, n-k), whose
    projection already has the quotient's rank part.
    """
    qrk, tau = tau_morphism(g, k, maps and maps[0].z_side.target)
    wt, n = g.w, g.w.order()
    subsets, c = [coset_subset(w, k) for w in wt.elements], len(qrk.components)
    for s in wt.generators:
        acted = dict(zip(qrk.labels(), tau.z_side.targets[s * c:(s + 1) * c]))
        s_inv = wt.inv(s)
        moved = [subsets[row[s_inv]] for row in wt.mult]    # the coset of w sigma^(-1), per w
        i = next((i for i, a in enumerate(subsets) if moved[i] != acted[a]), None)
        if i is not None:
            return Report.failed(s * n + i + 1, {
                "sigma": list(wt.elements[s]), "w": list(wt.elements[i]),
                "transported": list(moved[i]), "subset_action": list(acted[subsets[i]]),
            })
    from .groups import check_action
    action = check_action(g, qrk, tau)
    if not action.ok:
        return Report.failed(n * n + action.checks, action.witness)
    return Report.passed(n * n + action.checks)


def gl_counting_identity(n: int) -> tuple[IntPolynomial, IntPolynomial]:
    """Cell sum and the closed product formula, for exact comparison.

    Returns (sum over w of (q-1)^n q^(n(n-1)/2 + l(w)),
             prod over i < n of (q^n - q^i)).
    """
    lhs = IntPolynomial.zero()
    base = n * (n - 1) // 2
    for w in one_line_perms(n):
        lhs = lhs + IntPolynomial.qminus1_power(n) * IntPolynomial.q_power(base + perm_length(w))
    rhs = IntPolynomial.one()
    for i in range(n):
        rhs = rhs * (IntPolynomial.q_power(n) - IntPolynomial.q_power(i))
    return lhs, rhs
