"""Pointed monoids, abelian group data, homs, membership."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from f1kit import linalg, monoids, spectrum
from f1kit.errors import (
    InfiniteHomSet,
    MembershipUndecidedWithinBound,
    ShapeMismatch,
)
from f1kit.linalg import Mat, double_description, feasible, kernel_basis, rank, relations
from f1kit.monoids import (
    AFFINE,
    GROUP_WITH_ZERO,
    FgAbelianGroup,
    GroupHom,
    PointedMonoid,
    compose_hom,
    hom_count,
    member,
    monoid_from_json,
    units_of,
    validate_hom,
)
from f1kit.spectrum import face_masks
from test_spectrum import _dd_passes, _faces_by_subsets, _is_monoid, _oracle_corpus


def test_group_invariant_factors():
    g = FgAbelianGroup.from_orders([2, 4, 3])
    # Z/2 x Z/4 x Z/3 = Z/2 x Z/12 in invariant factor form
    assert g.torsion == (2, 12)
    assert g.order() == 24
    assert FgAbelianGroup.from_orders([1, 1]).is_trivial()
    assert FgAbelianGroup.free(3).rank == 3
    with pytest.raises(ShapeMismatch):
        FgAbelianGroup(0, (4, 2))  # not a divisibility chain
    with pytest.raises(InfiniteHomSet):
        FgAbelianGroup.free(1).order()


def _invariant_factors_by_primes(orders):
    """Invariant factors of the sum of Z/m over orders, by trial-division
    factoring: each prime's exponents, sorted and right-aligned, multiply
    into the factors."""
    primes = {}
    for m in orders:
        d = 2
        while d * d <= m:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e:
                primes.setdefault(d, []).append(e)
            d += 1
        if m > 1:
            primes.setdefault(m, []).append(1)
    depth = max(map(len, primes.values()), default=0)
    factors = [1] * depth
    for p, exps in primes.items():
        for i, e in enumerate([0] * (depth - len(exps)) + sorted(exps)):
            factors[i] *= p ** e
    return tuple(f for f in factors if f > 1)


def test_invariant_factors_match_trial_division():
    lists = [()] + [orders for k in (1, 2, 3) for orders in product(range(1, 31), repeat=k)]
    for orders in lists:
        assert FgAbelianGroup.from_orders(orders).torsion == _invariant_factors_by_primes(orders)
    groups = {FgAbelianGroup.from_orders(orders) for orders in lists if max(orders, default=1) <= 12
              and len(orders) <= 2}
    for a, b in product(groups, repeat=2):
        for ra, rb in ((0, 0), (1, 0), (0, 2)):
            got = FgAbelianGroup(ra, a.torsion).direct_sum(FgAbelianGroup(rb, b.torsion))
            assert got == FgAbelianGroup(ra + rb, _invariant_factors_by_primes(a.torsion + b.torsion))
    with pytest.raises(ShapeMismatch):
        FgAbelianGroup.from_orders([3, 0])


def test_hom_count_exact():
    z2 = FgAbelianGroup.from_orders([2])
    z4 = FgAbelianGroup.from_orders([4])
    z6 = FgAbelianGroup.from_orders([6])
    assert hom_count(z2, z4) == 2
    assert hom_count(z4, z2) == 2
    assert hom_count(z6, z6) == 6
    assert hom_count(FgAbelianGroup.free(2), z2) == 4
    assert hom_count(FgAbelianGroup.trivial(), z4) == 1
    with pytest.raises(InfiniteHomSet):
        hom_count(FgAbelianGroup.free(1), FgAbelianGroup.free(1))


def test_hom_validation_kills_torsion():
    z2 = FgAbelianGroup.from_orders([2])
    z = FgAbelianGroup.free(1)
    # the generator of Z/2 cannot map to 1 in Z
    bad = GroupHom(z2, z, Mat.from_rows(1, 1, [[1]]), Mat.zeros(0, 1))
    assert not validate_hom(bad).ok
    good = GroupHom(z2, z, Mat.zeros(1, 1), Mat.zeros(0, 1))
    assert validate_hom(good).ok
    # Z/2 -> Z/4 must land in the order-2 subgroup: x -> 2x works
    ok = GroupHom(z2, FgAbelianGroup.from_orders([4]), Mat.zeros(0, 1),
                  Mat.from_rows(1, 1, [[2]]))
    assert validate_hom(ok).ok
    odd = GroupHom(z2, FgAbelianGroup.from_orders([4]), Mat.zeros(0, 1),
                   Mat.from_rows(1, 1, [[1]]))
    assert not validate_hom(odd).ok


def test_hom_composition():
    a = FgAbelianGroup.free(2)
    b = FgAbelianGroup.free(3)
    c = FgAbelianGroup.free(1)
    f = GroupHom.on_free(a, b, Mat.from_rows(3, 2, [[1, 0], [0, 1], [1, 1]]))
    g = GroupHom.on_free(b, c, Mat.from_rows(1, 3, [[1, 1, 1]]))
    gf = compose_hom(g, f)
    assert gf.free_matrix == Mat.from_rows(1, 2, [[2, 2]])
    assert validate_hom(gf).ok
    i = GroupHom.on_free(a, a, Mat.identity(2))
    assert compose_hom(f, i).free_matrix == f.free_matrix


def test_affine_monoid_constructors():
    orthant = PointedMonoid.orthant(2)
    assert orthant.kind == AFFINE and orthant.generator_count() == 2
    torus = PointedMonoid.torus(2)
    assert torus.kind == GROUP_WITH_ZERO and torus.group == FgAbelianGroup.free(2)
    gwz = PointedMonoid.group_with_zero(FgAbelianGroup.from_orders([3]))
    assert gwz.kind == GROUP_WITH_ZERO
    with pytest.raises(ShapeMismatch):
        PointedMonoid.affine(2, [[1, 0, 0]])


def test_units_of_affine_monoids():
    # generators 3 and -2 of Z: everything is invertible
    m = PointedMonoid.affine(1, [[3], [-2]])
    assert units_of(m).rank == 1
    # N^2 has trivial units
    assert units_of(PointedMonoid.orthant(2)).is_trivial()
    # mixed: x invertible, y not
    mixed = PointedMonoid.affine(2, [[1, 0], [-1, 0], [0, 1]])
    assert units_of(mixed).rank == 1


def _bounded_member(m, target):
    """The bounded membership search that units_of used to run: an LP
    screen, then a depth-first search over coefficients 0..10 k max|x|,
    raising MembershipUndecidedWithinBound where truncation may lose a
    witness."""
    gens, k, d = m.generators, len(m.generators), m.ambient_dim
    if all(x == 0 for x in target):
        return True
    bound = 10 * k * max(abs(x) for v in (*gens, target) for x in v)

    def relax(start, residual, floor_first=False):
        nvars = k - start
        cons = [(tuple(gens[j][c] for j in range(start, k)), -residual[c], "eq") for c in range(d)]
        cons += [(tuple(int(i == j) for i in range(nvars)), 0, "ge") for j in range(nvars)]
        if floor_first:
            cons.append((tuple(int(i == 0) for i in range(nvars)), -(bound + 1), "ge"))
        return feasible(cons, nvars)

    truncated = False

    def dfs(start, residual):
        nonlocal truncated
        if all(x == 0 for x in residual):
            return True
        if start == k or not relax(start, residual):
            return False
        truncated = truncated or relax(start, residual, floor_first=True)
        for c in range(bound + 1):
            if dfs(start + 1, residual):
                return True
            residual = tuple(x - y for x, y in zip(residual, gens[start]))
        return False

    if not relax(0, target):
        return False
    if dfs(0, target):
        return True
    if truncated:
        raise MembershipUndecidedWithinBound(str(target))
    return False


def _reference_unit_rank(m):
    """Rank of the lattice spanned by the generators whose inverse the
    bounded search finds in the monoid."""
    rows = [g for g in m.generators if _bounded_member(m, tuple(-x for x in g))]
    return rank(Mat.from_rows(len(rows), m.ambient_dim, rows)) if rows else 0


UNIT_CORPUS = [
    # orthants
    *(PointedMonoid.orthant(d) for d in (1, 2, 3)),
    # pointed cones
    PointedMonoid.affine(1, [[2], [3]]),
    PointedMonoid.affine(2, [[1, 0], [1, 1], [1, 2], [0, 1]]),
    PointedMonoid.affine(3, [[1, 0, 0], [0, 1, 0], [1, 1, 2], [0, 0, 1]]),
    # cones with a line, generators in +- pairs
    PointedMonoid.affine(2, [[1, 0], [-1, 0], [0, 1]]),
    PointedMonoid.affine(3, [[0, 0, 1], [0, 0, -1], [1, 0, 2], [1, 1, -1], [2, 1, 1]]),
    PointedMonoid.affine(1, [[2], [-2]]),
    # lines and planes whose generators are not +- pairs
    PointedMonoid.affine(1, [[3], [-2]]),
    PointedMonoid.affine(2, [[1, 0], [0, 1], [-1, -1]]),
    PointedMonoid.affine(2, [[1, 1], [-2, -2], [0, 1]]),
    PointedMonoid.affine(2, [[3, 0], [-2, 0], [0, 1], [1, 1]]),
    PointedMonoid.affine(3, [[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 1, 1]]),
    PointedMonoid.affine(2, [[2, 1], [-1, 0], [-1, -1], [1, 5]]),
]


def test_units_of_agrees_with_the_bounded_search():
    for m in UNIT_CORPUS:
        assert units_of(m).rank == _reference_unit_rank(m), m


def test_units_of_feasibility_calls(monkeypatch):
    # one double description pass finds the minimal face, pointed or not
    for m in (PointedMonoid.orthant(3), PointedMonoid.affine(1, [[2], [3]]),
              PointedMonoid.affine(2, [[1, 0], [-1, 0], [0, 1]]),
              PointedMonoid.affine(1, [[3], [-2]]),
              PointedMonoid.affine(2, [[2, 1], [-1, 0], [-1, -1], [1, 5]])):
        assert _dd_passes(monkeypatch, lambda: units_of(m)) == 1
        assert _dd_passes(monkeypatch, lambda: units_of(m)) == 0


def test_membership_decisions_and_bound():
    assert member(PointedMonoid.orthant(2), (5, 0))
    assert not member(PointedMonoid.orthant(2), (0, -1))
    # numerical monoid <2, 3>: 1 is not a member, 5 = 2 + 3 is
    numeric = PointedMonoid.affine(1, [[2], [3]])
    assert member(numeric, (5,))
    assert not member(numeric, (1,))
    # targets off the lattice of a cone with a line: the rational
    # relaxation is feasible with unbounded coefficients, and the answer
    # is still decided
    for d, gens, target in [
        (1, [[2], [-2]], (1,)),
        (2, [[1, 1], [-1, -1], [0, 2]], (0, 1)),
        (2, [[3, 1], [1, 3], [-1, -1]], (1, 0)),
        (2, [[1, 0], [-1, 0], [0, 2], [1, 3]], (0, 1)),
    ]:
        assert not member(PointedMonoid.affine(d, gens), target)


@st.composite
def _small_cones(draw, size=3, max_dim=2):
    """Up to size generators with entries in -2..2 in Z^1 .. Z^max_dim: a
    pointed cone (first coordinates positive) or one with a line (the
    negative of the first generator added)."""
    d = draw(st.integers(1, max_dim))
    line = draw(st.booleans())
    first = st.integers(-2, 2) if line else st.integers(1, 2)
    vector = st.tuples(first, *[st.integers(-2, 2)] * (d - 1)).filter(any)
    gens = draw(st.lists(vector, min_size=1, max_size=size, unique=True))
    if line and tuple(-x for x in gens[0]) not in gens:
        gens.append(tuple(-x for x in gens[0]))
    return PointedMonoid.affine(d, gens)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_cones())
def test_member_contains_every_small_combination(m):
    for coeffs in product(range(3), repeat=len(m.generators)):
        target = tuple(sum(c * g[i] for c, g in zip(coeffs, m.generators))
                       for i in range(m.ambient_dim))
        assert member(m, target), (m.generators, coeffs)


# the reference can take seconds to exhaust its bound on four generators
# with a line, so the cones here have at most three
@settings(max_examples=100, deadline=None, derandomize=True)
@given(_small_cones(size=2), st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_member_agrees_with_the_bounded_search(m, vector):
    target = vector[:m.ambient_dim]
    try:
        expected = _bounded_member(m, target)
    except MembershipUndecidedWithinBound:
        return
    assert member(m, target) == expected, (m.generators, target)


def _lambda_minimal_face(gens, d):
    """The minimal face by the primal test, in k variables: g_j is on it
    when some lambda >= 0 has sum lambda_i g_i = -g_j."""
    k = len(gens)
    cols = [tuple(g[c] for g in gens) for c in range(d)]
    nonneg = [(tuple(int(i == t) for i in range(k)), 0, "ge") for t in range(k)]
    return sum(1 << j for j in range(k)
               if feasible([(col, gens[j][c], "eq") for c, col in enumerate(cols)] + nonneg, k))


def test_minimal_face_agrees_with_the_lambda_test(monkeypatch):
    passes = []
    monkeypatch.setattr(spectrum, "double_description",
                        lambda gens, d: passes.append(d) or double_description(gens, d))
    shapes = [(m.ambient_dim, m.generators) for m in UNIT_CORPUS] + _oracle_corpus()
    for d, gens in shapes:
        passes.clear()
        face = spectrum.minimal_face(gens, d)
        assert face == _lambda_minimal_face(gens, d), gens
        # one pass in d variables, pointed or not
        assert passes == [d], gens


def _walk_member(m, target):
    """Membership by walking every off-face coefficient, on the split
    that _lambda_minimal_face gives: each coefficient is raised from 0 for
    as long as the rational relaxation stays feasible, and at a leaf the
    residual must lie in the group the face generators span."""
    gens, d = m.generators, m.ambient_dim
    face = _lambda_minimal_face(gens, d)
    units = [g for j, g in enumerate(gens) if face >> j & 1]
    rest = [g for j, g in enumerate(gens) if not face >> j & 1]
    funcs = kernel_basis(Mat.from_rows(len(units), d, units))
    quotient = Mat.from_rows(len(funcs), d, funcs)
    images = [quotient.apply(v) for v in rest]
    k = len(rest)

    def relax(start, residual):
        nvars = k - start
        cons = [(tuple(img[i] for img in images[start:]), -y, "eq")
                for i, y in enumerate(quotient.apply(residual))]
        cons += [(tuple(int(i == j) for i in range(nvars)), 0, "ge") for j in range(nvars)]
        return feasible(cons, nvars)

    def in_lattice(residual):
        cols = Mat.from_rows(d, len(units) + 1, [[u[c] for u in units] + [residual[c]]
                                                 for c in range(d)])
        return gcd(*(rel[-1] for rel in kernel_basis(cols))) == 1

    dead = set()

    def dfs(start, residual):
        if not any(residual):
            return True
        if start == k:
            return in_lattice(residual)
        if (start, residual) in dead:
            return False
        current = residual
        while relax(start, current):
            if dfs(start + 1, current):
                return True
            current = tuple(x - y for x, y in zip(current, rest[start]))
        dead.add((start, residual))
        return False

    return dfs(0, tuple(target))


# the membership properties run on 1,000 examples in CI, under
# --hypothesis-profile=ci; they pin no max_examples so that it applies
@settings(deadline=None, derandomize=True)
@given(_small_cones(size=4, max_dim=3), st.tuples(*[st.integers(-6, 6)] * 3))
def test_member_agrees_with_the_coefficient_walk(m, vector):
    target = vector[:m.ambient_dim]
    assert member(m, target) == _walk_member(m, target), (m.generators, target)


ORACLE_MONOIDS = [PointedMonoid.affine(d, gens) for d, gens in _oracle_corpus()
                  if _is_monoid(gens)]


@settings(deadline=None, derandomize=True)
@given(st.sampled_from(ORACLE_MONOIDS), st.data())
def test_member_agrees_with_the_coefficient_walk_on_oracle_shapes(m, data):
    # a small combination of the generators, moved by a step in -1..1 on
    # each coordinate: members, and lattice points on either side of them
    k, d = len(m.generators), m.ambient_dim
    coeffs = data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    step = data.draw(st.tuples(*[st.integers(-1, 1)] * d))
    target = tuple(x + sum(c * g[i] for c, g in zip(coeffs, m.generators))
                   for i, x in enumerate(step))
    assert member(m, target) == _walk_member(m, target), (m.generators, target)


def test_member_feasibility_calls(monkeypatch):
    line = PointedMonoid.affine(2, [[1, 0], [-1, 0], [0, 2], [1, 3]])
    pinned = [
        # pointed: one pass from the last generator back gives the cone's
        # facets and the cones of every level
        (PointedMonoid.affine(1, [[2], [3]]), (1,), 1),
        # off the lattice the generators span: the root test answers
        # before the minimal face is sought
        (PointedMonoid.affine(1, [[2], [-2]]), (1,), 0),
        (PointedMonoid.affine(2, [[1, 1], [-1, -1], [0, 2]]), (0, 1), 0),
        # with units, the level cones take a second pass over the images
        (line, (0, 1), 2),
    ]
    for m, target, passes in pinned:
        assert _dd_passes(monkeypatch, lambda: member(m, target)) == passes
    # the facets and the level cones are kept on the instance
    assert _dd_passes(monkeypatch, lambda: member(line, (0, 1))) == 0


def _work(monkeypatch, run):
    """(double description passes, linalg.relations calls) that run
    makes, wherever they are called from (linalg.kernel_basis and
    linalg.rank read it too)."""
    counts = [0, 0]

    def counted(i, fn):
        def call(*args):
            counts[i] += 1
            return fn(*args)
        return call

    for module in (monoids, spectrum):
        monkeypatch.setattr(module, "double_description", counted(0, double_description))
    for module in (monoids, linalg):
        monkeypatch.setattr(module, "relations", counted(1, relations))
    run()
    return tuple(counts)


def _member_work(monkeypatch, d, gens, target):
    """member's answer on a fresh monoid, and the work it takes."""
    answer = []
    work = _work(monkeypatch, lambda: answer.append(member(PointedMonoid.affine(d, gens), target)))
    return answer[0], work


NUMERICAL = [(6,), (10,), (15,)]
PLANE = [(2, 0), (0, 2), (1, 1), (3, 1)]


def test_member_work_on_large_targets(monkeypatch):
    # (d, generators, target, answer, double description passes,
    # relations calls); every search runs on the one pass a fresh pointed
    # instance makes, for the cone's facets and the level cones alike
    rows = [
        # 29 is the Frobenius number of <6, 10, 15>; the walk on 6 ends at
        # c = 4, and each of its steps meets the bound P = 3 on 10
        (1, NUMERICAL, (29,), False, 1, 15),
        # the same work at any size: found at c = 1 on 6
        (1, NUMERICAL, (2001,), True, 1, 8),
        (1, NUMERICAL, (20001,), True, 1, 8),
        # off the lattice x + y even: the root test alone
        (2, PLANE, (401, 200), False, 0, 1),
        (2, PLANE, (4001, 2000), False, 0, 1),
        # (0, 2) is outside the simplicial cone of the tail (1, 1), (3, 1),
        # so its level has no P and walks until the tail solve succeeds
        (2, PLANE, (4000, 2000), True, 1, 4),
        (2, PLANE, (1, 3), True, 1, 6),
    ]
    for d, gens, target, answer, passes, kernels in rows:
        assert _member_work(monkeypatch, d, gens, target) == (answer, (passes, kernels)), target


def test_member_work_at_ten_times_the_target_size(monkeypatch):
    # (generators, target, about ten times the target, same answer)
    corpus = [
        (NUMERICAL, (2001,), (20001,)),
        ([(3,), (5,), (7,)], (301,), (3001,)),
        (PLANE, (401, 200), (4001, 2000)),
        (PLANE, (400, 200), (4000, 2000)),
        ([(1, 0), (-1, 0), (0, 2), (1, 3)], (5, 301), (50, 3001)),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)], (100, 200, 301), (1000, 2000, 3001)),
    ]
    small, large = [0, 0], [0, 0]
    for gens, target, big in corpus:
        d = len(target)
        answer, work = _member_work(monkeypatch, d, gens, target)
        big_answer, big_work = _member_work(monkeypatch, d, gens, big)
        assert answer == big_answer, (gens, target)
        small = [a + b for a, b in zip(small, work)]
        large = [a + b for a, b in zip(large, big_work)]
    assert all(b <= 3 * a for a, b in zip(small, large)), (small, large)


def test_units_of_computes_no_search_data(monkeypatch):
    # the instance's one double description pass and one kernel for the
    # functionals vanishing on the minimal face; member's tail, level
    # cones and P are left alone
    for m in UNIT_CORPUS:
        fresh = PointedMonoid.affine(m.ambient_dim, m.generators)
        assert _work(monkeypatch, lambda: units_of(fresh)) == (1, 1), m


@st.composite
def _generator_lists(draw):
    """d <= 5 and k <= 8 generators with entries in -3..3, among them
    cones with a line, zero generators and repeated generators."""
    d = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=7))
    extra = draw(st.sampled_from(["line", "repeat", "zero", None]))
    if gens and extra == "line":
        gens.append(tuple(-x for x in gens[0]))
    elif gens and extra == "repeat":
        gens.append(gens[-1])
    elif extra == "zero":
        gens.append((0,) * d)
    return d, draw(st.permutations(gens))


def _dot(u, y):
    return sum(a * b for a, b in zip(u, y))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_generator_lists(), st.data())
def test_double_description_agrees_with_fourier_motzkin(cone, data):
    d, gens = cone
    assert face_masks(gens, d) == _faces_by_subsets(gens, d), gens
    assert spectrum.minimal_face(gens, d) == _lambda_minimal_face(gens, d), gens
    # each level's cone, as member reads it, against the relaxation it
    # replaced: a rational c >= 0 on the images from that level on that
    # sums to the residual's image
    m = PointedMonoid.affine(d, dict.fromkeys(g for g in gens if any(g)))
    quotient, images, _ = m._tail
    coeffs = data.draw(st.lists(st.integers(-1, 2), min_size=len(m.generators),
                                max_size=len(m.generators)))
    targets = [data.draw(st.tuples(*[st.integers(-4, 4)] * d)),
               tuple(sum(c * g[i] for c, g in zip(coeffs, m.generators)) for i in range(d))]
    assert len(m._level_cones) == len(images) + 1
    for start, (lin, facets) in enumerate(m._level_cones):
        nvars = len(images) - start
        nonneg = [(tuple(int(i == j) for i in range(nvars)), 0, "ge") for j in range(nvars)]
        for target in targets:
            y = quotient.apply(target)
            inside = not any(_dot(u, y) for u in lin) and all(_dot(u, y) >= 0 for u, _ in facets)
            cons = [(tuple(img[i] for img in images[start:]), -x, "eq") for i, x in enumerate(y)]
            assert inside == feasible(cons + nonneg, nvars), (gens, start, target)


def test_member_answers_do_not_depend_on_generator_order():
    # the hole family: (2 + 3n, 1 + n) lies in the cone of <(3,1),(1,1),(0,1)>
    # but not in the monoid, and (2 + 3n, 2 + n) = n (3,1) + 2 (1,1) does
    orders = [PointedMonoid.affine(2, [(3, 1), (1, 1), (0, 1)]),
              PointedMonoid.affine(2, [(0, 1), (1, 1), (3, 1)])]
    for n in (10, 100):
        for target, answer in (((2 + 3 * n, 1 + n), False), ((2 + 3 * n, 2 + n), True)):
            assert [member(m, target) for m in orders] == [answer, answer], target


def test_member_refuses_coordinates_that_are_not_ints():
    for target in [(0.5,), (Fraction(3, 2),), ("2",), (2.0,), (True,)]:
        with pytest.raises(ShapeMismatch):
            member(PointedMonoid.orthant(1), target)


def test_monoid_json_round_trip():
    for data, m in (
            ({"kind": "affine", "ambient_dim": 2, "generators": [[1, 0], [0, 1]]},
             PointedMonoid.orthant(2)),
            ({"kind": "affine", "ambient_dim": 2, "generators": [[1, 0], [1, 1], [0, 2]]},
             PointedMonoid.affine(2, [[1, 0], [1, 1], [0, 2]])),
            ({"kind": "group_with_zero", "rank": 1, "torsion": [2]},
             PointedMonoid.group_with_zero(FgAbelianGroup(1, (2,))))):
        assert monoid_from_json(data) == m
