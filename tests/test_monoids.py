"""Pointed monoids, abelian group data, homs, membership."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from f1kit import monoids, spectrum
from f1kit.errors import (
    InfiniteHomSet,
    MembershipUndecidedWithinBound,
    ShapeMismatch,
)
from f1kit.linalg import Mat, feasible, rank
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
from test_spectrum import _feasible_calls


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
    # one call decides that a pointed cone has trivial units
    for m in (PointedMonoid.orthant(3), PointedMonoid.affine(1, [[2], [3]])):
        assert _feasible_calls(monkeypatch, lambda: units_of(m)) == 1
    # with a line, one more call per generator finds the minimal face
    for m in (PointedMonoid.affine(2, [[1, 0], [-1, 0], [0, 1]]),
              PointedMonoid.affine(1, [[3], [-2]]),
              PointedMonoid.affine(2, [[2, 1], [-1, 0], [-1, -1], [1, 5]])):
        calls = _feasible_calls(monkeypatch, lambda: units_of(m))
        assert calls == 1 + len(m.generators)


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
def _small_cones(draw, size=3):
    """Up to size generators with entries in -2..2 in Z^1 or Z^2: a
    pointed cone (first coordinates positive) or one with a line (the
    negative of the first generator added)."""
    d = draw(st.integers(1, 2))
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


def test_member_feasibility_calls(monkeypatch):
    # member's own calls count together with the minimal face's
    monkeypatch.setattr(monoids, "feasible", lambda cons, n: spectrum.feasible(cons, n))
    pinned = [
        # pointed: 1 for the minimal face, 4 relaxations
        (PointedMonoid.affine(1, [[2], [3]]), (1,), 5),
        # all generators on the minimal face: 1 + 2, then the lattice test
        (PointedMonoid.affine(1, [[2], [-2]]), (1,), 3),
        # 1 + 3 for the minimal face, 2 relaxations on (0, 2)
        (PointedMonoid.affine(2, [[1, 1], [-1, -1], [0, 2]]), (0, 1), 6),
    ]
    for m, target, calls in pinned:
        assert _feasible_calls(monkeypatch, lambda: member(m, target)) == calls
    # the unit split is kept on the instance: a second call on the last
    # monoid makes only its 2 relaxations
    assert _feasible_calls(monkeypatch, lambda: member(m, (0, 1))) == 2


def test_monoid_json_round_trip():
    for data, m in (
            ({"kind": "affine", "ambient_dim": 2, "generators": [[1, 0], [0, 1]]},
             PointedMonoid.orthant(2)),
            ({"kind": "affine", "ambient_dim": 2, "generators": [[1, 0], [1, 1], [0, 2]]},
             PointedMonoid.affine(2, [[1, 0], [1, 1], [0, 2]])),
            ({"kind": "group_with_zero", "rank": 1, "torsion": [2]},
             PointedMonoid.group_with_zero(FgAbelianGroup(1, (2,))))):
        assert monoid_from_json(data) == m
