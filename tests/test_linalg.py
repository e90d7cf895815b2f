"""Exact matrix kernels: determinant, rank, integer kernel, feasibility."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from f1kit.errors import ShapeMismatch
from f1kit.linalg import Mat, det, feasible, kernel_basis, rank


def test_matrix_shapes_are_checked():
    with pytest.raises(ShapeMismatch):
        Mat(2, 2, ((1, 2),))
    with pytest.raises(ShapeMismatch):
        Mat.identity(2) * Mat.identity(3)
    with pytest.raises(ShapeMismatch):
        Mat.identity(2) + Mat.zeros(2, 3)


def test_matrix_algebra_basics():
    a = Mat.from_rows(2, 2, [[1, 2], [3, 4]])
    b = Mat.from_rows(2, 2, [[0, 1], [1, 0]])
    assert a * b == Mat.from_rows(2, 2, [[2, 1], [4, 3]])
    assert (a + (-a)).is_zero()
    assert a.transpose().transpose() == a
    assert a.hstack(b).col_slice(2, 4) == b
    assert a.vstack(b).data[2:] == b.data
    assert Mat.identity(3).is_identity()
    assert a.apply((1, 1)) == (3, 7)
    d = a.block_diag(b)
    assert d.rows == 4 and d.cols == 4
    assert d.col_slice(0, 2).data[:2] == a.data


def test_empty_matrices_compose():
    e = Mat.zeros(0, 3)
    f = Mat.zeros(3, 0)
    assert (e * f).rows == 0 and (e * f).cols == 0
    assert (f * e).is_zero() and (f * e).rows == 3
    assert Mat.zeros(0, 0).is_identity()
    assert e.transpose() == f


def test_determinant_exact():
    assert det(Mat.identity(4)) == 1
    assert det(Mat.from_rows(2, 2, [[2, 1], [7, 4]])) == 1
    assert det(Mat.from_rows(3, 3, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0
    assert det(Mat.from_rows(3, 3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])) == -1
    # integer arithmetic stays exact where floats would drift
    big = Mat.from_rows(3, 3, [[10**9, 1, 0], [0, 10**9, 1], [1, 0, 10**9]])
    assert det(big) == 10**27 + 1
    assert det(Mat.zeros(0, 0)) == 1


def test_rank_and_kernel():
    m = Mat.from_rows(2, 3, [[1, 2, 3], [2, 4, 6]])
    assert rank(m) == 1
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert m.apply(v) == (0, 0)
    assert rank(Mat.identity(5)) == 5
    assert kernel_basis(Mat.identity(3)) == []
    # kernel of the zero map is everything
    assert len(kernel_basis(Mat.zeros(2, 4))) == 4


def test_kernel_is_saturated():
    # columns (2, 0) and (0, 2): kernel must contain primitive vectors
    m = Mat.from_rows(1, 2, [[2, -2]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert v in ((1, 1), (-1, -1))


def test_feasibility_basics():
    # x >= 1 and -x >= 0 cannot both hold
    assert not feasible([((Fraction(1),), Fraction(-1), "ge"),
                         ((Fraction(-1),), Fraction(0), "ge")], 1)
    # x >= 1 and x <= 3
    assert feasible([((Fraction(1),), Fraction(-1), "ge"),
                     ((Fraction(-1),), Fraction(3), "ge")], 1)
    # strict: x > 0 and x < 0 infeasible, x > 0 and x < 1 feasible
    assert not feasible([((Fraction(1),), Fraction(0), "gt"),
                         ((Fraction(-1),), Fraction(0), "gt")], 1)
    assert feasible([((Fraction(1),), Fraction(0), "gt"),
                     ((Fraction(-1),), Fraction(1), "gt")], 1)


def test_feasibility_with_equalities():
    # x + y = 1, x >= 0, y >= 0 feasible; adding x >= 2 breaks it
    base = [((Fraction(1), Fraction(1)), Fraction(-1), "eq"),
            ((Fraction(1), Fraction(0)), Fraction(0), "ge"),
            ((Fraction(0), Fraction(1)), Fraction(0), "ge")]
    assert feasible(base, 2)
    assert not feasible(base + [((Fraction(1), Fraction(0)), Fraction(-2), "ge")], 2)


def test_feasibility_no_constraints_and_absent_vars():
    assert feasible([], 3)
    # constraint on x only, y free
    assert feasible([((Fraction(1), Fraction(0)), Fraction(-5), "ge")], 2)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _norm(coeffs, const, rel):
    lcm = 1
    for c in list(coeffs) + [const]:
        d = c.denominator
        lcm = lcm // _gcd(lcm, d) * d
    ints = [int(c * lcm) for c in coeffs] + [int(const * lcm)]
    g = 0
    for x in ints:
        g = _gcd(g, x)
    g = max(g, 1)
    vals = [Fraction(x, g) for x in ints]
    return (tuple(vals[:-1]), vals[-1], rel)


def _feasible_reference(constraints, nvars):
    """Fourier-Motzkin over Fraction rows, as the kernel was before it
    moved to integer rows; kept as the reference the kernel must match."""
    eqs, ineqs = [], []
    for coeffs, const, rel in constraints:
        c = (tuple(Fraction(x) for x in coeffs), Fraction(const), rel)
        (eqs if rel == "eq" else ineqs).append(c)
    while eqs:
        coeffs, const, _ = eqs.pop()
        j = next((i for i, c in enumerate(coeffs) if c != 0), None)
        if j is None:
            if const != 0:
                return False
            continue
        cj = coeffs[j]

        def subst(con):
            a, b, rel = con
            if a[j] == 0:
                return con
            f = a[j] / cj
            new = tuple(x - f * c for x, c in zip(a, coeffs))
            return (new[:j] + (Fraction(0),) + new[j + 1:], b - f * const, rel)

        eqs = [subst(c) for c in eqs]
        ineqs = [subst(c) for c in ineqs]
    live = list(range(nvars))
    while True:
        remaining = []
        for a, b, rel in ineqs:
            if all(a[j] == 0 for j in live):
                if rel == "ge" and b < 0:
                    return False
                if rel == "gt" and b <= 0:
                    return False
            else:
                remaining.append((a, b, rel))
        ineqs = list({_norm(a, b, rel) for a, b, rel in remaining})
        if not live or not ineqs:
            return True

        def cost(j):
            pos = sum(1 for a, _, _ in ineqs if a[j] > 0)
            neg = sum(1 for a, _, _ in ineqs if a[j] < 0)
            return pos * neg

        j = min(live, key=cost)
        pos = [c for c in ineqs if c[0][j] > 0]
        neg = [c for c in ineqs if c[0][j] < 0]
        rest = [c for c in ineqs if c[0][j] == 0]
        combined = []
        for pa, pb, prel in pos:
            for na, nb, nrel in neg:
                s, t = -na[j], pa[j]
                a = tuple(s * x + t * y for x, y in zip(pa, na))
                combined.append((a, s * pb + t * nb, "gt" if "gt" in (prel, nrel) else "ge"))
        ineqs = rest + combined
        live.remove(j)


def _random_system(rng: random.Random):
    """Small mixed system: ints or Fractions, eq/ge/gt rows, and at times
    an all-zero row or a pair of contradictory equalities."""
    nvars = rng.randint(0, 4)
    entry = ((lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
             if rng.random() < 0.4 else (lambda: rng.choice([0, 0, -2, -1, 1, 2, 3])))
    cons = []
    for _ in range(rng.randint(0, 7)):
        cons.append((tuple(entry() for _ in range(nvars)), entry(),
                     rng.choice(["eq", "ge", "ge", "gt", "gt"])))
    if rng.random() < 0.15:
        cons.append(((0,) * nvars, rng.randint(-1, 1), rng.choice(["eq", "ge", "gt"])))
    if rng.random() < 0.15:
        row = tuple(entry() for _ in range(nvars))
        c = entry()
        cons += [(row, c, "eq"), (row, c + 1, "eq")]
    rng.shuffle(cons)
    return cons, nvars


def test_integer_kernel_matches_fraction_reference():
    rng = random.Random(20261018)
    answers = set()
    for _ in range(600):
        cons, nvars = _random_system(rng)
        want = _feasible_reference(cons, nvars)
        assert feasible(cons, nvars) == want, (cons, nvars)
        answers.add(want)
    assert answers == {True, False}


_entries = st.one_of(st.integers(-5, 5),
                     st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def _systems(draw):
    nvars = draw(st.integers(0, 3))
    row = st.tuples(st.tuples(*[_entries] * nvars), _entries, st.sampled_from(["eq", "ge", "gt"]))
    return draw(st.lists(row, max_size=6)), nvars


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_systems())
def test_integer_kernel_matches_fraction_reference_property(system):
    cons, nvars = system
    assert feasible(cons, nvars) == _feasible_reference(cons, nvars)
