"""Exact matrix kernels: determinant, rank, integer kernel, feasibility."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from f1kit.errors import ShapeMismatch
from f1kit.linalg import Mat, _signed_perm, det, feasible, kernel_basis, rank, relations


def test_matrix_shapes_are_checked():
    with pytest.raises(ShapeMismatch):
        Mat(2, 2, ((1, 2),))
    with pytest.raises(ShapeMismatch):
        Mat.identity(2) * Mat.identity(3)


def test_matrix_algebra_basics():
    a = Mat.from_rows(2, 2, [[1, 2], [3, 4]])
    b = Mat.from_rows(2, 2, [[0, 1], [1, 0]])
    assert a * b == Mat.from_rows(2, 2, [[2, 1], [4, 3]])
    assert a.transpose().transpose() == a
    assert a.hstack(b).col_slice(2, 4) == b
    assert a.vstack(b).data[2:] == b.data
    assert Mat.identity(3).is_identity()
    assert a.apply((1, 1)) == (3, 7)


def test_empty_matrices_compose():
    e = Mat.zeros(0, 3)
    f = Mat.zeros(3, 0)
    assert (e * f).rows == 0 and (e * f).cols == 0
    assert f * e == Mat.zeros(3, 3)
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


def _pairwise_relations(vectors) -> list[tuple[int, ...]]:
    """The integer relations among the vectors by the seed's column
    reduction, kept as a reference: row by row, sort the live columns by
    absolute value and reduce the second by the first, one pair per step."""
    k = len(vectors)
    n = len(vectors[0]) if k else 0
    cols = [list(v) + [int(i == j) for i in range(k)] for j, v in enumerate(vectors)]
    p = 0
    for r in range(n):
        while True:
            live = [j for j in range(p, k) if cols[j][r]]
            if len(live) <= 1:
                break
            live.sort(key=lambda j: abs(cols[j][r]))
            a, b = live[0], live[1]
            q = cols[b][r] // cols[a][r]
            cols[b] = [x - q * y for x, y in zip(cols[b], cols[a])]
        if live:
            cols[p], cols[live[0]] = cols[live[0]], cols[p]
            p += 1
    return [tuple(c[n:]) for c in cols[p:]]


def _spans(basis, vector) -> bool:
    """Is the vector in the lattice the basis spans?  The multiples n
    with n v in that lattice are the last coordinates of the relations
    among [basis | v]; v is in it when their gcd is 1."""
    return math.gcd(*(rel[-1] for rel in _pairwise_relations([*basis, vector]))) == 1


@st.composite
def _vector_lists(draw):
    """0-8 vectors of length 0-5 with entries -6..6, among them zero
    vectors, repeats and combinations of earlier ones."""
    n = draw(st.integers(0, 5))
    vectors = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "combination"]))
        if kind == "zero":
            vectors.append((0,) * n)
        elif kind == "repeat" and vectors:
            vectors.append(draw(st.sampled_from(vectors)))
        elif kind == "combination" and vectors:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            v = tuple(s * x + t * y for x, y in zip(a, b))
            vectors.append(v if all(-6 <= x <= 6 for x in v) else tuple(-x for x in a))
        else:
            vectors.append(draw(st.tuples(*[st.integers(-6, 6)] * n)))
    return vectors


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_vector_lists())
def test_relations_match_the_pairwise_reduction(vectors):
    got, want = relations(vectors), _pairwise_relations(vectors)
    assert len(got) == len(want)
    n = len(vectors[0]) if vectors else 0
    for c in got:
        assert len(c) == len(vectors)
        assert all(sum(x * v[i] for x, v in zip(c, vectors)) == 0 for i in range(n)), c
    assert all(_spans(want, c) for c in got)
    assert all(_spans(got, c) for c in want)


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


def _dense_mul(a: Mat, b: Mat) -> Mat:
    """The seed's dense product: every entry a full row-by-column sum."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = tuple(zip(*b.data)) if b.data else ((),) * b.cols
    return Mat(a.rows, b.cols, tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.data
    ))


@st.composite
def _sparse_mats(draw, rows, cols):
    """Integers with many zeros: half the entries are 0, the rest small."""
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    return Mat.from_rows(rows, cols, [[draw(entry) for _ in range(cols)] for _ in range(rows)])


def _minor_rank(m: Mat) -> int:
    """The largest r with a nonzero r x r minor, each minor expanded by
    Leibniz's formula over all permutations: no elimination at all."""
    def leibniz(rows, cols):
        total = 0
        for perm in itertools.permutations(range(len(cols))):
            sign = (-1) ** sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
            total += sign * math.prod(m.data[r][cols[p]] for r, p in zip(rows, perm))
        return total

    return max(r for r in range(min(m.rows, m.cols) + 1)
               if any(leibniz(rows, cols)
                      for rows in itertools.combinations(range(m.rows), r)
                      for cols in itertools.combinations(range(m.cols), r)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(lambda rc: _sparse_mats(*rc)))
def test_rank_matches_minor_rank_property(m):
    assert rank(m) == _minor_rank(m)


@st.composite
def _signed_perms(draw, n, formed=False):
    """A signed permutation matrix of size n; formed ones carry their
    signed-permutation form, as the type-A theta blocks do."""
    perm = draw(st.permutations(range(n)))
    signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
    if formed:
        return _signed_perm(tuple(perm), tuple(signs))
    return Mat.from_rows(n, n, [[signs[i] if j == perm[i] else 0 for j in range(n)]
                                for i in range(n)])


@st.composite
def _factor_pairs(draw):
    """Two composable matrices: sparse integers, empty shapes (0 rows,
    0 cols or 0 inner) and signed permutations on either side."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    kind = draw(st.sampled_from(["sparse", "perm-left", "perm-right", "perms"]))
    left = draw(_signed_perms(k)) if kind in ("perm-left", "perms") else None
    right = draw(_signed_perms(k)) if kind in ("perm-right", "perms") else None
    if left is None:
        left = draw(_sparse_mats(r, k))
    if right is None:
        right = draw(_sparse_mats(k, c))
    return left, right


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_factor_pairs())
def test_sparse_product_matches_dense_reference(pair):
    a, b = pair
    assert a * b == _dense_mul(a, b)


@st.composite
def _formed_pairs(draw):
    """Two composable factors: signed permutations that carry their form,
    dense integer matrices, or one of each."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    kind = draw(st.sampled_from(["forms", "form-left", "form-right", "dense"]))
    left = draw(_signed_perms(k, True) if kind in ("forms", "form-left") else _sparse_mats(r, k))
    right = draw(_signed_perms(k, True) if kind in ("forms", "form-right") else _sparse_mats(k, c))
    return left, right


def _without_form(m: Mat) -> Mat:
    """The same entries as a plain dense Mat, which det reduces by Bareiss."""
    return Mat(m.rows, m.cols, m.data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_formed_pairs())
def test_signed_permutation_forms_match_dense_references(pair):
    a, b = pair
    product = a * b
    assert product == _dense_mul(a, b)
    # two forms compose into the product's form; any other factor pair is dense
    assert (product._perm is not None) == (a._perm is not None and b._perm is not None and a.rows > 0)
    for m in (a, b, product):
        plain = _without_form(m)
        assert (m == plain, hash(m), repr(m)) == (True, hash(plain), repr(plain))
        if m.rows == m.cols:
            assert det(m) == det(plain)


def test_sparse_product_edge_cases():
    for r, k, c in ((0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0)):
        a, b = Mat.zeros(r, k), Mat.zeros(k, c)
        assert a * b == _dense_mul(a, b) == Mat.zeros(r, c)
    a = Mat.from_rows(2, 3, [[0, 1, 0], [2, 0, -1]])
    b = Mat.from_rows(3, 2, [[1, 2], [3, 4], [5, 6]])
    assert a * b == _dense_mul(a, b) == Mat.from_rows(2, 2, [[3, 4], [-3, -2]])
    # a coefficient-1 row takes the other factor's row as it is
    assert (a * b).data[0] is b.data[1]
    with pytest.raises(ShapeMismatch):
        Mat.zeros(2, 3) * Mat.zeros(2, 3)


def test_unit_blocks_are_shared():
    assert Mat.identity(3) is Mat.identity(3)
    assert Mat.zeros(2, 5) is Mat.zeros(2, 5)
    assert Mat.zeros(0, 4) is Mat.zeros(0, 4)
    assert Mat.identity(3) == Mat.from_rows(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert Mat.zeros(2, 3) == Mat.from_rows(2, 3, [[0, 0, 0], [0, 0, 0]])
    assert Mat.identity(2) is not Mat.identity(3)
    assert Mat.zeros(2, 3) is not Mat.zeros(3, 2)
