"""Exact linear algebra on small integer matrices.

Everything here is loop-based and exact: integer matrices as immutable
row tuples, no floats ever.  The nontrivial kernels are Bareiss
determinants, lattice bases of the integer relations among vectors
(relations, by unimodular column reduction; kernel_basis is its Mat form
and rank reads off it), the facets of a rational cone by double
description, and Fourier-Motzkin feasibility for linear systems over the
rationals, run on gcd-normalised integer rows (rational inputs are
cleared of denominators once, on entry).  Sizes are desk scale (tens of
rows, not thousands); clarity beats asymptotics throughout.

Matrices are stored dense but multiplied sparsely: a product row sums
the rows of the right factor picked out by the left row's nonzero
entries, and a lone coefficient 1 reuses that row as it is.  Mat is
frozen, so Mat.identity(n) and Mat.zeros(r, c) return one shared
instance per shape.  The type-A theta blocks come from _signed_perm and
keep their signed-permutation form beside the fields: two such factors
multiply by composing tuples, and det reads the permutation's sign.
"""

from functools import cache
from math import gcd, lcm, prod
from operator import mul

from ._record import record
from .errors import ShapeMismatch, guard


@record
class Mat:
    """Dense integer matrix with explicit shape.

    The shape is stored so that empty matrices (0 x c or r x 0) compose
    correctly; those show up constantly as comaps of rank-0 stalks.
    Products skip zero entries, and identity and zero blocks are shared
    per shape (see the module docstring).

    >>> Mat.identity(2) * Mat.from_rows(2, 1, [[3], [4]])
    Mat(rows=2, cols=1, data=((3,), (4,)))
    """

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]
    _perm = None    # (cols, signs) from _signed_perm; not a field, so ==, hash, repr skip it

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ShapeMismatch(f"{self.rows} rows declared, {len(self.data)} given")
        for row in self.data:
            if len(row) != self.cols:
                raise ShapeMismatch(f"{self.cols} cols declared, row of length {len(row)} given")

    @staticmethod
    def from_rows(rows: int, cols: int, entries) -> "Mat":
        return Mat(rows, cols, tuple(tuple(int(x) for x in row) for row in entries))

    @staticmethod
    @cache      # one shared instance per shape; safe because Mat is frozen
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    @cache
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, ((0,) * cols,) * rows)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if not (self.rows and self.cols and other.cols):
            return Mat.zeros(self.rows, other.cols)
        if self._perm and other._perm:      # row i of the product is sa[i] times row ca[i]
            (ca, sa), (cb, sb) = self._perm, other._perm
            return _signed_perm(tuple(map(cb.__getitem__, ca)),
                                sa if -1 not in sb else tuple(s * sb[k] for s, k in zip(sa, ca)))
        b = other.data
        zero = (0,) * other.cols
        out = []
        for row in self.data:
            terms = [(a, b[k]) for k, a in enumerate(row) if a]
            if not terms:
                out.append(zero)
            elif len(terms) == 1:
                a, brow = terms[0]
                out.append(brow if a == 1 else tuple(a * x for x in brow))
            else:
                acc = [0] * other.cols
                for a, brow in terms:
                    for j, x in enumerate(brow):
                        if x:
                            acc[j] += a * x
                out.append(tuple(acc))
        return Mat(self.rows, other.cols, tuple(out))

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, tuple(tuple(-x for x in row) for row in self.data))

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, tuple(zip(*self.data)) if self.rows else ((),) * self.cols)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack needs equal row counts")
        return Mat(self.rows, self.cols + other.cols,
                   tuple(a + b for a, b in zip(self.data, other.data)))

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack needs equal col counts")
        return Mat(self.rows + other.rows, self.cols, self.data + other.data)

    def col_slice(self, start: int, stop: int) -> "Mat":
        return Mat(self.rows, stop - start, tuple(row[start:stop] for row in self.data))

    def apply(self, vector: tuple[int, ...]) -> tuple[int, ...]:
        if len(vector) != self.cols:
            raise ShapeMismatch(f"vector of length {len(vector)} for {self.rows}x{self.cols}")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.data)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            x == (1 if i == j else 0) for i, row in enumerate(self.data) for j, x in enumerate(row)
        )


def _signed_perm(cols: tuple, signs: tuple) -> Mat:
    """signs[i] = +-1 at (i, cols[i]), zero elsewhere, carrying that form."""
    rows = tuple(map(Mat.identity(len(cols)).data.__getitem__, cols))
    if -1 in signs:
        rows = tuple(r if s == 1 else tuple(-x for x in r) for r, s in zip(rows, signs))
    m = Mat(len(cols), len(cols), rows)
    object.__setattr__(m, "_perm", (cols, signs))
    return m


def det(m: Mat) -> int:
    """Determinant by fraction-free Bareiss elimination.

    >>> det(Mat.from_rows(2, 2, [[2, 1], [7, 4]]))
    1
    """
    if m.rows != m.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    if perm := m._perm:     # the sign of the permutation, by inversions, times the signs
        return (-1) ** sum(a > b for i, a in enumerate(perm[0]) for b in perm[0][i + 1:]) * prod(perm[1])
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(m: Mat) -> int:
    """Rank over Q: the column count less the kernel's dimension.

    >>> rank(Mat.from_rows(2, 3, [[1, 2, 3], [2, 4, 6]]))
    1
    """
    return m.cols - len(kernel_basis(m))


def kernel_basis(m: Mat) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {v in Z^cols : m v = 0}: the relations
    among m's columns."""
    return relations(list(zip(*m.data)) if m.rows else [()] * m.cols)


def relations(vectors) -> list[tuple[int, ...]]:
    """Saturated lattice basis of {c in Z^k : sum c_j v_j = 0} for k
    integer vectors of equal length, read as columns with an identity
    block carried underneath.  Row by row, the live columns (nonzero in
    that row) are all reduced by the one of least absolute value, in one
    pass, until one is left, which leaves as a pivot.  Every step is
    unimodular, so the carried parts of what remains form the basis.

    >>> relations([(2,), (-4,)])
    [(2, 1)]
    """
    n, zeros = len(vectors[0]) if vectors else 0, [0] * len(vectors)
    cols = [[*v, *zeros[:j], 1, *zeros[j + 1:]] for j, v in enumerate(vectors)]
    for r in range(n):
        live = [c for c in cols if c[r]]
        cols = [c for c in cols if not c[r]]
        while len(live) > 1:
            pivot = min(live, key=lambda c: abs(c[r]))
            a, reduced = pivot[r], [pivot]
            for b in live:
                if b is not pivot:
                    q = b[r] // a
                    b = [x - q * y for x, y in zip(b, pivot)]
                    (reduced if b[r] else cols).append(b)
            live = reduced
    return [tuple(c[n:]) for c in cols]


def _primitive(row) -> tuple[int, ...]:
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def double_description(gens, d: int):
    """Yield the H-representation of cone(gens[:j]) in Q^d for j = 0 .. k:
    (lin, rays), a basis of the dual lineality {u : u.g = 0 for all g} and
    the extreme rays of {u : u.g >= 0 for all g} modulo it (the facet
    normals), each primitive and paired with its mask {j : u.g_j = 0}.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
    and Prodon 1996) adds one generator a at a time.  A lineality vector l
    with a.l > 0 turns into a ray, and each other x into (a.l) x - (a.x) l,
    which keeps its signs.  Else the rays with a.u >= 0 stay, and a pair
    with a.p > 0 > a.n adds (a.p) n - (a.n) p when no third ray vanishes
    on every generator both vanish on (adjacency; in dimension D they share
    at least D - 2 zeros).  The double description guard counts the rays
    and pairs before each such step.

    >>> *_, (lin, rays) = double_description([(1, 0), (1, 1)], 2)
    >>> lin, sorted(rays)
    ([], [((0, 1), 1), ((1, -1), 2)])
    """
    lin = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays: list[tuple[tuple[int, ...], int]] = []
    yield lin, rays
    for j, a in enumerate(gens):
        bit = 1 << j
        dots = [sum(map(mul, a, x)) for x in lin]
        i = next((i for i, s in enumerate(dots) if s), None)
        if i is not None:
            s, pivot = abs(dots[i]), lin[i] if dots[i] > 0 else tuple(-x for x in lin[i])

            def project(x):
                t = sum(map(mul, a, x))
                return _primitive([s * y - t * z for y, z in zip(x, pivot)]) if t else x

            lin = [project(x) for m, x in enumerate(lin) if m != i]
            rays = [(project(u), z | bit) for u, z in rays] + [(pivot, bit - 1)]
        else:
            dots = [sum(map(mul, a, u)) for u, _ in rays]
            pos = [(u, z, t) for (u, z), t in zip(rays, dots) if t > 0]
            neg = [(u, z, t) for (u, z), t in zip(rays, dots) if t < 0]
            guard("double description", "rays + pos x neg pairs",
                  len(rays) + len(pos) * len(neg), 1_000_000)
            low = d - len(lin) - 2
            new = [(u, z if t else z | bit) for (u, z), t in zip(rays, dots) if t >= 0]
            for p, zp, tp in pos:
                for n, zn, tn in neg:
                    both = zp & zn
                    if both.bit_count() >= low and \
                            sum(z & both == both for _, z in rays) == 2:
                        new.append((_primitive([tp * y - tn * x for x, y in zip(p, n)]),
                                    both | bit))
            rays = new
        yield lin, rays


# Linear constraints for the feasibility kernel: (coeffs, const, rel)
# encodes  coeffs . x + const  REL  0  with rel one of "eq", "ge", "gt".
# Internally a constraint is the integer row coeffs + (const,), divided by
# the gcd of its entries; scaling by a positive number keeps its meaning.


def _int_row(values) -> tuple[int, ...]:
    """The values times the lcm of their denominators, gcd-normalised."""
    if not all(type(x) is int for x in values):
        from fractions import Fraction
        fracs = [Fraction(x) for x in values]
        scale = lcm(*(x.denominator for x in fracs))
        values = [int(x * scale) for x in fracs]
    return _primitive(values)


def feasible(constraints: list[tuple], nvars: int) -> bool:
    """Decide whether a rational solution of the constraint system exists.

    Each constraint is (coeffs, const, rel): coeffs . x + const REL 0, with
    int or Fraction entries.  Each is scaled once to a primitive integer
    row, and every later row is an integer combination with positive
    multipliers, so no Fraction is built after the input.  Equalities are
    removed by exact substitution, the rest by Fourier-Motzkin elimination;
    strictness propagates through combined constraints, so mixed
    strict/weak systems are decided correctly.

    >>> from fractions import Fraction
    >>> one = Fraction(1)
    >>> feasible([((one,), Fraction(-1), "ge"), ((-one,), Fraction(2), "gt")], 1)
    True
    >>> feasible([((one,), Fraction(0), "gt"), ((-one,), Fraction(0), "ge")], 1)
    False
    """
    eqs: list[tuple[int, ...]] = []
    ineqs: list[tuple[tuple[int, ...], bool]] = []      # (row, strict)
    for coeffs, const, rel in constraints:
        if len(coeffs) != nvars:
            raise ShapeMismatch("constraint width does not match variable count")
        row = _int_row((*coeffs, const))
        if rel == "eq":
            eqs.append(row)
        else:
            ineqs.append((row, rel == "gt"))

    # substitute equalities away: |c_j| row - sign(c_j) row_j eq clears
    # column j and keeps the direction of an inequality
    while eqs:
        eq = eqs.pop()
        j = next((i for i in range(nvars) if eq[i]), None)
        if j is None:
            if eq[-1]:
                return False
            continue
        scale, sign = abs(eq[j]), (1 if eq[j] > 0 else -1)

        def subst(row):
            f = sign * row[j]
            return _primitive([scale * x - f * y for x, y in zip(row, eq)]) if f else row

        eqs = [subst(r) for r in eqs]
        ineqs = [(subst(r), strict) for r, strict in ineqs]

    live = list(range(nvars))
    while True:
        # constants drop out as soon as they appear; eliminated columns
        # are zero in every row, so a row without live terms is all zero
        remaining = set()
        for row, strict in ineqs:
            if any(row[:nvars]):
                remaining.add((row, strict))
            elif row[-1] < 0 or (strict and row[-1] == 0):
                return False
        ineqs = list(remaining)
        if not live or not ineqs:
            return True
        # eliminate the variable with the cheapest pos x neg product
        def cost(j):
            pos = sum(1 for r, _ in ineqs if r[j] > 0)
            neg = sum(1 for r, _ in ineqs if r[j] < 0)
            return pos * neg

        j = min(live, key=cost)
        pos = [c for c in ineqs if c[0][j] > 0]
        neg = [c for c in ineqs if c[0][j] < 0]
        rest = [c for c in ineqs if c[0][j] == 0]
        combined = []
        for p, pstrict in pos:
            for n, nstrict in neg:
                s, t = -n[j], p[j]
                row = _primitive([s * x + t * y for x, y in zip(p, n)])
                combined.append((row, pstrict or nstrict))
        ineqs = rest + combined
        live.remove(j)
