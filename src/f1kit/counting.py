"""Counting polynomials, q-analogs, and brute-force oracles.

All coefficients and evaluations are exact Python integers.  The central
identity is that a disjoint union of split tori of dimensions d_i counts
sum_i (q-1)^d_i points over a q-element field, and that writing a count
in the (q-1) basis reads off the vanishing order at q = 1 together with
the leading value.

The brute-force counters at the bottom recount small instances by raw
enumeration over an actual prime field, with no shared formulas, so they
can serve as oracles for the polynomial calculus.  The one shared piece
is the face set of a cone, which the monoid-hom counter enumerates as
its supports; the tests check it against a 2^k subset loop, and the
counter against the q^k enumeration it replaced.  It visits every unit
assignment in exponent form (F_q^* is cyclic, so a relation holds on g^a
exactly when r.a = 0 mod q-1), and asks for no relation basis on a face
inside a relation-free face.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import isqrt
from operator import mul

from .errors import NonDivisible, NotPrime, ZeroPolynomial, guard
from .linalg import Mat, det, relations
from .monoids import GROUP_WITH_ZERO, PointedMonoid


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial in q, coefficients ascending, trimmed.

    >>> p = IntPolynomial.of(1, 1) * IntPolynomial.of(-1, 1)
    >>> p
    IntPolynomial.of(-1, 0, 1)
    >>> p(3)
    8
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def of(*coeffs: int) -> "IntPolynomial":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return IntPolynomial(tuple(c))

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    @staticmethod
    def q_power(k: int) -> "IntPolynomial":
        return IntPolynomial((0,) * k + (1,))

    @staticmethod
    def qminus1_power(k: int) -> "IntPolynomial":
        return (IntPolynomial.of(-1, 1)) ** k

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPolynomial.of(*(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-x for x in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial.of(*out)

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPolynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, q: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * q + c
        return value

    def __repr__(self) -> str:
        return f"IntPolynomial.of{self.coeffs!r}" if self.coeffs else "IntPolynomial.zero()"

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else f"{c}*"
                terms.append(f"{head}q" if i == 1 else f"{head}q^{i}")
        return " + ".join(terms).replace("+ -", "- ")

    def divexact(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient; raises NonDivisible on any remainder."""
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        rem = [Fraction(c) for c in self.coeffs]
        dcoeffs = other.coeffs
        dd = len(dcoeffs) - 1
        lead = Fraction(dcoeffs[-1])
        qout: list[Fraction] = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            f = rem[i] / lead
            if f:
                qout[i - dd] = f
                for j, c in enumerate(dcoeffs):
                    rem[i - dd + j] -= f * c
        if any(r != 0 for r in rem):
            raise NonDivisible(f"{self.pretty()} not divisible by {other.pretty()}")
        if any(f.denominator != 1 for f in qout):
            raise NonDivisible("quotient is not integral")
        return IntPolynomial.of(*(int(f) for f in qout))

    def in_qminus1_basis(self) -> tuple[int, ...]:
        """Coefficients b_j with p = sum b_j (q-1)^j, by synthetic division.

        >>> IntPolynomial.of(0, 0, 1).in_qminus1_basis()
        (1, 2, 1)
        """
        cur = list(self.coeffs)
        out = []
        while cur:
            desc = list(reversed(cur))
            run = [desc[0]]
            for c in desc[1:]:
                run.append(c + run[-1])
            out.append(run.pop())
            cur = list(reversed(run))
        return tuple(out)

    @staticmethod
    def from_qminus1_basis(coeffs) -> "IntPolynomial":
        shift = IntPolynomial.of(-1, 1)
        result = IntPolynomial.zero()
        for b in reversed(tuple(coeffs)):
            result = result * shift + IntPolynomial.of(b)
        return result


@dataclass(frozen=True)
class LimitResult:
    """Vanishing order at q = 1 and the value of p / (q-1)^rho there."""
    rho: int
    limit: int


def vanishing_order_and_limit(p: IntPolynomial) -> LimitResult:
    """Order of vanishing at q = 1 and the limit of p(q)/(q-1)^rho.

    >>> vanishing_order_and_limit(IntPolynomial.of(1, -2, 1))
    LimitResult(rho=2, limit=1)
    """
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial vanishes to every order")
    basis = p.in_qminus1_basis()
    rho = next(i for i, b in enumerate(basis) if b != 0)
    return LimitResult(rho, basis[rho])


def gauss_number(n: int) -> IntPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
    if n < 0:
        raise ValueError("gauss_number needs n >= 0")
    return IntPolynomial.of(*([1] * n))


def gauss_factorial(n: int) -> IntPolynomial:
    """[n]_q! = [1]_q ... [n]_q."""
    out = IntPolynomial.one()
    for i in range(1, n + 1):
        out = out * gauss_number(i)
    return out


def gauss_binomial(n: int, k: int) -> IntPolynomial:
    """Gauss binomial [n k]_q via exact polynomial division.

    >>> gauss_binomial(4, 2).coeffs
    (1, 1, 2, 1, 1)
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k} n={n}")
    return gauss_factorial(n).divexact(gauss_factorial(k) * gauss_factorial(n - k))


def torification_poly(t: "Torification") -> IntPolynomial:
    """Counting polynomial of a torification: sum (q-1)^dim q^affine.

    Each cell contributes (q-1)^dim, and a cell standing for a refined
    affine family of extra dimension a contributes (q-1)^dim q^a, which
    equals the sum over its 2^a subset tori.
    """
    out = IntPolynomial.zero()
    for c in t.cells:
        out = out + IntPolynomial.qminus1_power(c.dim) * IntPolynomial.q_power(c.affine)
    return out


def cell_dimension_guard(dim: int) -> None:
    """Refuse a cell of dimension dim = d + a: its count (q-1)^d q^a, its
    points and its torus take about dim^2 coefficient steps."""
    guard("cell dimension", f"{dim}^2 coefficient steps", dim * dim, 1_000_000)


def _require_prime(q: int) -> None:
    if q >= 2:      # a huge q meets the guard before any trial division
        guard("brute field", "q", q, 5)
    if q < 2 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise NotPrime(f"brute counting needs a prime field size, got {q}")


def brute_count_subspaces(k: int, n: int, q: int) -> int:
    """Count k-dim subspaces of F_q^n by enumerating reduced echelon forms.

    Every subspace has a unique reduced row echelon basis, so the count
    is the number of valid RREF matrices.  Enumeration is literal: pick
    pivot columns, fill every free position with every field value.
    """
    _require_prime(q)
    if not 0 <= k <= n:
        return 0
    total = 0
    for pivots in combinations(range(n), k):
        free_positions = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        guard("brute enumeration", f"{q}^{len(free_positions)} echelon fillings",
              q ** len(free_positions), 4_000_000)
        for values in product(range(q), repeat=len(free_positions)):
            # materialize the matrix to keep the count honest
            m = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                m[i][p] = 1
            for (i, j), v in zip(free_positions, values):
                m[i][j] = v
            total += 1
    return total


def brute_count_gl(n: int, q: int) -> int:
    """Count invertible n x n matrices over F_q by full enumeration."""
    _require_prime(q)
    guard("brute enumeration", f"{q}^{n * n} matrices", q ** (n * n), 4_000_000)
    total = 0
    for entries in product(range(q), repeat=n * n):
        rows = [entries[i * n:(i + 1) * n] for i in range(n)]
        if det(Mat.from_rows(n, n, rows)) % q != 0:
            total += 1
    return total


def brute_count_monoid_homs(m: PointedMonoid, q: int) -> int:
    """Count monoid homs M -> (F_q, *) by enumerating generator images.

    A hom sends each generator to a field element, zero allowed.  The
    generators it sends to units span a face F of the cone: the rest
    generate a prime ideal, whose complement is a face (for a support S
    that is not a face, some relation equates a product of generators in
    S with one that meets the complement, by Farkas' lemma).  So the
    count runs face by face: every generator off F goes to 0, and every
    assignment of units in (F_q^*)^F is checked against a basis of the
    integer relations among F's generators (linalg.relations), each of
    which must map to 1.  That is sum_F (q-1)^|F| assignments, not the
    q^k of all generator images; the work guard still counts q^k.
    Every unit assignment is still visited, in exponent form: the units
    are g^a for a primitive root g, so a in {0..q-2}^|F| passes when
    r.a = 0 mod q-1 for each relation r, reduced mod q-1 once per face
    (rows that vanish drop out; at q = 2 all do).  The relation bases do
    not depend on q and are memoized on the instance, filled once with
    the faces in decreasing size: a face inside a relation-free face gets
    [] with no linalg.relations call, since F inside G puts F's relations
    among G's.  So an orthant makes one call.
    """
    _require_prime(q)
    if m.kind == GROUP_WITH_ZERO:
        g = m.group
        count = (q - 1) ** g.rank
        for t in g.torsion:
            count *= sum(1 for y in range(1, q) if pow(y, t, q) == 1)
        return count

    gens = m.generators
    k = len(gens)
    guard("brute enumeration", f"{q}^{k} generator images", q ** k, 4_000_000)
    from .spectrum import face_ranks     # spectrum imports this module

    memo = m.__dict__.get("_support_relations")
    if memo is None:
        memo, free = {}, []       # free: the maximal relation-free faces so far
        for face in sorted((face for face, _ in face_ranks(m)), key=int.bit_count, reverse=True):
            covered = any(face & g == face for g in free)
            memo[face] = [] if covered else relations([gens[j] for j in range(k) if face >> j & 1])
            if not (covered or memo[face]):
                free.append(face)
        m.__dict__["_support_relations"] = memo
    n = q - 1
    total = 0
    for face, _ in face_ranks(m):
        rows = [r for r in ([e % n for e in rel] for rel in memo[face]) if any(r)]
        for a in product(range(n), repeat=face.bit_count()):
            for r in rows:
                if sum(map(mul, r, a)) % n:
                    break
            else:
                total += 1
    return total


def brute_count(kind: str, params: dict, q: int) -> int:
    """Dispatch to a brute-force counter; kind picks the enumeration."""
    if kind == "subspaces":
        return brute_count_subspaces(int(params["k"]), int(params["n"]), q)
    if kind == "gl":
        return brute_count_gl(int(params["n"]), q)
    if kind == "monoid_homs":
        return brute_count_monoid_homs(params["monoid"], q)
    raise ValueError(f"unknown brute kind {kind!r}")


def compare_counts(poly: IntPolynomial, kind: str, params: dict, qs) -> dict:
    """Evaluate a counting polynomial against brute enumeration.

    Returns a JSON-able report: per q the polynomial value, the brute
    value, and whether they agree exactly; overall equality under "equal".
    A q listed twice is counted once.
    """
    per_q = {}
    all_equal = True
    for q in dict.fromkeys(qs):
        pv = poly(q)
        bv = brute_count(kind, params, q)
        per_q[str(q)] = {"poly": pv, "brute": bv, "equal": pv == bv}
        all_equal = all_equal and pv == bv
    return {"poly_q": list(poly.coeffs), "per_q": per_q, "equal": all_equal}
