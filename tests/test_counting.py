"""Integer polynomial calculus, q-analogs, and brute-force oracles."""

from fractions import Fraction
from itertools import product

import pytest

from f1kit.counting import (
    IntPolynomial,
    brute_count,
    brute_count_gl,
    brute_count_monoid_homs,
    brute_count_subspaces,
    compare_counts,
    gauss_binomial,
    gauss_factorial,
    gauss_number,
    torification_poly,
    vanishing_order_and_limit,
)
from f1kit.errors import NonDivisible, NotPrime, OutOfScale, ZeroPolynomial
from f1kit.linalg import relations
from f1kit.monoids import FgAbelianGroup, PointedMonoid
from f1kit.schemes import Cell, Torification
from f1kit.spectrum import face_masks, minimal_face
from test_linalg import _pairwise_relations
from test_spectrum import _is_monoid, _oracle_corpus


def test_polynomial_ring_operations():
    p = IntPolynomial.of(1, 2)        # 1 + 2q
    q = IntPolynomial.of(0, 0, 3)     # 3q^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p - p).is_zero()
    assert p(10) == 21
    assert (p ** 3) == p * p * p
    assert IntPolynomial.zero().coeffs == ()
    assert IntPolynomial.one()(5) == 1
    assert IntPolynomial.q_power(3)(2) == 8
    assert IntPolynomial.qminus1_power(2)(3) == 4


def test_polynomial_pretty():
    assert IntPolynomial.of(0, 1).pretty() == "q"
    assert IntPolynomial.of(1).pretty() == "1"
    assert IntPolynomial.zero().pretty() == "0"
    assert IntPolynomial.of(-1, 0, 1).pretty() == "q^2 - 1"


def test_exact_division():
    a = gauss_factorial(4)
    b = gauss_factorial(2) * gauss_factorial(2)
    assert a.divexact(b) == gauss_binomial(4, 2)
    with pytest.raises(NonDivisible):
        IntPolynomial.of(0, 0, 1).divexact(IntPolynomial.of(1, 1))


def test_qminus1_basis_round_trip():
    p = IntPolynomial.of(3, -1, 4, 1)
    basis = p.in_qminus1_basis()
    assert IntPolynomial.from_qminus1_basis(basis) == p
    # value at q=1 is the constant coefficient in the shifted basis
    assert basis[0] == p(1)


def test_gauss_numbers():
    assert gauss_number(3).coeffs == (1, 1, 1)
    assert gauss_number(1).coeffs == (1,)
    assert gauss_factorial(3)(2) == 1 * 3 * 7
    assert gauss_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert gauss_binomial(4, 2)(2) == 35
    assert gauss_binomial(4, 2)(3) == 130
    assert gauss_binomial(5, 0)(7) == 1
    assert gauss_binomial(5, 5)(7) == 1
    # symmetry
    for n in range(7):
        for k in range(n + 1):
            assert gauss_binomial(n, k) == gauss_binomial(n, n - k)


def test_vanishing_order_and_limit():
    res = vanishing_order_and_limit(IntPolynomial.of(0, -1, 1) * IntPolynomial.of(-2, 2))
    # (q^2 - q)(2q - 2) = 2 q (q-1)^2
    assert res.rho == 2 and res.limit == 2
    res = vanishing_order_and_limit(IntPolynomial.of(7))
    assert res.rho == 0 and res.limit == 7
    with pytest.raises(ZeroPolynomial):
        vanishing_order_and_limit(IntPolynomial.zero())


def test_torification_poly_families():
    t = Torification((Cell(0, "a", 2), Cell(1, "b")))
    # (q-1)^0 q^2 + (q-1)^1
    assert torification_poly(t) == IntPolynomial.q_power(2) + IntPolynomial.of(-1, 1)
    # a family cell equals its expanded subset tori
    fam = Torification((Cell(1, "f", 2),))
    flat = Torification((Cell(1, ("f", 0)), Cell(2, ("f", 1)), Cell(2, ("f", 2)),
                         Cell(3, ("f", 3))))
    assert torification_poly(fam) == torification_poly(flat)


def test_brute_subspaces():
    assert brute_count_subspaces(2, 4, 2) == 35
    assert brute_count_subspaces(2, 4, 3) == 130
    assert brute_count_subspaces(0, 3, 5) == 1
    assert brute_count_subspaces(3, 3, 5) == 1
    assert brute_count_subspaces(1, 3, 2) == 7
    with pytest.raises(NotPrime):
        brute_count_subspaces(1, 2, 4)


def test_brute_gl():
    assert brute_count_gl(1, 3) == 2
    assert brute_count_gl(2, 2) == 6
    assert brute_count_gl(2, 3) == 48
    assert brute_count_gl(2, 5) == 480


def test_brute_monoid_homs():
    # orthant: q^d choices
    assert brute_count_monoid_homs(PointedMonoid.orthant(2), 3) == 9
    # torus: (q-1)^r
    assert brute_count_monoid_homs(PointedMonoid.torus(2), 3) == 4
    # group with torsion: gcd factors appear
    z6 = PointedMonoid.group_with_zero(FgAbelianGroup.from_orders([6]))
    assert brute_count_monoid_homs(z6, 3) == 2   # gcd(6, 2) characters
    assert brute_count_monoid_homs(z6, 5) == 2   # gcd(6, 4)
    z4 = PointedMonoid.group_with_zero(FgAbelianGroup.from_orders([4]))
    assert brute_count_monoid_homs(z4, 5) == 4   # full character group
    # numerical monoid <2,3>: homs still q (0 and the units)
    m = PointedMonoid.affine(1, [(2,), (3,)])
    assert brute_count_monoid_homs(m, 2) == 2
    assert brute_count_monoid_homs(m, 3) == 3
    assert brute_count_monoid_homs(m, 5) == 5


def test_brute_dispatch_and_compare():
    assert brute_count("subspaces", {"k": 2, "n": 4}, 2) == 35
    assert brute_count("gl", {"n": 2}, 3) == 48
    rep = compare_counts(gauss_binomial(4, 2), "subspaces", {"k": 2, "n": 4}, [2, 3])
    assert rep["equal"] is True
    assert rep["per_q"]["2"]["brute"] == 35
    bad = compare_counts(gauss_binomial(4, 2) + IntPolynomial.one(),
                         "subspaces", {"k": 2, "n": 4}, [2])
    assert bad["equal"] is False


def test_oracle_scale_guards():
    # the field guard comes before trial division, so a composite q above
    # the cap meets the guard and one within it is refused as not prime
    with pytest.raises(OutOfScale):
        brute_count_gl(2, 6)
    with pytest.raises(NotPrime):
        brute_count_gl(2, 4)
    with pytest.raises(NotPrime):
        brute_count_gl(2, 1)
    with pytest.raises(OutOfScale):
        brute_count_gl(4, 7)


def test_guard_messages_name_estimate_cap_and_override():
    with pytest.raises(OutOfScale, match=r"^brute field guard: q = 7 exceeds cap 5 "
                       r"\(scale caps with F1KIT_MAX_SCALE\)$"):
        brute_count_gl(1, 7)
    with pytest.raises(OutOfScale, match=r"^brute enumeration guard: 5\^16 matrices = "
                       r"152587890625 exceeds cap 4000000 \(scale caps with F1KIT_MAX_SCALE\)$"):
        brute_count_gl(4, 5)
    with pytest.raises(OutOfScale, match=r"^brute enumeration guard: 5\^10 generator images = "
                       r"9765625 exceeds cap 4000000 \(scale caps with F1KIT_MAX_SCALE\)$"):
        brute_count_monoid_homs(PointedMonoid.orthant(10), 5)


def _brute_by_assignments(m: PointedMonoid, q: int) -> int:
    """The q^k enumeration the face-by-face count replaced: every
    assignment of field elements to the generators, kept when its support
    is a face and every relation among the support maps to 1.  The
    relations come from the reference reduction, not linalg.relations."""
    gens, d = m.generators, m.ambient_dim
    faces = face_masks(gens, d)
    total = 0
    for assignment in product(range(q), repeat=len(gens)):
        support = sum(1 << j for j, x in enumerate(assignment) if x)
        if support not in faces:
            continue
        cols = [j for j in range(len(gens)) if support >> j & 1]
        values = [assignment[j] for j in cols]
        relations = _pairwise_relations([gens[j] for j in cols])
        total += all(_character(values, rel, q) == 1 for rel in relations)
    return total


def _character(values, rel, q: int) -> int:
    acc = 1
    for x, e in zip(values, rel):
        acc = acc * pow(x, e, q) % q
    return acc


def test_face_by_face_brute_matches_full_enumeration():
    # the counter tests r.a = 0 mod q-1 on exponent vectors, the reference
    # multiplies field elements with pow.  q^k kept to 3^8 so the reference
    # enumeration stays quick, plus q = 5 on the cones with a line and k = 6
    cases = 0
    for d, gens in _oracle_corpus():
        if not _is_monoid(gens):
            continue
        m = PointedMonoid.affine(d, gens)
        line = len(gens) <= 6 and minimal_face(gens, d)
        for q in (2, 3, 5):
            if q ** len(gens) <= 3 ** 8 or q == 5 and line:
                assert brute_count_monoid_homs(m, q) == _brute_by_assignments(m, q), (gens, q)
                cases += 1
    assert cases >= 95


def test_relation_free_rule_is_exact():
    # a face inside a face whose generators satisfy no relation is given
    # [] unasked; a direct call agrees on every such face
    skipped = 0
    for d, gens in _oracle_corpus():
        if not _is_monoid(gens):
            continue
        m = PointedMonoid.affine(d, gens)
        brute_count_monoid_homs(m, 2)
        memo = m.__dict__["_support_relations"]
        assert set(memo) == face_masks(gens, d)
        for face, basis in memo.items():
            if not basis:
                assert relations([g for j, g in enumerate(gens) if face >> j & 1]) == [], (gens, face)
                skipped += 1
    assert skipped >= 500
