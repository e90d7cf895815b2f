"""GL(n), parabolic and Grassmannian models with their quotient checks."""

import math
from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import f1kit.cli as cli
import f1kit.groups as groups
import f1kit.reductive as reductive
import f1kit.schemes as schemes
from f1kit.counting import IntPolynomial, gauss_binomial, torification_poly, vanishing_order_and_limit
from f1kit.errors import AxiomsFailed, InvalidComposition, NotASubgroup, OutOfScale, TypeNotMaximal
from f1kit.groups import (
    PRODUCT,
    Cocycle,
    ExtensionLaw,
    FiniteGroupTable,
    GroupModel,
    ThetaRep,
    check_action,
    check_group_axioms,
    constant_group,
    f1_points_group,
    law_weak_morphism,
    require_group,
    sigma_check,
    tables_isomorphic_by,
    torus_group,
)
from f1kit.linalg import Mat
from f1kit.reductive import (
    _pr2_weak,
    _test_family,
    block_perms,
    coset_subset,
    coset_subset_bijection,
    gl_counting_identity,
    gl_model,
    grassmannian_model,
    lambda_action,
    one_line_perms,
    parabolic_model,
    perm_compose,
    perm_length,
    perm_matrix,
    quotient_model,
    quotient_square_check,
    schubert_dim,
    symmetric_table,
    tau_check,
    universality_check,
)
from f1kit.schemes import (
    WeakMorphism,
    apply_exponent_to_signs,
    check_strong,
    check_weak,
    compose_weak,
    f1_points,
    monomial_morphism,
    mul_signs,
)


def all_compositions(n):
    out = []
    for cuts in range(1 << (n - 1)):
        parts, last = [], 0
        for i in range(1, n):
            if cuts >> (i - 1) & 1:
                parts.append(i - last)
                last = i
        parts.append(n - last)
        out.append(tuple(parts))
    return out


def _inverse(w):
    """Reference inverse of a one-line permutation: w^(-1)(w(i)) = i."""
    return tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))


def test_permutation_helpers():
    assert one_line_perms(3) == tuple(permutations((1, 2, 3)))
    u, v = (2, 3, 1), (1, 3, 2)
    assert perm_compose(u, v) == (2, 1, 3)
    assert _inverse(u) == (3, 1, 2)
    assert perm_compose(u, _inverse(u)) == (1, 2, 3)
    assert perm_length((1, 2, 3)) == 0
    assert perm_length((3, 2, 1)) == 3
    # matrix functoriality P(u)P(v) = P(uv) on every pair in S_3
    for a in one_line_perms(3):
        for b in one_line_perms(3):
            assert perm_matrix(a) * perm_matrix(b) == perm_matrix(perm_compose(a, b))


def test_symmetric_table_orders():
    for n in (1, 2, 3, 4):
        t = symmetric_table(n)
        assert t.order() == math.factorial(n)
        e = t.elements[t.identity]
        assert e == tuple(range(1, n + 1))


COMPOSITIONS = [(n, parts) for n in range(1, 6) for parts in all_compositions(n)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(COMPOSITIONS))
def test_generator_built_tables_match_label_products(case):
    # the Cayley-graph walk against the table of every label product
    n, parts = case
    t = parabolic_model(n, parts).w
    reference = FiniteGroupTable.build(block_perms(n, parts), perm_compose)
    assert t == reference
    assert (t.generators, t.violation) == (reference.generators, reference.violation)


def test_generator_built_s6_matches_label_products():
    assert symmetric_table(6) == FiniteGroupTable.build(one_line_perms(6), perm_compose)


def test_gl_model_multiplies_no_labels(monkeypatch):
    composed = _counting(monkeypatch, reductive, "perm_compose")
    for n in (4, 6):
        gl_model(n)
    assert composed == []


def test_length_generating_function():
    # sum of q^l(w) over S_n is the Gauss factorial [n]_q!
    for n in (1, 2, 3, 4):
        total = IntPolynomial.zero()
        for w in one_line_perms(n):
            total = total + IntPolynomial.q_power(perm_length(w))
        expect = IntPolynomial.one()
        for m in range(1, n + 1):
            expect = expect * IntPolynomial.of(*([1] * m))
        assert total == expect


def test_gl_model_axioms_and_points():
    for n in (1, 2, 3):
        g = gl_model(n)
        assert g.kind == "strong"
        assert check_group_axioms(g).ok
        assert sigma_check(g).ok
        w = f1_points_group(g)
        assert tables_isomorphic_by({x: x for x in w.elements}, w, symmetric_table(n))


def test_gl_counting_identity_through_5():
    for n in range(1, 6):
        lhs, rhs = gl_counting_identity(n)
        assert lhs == rhs
        res = vanishing_order_and_limit(lhs)
        assert res.rho == n
        assert res.limit == math.factorial(n)
    assert gl_counting_identity(2)[0](2) == 6
    assert gl_counting_identity(2)[0](3) == 48


def test_gl_model_poly_matches_identity():
    for n in (1, 2, 3, 4):
        g = gl_model(n)
        assert torification_poly(g.cells) == gl_counting_identity(n)[0]


def test_gl_scale_guard():
    with pytest.raises(OutOfScale):
        gl_model(7)


def test_catalog_guard_messages_name_request_cap_and_override(monkeypatch):
    with pytest.raises(OutOfScale, match=r"^component table guard: 5040\^2 entries = 25401600 "
                       r"exceeds cap 518400 \(scale caps with F1KIT_MAX_SCALE\)$"):
        gl_model(7)
    with pytest.raises(OutOfScale, match=r"^grassmannian cells guard: C\(9, 4\) x 9 positions "
                       r"= 1134 exceeds cap 560 \(scale caps with F1KIT_MAX_SCALE\)$"):
        grassmannian_model(4, 9)
    # the guards count work, not n: S_3 x S_4 has 144 elements, well within the cap
    assert parabolic_model(7, (3, 4)).w.order() == 144
    monkeypatch.setenv("F1KIT_MAX_SCALE", "1/100")
    with pytest.raises(OutOfScale, match=r"^component table guard: 144\^2 entries = 20736 "
                       r"exceeds cap 5184 \(scale caps with F1KIT_MAX_SCALE\)$"):
        parabolic_model(7, (3, 4))


def test_quotient_guard_refuses_before_any_composition(monkeypatch, capsys):
    compositions = []
    monkeypatch.setattr(reductive, "compose_weak", lambda *a: compositions.append(a))
    # the guard counts |S_P| x |W| generator pairs; a scale that refuses
    # gl:N's pairs refuses its |W|^2 component table first, as 6 |S_P| <= |W|,
    # so both models are built at the default caps before the cap drops to
    # 86,400 x 1/17,280 = 5 < 1 x 6 pairs of gl:3 quotient:1
    g, p = gl_model(3), parabolic_model(3, (1, 2))
    monkeypatch.setattr(cli.Selection, "group", property(lambda self: g))
    monkeypatch.setattr(reductive, "parabolic_model", lambda n, parts: p)
    monkeypatch.setenv("F1KIT_MAX_SCALE", "1/17280")
    message = ("quotient square guard: 1 x 6 generator pairs = 6 exceeds cap 5 "
               "(scale caps with F1KIT_MAX_SCALE)")
    assert cli.main(["check", "gl:3", "--suite", "quotient:1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(OutOfScale) as refused:
        reductive.quotient_maps(p, g)
    assert str(refused.value) == message
    assert compositions == []
    # the default cap admits the largest square: gl:6 quotient:1, 4 x 720
    monkeypatch.delenv("F1KIT_MAX_SCALE")

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    # quotient_model is the first thing quotient_maps builds after the guard
    monkeypatch.setattr(reductive, "quotient_model", admitted)
    with pytest.raises(Admitted):
        reductive.quotient_maps(parabolic_model(6, (1, 5)), gl_model(6))


def test_block_perms_and_composition_guard():
    assert block_perms(3, (1, 2)) == ((1, 2, 3), (1, 3, 2))
    assert len(block_perms(4, (2, 2))) == 4
    with pytest.raises(InvalidComposition):
        parabolic_model(3, (1, 1))
    with pytest.raises(InvalidComposition):
        parabolic_model(3, (0, 3))


def test_parabolic_models_all_compositions():
    for n in (2, 3, 4):
        for parts in all_compositions(n):
            p = parabolic_model(n, parts)
            assert check_group_axioms(p).ok, (n, parts)
            # component group is the product of block symmetric groups
            order = math.prod(math.factorial(k) for k in parts)
            assert f1_points_group(p).order() == order
            # blockwise multiplication is the embedded multiplication
            wp = p.w
            for i in range(min(wp.order(), 8)):
                for j in range(min(wp.order(), 8)):
                    u, v = wp.elements[i], wp.elements[j]
                    assert wp.elements[wp.mul(i, j)] == perm_compose(u, v)
            # counting polynomial factors through the blocks
            dim_u = (n * n - sum(k * k for k in parts)) // 2
            expect = IntPolynomial.q_power(dim_u)
            for k in parts:
                expect = expect * gl_counting_identity(k)[0]
            assert torification_poly(p.cells) == expect, (n, parts)
            res = vanishing_order_and_limit(torification_poly(p.cells))
            assert res.rho == n and res.limit == order


def test_parabolic_block_group_isomorphism():
    # explicit isomorphism S_2 x S_2 -> W_P for type (2, 2)
    p = parabolic_model(4, (2, 2))
    prod = symmetric_table(2).product(symmetric_table(2))

    def embed(pair):
        (a, b) = pair
        return a + tuple(x + 2 for x in b)

    iso = {pair: embed(pair) for pair in prod.elements}
    assert tables_isomorphic_by(iso, prod, p.w)


def test_grassmannian_cells_and_polynomial():
    for n in range(0, 9):
        for k in range(0, n + 1):
            gr = grassmannian_model(k, n)
            assert torification_poly(gr.cells) == gauss_binomial(n, k)
            assert len(f1_points(gr)) == math.comb(n, k)
            res = vanishing_order_and_limit(torification_poly(gr.cells))
            assert res.rho == 0 and res.limit == math.comb(n, k)
    assert schubert_dim((1, 2)) == 0
    assert schubert_dim((3, 4)) == 4
    with pytest.raises(OutOfScale):
        grassmannian_model(4, 9)


def test_coset_subset_bijection_examples():
    bij = coset_subset_bijection(2, 4)
    assert bij[(1, 2, 3, 4)] == (1, 2)
    assert bij[(3, 4, 1, 2)] == (3, 4)
    assert len(set(bij.values())) == 6
    bij13 = coset_subset_bijection(1, 3)
    assert sorted(set(bij13.values())) == [(1,), (2,), (3,)]


def test_lambda_action_is_strong_and_an_action():
    for (k, n) in ((1, 2), (1, 3), (2, 4)):
        g = gl_model(n)
        p = parabolic_model(n, (k, n - k))
        lam = lambda_action(p, g)
        assert check_strong(lam.mo_side).ok
        rep = check_weak(lam)
        assert rep.ok and "strong" in rep.notes
        assert check_action(p, g.rank_scheme, lam).ok


def test_lambda_rejects_non_subgroups():
    g3 = gl_model(3)
    g2 = gl_model(2)
    with pytest.raises(NotASubgroup):
        lambda_action(g2, g3)


def test_quotient_square_commutes():
    for (k, n) in ((1, 2), (1, 3), (2, 4)):
        p = parabolic_model(n, (k, n - k))
        g = gl_model(n)
        rep = quotient_square_check(p, g)
        assert rep.ok, (k, n, rep.witness)
        # the quotient scheme is the Grassmannian model
        q, proj = quotient_model(p, g)
        assert torification_poly(q.cells) == gauss_binomial(n, k)
        assert check_strong(proj.mo_side).ok
        assert check_weak(proj).ok


def test_quotient_universality():
    for (k, n) in ((1, 2), (1, 3), (2, 4)):
        p = parabolic_model(n, (k, n - k))
        g = gl_model(n)
        rep = universality_check(p, g)
        assert rep.ok, (k, n, rep.witness)


def test_quotient_needs_two_blocks():
    with pytest.raises(TypeNotMaximal):
        quotient_model(parabolic_model(4, (1, 1, 2)), gl_model(4))
    with pytest.raises(TypeNotMaximal):
        quotient_model(parabolic_model(3, (3,)), gl_model(3))


def test_tau_transport_and_action():
    for (k, n) in ((1, 2), (1, 3), (2, 4)):
        g = gl_model(n)
        rep = tau_check(g, k)
        assert rep.ok, (k, n, rep.witness)
        # spot check the subset action formula on one pair
        sigma = tuple(range(2, n + 1)) + (1,)
        w = one_line_perms(n)[-1]
        transported = coset_subset(perm_compose(w, _inverse(sigma)), k)
        image = tuple(sorted(sigma[a - 1] for a in coset_subset(w, k)))
        assert transported == image


# universality_check's checks before coinvariance came from the square:
# three per family member, plus the control when the parabolic is nontrivial
UNIVERSALITY_CHECKS = {(2, 1): 36, (3, 1): 49, (3, 2): 49, (4, 1): 61, (4, 2): 61, (4, 3): 61}


def test_universality_family_is_coinvariant_by_explicit_composition():
    for (n, k), checks in UNIVERSALITY_CHECKS.items():
        g, p = gl_model(n), parabolic_model(n, (k, n - k))
        lam = lambda_action(p, g)
        pr2 = _pr2_weak(g, lam.z_side.source)
        subsets = quotient_model(p, g)[1].z_side.target.labels()
        family = list(_test_family(g, k, subsets))
        assert len(family) == 4 * (n + 1)
        for f in family:
            assert compose_weak(f, lam) == compose_weak(f, pr2), (n, k, f.z_side.target)
        rep = universality_check(p, g)
        assert rep.ok and rep.checks == checks, (n, k, rep)


def test_universality_fails_when_the_projection_is_not_coset_constant(monkeypatch):
    real = reductive.projection_to_quotient

    def skewed(g, k):
        # move the last component of G to another subset; its coset mates stay
        q, proj = real(g, k)
        targets = list(proj.z_side.targets)
        subsets = proj.z_side.target.labels()
        targets[-1] = next(s for s in subsets if s != targets[-1])
        return q, WeakMorphism(replace(proj.mo_side, targets=tuple(targets)),
                               replace(proj.z_side, targets=tuple(targets)))

    monkeypatch.setattr(reductive, "projection_to_quotient", skewed)
    for (k, n) in ((1, 3), (2, 4)):
        p, g = parabolic_model(n, (k, n - k)), gl_model(n)
        square = quotient_square_check(p, g)
        assert not square.ok
        assert universality_check(p, g) == square
        # the witness is the first generator pair (s, w) where the skewed
        # projection tells s w from w, at its position among |S_P| x |W|
        proj = reductive.projection_to_quotient(g, k)[1].z_side.targets
        gens = [g.w.index(p.w.elements[s]) for s in p.w.generators]
        pairs = [(s, w) for s in gens for w in range(g.w.order())]
        at = next(i for i, (s, w) in enumerate(pairs) if proj[g.w.mul(s, w)] != proj[w])
        s, w = pairs[at]
        assert square.checks == at + 1 <= len(gens) * g.w.order()
        assert square.witness == {"pair": [g.w.elements[s], g.w.elements[w]],
                                  "left": proj[g.w.mul(s, w)], "right": proj[w]}


def test_square_reads_every_generator(monkeypatch):
    # a projection constant on the cosets of the first generator of gl:4's
    # (2, 2) parabolic, (1, 2, 4, 3), but not of the second, (2, 1, 3, 4):
    # only the second generator's pairs can catch it
    real = reductive.projection_to_quotient

    def skewed(g, k):
        q, proj = real(g, k)
        subsets = proj.z_side.target.labels()
        targets = tuple(subsets[(subsets.index(t) + (w.index(1) < w.index(2))) % len(subsets)]
                        for w, t in zip(g.w.elements, proj.z_side.targets))
        return q, WeakMorphism(replace(proj.mo_side, targets=targets),
                               replace(proj.z_side, targets=targets))

    monkeypatch.setattr(reductive, "projection_to_quotient", skewed)
    p, g = parabolic_model(4, (2, 2)), gl_model(4)
    assert [p.w.elements[s] for s in p.w.generators] == [(1, 2, 4, 3), (2, 1, 3, 4)]
    rep = quotient_square_check(p, g)
    assert not rep.ok and 24 < rep.checks <= 48
    assert rep.witness["pair"][0] == (2, 1, 3, 4)


def test_quotient_maps_require_the_ambient_group_law():
    # the square is checked on P's generators only, which needs g's law to
    # be a group law; here g's table breaks the unit in a row outside P, so
    # p still passes the subgroup test
    g, p = gl_model(3), parabolic_model(3, (1, 2))
    rows = [list(row) for row in g.w.mult]
    rows[-1][:2] = rows[-1][1::-1]
    w = FiniteGroupTable(g.w.elements, tuple(map(tuple, rows)), g.w.identity, g.w.inverses)
    bad = GroupModel(ExtensionLaw(ThetaRep(w, 3, g.law.theta.matrices), Cocycle.trivial(w, 3)), g.cells)
    reductive._require_subgroup(p, bad)
    with pytest.raises(AxiomsFailed):
        reductive.quotient_maps(p, bad)


def test_universality_control_is_live():
    # with pr2 replaced by lambda the square holds trivially and every
    # test map factors, so only the control can fail, and it must
    for (n, k), checks in UNIVERSALITY_CHECKS.items():
        g, p = gl_model(n), parabolic_model(n, (k, n - k))
        proj, lam, _ = reductive.quotient_maps(p, g)
        rep = universality_check(p, g, maps=(proj, lam, lam))
        if p.w.order() == 1:
            assert rep.ok, (n, k)       # no coset to separate, no control
        else:
            assert not rep.ok and rep.checks == checks, (n, k, rep)
            assert rep.witness == {"reason": "non-coinvariant control passed"}


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_universality_composition_count(monkeypatch):
    # the square's two compositions, one factorization per distinct family
    # member (14 of 20 on gl:4: a second variant without a -1 to place is
    # the first one again), and the control's two; explicit coinvariance took 62
    calls = _counting(monkeypatch, reductive, "compose_weak")
    assert universality_check(parabolic_model(4, (2, 2)), gl_model(4)).ok
    assert len(calls) == 2 + 14 + 2


def test_factorizations_share_their_blocks(monkeypatch):
    # compose_weak(h, proj) forms each product, comap composition and sign
    # push once per distinct input objects: proj and h each share one
    # block and one comap, and h carries f's sign objects, +1 and -1 (on
    # rank 0 targets every sign vector is the empty tuple)
    real, shares = reductive.compose_weak, []

    def composed(g, f):
        out = real(g, f)
        shares.append((len(out.z_side.targets),) + tuple(
            len({id(x) for x in xs})
            for xs in (out.z_side.exponents, out.mo_side.comaps, out.z_side.signs)))
        return out

    monkeypatch.setattr(reductive, "compose_weak", composed)
    assert universality_check(parabolic_model(4, (2, 2)), gl_model(4)).ok
    # the square's two over 2 generators x 24 components, then 14
    # factorizations h . proj over the 24 components of G: targets of rank
    # 0 (2 maps), then of rank 1 to 4, where only the second variant on six
    # target components puts -1 on some of them, and the control's two
    assert [s[0] for s in shares] == [48, 48] + [24] * 14 + [48, 48]
    assert shares[2:16] == [(24, 1, 1, 1)] * 2 + ([(24, 1, 1, 1)] * 2 + [(24, 1, 1, 2)]) * 4


def test_self_action_work_counts(monkeypatch):
    g = gl_model(3)
    y, act = g.rank_scheme, law_weak_morphism(g)
    lookups = _counting(monkeypatch, schemes.RankScheme, "index")
    products = _counting(monkeypatch, Mat, "__mul__")
    rep = check_action(g, y, act)
    assert rep.ok and rep.checks == 2 * (6 + 6 * 6 * 6)
    # components are read by position, targets from each half's stored
    # target positions: no label lookup
    assert lookups == []
    # gl_model verified theta already, and each product runs once per pair
    # of block objects (the law's identity block A is not multiplied): per
    # side, A(ij) theta_i, B_i A_j and B_i B_j for the 6 x 2 pairs (i, j)
    assert len(products) == 3 * 2 * 6 * 2


def test_sigma_reads_the_cocycle_verdict(monkeypatch):
    g = gl_model(4)
    values = _counting(monkeypatch, groups.Cocycle, "value")
    rep = sigma_check(g)
    assert rep.ok and rep.checks == 24 * 24 + 24
    assert values == []


LAW_KERNELS = ("table_violation", "theta_violation", "cocycle_violation")


def test_suite_runs_each_law_kernel_once_per_law(monkeypatch):
    runs = {name: _counting(monkeypatch, groups, name) for name in LAW_KERNELS}
    assert cli.main(["check", "gl:4", "--suite", "group,action,strongweak,quotient:2"]) == 0
    # two laws, gl:4 and its 2+2 parabolic, each verified where it is built;
    # the group, action and tau checks read the stored verdicts
    assert {name: len(calls) for name, calls in runs.items()} == dict.fromkeys(LAW_KERNELS, 2)


def test_law_verdicts_wait_for_a_check(monkeypatch):
    z3 = FiniteGroupTable.cyclic(3)
    runs = {name: _counting(monkeypatch, groups, name) for name in LAW_KERNELS}
    torus_group(200)        # no 200^3 determinant before a check asks
    c = constant_group(FiniteGroupTable(z3.elements, z3.mult, z3.identity, z3.inverses))
    assert sum(map(len, runs.values())) == 0
    for _ in range(2):
        assert check_group_axioms(c).ok
        require_group(c)
    assert {name: len(calls) for name, calls in runs.items()} == dict.fromkeys(LAW_KERNELS, 1)


def test_strongweak_validates_each_comap_once(monkeypatch):
    sel = cli.parse_selector("gl:4")
    homs = _counting(monkeypatch, schemes, "validate_hom")
    transposes = _counting(monkeypatch, Mat, "transpose")
    rep = cli._run_check("strongweak", sel)
    assert rep.ok and rep.checks == 1202
    # 24 law comaps (one per row i), 1 unit comap, 24 inversion comaps
    assert len(homs) == 24 + 1 + 24
    # one transpose builds each comap; the strong test compares each comap
    # with its block entry by entry
    assert len(transposes) == 24 + 1 + 24


def test_quotient_suite_builds_each_morphism_once(monkeypatch):
    sel = cli.parse_selector("gl:4")
    # cli imports the square from reductive at call time, so one count sees
    # both its call and any through universality_check
    squares = _counting(monkeypatch, reductive, "quotient_square_check")
    lambdas = _counting(monkeypatch, reductive, "_left_translation")
    whole_lambdas = _counting(monkeypatch, reductive, "lambda_action")
    quotients = _counting(monkeypatch, reductive, "quotient_model")
    pr2s = _counting(monkeypatch, reductive, "_pr2_weak")
    compositions = _counting(monkeypatch, reductive, "compose_weak")
    recognitions = _counting(monkeypatch, reductive, "_recognize_two_block")
    products = _counting(monkeypatch, reductive, "product_scheme")
    grassmannians = _counting(monkeypatch, reductive, "grassmannian_model")
    rep = cli._run_check("quotient:2", sel)
    assert rep.ok
    assert (len(squares), len(lambdas), len(pr2s)) == (1, 1, 1)
    # lambda on S_P x G only, never on all of P x G
    assert whole_lambdas == []
    # G x Q once for tau (S_P x G, once for lambda and pr2, is formed in
    # groups' left translation); the quotient once
    assert (len(products), len(grassmannians), len(quotients)) == (1, 1, 1)
    # universality reads k off the quotient's labels
    assert len(recognitions) == 1
    # the square's two, one factorization per distinct family member, the control's two
    assert len(compositions) == 2 + 14 + 2


def test_quotient_suite_lookups_and_products(monkeypatch):
    # each composition forms one product per distinct pair of blocks, and
    # no step looks a label up: compositions and shape checks read stored
    # target positions
    sel = cli.parse_selector("gl:4")
    lookups = _counting(monkeypatch, schemes.RankScheme, "index")
    products = _counting(monkeypatch, Mat, "__mul__")
    assert cli._run_check("quotient:2", sel).ok
    assert lookups == [] and len(products) <= 192


def test_quotient_suite_composes_on_the_generators(monkeypatch):
    # lambda and pr2 live on S_P x G: no composite of the gl:5 quotient:1
    # suite exceeds 3 generators of S_1 x S_4 x 120 components (the whole
    # P x G had 24 x 120 = 2,880)
    real, sizes = reductive.compose_weak, []

    def composed(g, f):
        out = real(g, f)
        sizes.append(len(out.z_side.targets))
        return out

    monkeypatch.setattr(reductive, "compose_weak", composed)
    assert cli._run_check("quotient:1", cli.parse_selector("gl:5")).ok
    assert max(sizes) == 360 and sizes.count(360) == 4


def test_tau_check_reads_the_component_table(monkeypatch):
    g = gl_model(4)
    composed = _counting(monkeypatch, reductive, "perm_compose")
    subsets = _counting(monkeypatch, reductive, "coset_subset")
    assert tau_check(g, 2).ok
    assert composed == []
    assert len(subsets) == g.w.order()


def test_quotient_suite_requires_the_subgroup_once(monkeypatch):
    sel = cli.parse_selector("gl:4")
    for suite in ("quotient:1", "quotient:2"):
        calls = _counting(monkeypatch, reductive, "_require_subgroup")
        assert cli._run_check(suite, sel).ok
        assert len(calls) == 1, suite


def test_subgroup_test_compares_the_cocycle_and_the_monoid_law():
    g, p = gl_model(4), parabolic_model(4, (2, 2))
    # the coboundary c(u, v) = s_u theta_u(s_v) s_uv of s, s_e = +1 and
    # s_u = (-1, 1, 1, 1) elsewhere: a group law, but not gl:4's restricted
    s = [(1,) * 4 if u == p.w.identity else (-1, 1, 1, 1) for u in range(p.w.order())]
    table = tuple(tuple(mul_signs(mul_signs(s[u], apply_exponent_to_signs(p.law.theta.matrix(u), s[v])),
                                  s[p.w.mul(u, v)])
                        for v in range(p.w.order())) for u in range(p.w.order()))
    signed = GroupModel(ExtensionLaw(p.law.theta, Cocycle(p.w, p.r, table)), p.cells)
    assert not signed.law.cocycle.is_trivial
    assert check_group_axioms(signed).ok
    with pytest.raises(NotASubgroup, match="cocycle differs"):
        reductive._require_subgroup(signed, g)
    with pytest.raises(NotASubgroup, match="cocycle differs"):
        quotient_model(signed, g)
    with pytest.raises(NotASubgroup, match="cocycle differs"):
        reductive.quotient_maps(signed, g)
    # the same cocycle on both sides is a subgroup again
    reductive._require_subgroup(signed, signed)
    with pytest.raises(NotASubgroup, match="monoid law"):
        reductive._require_subgroup(GroupModel(p.law, p.cells, PRODUCT), g)


def test_universality_fails_where_a_test_map_is_not_constant_on_a_fiber(monkeypatch):
    # one family member is changed at the second element of the first
    # element's fiber: its target where it has several target components,
    # else its signs; h reads the first element, so h . proj differs from f
    real = reductive._test_family

    def changed_at(member):
        def family(g, k, subsets):
            for number, f in enumerate(real(g, k, subsets)):
                if number != member:
                    yield f
                    continue
                z, first = f.z_side, coset_subset(g.w.elements[0], k)
                at = next(i for i, w in enumerate(g.w.elements) if i and coset_subset(w, k) == first)
                targets, signs, labels = list(z.targets), list(z.signs), z.target.labels()
                if len(labels) > 1:
                    targets[at] = next(t for t in labels if t != targets[at])
                else:
                    signs[at] = tuple(-x for x in signs[at])
                yield monomial_morphism(z.source, z.target, targets, z.exponents, signs)
        return family

    p, g = parabolic_model(4, (2, 2)), gl_model(4)
    # member 2: rank 0 targets on six components; member 4: one rank-1 target
    for member in (2, 4):
        monkeypatch.setattr(reductive, "_test_family", changed_at(member))
        rep = universality_check(p, g)
        checks = 3 * (member + 1)
        assert not rep.ok and rep.checks == checks - 1, (member, rep)
        assert rep.witness["reason"] == "factorization does not recover the map"


def test_tau_transport_reads_the_generators_only(monkeypatch):
    g = gl_model(4)
    seen = []
    real = FiniteGroupTable.inv
    monkeypatch.setattr(FiniteGroupTable, "inv", lambda self, i: seen.append(i) or real(self, i))
    rep = tau_check(g, 2)
    # one row of |W| = 24 cosets w sigma^(-1) per generator sigma: 3 x 24 pairs
    assert seen == list(g.w.generators) and len(seen) == 3
    assert rep.ok and rep.checks == 24 * 24 + check_action(g, *reductive.tau_morphism(g, 2)).checks


def test_tau_wrong_off_the_generators_fails_the_action_check(monkeypatch):
    real = reductive.tau_morphism
    g, k = gl_model(4), 2
    n = g.w.order()
    sigma = g.w.elements.index((4, 3, 2, 1))    # the longest element, no generator
    assert sigma not in g.w.generators

    def skewed(g, k, qrk=None):
        # sigma moves the first subset to a wrong one; every other pair is right
        qrk, tau = real(g, k, qrk)
        c, z = len(qrk.components), tau.z_side
        targets = list(z.targets)
        targets[sigma * c] = next(a for a in qrk.labels() if a != targets[sigma * c])
        return qrk, monomial_morphism(z.source, qrk, targets, z.exponents)

    monkeypatch.setattr(reductive, "tau_morphism", skewed)
    rep = tau_check(g, k)
    assert not rep.ok and rep.checks > n * n, rep
    assert rep.witness["diagram"] == "action-associativity"
