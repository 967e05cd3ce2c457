import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from parastd.errors import (
    AllCoefficientsInQ,
    DimensionMismatch,
    NonTerminatingOrder,
    QContainsOne,
    SampleOffVariety,
    SampleOnExcludedLocus,
    TruncationTooSmall,
)
from parastd.orders import grevlex, lex, matrix_order, neg_grevlex
from parastd.polyring import AScalar, ParamPoly, ParamScalar, render_ascalar
from parastd.division import divide, divide_series
from parastd import genstd
from parastd.genstd import (
    _leading_exponent_at,
    _normalize_h_factors,
    GenericBasis,
    PrimeContext,
    Staircase,
    coeff_in_q,
    divide_mod_q,
    drop_q_terms,
    generic_basis,
    generic_reduced_basis,
    plain_staircase,
    verify_specialization,
)

from conftest import (INTRO_ORDER, INTRO_VARS, P, divides_factor_power,
                      leading_mod_q, outside_input_ideal, random_poly, record_calls,
                      s_criterion_mod_q)

A = AScalar.var(0, 1)
CTX0 = PrimeContext.trivial(1)


def ctx_a():
    return PrimeContext.from_generators([A], 1)


@pytest.fixture
def intro():
    return P("a*x2 - x1*x2 + x1")


# ---------------------------------------------------------------------------
# leading data mod Q


def test_leading_mod_q_intro(intro):
    e, _ = leading_mod_q(intro, INTRO_ORDER, ctx_a())
    assert e == (1, 0)
    e0, c0 = leading_mod_q(intro, INTRO_ORDER, CTX0)
    assert e0 == (0, 1)
    assert c0 == ParamScalar(A)


def test_leading_mod_q_all_in_q():
    with pytest.raises(AllCoefficientsInQ):
        leading_mod_q(P("a*x1"), INTRO_ORDER, ctx_a())


def test_q_contains_one_rejected():
    with pytest.raises(QContainsOne):
        PrimeContext.from_generators([AScalar.one(1)], 1)


# ---------------------------------------------------------------------------
# division modulo Q


def test_divide_mod_q_trivial_q_matches_plain(intro):
    # with Q = 0 every divisor survives whole: the plain series division
    f = P("a*x1*x2")
    res = divide_mod_q(f, [intro], INTRO_ORDER, CTX0, trunc_degree=4)
    plain = divide_series(f, [intro], INTRO_ORDER, 4, remainder_only=True)
    assert res.quotients == plain.quotients
    assert res.remainder == plain.remainder


def test_divide_mod_q_intro_replay(intro):
    # hand replay: the a*x2 head escapes to the remainder, then the
    # surviving part -x1*x2 + x1 divides f minus that head exactly once
    ctx = ctx_a()
    res = divide_mod_q(intro, [intro], INTRO_ORDER, ctx, trunc_degree=4)
    assert res.quotients[0] == P("1")
    assert res.remainder == P("a*x2")
    # identity f = q g1 + R, with g1 the part of g that survives mod Q
    g1 = drop_q_terms(intro, ctx)
    assert g1 == P("-x1*x2 + x1")
    assert res.quotients[0] * g1 + res.remainder == intro
    # remainder is 0 mod Q since f lies in the ideal
    assert drop_q_terms(res.remainder, ctx).is_zero()


def test_drop_q_terms_keeps_f_when_no_term_drops(intro):
    # f itself, with the keyed terms it has cached, goes on to the division
    for ctx in (CTX0, ctx_a()):
        kept = P("-x1*x2 + x1")
        assert drop_q_terms(kept, ctx) is kept
    assert drop_q_terms(intro, CTX0) is intro
    assert drop_q_terms(intro, ctx_a()) == P("-x1*x2 + x1")


def test_an_empty_q_hashes_no_coefficient(intro, monkeypatch):
    # under Q = 0 membership is the zero test: no memo, so no hash
    hashed = record_calls(monkeypatch, AScalar, "__hash__")
    f = P("(a + 1)*x1^3 - x2^2 + a*x1*x2")
    res = divide_mod_q(f, [intro], INTRO_ORDER, CTX0, trunc_degree=5)
    assert coeff_in_q(ParamScalar(AScalar.zero(1)), CTX0)
    assert not CTX0.contains(A)
    assert hashed == []
    assert res.remainder == divide_series(f, [intro], INTRO_ORDER, 5,
                                          remainder_only=True).remainder


def test_divide_mod_q_local_inhomogeneous_needs_trunc_degree(intro):
    with pytest.raises(NonTerminatingOrder):
        divide_mod_q(intro, [intro], INTRO_ORDER, ctx_a())


def test_divide_mod_q_refuses_a_divisor_that_vanishes_mod_q():
    # every coefficient of the divisor lies in Q = <a>
    ab = ("a", "b")
    ctx = PrimeContext.from_generators([AScalar.var(0, 2)], 2)
    with pytest.raises(AllCoefficientsInQ, match="divisor vanishes mod Q"):
        divide_mod_q(P("x1", ab), [P("a*x1 + a*b*x2", ab)], grevlex(2), ctx)


def test_divide_mod_q_specialization_consistency():
    # dividing after specialization matches specializing the division
    rng = random.Random(19)
    order = grevlex(2)
    for _ in range(10):
        f = random_poly(rng, 2, 1, max_terms=4, max_exp=3)
        g1 = random_poly(rng, 2, 1, max_terms=3, max_exp=2)
        g2 = random_poly(rng, 2, 1, max_terms=2, max_exp=2)
        res = divide_mod_q(f, [g1, g2], order, CTX0)
        for point in [(Fraction(1),), (Fraction(3),)]:
            try:
                lead_ok = all(
                    g.specialize(point).leading(order)[0] == g.leading(order)[0]
                    for g in (g1, g2) if not g.specialize(point).is_zero())
            except Exception:
                continue
            if not lead_ok or g1.specialize(point).is_zero() \
                    or g2.specialize(point).is_zero():
                continue
            direct = divide(f.specialize(point),
                            [g1.specialize(point), g2.specialize(point)], order)
            assert direct.remainder == res.remainder.specialize(point)
            for q, qs in zip(res.quotients, direct.quotients):
                assert q.specialize(point) == qs


# ---------------------------------------------------------------------------
# generic bases, well order route


def test_well_order_principal_q0():
    F = [P("a*x1 + x2")]
    B = generic_basis(F, lex(2), CTX0)
    assert B.staircase.generators == ((1, 0),)
    assert B.h_poly() == A
    assert B.gens == F


def test_well_order_principal_q_a():
    F = [P("a*x1 + x2")]
    B = generic_basis(F, lex(2), ctx_a())
    assert B.staircase.generators == ((0, 1),)
    assert B.h_poly().is_constant()


def test_generic_basis_refuses_a_context_of_another_parameter_count():
    with pytest.raises(DimensionMismatch, match="parameter count mismatch"):
        generic_basis([P("a*x1 + x2")], lex(2), PrimeContext.trivial(2))


def test_well_order_inputs_inside_q():
    F = [P("a*x1"), P("a*x2 - a")]
    B = generic_basis(F, lex(2), ctx_a())
    assert B.gens == []
    assert not B.staircase.generators


# ---------------------------------------------------------------------------
# generic bases, homogenization route


def test_local_intro_q0(intro):
    B = generic_basis([intro], INTRO_ORDER, CTX0)
    assert B.staircase.generators == ((0, 1),)
    assert B.h_poly() == A
    assert len(B.gens) == 1
    assert B.gens[0] == intro


def test_local_intro_q_a(intro):
    B = generic_basis([intro], INTRO_ORDER, ctx_a())
    assert B.staircase.generators == ((1, 0),)
    assert B.h_poly().is_constant()


def test_local_trivial_monomial():
    B = generic_basis([P("x1")], INTRO_ORDER, ctx_a())
    assert B.staircase.generators == ((1, 0),)
    assert B.h_poly().is_constant()
    assert B.gens[0] == P("x1")


def test_local_degenerate_top_degree():
    # every top-degree coefficient lies in Q; the pre-drop keeps h out of Q
    F = [P("a*x1^2 + x2")]
    B = generic_basis(F, INTRO_ORDER, ctx_a())
    assert B.staircase.generators == ((0, 1),)
    assert not B.ctx.contains(B.h_poly())


def test_membership_certificates_exact(intro):
    # every generator lies in the ideal of the inputs, by a sympy oracle
    sympy = pytest.importorskip("sympy")
    one = AScalar.one(1)
    ctx_a_minus_1 = PrimeContext.from_generators([A - one], 1)
    # homogeneous route with a term dropped mod Q: a*x2 lies in Q = <a>, so
    # the generator g differs from its rewrite into the input by its image
    assert drop_q_terms(intro, ctx_a()) != intro
    cases = [([intro], INTRO_ORDER, ctx_a())]
    for ctx in (CTX0, ctx_a()):
        cases.append(([intro, P("x1^2 - a*x1")], INTRO_ORDER, ctx))
    # well-order route, with and without Q generators in the engine
    for ctx in (CTX0, ctx_a_minus_1):
        cases.append(([P("a*x1 + x2"), P("x1*x2 + a")], grevlex(2), ctx))
    # inputs with a parameter denominator: the cleared input is in the
    # ideal, and the denominator is excluded through h
    for text, den in (("x1/a + x2", A), ("x1/(a+1) + x2", A + one)):
        for order in (grevlex(2), INTRO_ORDER):
            for ctx in (CTX0, ctx_a_minus_1):
                cases.append(([P(text), P("x1^2 - a*x1")], order, ctx))
                assert den in [f for f, _ in generic_basis(*cases[-1]).h_factors]
    for F, order, ctx in cases:
        B = generic_basis(F, order, ctx)
        assert B.gens
        assert outside_input_ideal(B, sympy) == []


def test_h_factors_are_square_free_and_coprime():
    # h = (a - 1)*(a^2 + 8)^3: stored with exact powers, not as the
    # square-free part (a - 1)*(a^2 + 8) and the leftover (a^2 + 8)^2
    B = generic_basis([P("(a - 1)*(a^2 + 8)^3*x1^2 + x2")], grevlex(2), CTX0)
    assert B.h_factors == [(A - AScalar.one(1), 1), (A * A + AScalar.const(8, 1), 3)]


# irreducible, primitive, pairwise coprime factors of Q[a]
H_POOL = [A, A - AScalar.one(1), A + AScalar.const(2, 1), A * A + AScalar.const(8, 1),
          A * A - A + AScalar.const(3, 1)]


@given(st.lists(st.tuples(st.lists(st.integers(min_value=0, max_value=3),
                                   min_size=len(H_POOL), max_size=len(H_POOL)),
                          st.sampled_from([1, -1, 3, Fraction(-1, 2)])),
                min_size=1, max_size=4))
def test_h_factor_base_keeps_exact_powers(inputs):
    factors = []
    for powers, const in inputs:
        f = AScalar.const(const, 1)
        for p, k in zip(H_POOL, powers):
            for _ in range(k):
                f = f * p
        factors.append(f)
    total = [sum(col) for col in zip(*(powers for powers, _ in inputs))]
    out = _normalize_h_factors(factors)
    for f, k in out:
        # square-free: a product of distinct pool factors, each with power k
        rest, used = f, 0
        for p, t in zip(H_POOL, total):
            q = rest.exact_div(p)
            if q is not None:
                rest, used = q, used + 1
                assert t == k
        assert used and rest.is_constant()
    # coprime and complete: each pool factor of h sits in exactly one factor
    for p, t in zip(H_POOL, total):
        assert sum(f.exact_div(p) is not None for f, _ in out) == (1 if t else 0)


def test_h_factors_split_each_distinct_input_once(monkeypatch):
    # repeated inputs add up their powers; the factors and powers are the
    # ones each input split apart gives, and inputs with one primitive part
    # (3*a and a, a*b - b and 2*(a*b - b)) share one split
    texts = ["(a - 1)^2*(a^2 + 8)", "a", "(a - 1)^2*(a^2 + 8)", "3*a", "a",
             "(a^2 + 8)^3", "a*b - b", "a", "2*(a*b - b)"]
    inputs = [P(t, params=("a", "b"), vars=("x",)).terms[(0,)].num for t in texts]
    split = record_calls(monkeypatch, genstd, "squarefree_factors")
    out = _normalize_h_factors(inputs)
    assert [(render_ascalar(f, ("a", "b")), k) for f, k in out] == [
        ("a - 1", 6), ("b", 2), ("a", 4), ("a^2 + 8", 5)]
    assert len(split) == len({f.primitive() for f in inputs}) == 4


def test_h_factors_split_associates_once(monkeypatch):
    # a + b, -3*a - 3*b and -27*a - 27*b share one primitive part; the
    # constant 4 is no factor
    inputs = [P(t, params=("a", "b"), vars=("x",)).terms[(0,)].num
              for t in ("a + b", "-3*a - 3*b", "-27*a - 27*b", "4")]
    split = record_calls(monkeypatch, genstd, "squarefree_factors")
    out = _normalize_h_factors(inputs)
    assert [(render_ascalar(f, ("a", "b")), k) for f, k in out] == [("a + b", 3)]
    assert len(split) == 1


def test_lc_numerators_divide_h(intro):
    B = generic_basis([intro, P("x1^2 - a*x1")], INTRO_ORDER, CTX0)
    for g in B.gens:
        _, c = leading_mod_q(g, B.order, B.ctx)
        num = c.num.primitive()
        if not num.is_constant():
            assert divides_factor_power(num, [f for f, _ in B.h_factors])


def test_s_criterion_mod_q_holds(intro):
    for ctx in (CTX0, ctx_a()):
        B = generic_basis([intro, P("x1^2 - a*x1")], INTRO_ORDER, ctx)
        assert s_criterion_mod_q(B, trunc_degree=6)
    B2 = generic_basis([P("a*x1 + x2"), P("x1*x2 + a")], grevlex(2), CTX0)
    assert s_criterion_mod_q(B2)


# ---------------------------------------------------------------------------
# generic reduced bases


def test_reduced_intro_series(intro):
    B = generic_basis([intro], INTRO_ORDER, CTX0)
    R3 = generic_reduced_basis(B, 3)
    assert R3.gens == [P("x2 + (1/a)*x1 + (1/a^2)*x1^2 + (1/a^3)*x1^3")]
    R1 = generic_reduced_basis(B, 1)
    assert R1.gens == [P("x2 + (1/a)*x1")]
    assert R3.staircase == B.staircase


def test_reduced_fixed_point_global():
    F = [P("a*x1 + x2")]
    B = generic_basis(F, lex(2), CTX0)
    R = generic_reduced_basis(B, 5)
    assert R.gens == [P("x1 + (1/a)*x2")]
    # reducing an already reduced basis changes nothing
    R2 = generic_reduced_basis(R, 5)
    assert R2.gens == R.gens


def test_reduced_trunc_too_small():
    F = [P("x1^2"), P("x2^3")]
    B = generic_basis(F, INTRO_ORDER, CTX0)
    with pytest.raises(TruncationTooSmall):
        generic_reduced_basis(B, 1)


def test_reduced_denominators_divide_h_power(intro):
    B = generic_basis([intro], INTRO_ORDER, CTX0)
    R = generic_reduced_basis(B, 4)
    for g in R.gens:
        for c in g.terms.values():
            if not c.den.is_constant():
                assert divides_factor_power(c.den, [f for f, _ in R.h_factors])


def test_reduced_tails_leave_staircase(intro):
    for ctx in (CTX0, ctx_a()):
        B = generic_basis([intro, P("x1^3")], INTRO_ORDER, ctx)
        R = generic_reduced_basis(B, 5)
        for g, e in zip(R.gens, R.staircase.generators):
            for e2 in g.terms:
                if e2 != e:
                    assert not R.staircase.contains(e2)


def test_reduced_uniqueness_mod_q(intro):
    # different generating sets of the intro ideal give reduced bases whose
    # difference has all coefficient numerators in Q
    mult = P("x1 + 1") * intro
    for ctx in (CTX0, ctx_a()):
        B1 = generic_basis([intro], INTRO_ORDER, ctx)
        B2 = generic_basis([mult, intro], INTRO_ORDER, ctx)
        R1 = generic_reduced_basis(B1, 4)
        R2 = generic_reduced_basis(B2, 4)
        assert R1.staircase == R2.staircase
        for g1, g2 in zip(R1.gens, R2.gens):
            diff = g1 - g2
            for c in diff.terms.values():
                assert ctx.contains(c.num)


# ---------------------------------------------------------------------------
# specialization theorem


def test_verify_specialization_intro(intro):
    B = generic_basis([intro], INTRO_ORDER, CTX0)
    rep = verify_specialization(
        B, [(Fraction(1),), (Fraction(2),), (Fraction(-3),)])
    assert all(c.ok for c in rep)
    for c in rep:
        assert c.got.generators == ((0, 1),)


def test_verify_notes_a_generator_that_loses_its_lead(intro):
    # without its h factors, a = 0 is admissible, and there the intro
    # generator's lead a*x2 vanishes: its specialization leads with x1
    G = generic_basis([intro], INTRO_ORDER, CTX0)
    B = GenericBasis(G.gens, G.leads, [], G.ctx, G.staircase, G.order, G.inputs)
    rep = verify_specialization(B, [(Fraction(0),)])
    assert [(c.ok, c.got.generators, c.note) for c in rep] == [
        (False, ((1, 0),), "generator lost its leading exponent")]


def test_verify_rejects_excluded_point(intro):
    B = generic_basis([intro], INTRO_ORDER, CTX0)
    with pytest.raises(SampleOnExcludedLocus):
        verify_specialization(B, [(Fraction(0),)])


def test_verify_rejects_a_root_of_a_repeated_h_factor():
    # (a - 1)^2 from the lead and again from the top degree: h = (a - 1)^4
    B = generic_basis([P("(a - 1)^2*x2 + x1")], INTRO_ORDER, CTX0)
    assert [k for _, k in B.h_factors] == [4]
    with pytest.raises(SampleOnExcludedLocus):
        verify_specialization(B, [(Fraction(1),)])


def test_verify_rejects_off_variety_point(intro):
    B = generic_basis([intro], INTRO_ORDER, ctx_a())
    with pytest.raises(SampleOffVariety):
        verify_specialization(B, [(Fraction(1),)])


def test_verify_well_order_example():
    B = generic_basis([P("a*x1 + x2")], lex(2), CTX0)
    rep = verify_specialization(B, [(Fraction(5),)])
    assert all(c.ok for c in rep)
    assert rep[0].got.generators == ((1, 0),)


def test_verify_on_v_q_point(intro):
    B = generic_basis([intro], INTRO_ORDER, ctx_a())
    rep = verify_specialization(B, [(Fraction(0),)])
    assert all(c.ok for c in rep)
    assert rep[0].got.generators == ((1, 0),)


def test_staircase_genericity_random_samples():
    rng = random.Random(23)
    cases = [
        ([P("a*x2 - x1*x2 + x1")], INTRO_ORDER),
        ([P("3*x1^2 + a*x2"), P("3*x2^2 + a*x1")], INTRO_ORDER),
        ([P("a*x1 + x2")], lex(2)),
        ([P("a*x1^2 + x2"), P("x1*x2 + a")], grevlex(2)),
        ([P("3*x1^2 + 2*a*x1"), P("2*x2")], neg_grevlex(2)),
    ]
    for F, order in cases:
        B = generic_basis(F, order, CTX0)
        h = B.h_poly()
        points = []
        while len(points) < 10:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if h.evaluate((c,)) != 0 and (c,) not in points:
                points.append((c,))
        assert all(c.ok for c in verify_specialization(B, points))


def test_plain_staircase_of_specialized_ideal():
    F = [P("x1^2 - x2", params=(), vars=INTRO_VARS).specialize(())]
    st = plain_staircase(F, INTRO_ORDER)
    assert st.generators == ((0, 1),)  # locally x2 leads x1^2


PLAIN_ORDERS = [lex(2), grevlex(2), neg_grevlex(2), INTRO_ORDER,
                matrix_order([[1, -1], [1, 0]])]  # global, local and mixed


@given(st.integers(0, 10**6), st.sampled_from(PLAIN_ORDERS), st.integers(0, 2))
def test_plain_staircase_matches_generic_basis(seed, order, zeros):
    # the engine run on the ideal itself agrees with the generic basis
    # over a trivial Q, with zero inputs and fractional coefficients mixed in
    rng = random.Random(seed)
    F = [random_poly(rng, 2, 0, max_terms=3, max_exp=2, integral=False)
         for _ in range(rng.randint(1, 3))]
    for _ in range(zeros):
        F.insert(rng.randint(0, len(F)), ParamPoly.zero(2, 0))
    expected = generic_basis(F, order, PrimeContext.trivial(0)).staircase
    assert plain_staircase([f.specialize(()) for f in F], order) == expected


def test_plain_staircase_of_zero_polynomials():
    # every generator vanishes at a = 0: the zero ideal has no staircase
    F = [P("a*x1").specialize((Fraction(0),)), ParamPoly.zero(2, 0).specialize(())]
    for order in (INTRO_ORDER, grevlex(2)):
        assert plain_staircase(F, order) == Staircase(2, ())


def test_prime_context_answers_each_question_once(monkeypatch):
    calls = record_calls(monkeypatch, genstd, "normal_form_param")
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    ctx = PrimeContext.from_generators([a * a - b], 2)
    for _ in range(2):
        assert ctx.contains(a * a * b - b * b)
        assert not ctx.contains(a * b)
    assert [s for s, _ in calls] == [a * a * b - b * b, a * b]
    # the answers live in the context: a new one asks again
    assert not PrimeContext.from_generators([a * a - b], 2).contains(a * b)
    assert len(calls) == 3


def test_point_prime_context(intro):
    # Q = <a - 2>: a rational point of the parameter line
    two = AScalar.const(2, 1)
    ctx = PrimeContext.from_generators([A - two], 1)
    B = generic_basis([intro], INTRO_ORDER, ctx)
    assert B.staircase.generators == ((0, 1),)
    rep = verify_specialization(B, [(Fraction(2),)])
    assert all(c.ok for c in rep)
    assert s_criterion_mod_q(B, trunc_degree=5)


def test_pipeline_fuzz_against_specialization_oracle():
    # random parametric ideals through both routes, checked from scratch
    rng = random.Random(2718)
    orders = [lex(2), grevlex(2), neg_grevlex(2), INTRO_ORDER,
              matrix_order([[1, -1], [1, 0]])]  # includes a mixed order
    runs = 0
    for trial in range(40):
        order = orders[trial % len(orders)]
        F = [random_poly(rng, 2, 1, max_terms=3, max_exp=2)
             for _ in range(rng.randint(1, 2))]
        for qgens in ([], [A]):
            ctx = PrimeContext.from_generators(qgens, 1)
            try:
                B = generic_basis(F, order, ctx)
            except AllCoefficientsInQ:
                continue
            h = B.h_poly()
            points, tries = [], 0
            while len(points) < 3 and tries < 50:
                tries += 1
                c = (Fraction(0),) if qgens else \
                    (Fraction(rng.randint(-8, 8), rng.randint(1, 3)),)
                if h.evaluate(c) != 0 and c not in points \
                        and all(q.evaluate(c) == 0 for q in qgens):
                    points.append(c)
            if points:
                assert all(c.ok for c in verify_specialization(B, points))
                runs += 1
    assert runs > 30


def test_two_parameter_prime_line():
    # Q = <a + b>: on that line the input degenerates to a*(x1 - x2)
    params = ("a", "b")
    f = P("a*x1 + b*x2", params=params)
    a = AScalar.var(0, 2)
    b = AScalar.var(1, 2)
    ctx = PrimeContext.from_generators([a + b], 2)
    B = generic_basis([f], lex(2), ctx)
    assert B.staircase.generators == ((1, 0),)
    pts = [(Fraction(1), Fraction(-1)), (Fraction(-3), Fraction(3)),
           (Fraction(1, 2), Fraction(-1, 2))]
    assert all(c.ok for c in verify_specialization(B, pts))


# ---------------------------------------------------------------------------
# leading terms mod Q recorded on the basis

TWO = ("a", "b")
LEAD_CASES = {
    "intro Q=0": ([P("a*x2 - x1*x2 + x1")], INTRO_ORDER, CTX0),
    "intro Q=<a>": ([P("a*x2 - x1*x2 + x1")], INTRO_ORDER, ctx_a()),
    "two_params": ([P("a*x1^2 + b*x2", params=TWO), P("x1*x2 + a", params=TWO)],
                   grevlex(2), PrimeContext.trivial(2)),
    "milnor_cubic": ([P("3*x1^2 + a*x2"), P("3*x2^2 + a*x1")], INTRO_ORDER, CTX0),
}


@pytest.mark.parametrize("name", sorted(LEAD_CASES))
def test_leads_are_the_leading_terms_mod_q(name):
    F, order, ctx = LEAD_CASES[name]
    B = generic_basis(F, order, ctx)
    R = generic_reduced_basis(B, 6)
    for basis in (B, R):
        assert len(basis.leads) == len(basis.gens) > 0
        for g, lead in zip(basis.gens, basis.leads):
            assert lead == leading_mod_q(g, order, ctx)
    assert B.staircase == Staircase.from_exponents(2, [e for e, _ in B.leads])


WALK_ORDERS = [lex(2), grevlex(2), neg_grevlex(2), INTRO_ORDER]


@given(st.integers(0, 10**6), st.sampled_from(WALK_ORDERS),
       st.integers(-6, 6), st.integers(1, 4))
def test_leading_exponent_walk_matches_specialization(seed, order, num, den):
    # the walk stops at the first term whose coefficient survives at the
    # point; it must agree with specializing the whole generator, on
    # generic bases and on reduced ones with fractional coefficients
    rng = random.Random(seed)
    F = [random_poly(rng, 2, 1, max_terms=3, max_exp=2, integral=False)
         for _ in range(rng.randint(1, 2))]
    B = generic_basis(F, order, CTX0)
    point = (Fraction(num, den),)
    assume(B.h_poly().evaluate(point) != 0)
    R = generic_reduced_basis(B, max(4, B.staircase.max_generator_degree()))
    for basis in (B, R):
        for g, (e, _) in zip(basis.gens, basis.leads):
            spec = g.specialize(point)
            assert not spec.is_zero()
            assert _leading_exponent_at(g, order, point) == spec.leading(order)[0] == e
