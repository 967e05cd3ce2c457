import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from parastd.errors import DenominatorVanishes, DimensionMismatch, ZeroPolynomialError
from parastd.orders import MonomialOrder, grevlex, keyed_terms, lex, matrix_order, neg_grevlex
from parastd.polyring import (
    AScalar,
    ParamPoly,
    ParamScalar,
    embed_params_as_vars,
    rational_roots,
    render_ascalar,
    render_poly,
    split_params,
    squarefree_factors,
    univariate_coefficients,
)
from parastd.genstd import PrimeContext, coeff_in_q

from conftest import (INTRO_ORDER, INTRO_PARAMS, INTRO_VARS, P, divides_factor_power,
                      random_poly)


def test_add_identity(intro_poly):
    zero = ParamPoly.zero(2, 1)
    assert intro_poly + zero == intro_poly


def test_difference_of_squares():
    f = P("x1 + x2")
    g = P("x1 - x2")
    assert f * g == P("x1^2 - x2^2")


def test_cancellation(intro_poly):
    assert intro_poly - P("a*x2") == P("-x1*x2 + x1")


def test_leading_intro_example(intro_poly):
    e, c = intro_poly.leading(INTRO_ORDER)
    assert e == (0, 1)
    assert c == ParamScalar(AScalar.var(0, 1))


def test_leading_monomial():
    assert P("x1").leading(lex(2))[0] == (1, 0)
    assert P("x1").leading(INTRO_ORDER)[0] == (1, 0)


def test_leading_after_specialization(intro_poly):
    spec = intro_poly.specialize((Fraction(0),))
    assert spec == poly_over_q("x1 - x1*x2")
    assert spec.leading(INTRO_ORDER)[0] == (1, 0)


def poly_over_q(text):
    return P(text, params=(), vars=INTRO_VARS)


def test_leading_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        ParamPoly.zero(2, 1).leading(INTRO_ORDER)


def test_leading_term_cache_is_keyed_by_order():
    # x1 + 3*x2^2: lex and neg_grevlex pick x1, grevlex picks x2^2
    p = AScalar({(1, 0): Fraction(1), (0, 2): Fraction(3)}, 2)
    first_lex, same_lex = lex(2), MonomialOrder(rows=(), n=2)
    assert first_lex == same_lex and first_lex is not same_lex
    assert p.leading(first_lex) == ((1, 0), 1)
    assert p.leading(grevlex(2)) == ((0, 2), 3)
    assert p.leading(same_lex) == ((1, 0), 1)
    assert p.leading(neg_grevlex(2)) == ((1, 0), 1)
    # grevlex(2) has rows (1, 1) and (0, -1); each key ends with its exponent
    assert keyed_terms(p, grevlex(2)) == [((2, -2, 0, 2), 3), ((1, 0, 1, 0), 1)]


def test_derived_polynomials_do_not_inherit_the_cache():
    p = AScalar({(1, 0): Fraction(1), (0, 2): Fraction(3)}, 2)
    order = lex(2)
    assert p.leading(order) == ((1, 0), 1)
    assert p.scale(Fraction(2)).leading(order) == ((1, 0), 2)
    assert p.mul_monomial((0, 3), Fraction(1)).leading(order) == ((1, 3), 1)
    assert p.with_terms({(0, 1): Fraction(5)}).leading(order) == ((0, 1), 5)
    assert (p - p.with_terms({(1, 0): Fraction(1)})).leading(order) == ((0, 2), 3)
    f = P("a*x2 - x1*x2 + x1")
    assert f.leading(lex(2))[0] == (1, 1)
    g = f.with_terms({(0, 1): f.terms[(0, 1)]})
    assert g.leading(lex(2))[0] == (0, 1)
    assert f.mul_monomial((2, 0), ParamScalar.one(1)).leading(lex(2))[0] == (3, 1)
    assert f.scale(ParamScalar.const(2, 1)).leading(lex(2))[1] == ParamScalar(
        AScalar({(0,): Fraction(-2)}, 1))


# homogenization acts on the combined ring Q[x1, x2, a]; z goes after x2
def XA(text, vars=INTRO_VARS):
    return embed_params_as_vars(P(text, vars=vars))


XZ = ("x1", "x2", "z")


def test_homogenize_intro(intro_poly):
    h = embed_params_as_vars(intro_poly).homogenize(2)
    assert h == XA("a*x2*z - x1*x2 + x1*z", vars=XZ)
    assert h.is_homogeneous(3)
    assert not h.is_homogeneous()  # the parameter a is not counted


def test_homogenize_trivial_cases():
    assert XA("x1^2").homogenize(2) == XA("x1^2", vars=XZ)
    assert XA("x1 + 1").homogenize(2) == XA("x1 + z", vars=XZ)
    assert XA("a*x1 + a^2").homogenize(2) == XA("a*x1 + a^2*z", vars=XZ)


def test_dehomogenize_round_trip(intro_poly):
    f = embed_params_as_vars(intro_poly)
    assert f.homogenize(2).dehomogenize(2) == f
    assert XA("z^2", vars=XZ).dehomogenize(2) == XA("1")
    assert XA("x1*z + x1", vars=XZ).dehomogenize(2) == XA("2*x1")
    assert XA("a*z - a", vars=XZ).dehomogenize(2).is_zero()


def test_specialize_examples(intro_poly):
    assert intro_poly.specialize((Fraction(2),)) == poly_over_q("2*x2 - x1*x2 + x1")
    assert intro_poly.specialize((Fraction(0),)) == poly_over_q("x1 - x1*x2")
    pole = P("x2 + x1/a")
    with pytest.raises(DenominatorVanishes):
        pole.specialize((Fraction(0),))


def test_coeff_in_q_examples():
    a = ParamScalar(AScalar.var(0, 1))
    ctx_a = PrimeContext.from_generators([AScalar.var(0, 1)], 1)
    assert coeff_in_q(a, ctx_a)
    one_plus_a = ParamScalar(AScalar.var(0, 1) + AScalar.one(1))
    assert not coeff_in_q(one_plus_a, ctx_a)
    # a*b - b is in <a - 1>
    ab_minus_b = AScalar({(1, 1): Fraction(1), (0, 1): Fraction(-1)}, 2)
    am1 = AScalar({(1, 0): Fraction(1), (0, 0): Fraction(-1)}, 2)
    ctx = PrimeContext.from_generators([am1], 2)
    assert coeff_in_q(ParamScalar(ab_minus_b), ctx)


# ---------------------------------------------------------------------------
# property tests


def polys(n=2, m=1, integral=True):
    return st.integers(min_value=0, max_value=10 ** 6).map(
        lambda s: random_poly(random.Random(s), n, m, integral=integral))


@given(polys(n=3, m=2), polys(n=3, m=2), polys(n=3, m=2))
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f


@given(polys(), polys(), st.sampled_from([lex(2), grevlex(2), neg_grevlex(2),
                                          INTRO_ORDER]))
def test_leading_multiplicative(f, g, order):
    ef, _ = f.leading(order)
    eg, _ = g.leading(order)
    efg, _ = (f * g).leading(order)
    assert efg == tuple(a + b for a, b in zip(ef, eg))


@given(polys(integral=False), polys(integral=False),
       st.sampled_from([(Fraction(1),), (Fraction(-2),), (Fraction(1, 3),)]))
def test_specialize_is_ring_morphism(f, g, point):
    assert (f * g).specialize(point) == f.specialize(point) * g.specialize(point)
    assert (f + g).specialize(point) == f.specialize(point) + g.specialize(point)


@given(polys(n=3, m=1))
def test_homogenize_output_homogeneous(f):
    h = embed_params_as_vars(f).homogenize(3)
    assert h.is_homogeneous(4)
    assert h.dehomogenize(3) == embed_params_as_vars(f)


@given(polys(n=2, m=2))
def test_embed_split_round_trip(f):
    g, _ = f.clear_denominators()
    assert split_params(embed_params_as_vars(g), 2, 2) == g


# ---------------------------------------------------------------------------
# the sparse core shared by AScalar and ParamPoly


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("left, right", [
    (AScalar.var(0, 1), AScalar.var(1, 2)),
    (AScalar.const(2, 1), AScalar.var(1, 2)),  # constant fast path of *
    (AScalar.var(0, 1), AScalar.const(1, 2)),
    (ParamPoly.var(0, 2, 1), ParamPoly.var(0, 3, 1)),
])
def test_ring_mismatch_raises(op, left, right):
    with pytest.raises(DimensionMismatch):
        op(left, right)
    with pytest.raises(DimensionMismatch):
        op(right, left)


@given(polys(n=2, m=2), polys(n=2, m=2), st.integers(-3, 3),
       st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_embed_params_as_vars_is_a_ring_morphism(f, g, k, e):
    phi = embed_params_as_vars
    const = ParamPoly.constant(k, 2, 2)  # its image takes AScalar's constant path
    for p, q in ((f, g), (const, g), (f, const)):
        assert phi(p + q) == phi(p) + phi(q)
        assert phi(p - q) == phi(p) - phi(q)
        assert phi(p * q) == phi(p) * phi(q)
    c = Fraction(k, 2)
    assert phi(f.scale(ParamScalar.const(c, 2))) == phi(f).scale(c)
    assert phi(f.mul_monomial(e, ParamScalar.const(c, 2))) == \
        phi(f).mul_monomial(e + (0, 0), c)


def test_equal_scalars_hash_alike_whatever_their_term_order():
    terms = {(2, 0): Fraction(1), (0, 1): Fraction(-3), (0, 0): Fraction(1, 2)}
    s = AScalar(terms, 2)
    t = AScalar(dict(reversed(terms.items())), 2)
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    u = AScalar.const(Fraction(1, 2), 2) + b * AScalar.const(-3, 2) + a * a
    assert list(s.terms) != list(t.terms)
    assert s == t == u
    assert hash(s) == hash(t) == hash(u)
    merged = list(dict.fromkeys([s, a, t, u]))
    assert merged == [s, a] and merged[0] is s


# ---------------------------------------------------------------------------
# scalar utilities


def test_param_scalar_cross_equality():
    a = AScalar.var(0, 1)
    two_a = a + a
    s1 = ParamScalar(two_a, a + a)        # 2a/2a
    s2 = ParamScalar(AScalar.one(1))
    assert s1 == s2


def test_param_scalar_reduced():
    a = AScalar.var(0, 1)
    s = ParamScalar(a * a + a, a)  # (a^2+a)/a -> a+1
    r = s.reduced()
    assert r.den.is_constant()
    assert r.num == a + AScalar.one(1)


def test_clear_denominators():
    f = P("x2 + x1/a")
    g, mult = f.clear_denominators()
    assert mult == AScalar.var(0, 1)
    assert g == P("a*x2 + x1")


def test_divides_factor_power():
    a = AScalar.var(0, 2)
    b = AScalar.var(1, 2)
    assert divides_factor_power(a * a * b, [a, b])
    assert not divides_factor_power(a + b, [a, b])


def test_univariate_coefficients():
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    three = AScalar.const(3, 2)
    assert univariate_coefficients(a * a + three, 0) == [3, 0, 1]
    assert univariate_coefficients(b * b * b - b, 1) == [0, -1, 0, 1]
    assert univariate_coefficients(AScalar.zero(2), 1) == [0]
    # a^2*b + 3*a*b - b + 2, other parameter substituted first
    s = a * a * b + three * a * b - b + AScalar.const(2, 2)
    assert univariate_coefficients(s, 0, (Fraction(7), Fraction(5))) == [-3, 15, 5]
    assert univariate_coefficients(s, 1, (Fraction(2), Fraction(7))) == [2, 9]
    # terms that cancel after substitution keep their slot
    t = a * b - AScalar.const(2, 2) * a
    assert univariate_coefficients(t, 0, (Fraction(1), Fraction(2))) == [0, 0]
    out = univariate_coefficients(s, 0, (Fraction(1), Fraction(1, 2)))
    assert out == [Fraction(3, 2), Fraction(3, 2), Fraction(1, 2)]
    assert all(type(c) is Fraction for c in out)


def test_squarefree_factors_univariate():
    a = AScalar.var(0, 1)
    one = AScalar.one(1)
    p = (a + one) * (a + one) * a  # a*(a+1)^2
    facs = squarefree_factors(p)
    assert a in facs
    assert (a + one) in facs
    assert len(facs) == 2


def test_squarefree_multivariate_kept_whole():
    a = AScalar.var(0, 2)
    b = AScalar.var(1, 2)
    p = a * a * (a + b)
    facs = squarefree_factors(p)
    assert a in facs and (a + b) in facs


# Oracles for exact division and the square-free split in Q[a]: every
# expected value is built from chosen factors by ring arithmetic alone.
_COEFF = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


def ascalars(m, max_terms=4, min_terms=0):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * m), _COEFF,
                           min_size=min_terms, max_size=max_terms).map(
        lambda terms: AScalar(terms, m))


@st.composite
def dividend_and_divisor(draw):
    m = draw(st.integers(1, 3))
    q = draw(ascalars(m, min_terms=1).filter(lambda q: not q.is_zero()))
    return draw(ascalars(m)), q


@given(dividend_and_divisor())
def test_exact_div_recovers_the_cofactor(pq):
    p, q = pq
    assert (p * q).exact_div(q) == p


@given(dividend_and_divisor(), _COEFF.filter(bool))
def test_exact_div_refuses_a_nonzero_constant_remainder(pq, c):
    p, q = pq
    if q.is_constant():
        q = q + AScalar.var(0, q.m)
    assert (p * q + AScalar.const(c, q.m)).exact_div(q) is None


def test_exact_div_edge_cases():
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    assert (a * b).exact_div(AScalar.zero(2)) is None
    assert AScalar.zero(2).exact_div(a + b) == AScalar.zero(2)
    assert (a * a - b * b).exact_div(a + b) == a - b
    assert (a * a + b).exact_div(a) is None


_ROOT = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))


@given(where=st.sampled_from([(0, 1), (1, 2), (2, 3)]), c=_COEFF.filter(bool),
       k=st.integers(0, 3), roots=st.lists(_ROOT, unique=True, max_size=3),
       powers=st.lists(st.integers(1, 3), min_size=3, max_size=3))
@example(where=(0, 1), c=Fraction(-3, 2), k=2, roots=[Fraction(1, 2), Fraction(-2)],
         powers=[3, 2, 1])
def test_squarefree_factors_univariate_oracle(where, c, k, roots, powers):
    i, m = where
    a = AScalar.var(i, m)
    s, radical = AScalar.const(c, m), AScalar.one(m)
    for _ in range(k):
        s = s * a
    for r, power in zip(roots, powers):
        # q*a - p is primitive with a positive lead, and so is their product
        linear = AScalar.const(r.denominator, m) * a - AScalar.const(r.numerator, m)
        radical = radical * linear
        for _ in range(power):
            s = s * linear
    expected = ([a] if k else []) + ([radical] if roots else [])
    assert squarefree_factors(s) == expected


@given(u=st.integers(1, 4), v=st.integers(-4, 4).filter(bool),
       w=st.integers(-4, 4).filter(bool), power=st.integers(1, 3),
       mono=st.tuples(st.integers(0, 2), st.integers(0, 2)), c=_COEFF.filter(bool))
def test_squarefree_factors_keeps_a_multivariate_part_whole(u, v, w, power, mono, c):
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    g = gcd(u, v, w)
    f = AScalar.const(u // g, 2) * a + AScalar.const(v // g, 2) * b + AScalar.const(w // g, 2)
    whole = AScalar.one(2)
    for _ in range(power):
        whole = whole * f  # primitive (Gauss), lex lead (u/g)^power > 0
    s = AScalar.const(c, 2) * whole
    for x, k in zip((a, b), mono):
        for _ in range(k):
            s = s * x
    expected = [x for x, k in zip((a, b), mono) if k] + [whole]
    assert squarefree_factors(s) == expected


def test_rational_roots():
    a = AScalar.var(0, 1)
    one = AScalar.one(1)
    two = AScalar.const(2, 1)
    p = (a - one) * (a + two) * (two * a - one)
    assert rational_roots(p) == [Fraction(-2), Fraction(1, 2), Fraction(1)]


# Oracle for rational_roots: polynomials built from chosen roots,
# c * prod(q*x - p) * (a factor without rational roots), in one parameter of
# m, so the roots are known without solving anything.
_SMALL_ROOT = st.tuples(st.integers(-12, 12), st.integers(1, 6))
_LARGE_ROOT = st.tuples(st.integers(-10**4, 10**4), st.integers(1, 10**4))
# coefficient lists, constant term first; irreducible over Q or 1
_NO_ROOTS = [(1,), (1, 0, 1), (-2, 0, 1), (5, 3, 2), (7, -1, -3)]
_NONZERO = st.integers(-6, 6).filter(bool)


@given(small=st.lists(_SMALL_ROOT, max_size=3), large=st.lists(_LARGE_ROOT, max_size=1),
       repeat=st.integers(0, 2), no_roots=st.sampled_from(_NO_ROOTS),
       scale=st.builds(Fraction, _NONZERO, st.integers(1, 5)),
       where=st.sampled_from([(0, 1), (1, 2), (0, 3)]))
@example(small=[(0, 1), (3, 2)], large=[(9973, 10**4)], repeat=2, no_roots=(5, 3, 2),
         scale=Fraction(-5, 3), where=(0, 1))
@example(small=[(-7, 3), (-7, 3)], large=[(-10**4, 9999)], repeat=1, no_roots=(7, -1, -3),
         scale=Fraction(-1), where=(1, 2))
def test_rational_roots_oracle(small, large, repeat, no_roots, scale, where):
    i, m = where
    x, one = AScalar.var(i, m), AScalar.one(m)
    chosen = small + large + small[:1] * repeat  # repeat the first root
    f = AScalar.const(scale, m)
    for p, q in chosen:
        f = f * (AScalar.const(q, m) * x - AScalar.const(p, m))
    g, power = AScalar.const(0, m), one
    for c in no_roots:
        g, power = g + AScalar.const(c, m) * power, power * x
    f = f * g
    roots = rational_roots(f)
    assert roots == sorted({Fraction(p, q) for p, q in chosen})
    for r in roots:
        point = [Fraction(1 + j) for j in range(m)]
        point[i] = r
        assert f.evaluate(tuple(point)) == 0


def test_render_parse_round_trip(intro_poly):
    from parastd.problems import poly_from_string
    for f in [intro_poly, P("x2 + x1/a + x1^2/a^2"), P("-x1*x2 + 3"),
              P("(a+1)*x1 - 1/2")]:
        s = render_poly(f, INTRO_ORDER, INTRO_VARS, INTRO_PARAMS)
        assert poly_from_string(s, INTRO_PARAMS, INTRO_VARS) == f
        s2 = render_poly(poly_from_string(s, INTRO_PARAMS, INTRO_VARS),
                         INTRO_ORDER, INTRO_VARS, INTRO_PARAMS)
        assert s2 == s
    s = AScalar({(2, 0): Fraction(-3, 2), (1, 1): Fraction(1),
                 (0, 0): Fraction(-1)}, 2)
    assert render_ascalar(s, ("a", "b")) == "-3/2*a^2 + a*b - 1"
    assert render_ascalar(AScalar({}, 2), ("a", "b")) == "0"
