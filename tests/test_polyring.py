import operator
import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from parastd.errors import (DenominatorInQ, DenominatorVanishes, DimensionMismatch,
                            ParastdError, ZeroPolynomialError)
from parastd import polyring
from parastd.orders import (MonomialOrder, exp_add, grevlex, keyed_terms, lex, matrix_order,
                            neg_grevlex)
from parastd.polyring import (
    AScalar,
    ParamPoly,
    ParamScalar,
    common_factor,
    divide_out,
    embed_params_as_vars,
    rational_roots,
    render_ascalar,
    render_fraction,
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
    """The polynomial of Q[x1, x2] given by text: an AScalar, as specialize returns."""
    return P(text, params=(), vars=INTRO_VARS).specialize(())


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
    # grevlex(2) has rows (1, 1) and (0, -1); each key packs its exponent
    order = grevlex(2)
    keyed = keyed_terms(p, order)
    assert [(order.exponent(k), c) for k, c in keyed] == [((0, 2), 3), ((1, 0), 1)]
    assert [k for k, _ in keyed] == [order.key((0, 2)), order.key((1, 0))]


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
    # a denominator in Q is refused; a constant one never lies in the proper Q
    with pytest.raises(DenominatorInQ):
        coeff_in_q(ParamScalar(AScalar.one(1), AScalar.var(0, 1)), ctx_a)
    assert not coeff_in_q(ParamScalar(one_plus_a.num, AScalar.const(3, 1)), ctx_a)


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
    (ParamPoly.monomial((1, 0), ParamScalar.one(1), 2, 1),
     ParamPoly.monomial((1, 0, 0), ParamScalar.one(1), 3, 1)),
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


def test_zero_and_constant_scalars_take_the_main_paths():
    assert squarefree_factors(AScalar.zero(1)) == []
    assert squarefree_factors(AScalar.const(3, 1)) == []
    assert AScalar.zero(2).primitive().is_zero()
    assert AScalar.const(0, 2).terms == {}
    a = AScalar.var(0, 1)
    x = ParamScalar(a + AScalar.one(1), a)
    for prod in (x * ParamScalar.zero(1), ParamScalar.zero(1) * x):
        assert prod.num.is_zero() and prod.den == AScalar.one(1)


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


def _divide_out_reference(p, f):
    """f divided out of p by exact_div, one power at a time."""
    k = 0
    while not p.is_constant():
        q = p.exact_div(f)
        if q is None:
            break
        p, k = q.primitive(), k + 1
    return p, k


@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    ascalars(m, min_terms=1).filter(lambda p: not p.is_zero()),
    ascalars(m, min_terms=1).filter(lambda f: not f.is_constant()),
    st.booleans(), st.integers(0, 3))))
def test_divide_out_matches_repeated_exact_div(args):
    cofactor, f, monomial, power = args
    if monomial:
        f = AScalar(dict([max(f.terms.items())]), f.m)
        if f.is_constant():
            f = f * AScalar.var(0, f.m)
    p = cofactor
    for _ in range(power):
        p = p * f
    assert divide_out(p, f) == _divide_out_reference(p, f)


# Oracles for evaluation in integers: sympy substitutes the point, with int
# or Fraction entries, into the scalar written as a sympy expression.
_ENTRY = st.one_of(st.integers(-4, 4), _COEFF)


def _sympy_expr(s: AScalar):
    """s as a sympy expression in a0..a(m-1), with those symbols."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(f"a0:{s.m}")
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(v ** k for v, k in zip(syms, e)))
                       for e, c in s.terms.items())), syms


def _from_sympy(poly, m) -> AScalar:
    """A sympy Poly over QQ in all m parameters as an AScalar."""
    return AScalar({e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}, m)


def _sympy_value(s: AScalar, point) -> Fraction:
    sympy = pytest.importorskip("sympy")
    expr, syms = _sympy_expr(s)
    value = expr.subs({v: sympy.Rational(x.numerator, x.denominator)
                       for v, x in zip(syms, point)})
    return Fraction(int(value.p), int(value.q))


@given(st.integers(1, 3).flatmap(lambda m: st.tuples(ascalars(m),
                                                     st.tuples(*[_ENTRY] * m))))
def test_evaluate_matches_sympy(args):
    s, point = args
    value = s.evaluate(point)
    assert type(value) is Fraction and value == _sympy_value(s, point)


@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.one_of(ascalars(m), _COEFF.map(lambda c: AScalar.const(c, m))),
    st.tuples(*[_ENTRY] * m), st.booleans())))
def test_vanishes_at_matches_evaluate_and_sympy(args):
    # zero and constant polynomials, int and Fraction coordinates, 0 among them
    s, point, vanish = args
    if vanish:  # a factor a0 - point[0] makes s vanish there
        s = s * (AScalar.var(0, s.m) - AScalar.const(point[0], s.m))
    assert s.vanishes_at(point) == (s.evaluate(point) == 0)
    assert s.vanishes_at(point) == (_sympy_value(s, point) == 0)


_OVER_A_DENOMINATOR_AT_A_POINT = st.integers(1, 3).flatmap(lambda m: st.tuples(
    ascalars(m), ascalars(m, min_terms=1).filter(lambda d: not d.is_zero()),
    st.tuples(*[_ENTRY] * m), st.booleans()))


@given(_OVER_A_DENOMINATOR_AT_A_POINT)
def test_param_scalar_evaluate_divides_or_raises(args):
    num, den, point, vanish = args
    if vanish:  # a factor a0 - point[0] makes the denominator vanish there
        den = den * (AScalar.var(0, den.m) - AScalar.const(point[0], den.m))
    c = ParamScalar(num, den)
    d = _sympy_value(c.den, point)
    if d == 0:
        with pytest.raises(DenominatorVanishes):
            c.evaluate(point)
    else:
        assert c.evaluate(point) == _sympy_value(c.num, point) / d


@given(_OVER_A_DENOMINATOR_AT_A_POINT)
def test_param_scalar_vanishes_at_raises_where_evaluate_does(args):
    num, den, point, vanish = args
    if vanish:
        den = den * (AScalar.var(0, den.m) - AScalar.const(point[0], den.m))
    c = ParamScalar(num, den)
    if _sympy_value(c.den, point) == 0:
        with pytest.raises(DenominatorVanishes):
            c.vanishes_at(point)
    else:
        assert c.vanishes_at(point) == (_sympy_value(c.num, point) == 0)


# A constant ParamScalar denominator is exactly AScalar.one(m) (the class
# docstring): evaluate, embed_params_as_vars and the `Q:` reader take the
# numerator as the value and divide by nothing.
_CONST_DEN = st.one_of(st.sampled_from([Fraction(2), Fraction(-3)]), _COEFF.filter(bool))


def param_scalars(m):
    """ParamScalars from random numerators over random or constant denominators."""
    dens = st.one_of(ascalars(m, max_terms=3, min_terms=1).filter(lambda d: not d.is_zero()),
                     _CONST_DEN.map(lambda c: AScalar.const(c, m)))
    return st.builds(ParamScalar, ascalars(m, max_terms=3), dens)


@given(st.integers(1, 2).flatmap(lambda m: st.tuples(
    st.lists(param_scalars(m), min_size=2, max_size=3),
    st.lists(st.tuples(st.sampled_from("+-*/nrs"), st.integers(0, 7), st.integers(0, 7)),
             max_size=6))))
def test_constant_denominators_are_one(args):
    pool, ops = args
    one = AScalar.one(pool[0].m)
    for op, i, j in ops:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if op == "/" and not b:
            continue
        if op == "s":  # ParamPoly.scale multiplies every coefficient
            pool += ParamPoly({(0,): a, (1,): b}, 1, a.m).scale(b).terms.values()
        else:
            pool.append({"+": operator.add, "-": operator.sub, "*": operator.mul,
                         "/": operator.truediv, "n": lambda x, _: -x,
                         "r": lambda x, _: x.reduced()}[op](a, b))
    assert all(c.den == one for c in pool if c.den.is_constant())


def _fraction_value(s: AScalar, point) -> Fraction:
    """s at point by a plain Fraction loop over its terms."""
    total = Fraction(0)
    for e, c in s.terms.items():
        for x, k in zip(point, e):
            c *= Fraction(x) ** k
        total += c
    return total


@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    ascalars(m), _CONST_DEN, st.tuples(*[_ENTRY] * m))))
def test_evaluate_over_a_constant_denominator(args):
    num, d, point = args
    c = ParamScalar(num, AScalar.const(d, num.m))
    assert c.evaluate(point) == _fraction_value(num, point) / d


@given(st.integers(1, 2).flatmap(lambda m: st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(ascalars(m, min_terms=1).filter(lambda s: not s.is_zero()), _CONST_DEN),
    min_size=1, max_size=4)))
def test_embed_params_as_vars_over_constant_denominators(coeffs):
    m = next(iter(coeffs.values()))[0].m
    f = ParamPoly({e: ParamScalar(num, AScalar.const(d, m)) for e, (num, d) in coeffs.items()},
                  2, m)
    want = {e + ge: q / d for e, (num, d) in coeffs.items() for ge, q in num.terms.items()}
    assert embed_params_as_vars(f) == AScalar(want, 2 + m)


def test_exact_div_edge_cases():
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    assert (a * b).exact_div(AScalar.zero(2)) is None
    assert AScalar.zero(2).exact_div(a + b) == AScalar.zero(2)
    assert (a * a - b * b).exact_div(a + b) == a - b
    assert (a * a + b).exact_div(a) is None


# Oracles for the one-term paths of exact division, gcd and content: sympy
# divides, takes gcds and reads lex leading coefficients in Q[a0..].
def _univariate(coeffs, i, m) -> AScalar:
    """The sum of c*a_i^k over the items k: c of coeffs, in m parameters."""
    return AScalar({tuple(k if j == i else 0 for j in range(m)): Fraction(c)
                    for k, c in coeffs.items()}, m)


def _operand(m, one_term):
    return ascalars(m, min_terms=1, max_terms=1 if one_term else 3)


def _free_pair(m):
    """p and a nonzero q, each of one or up to three terms; p times q or not."""
    return st.tuples(
        st.booleans().flatmap(lambda one: _operand(m, one)),
        st.booleans().flatmap(lambda one: _operand(m, one)).filter(lambda q: not q.is_zero()),
        st.booleans()).map(lambda pqm: (pqm[0] * pqm[1] if pqm[2] else pqm[0], pqm[1]))


@st.composite
def _equal_degree_pair(draw, m):
    """q of two or more terms and p = c*q, proportional, or c*q with one
    coefficient moved, which mostly keeps the heads, tails and degrees."""
    q = draw(ascalars(m, min_terms=2).filter(lambda q: len(q.terms) > 1))
    p = q.scale(draw(_COEFF.filter(bool)))
    if draw(st.booleans()):
        p = p + AScalar({draw(st.sampled_from(sorted(q.terms))): draw(_COEFF)}, m)
    return p, q


@st.composite
def _head_and_tail_pair(draw, m):
    """q of three or more terms and p = u*(c*head + d*tail) for a monomial u:
    q's lex head and tail divide p's, and a middle term of q may be of
    larger degree in some variable than p."""
    q = draw(ascalars(m, min_terms=3).filter(lambda q: len(q.terms) > 2))
    u = draw(st.tuples(*[st.integers(0, 2)] * m))
    c, d = draw(_COEFF.filter(bool)), draw(_COEFF.filter(bool))
    return AScalar({exp_add(u, max(q.terms)): c, exp_add(u, min(q.terms)): d}, m), q


@given(st.integers(1, 3).flatmap(lambda m: st.one_of(
    _free_pair(m), _equal_degree_pair(m), _head_and_tail_pair(m))))
def test_exact_div_matches_sympy_div(args):
    p, q = args
    sympy = pytest.importorskip("sympy")
    (pe, syms), (qe, _) = _sympy_expr(p), _sympy_expr(q)
    quo, rem = sympy.div(sympy.Poly(pe, *syms, domain="QQ"),
                         sympy.Poly(qe, *syms, domain="QQ"))
    # one divisor is a Groebner basis of its ideal: q | p iff the remainder is 0
    expected = _from_sympy(quo, p.m) if rem.is_zero else None
    assert p.exact_div(q) == expected


@given(st.sampled_from([(0, 1), (1, 2), (2, 3)]).flatmap(lambda where: st.tuples(
    st.just(where), *[st.booleans().flatmap(
        lambda one: st.dictionaries(st.integers(0, 4), _COEFF, min_size=1,
                                    max_size=1 if one else 3))] * 3)))
def test_common_factor_in_one_parameter_matches_sympy_gcd(args):
    (i, m), *coeffs = args
    f, g, shared = (_univariate(terms, i, m) for terms in coeffs)
    if f.is_zero() or g.is_zero():
        return
    if not shared.is_zero():
        f, g = f * shared, g * shared
    sympy = pytest.importorskip("sympy")
    (fe, syms), (ge, _) = _sympy_expr(f), _sympy_expr(g)
    gcd_q = sympy.gcd(sympy.Poly(fe, *syms, domain="QQ"), sympy.Poly(ge, *syms, domain="QQ"))
    _, gcd_z = gcd_q.clear_denoms(convert=True)  # monic, so the lead stays positive
    assert common_factor(f, g) == _from_sympy(gcd_z.primitive()[1], m)


@given(st.integers(1, 3).flatmap(lambda m: ascalars(m, min_terms=1)))
def test_content_sign_is_the_sympy_lex_leading_sign(s):
    if s.is_zero():
        return
    sympy = pytest.importorskip("sympy")
    expr, syms = _sympy_expr(s)
    lead = sympy.Poly(expr, *syms, domain="QQ").LC()
    assert (s.content() > 0) == (lead > 0)


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that appends its arguments to the
    returned list on each call."""
    calls, inner = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_one_term_exact_division_skips_the_division_loop(monkeypatch):
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    three = AScalar.const(3, 2)
    calls = _counting(monkeypatch, polyring, "divide_truncated")
    assert (three * a * a * b + a * b).exact_div(three * a * b) == a + AScalar.const(
        Fraction(1, 3), 2)
    assert (a * a + b).exact_div(a) is None
    assert (three * a * b).exact_div(a + b) is None
    assert (a * b).exact_div(a - AScalar.one(2)) is None
    assert calls == []
    assert (a * a - b * b).exact_div(a + b) == a - b  # two terms by two: the loop
    assert len(calls) == 1


def test_content_takes_no_order_keys(monkeypatch):
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    s = AScalar.const(-6, 2) * a + AScalar.const(4, 2) * b * b + AScalar.const(2, 2)
    calls = _counting(monkeypatch, MonomialOrder, "key")
    assert s.content() == Fraction(-2)
    assert calls == []


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


_QUADRATIC_COEFF = st.one_of(st.integers(-40, 40), st.integers(-10**40, 10**40))


@given(st.one_of(
    st.tuples(_QUADRATIC_COEFF, _QUADRATIC_COEFF, _QUADRATIC_COEFF.filter(bool)),
    # (q1*x - p1)*(q2*x - p2), so the discriminant is a square
    st.tuples(*[st.integers(-10**12, 10**12)] * 2, *[st.integers(1, 10**12)] * 2).map(
        lambda pq: (pq[0] * pq[1], -(pq[0] * pq[3] + pq[1] * pq[2]), pq[2] * pq[3]))),
    st.sampled_from([(0, 1), (1, 2)]))
def test_rational_roots_of_a_quadratic_match_sympy(coeffs, where):
    s = _univariate(dict(enumerate(coeffs)), *where)
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    roots = sympy.Poly([sympy.Integer(c) for c in reversed(coeffs)], t).ground_roots()
    assert rational_roots(s) == sorted(Fraction(int(r.p), int(r.q)) for r in roots)


@pytest.mark.parametrize("power", [14, 40])
def test_rational_roots_of_a_quadratic_with_a_huge_constant_are_fast(power):
    a = AScalar.var(0, 1)
    s = a * a - AScalar.const(10**power, 1)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        roots = rational_roots(s)
        best = min(best, time.perf_counter() - start)
    assert roots == [-Fraction(10**(power // 2)), Fraction(10**(power // 2))]
    assert best < 0.01


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


def test_render_fraction_past_the_int_print_limit_names_the_digit_count():
    limit = sys.get_int_max_str_digits()
    big = 10 ** limit  # one digit past the limit
    assert render_fraction(Fraction(-(big - 1), 7)).startswith("-9999")
    for q in (Fraction(big), Fraction(-big), Fraction(1, big), Fraction(big + 1, 3)):
        with pytest.raises(ParastdError, match=f"has {limit + 1} digits, more than the {limit}"):
            render_fraction(q)
