import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from parastd.orders import matrix_order
from parastd.polyring import (AScalar, ParamPoly, ParamScalar, divide_out,
                              embed_params_as_vars)
from parastd.problems import poly_from_string

settings.register_profile(
    "desk", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("desk")

# the running example's local order: x2 > x1 > x1*x2
INTRO_ORDER = matrix_order([[-1, -1], [-1, 0]])
INTRO_PARAMS = ("a",)
INTRO_VARS = ("x1", "x2")

# katsura-5 and cyclic-5 with a parameter, as katsura4_a and cyclic4_a
STRESS_PROBLEMS = {
    "katsura5_a": [
        "# katsura-5 in x0..x4 with the last equation's -x3 changed to -a*x3",
        "params: a", "vars: x0, x1, x2, x3, x4", "order: grevlex",
        "ideal: x0 + 2*x1 + 2*x2 + 2*x3 + 2*x4 - 1, "
        "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 - x0, "
        "2*x0*x1 + 2*x1*x2 + 2*x2*x3 + 2*x3*x4 - x1, "
        "x1^2 + 2*x0*x2 + 2*x1*x3 + 2*x2*x4 - x2, "
        "2*x1*x2 + 2*x0*x3 + 2*x1*x4 - a*x3"],
    "cyclic5_a": [
        "# cyclic-5 with xyzuv - 1 changed to xyzuv - a",
        "params: a", "vars: x, y, z, u, v", "order: grevlex",
        "ideal: x + y + z + u + v, x*y + y*z + z*u + u*v + v*x, "
        "x*y*z + y*z*u + z*u*v + u*v*x + v*x*y, "
        "x*y*z*u + y*z*u*v + z*u*v*x + u*v*x*y + v*x*y*z, x*y*z*u*v - a"],
}


def P(text, params=INTRO_PARAMS, vars=INTRO_VARS):
    return poly_from_string(text, params, vars)


@pytest.fixture
def intro_poly():
    return P("a*x2 - x1*x2 + x1")


def random_poly(rng: random.Random, n, m, max_terms=5, max_exp=3,
                integral=True):
    """Small random ParamPoly; coefficients are integers or a-linear."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(n))
        c = rng.randint(-4, 4)
        if c == 0:
            c = 1
        num = {(0,) * m: Fraction(c)}
        if m and rng.random() < 0.4:
            ge = tuple(rng.randint(0, 1) for _ in range(m))
            num[ge] = num.get(ge, Fraction(0)) + Fraction(rng.randint(1, 3))
        coeff = ParamScalar(AScalar(num, m))
        if not integral and rng.random() < 0.3:
            coeff = coeff / ParamScalar.const(rng.randint(2, 5), m)
        if not coeff.is_zero():
            terms[e] = coeff
    if not terms:
        terms = {(0,) * n: ParamScalar.one(m)}
    return ParamPoly(terms, n, m)


def outside_input_ideal(B, sympy):
    """Generators of the generic basis B that lie outside the ideal of its
    inputs: each generator, embedded in Q[x, a], is reduced modulo a sympy
    Groebner basis of the embedded inputs with denominators cleared. An
    oracle that shares no code with the basis engine."""
    n, m = B.inputs[0].n, B.inputs[0].m
    syms = sympy.symbols(f"z0:{n + m}")

    def expr(f):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.prod([s ** k for s, k in zip(syms, e)])
                   for e, c in embed_params_as_vars(f).terms.items())

    gb = sympy.groebner([expr(f.clear_denominators()[0]) for f in B.inputs],
                        *syms, order="grevlex")
    return [g for g in B.gens if gb.reduce(expr(g))[1] != 0]


def division_identity(res, f, divisors) -> bool:
    """f == remainder + sum(quotient_j * divisor_j) for a DivisionResult."""
    acc = res.remainder
    for q, g in zip(res.quotients, divisors):
        acc = acc + q * g
    return acc == f


def divides_factor_power(num: AScalar, factors) -> bool:
    """True when num divides a product of powers of the given factors.

    Divides out each nonconstant factor as often as it goes, in turn (in
    the factorial ring Q[a], dividing out a later factor cannot make an
    earlier one divide again); succeeds when a constant remains. Checks
    the "denominator divides a power of h" invariant.
    """
    if num.is_zero():
        return False
    cur = num.primitive()
    for f in factors:
        if not f.is_constant():
            cur, _ = divide_out(cur, f)
    return cur.is_constant()
