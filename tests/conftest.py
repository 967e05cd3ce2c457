import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from parastd.division import s_combination
from parastd.errors import AllCoefficientsInQ
from parastd.genstd import coeff_in_q, divide_mod_q, drop_q_terms
from parastd.orders import keyed_terms, matrix_order
from parastd.polyring import (AScalar, ParamPoly, ParamScalar, divide_out,
                              embed_params_as_vars)
from parastd.problems import poly_from_string

# the benchmark's problems and workloads, read only
BENCH_SPEC = json.loads((Path(__file__).resolve().parent.parent / "bench" / "workloads.json")
                        .read_text(encoding="utf-8"))


def bench_text(name: str) -> str:
    """The problem text of a benchmark problem."""
    return "\n".join(BENCH_SPEC["problems"][name]) + "\n"


settings.register_profile(
    "desk", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("desk")

# the running example's local order: x2 > x1 > x1*x2
INTRO_ORDER = matrix_order([[-1, -1], [-1, 0]])
INTRO_PARAMS = ("a",)
INTRO_VARS = ("x1", "x2")


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


def record_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that appends the positional
    arguments of each call to the returned list."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


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


def value_at(s: AScalar, point) -> Fraction:
    """s at a point, by a plain Fraction loop over its terms: an oracle for
    AScalar.evaluate that shares no code with it."""
    total = Fraction(0)
    for e, c in s.terms.items():
        term = Fraction(c)
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        total += term
    return total


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


def leading_mod_q(f, order, ctx):
    """Order-maximum (exponent, coefficient) of f among the terms whose
    coefficient survives mod Q; the reference for the leads that
    `generic_basis` reads off the engine."""
    for k, c in keyed_terms(f, order):
        if not coeff_in_q(c, ctx):
            return order.exponent(k), c
    raise AllCoefficientsInQ("no term survives reduction mod Q")


def s_criterion_mod_q(B, trunc_degree=None) -> bool:
    """True when every mod-Q S-function of two generators of the generic
    basis B reduces to 0 mod Q."""
    for i in range(len(B.gens)):
        for j in range(i + 1, len(B.gens)):
            s = s_combination(B.gens[i], B.gens[j], B.leads[i], B.leads[j])
            if s.is_zero():
                continue
            res = divide_mod_q(s, B.gens, B.order, B.ctx, trunc_degree=trunc_degree)
            if not drop_q_terms(res.remainder, B.ctx).is_zero():
                return False
    return True


def polynomial_value(data, r) -> Fraction:
    """The eventual Hilbert-Samuel polynomial of a HilbertData at r."""
    return sum(c * Fraction(r) ** k for k, c in enumerate(data.coefficients))
