import random
from fractions import Fraction

import pytest

from parastd.errors import NonTerminatingDivision, NonTerminatingOrder, TruncationTooSmall
from parastd.orders import exp_degree, grevlex, lex, matrix_order, neg_grevlex
from parastd.polyring import AScalar, ParamPoly, ParamScalar, divides_factor_power
from parastd.division import (
    Partition,
    divide,
    divide_series,
    divide_truncated,
    full_division_terminates,
    s_function,
)

from conftest import INTRO_ORDER, P, random_poly

GREVLEX2 = grevlex(2)


def QP(text):
    return P(text, params=(), vars=("x1", "x2"))


def test_divide_two_step_example():
    res = divide(QP("x1^2*x2"), [QP("x1*x2 - 1")], GREVLEX2)
    assert res.quotients[0] == QP("x1")
    assert res.remainder == QP("x1")


def test_divide_self():
    g = P("a*x2 - x1*x2 + x1")
    res = divide(g, [g], grevlex(2))
    assert res.quotients[0] == P("1")
    assert res.remainder.is_zero()


def test_divide_no_divisible_term():
    res = divide(QP("x1"), [QP("x2")], GREVLEX2)
    assert res.quotients[0].is_zero()
    assert res.remainder == QP("x1")


def test_divide_rejects_local_order_on_inhomogeneous_data():
    with pytest.raises(NonTerminatingOrder):
        divide(P("x1"), [P("a*x2 - x1*x2 + x1")], INTRO_ORDER)


def test_divide_homogeneous_input_under_local_order():
    # homogeneous data stays in one degree slice, so the loop terminates
    f = QP("x1^2*x2 + x1*x2^2")
    g = QP("x1*x2 - x2^2")
    res = divide(f, [g], INTRO_ORDER)
    assert res.check_identity(f, [g])


def test_truncated_self_division():
    f = P("a*x2 - x1*x2 + x1")
    res = divide_truncated(f, [f], INTRO_ORDER)
    assert res.quotients[0] == P("1")
    assert res.remainder.is_zero()


def test_truncated_immediate_escape():
    f = P("x1")
    g = P("a*x2 - x1*x2 + x1")
    res = divide_truncated(f, [g], INTRO_ORDER)
    assert res.quotients[0].is_zero()
    assert res.remainder == f


def test_truncated_one_reduction_step():
    # replayed by hand: a*x1*x2 reduces once by the intro polynomial and
    # stops when the leading exponent (2,0) escapes the divisor cone
    f = P("a*x1*x2")
    g = P("a*x2 - x1*x2 + x1")
    res = divide_truncated(f, [g], INTRO_ORDER)
    assert res.quotients[0] == P("x1")
    assert res.remainder == P("x1^2*x2 - x1^2")
    assert res.check_identity(f, [g])


def test_truncated_step_guard_fires():
    # remainder is zero only in the series limit; the guard must fire
    with pytest.raises(NonTerminatingDivision):
        divide_truncated(QP("x1"), [QP("x1 - x1*x2")], INTRO_ORDER)


def test_truncated_quotients_polynomial_witness():
    # the quotients witness remainder membership in f + sum(q_j g_j) with
    # finitely many terms; denominators only from divisor leading coeffs
    f = P("a*x1*x2 + x2")
    G = [P("a*x2 - x1*x2 + x1"), P("x1^2")]
    res = divide_truncated(f, G, INTRO_ORDER)
    assert res.check_identity(f, G)
    lead_nums = [g.leading(INTRO_ORDER)[1].num for g in G]
    for q in res.quotients:
        for c in q.terms.values():
            assert c.den.is_constant() or divides_factor_power(c.den, lead_nums)


def test_series_division_intro_tail():
    # monic intro polynomial divides its tail into the geometric series
    g = P("x2 - (1/a)*x1*x2 + (1/a)*x1")
    t = P("-(1/a)*x1*x2 + (1/a)*x1")
    res = divide_series(t, [g], INTRO_ORDER, 3)
    assert res.remainder == P("(1/a)*x1 + (1/a^2)*x1^2 + (1/a^3)*x1^3")
    assert not res.cofactor_ok  # terms above the cutoff were discarded


def test_series_division_exact_when_no_discard():
    f = QP("x1^2*x2")
    res = divide_series(f, [QP("x1*x2 - 1")], GREVLEX2, 10)
    assert res.cofactor_ok
    assert res.remainder == QP("x1")


def test_series_division_rejects_negative_degree():
    for f in (QP("x1^2*x2"), QP("0")):
        with pytest.raises(TruncationTooSmall):
            divide_series(f, [QP("x1*x2 - 1")], neg_grevlex(2), -1)


def test_full_division_terminates():
    assert full_division_terminates(QP("x1 + 1"), [QP("x2 - 1")], GREVLEX2)
    assert full_division_terminates(QP("x1*x2"), [QP("x1 + x2")], INTRO_ORDER)
    assert not full_division_terminates(QP("x1*x2"), [QP("x1 + 1")], INTRO_ORDER)
    assert not full_division_terminates(QP("x1 + 1"), [QP("x2")], INTRO_ORDER)


def test_s_function_grevlex_example():
    s = s_function(QP("x1^2 - x2"), QP("x1*x2 - 1"), GREVLEX2)
    assert s == QP("x1 - x2^2")


def test_s_function_diagonal():
    g = QP("x1*x2 - 1")
    assert s_function(g, g, GREVLEX2).is_zero()


def test_s_function_weighted_cancellation():
    s = s_function(P("a*x1 + x2"), P("x1"), lex(2))
    assert s == P("x2")


def test_partition_membership():
    part = Partition(((1, 0), (0, 2)))
    assert part.region_of((1, 5)) == 0
    assert part.region_of((0, 2)) == 1
    assert part.region_of((0, 1)) is None


# ---------------------------------------------------------------------------
# random-instance invariants


GLOBAL_ORDERS = [lex(1), lex(2), lex(3), grevlex(2), grevlex(3),
                 matrix_order([[2, 1, 1], [0, 1, 0]])]


def _check_division_contract(f, G, order):
    res = divide(f, G, order)
    # exact identity
    assert res.check_identity(f, G)
    # support conditions
    part = Partition(tuple(g.leading(order)[0] for g in G))
    for j, q in enumerate(res.quotients):
        for e in q.terms:
            shifted = tuple(a + b for a, b in zip(e, G[j].leading(order)[0]))
            assert part.region_of(shifted) == j
    for e in res.remainder.terms:
        assert part.region_of(e) is None
    # max property
    if not f.is_zero():
        key = order.key
        cands = [res.remainder] + [q * g for q, g in zip(res.quotients, G)]
        tops = [p.leading(order)[0] for p in cands if not p.is_zero()]
        assert max(tops, key=key) == f.leading(order)[0]
    # uniqueness: dividing the remainder again changes nothing
    if not res.remainder.is_zero():
        again = divide(res.remainder, G, order)
        assert all(q.is_zero() for q in again.quotients)
        assert again.remainder == res.remainder
    return res


def test_division_random_instances():
    rng = random.Random(42)
    for k in range(150):
        order = GLOBAL_ORDERS[k % len(GLOBAL_ORDERS)]
        n = order.n
        f = random_poly(rng, n, 1, max_terms=5, max_exp=3)
        G = [random_poly(rng, n, 1, max_terms=3, max_exp=2)
             for _ in range(rng.randint(1, 4))]
        _check_division_contract(f, G, order)


def test_denominator_lemma():
    # with integral inputs, output denominators divide products of the
    # divisor leading coefficients
    rng = random.Random(7)
    for k in range(60):
        order = GLOBAL_ORDERS[k % len(GLOBAL_ORDERS)]
        n = order.n
        f = random_poly(rng, n, 1, max_terms=4, max_exp=3)
        G = [random_poly(rng, n, 1, max_terms=3, max_exp=2)
             for _ in range(rng.randint(1, 3))]
        res = divide(f, G, order)
        lead_nums = [g.leading(order)[1].num for g in G]
        for p in res.quotients + [res.remainder]:
            for c in p.terms.values():
                if c.den.is_constant():
                    continue
                assert divides_factor_power(c.den, lead_nums)
