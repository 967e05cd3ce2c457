import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from parastd.errors import (ExponentOverflow, NonTerminatingDivision, NonTerminatingOrder,
                            TruncationTooSmall)
from parastd.orders import (
    ENTRY_CAP, combined_order, exp_add, exp_degree, exp_divides, exp_sub, grevlex, is_global,
    keyed_terms, lex, matrix_order, neg_grevlex)
from parastd.polyring import AScalar, ParamPoly, ParamScalar
from parastd.buchberger import buchberger
from parastd.division import (
    FULL,
    SERIES,
    TRUNCATED,
    _division_loop,
    divide,
    divide_series,
    divide_truncated,
    full_division_terminates,
    highest_corner,
    region_of,
    s_combination,
    s_function,
)

from conftest import INTRO_ORDER, P, divides_factor_power, division_identity, random_poly

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
    assert division_identity(res, f, [g])


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
    assert division_identity(res, f, [g])


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
    assert division_identity(res, f, G)
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
    leads = ((1, 0), (0, 2))
    assert region_of(leads, (1, 5)) == 0
    assert region_of(leads, (0, 2)) == 1
    assert region_of(leads, (0, 1)) is None


# ---------------------------------------------------------------------------
# random-instance invariants


GLOBAL_ORDERS = [lex(1), lex(2), lex(3), grevlex(2), grevlex(3),
                 matrix_order([[2, 1, 1], [0, 1, 0]])]


def _check_division_contract(f, G, order):
    res = divide(f, G, order)
    # exact identity
    assert division_identity(res, f, G)
    # support conditions
    leads = [g.leading(order)[0] for g in G]
    for j, q in enumerate(res.quotients):
        for e in q.terms:
            shifted = tuple(a + b for a, b in zip(e, leads[j]))
            assert region_of(leads, shifted) == j
    for e in res.remainder.terms:
        assert region_of(leads, e) is None
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


# ---------------------------------------------------------------------------
# remainder-only series division: the highest-corner cut


NEG_LEX2 = matrix_order([[-1, 0], [0, -1]])  # local, not degree-compatible
MIXED2 = matrix_order([[1, 0], [0, -1]])  # x1 > 1 > x2
CUT_ORDERS = {"neg_grevlex": neg_grevlex(2), "neg_lex": NEG_LEX2, "mixed": MIXED2}


def _assert_same_terms(a, b):
    # equal down to the representation of every coefficient
    assert a.terms.keys() == b.terms.keys()
    for e, c in a.terms.items():
        d = b.terms[e]
        assert (c.num, c.den) == (d.num, d.den) if isinstance(c, ParamScalar) else c == d, e


def _random_coeff(rng):
    num = {(0,): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))}
    if rng.random() < 0.5:
        num[(1,)] = Fraction(rng.randint(1, 3))
    return ParamScalar(AScalar(num, 1))


def _divisor_with_lead(rng, lead, order, extra=()):
    terms = {lead: _random_coeff(rng)}
    tail = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(0, 3))]
    for e in [*tail, *extra]:
        if order.key(e) < order.key(lead):
            terms[e] = _random_coeff(rng)
    return ParamPoly(terms, 2, 1)


def _corner_case(seed, order_name, zero_dim, max_degree):
    """Divisors with chosen leads and a dividend that often holds the corner,
    a term below it, and a term that one reduction step takes to it."""
    rng = random.Random(seed)
    order = CUT_ORDERS[order_name]
    if zero_dim:
        leads = [(rng.randint(1, 3), 0), (0, rng.randint(1, 3))]
    else:
        # no lead is a pure power of x2, so every x2^k is standard
        leads = [(rng.randint(1, 2), rng.randint(0, 2))
                 for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        leads.append((rng.randint(0, 2), rng.randint(0, 2)))
    leads = [e for e in leads if any(e)]
    corner = highest_corner(leads, 2, order, max_degree)
    terms = {(rng.randint(0, 5), rng.randint(0, 5)): _random_coeff(rng)
             for _ in range(rng.randint(1, 4))}
    extras = [() for _ in leads]
    if corner is not None:
        # a tail term t of divisor j with t | corner: reducing
        # corner - t + lead_j by divisor j generates the corner itself
        j = rng.randrange(len(leads))
        feeds = [(i, k) for i in range(corner[0] + 1) for k in range(corner[1] + 1)
                 if order.key((i, k)) < order.key(leads[j])]
        if feeds:
            t = rng.choice(feeds)
            extras[j] = (t,)
            e = exp_add(exp_sub(corner, t), leads[j])
            if exp_degree(e) <= max_degree and rng.random() < 0.8:
                terms[e] = _random_coeff(rng)
        if rng.random() < 0.3:
            terms[corner] = _random_coeff(rng)
    G = [_divisor_with_lead(rng, e, order, x) for e, x in zip(leads, extras)]
    below = [] if corner is None else [
        (i, d - i) for d in range(max_degree + 1) for i in range(d + 1)
        if order.key((i, d - i)) < order.key(corner)]
    if below and rng.random() < 0.7:
        terms[rng.choice(below)] = _random_coeff(rng)
    return ParamPoly(terms, 2, 1), G, order, bool(set(terms) & set(below))


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(sorted(CUT_ORDERS)), st.booleans(),
       st.integers(min_value=0, max_value=6))
def test_remainder_only_keeps_the_series_remainder(seed, order_name, zero_dim,
                                                   max_degree):
    f, G, order, cut_at_start = _corner_case(seed, order_name, zero_dim,
                                             max_degree)
    full = divide_series(f, G, order, max_degree)
    fast = divide_series(f, G, order, max_degree, remainder_only=True)
    _assert_same_terms(fast.remainder, full.remainder)
    assert fast.steps <= full.steps
    if cut_at_start:
        assert not fast.cofactor_ok


def test_highest_corner_examples():
    leads = ((2, 0), (0, 3))
    assert highest_corner(leads, 2, neg_grevlex(2), 10) == (1, 2)
    assert highest_corner(leads, 2, neg_grevlex(2), 1) == (0, 1)
    assert highest_corner(leads, 2, GREVLEX2, 10) == (0, 0)
    # positive-dimensional staircase: the cutoff bounds the walk
    assert highest_corner(((1, 0),), 2, neg_grevlex(2), 7) == (0, 7)
    assert highest_corner(((1, 1),), 2, NEG_LEX2, 5) == (5, 0)
    assert highest_corner(((0, 0),), 2, neg_grevlex(2), 4) is None


def test_remainder_only_cuts_below_the_corner():
    # leads x1 and x2 leave only the standard monomial 1: every other term
    # reduces into terms of higher degree, which the full division walks
    # up to the cutoff
    f = QP("x1*x2")
    G = [QP("x1 - x1*x2"), QP("x2 - x1*x2")]
    full = divide_series(f, G, neg_grevlex(2), 8)
    fast = divide_series(f, G, neg_grevlex(2), 8, remainder_only=True)
    assert full.remainder.is_zero() and fast.remainder.is_zero()
    assert full.steps > 0 and fast.steps == 0
    assert not fast.cofactor_ok


def test_remainder_only_empty_divisor_list():
    f = P("a*x1^3 + x1*x2 + 2")
    for order in CUT_ORDERS.values():
        for d in (0, 2, 5):
            full = divide_series(f, [], order, d)
            fast = divide_series(f, [], order, d, remainder_only=True)
            _assert_same_terms(fast.remainder, full.remainder)
            assert fast.quotients == []
            assert fast.cofactor_ok == full.cofactor_ok


def test_remainder_only_constant_lead_divisor():
    # a unit under a local order: no standard monomial, remainder 0 at once
    f = P("a*x1 + x2^2 + 3")
    g = P("1 + a*x1")
    for d in (0, 3):
        full = divide_series(f, [g], INTRO_ORDER, d)
        fast = divide_series(f, [g], INTRO_ORDER, d, remainder_only=True)
        assert full.remainder.is_zero() and fast.remainder.is_zero()
        assert fast.steps == 0 and not fast.cofactor_ok


def test_remainder_only_zero_max_degree():
    f = P("a*x1 + x2^2 + 3")
    for order in CUT_ORDERS.values():
        for G in ([P("x1 - a*x2")], [P("x2 + x1^2")], [P("x1"), P("x2")]):
            full = divide_series(f, G, order, 0)
            fast = divide_series(f, G, order, 0, remainder_only=True)
            _assert_same_terms(fast.remainder, full.remainder)
    with pytest.raises(TruncationTooSmall):
        divide_series(f, [P("x1")], neg_grevlex(2), -1, remainder_only=True)


# ---------------------------------------------------------------------------
# nothing to divide: a zero dividend, or one cut away whole by the series cutoff

DIVISIONS = {
    "divide": lambda f, G, order: divide(f, G, order),
    "truncated": lambda f, G, order: divide_truncated(f, G, order),
    "series": lambda f, G, order: divide_series(f, G, order, 3),
    "remainder_only": lambda f, G, order: divide_series(f, G, order, 3,
                                                        remainder_only=True),
}
# a zero divisor is not read, and full division of zero needs no well
# order even against an inhomogeneous divisor
ZERO_DIVIDEND_DIVISORS = {
    "grevlex": (["x1*x2 - 1", "x2^2"], GREVLEX2),
    "zero_divisor": (["0"], GREVLEX2),
    "zero_among_divisors": (["x1", "0"], neg_grevlex(2)),
    "neg_grevlex_inhomogeneous": (["x1 + x2^2"], neg_grevlex(2)),
}


@pytest.mark.parametrize("divisors", sorted(ZERO_DIVIDEND_DIVISORS))
@pytest.mark.parametrize("division", sorted(DIVISIONS))
def test_zero_dividend_gives_zero_quotients_and_remainder(division, divisors):
    texts, order = ZERO_DIVIDEND_DIVISORS[divisors]
    zero = P("0")
    res = DIVISIONS[division](zero, [P(t) for t in texts], order)
    assert res.quotients == [zero] * len(texts)
    assert res.remainder == zero
    assert (res.cofactor_ok, res.steps) == (True, 0)


@pytest.mark.parametrize("remainder_only", [False, True])
@pytest.mark.parametrize("divisors", [["x2"], ["x2", "0"]], ids=["x2", "x2_and_zero"])
def test_series_dividend_above_the_cutoff_gives_zeros(divisors, remainder_only):
    zero = QP("0")
    res = divide_series(QP("x1^5"), [QP(t) for t in divisors], neg_grevlex(2), 3,
                        remainder_only=remainder_only)
    assert res.quotients == [zero] * len(divisors)
    assert res.remainder == zero
    assert (res.cofactor_ok, res.steps) == (False, 0)


# ---------------------------------------------------------------------------
# the key-space loop against the exponent-space loop it replaced


def _reference_loop(f, divisors, order, mode, max_degree=None, guard=None,
                    remainder_only=False):
    """The division loop on exponents, with every key recomputed."""
    leads = []
    for g in divisors:
        de = max(g.terms, key=order.key)
        leads.append((de, g.terms[de]))
    lead_exps = [e for e, _ in leads]
    quotients = [{} for _ in divisors]
    remainder = {}
    iterate = dict(f.terms)
    exact = True
    floor = None
    if remainder_only:
        corner = highest_corner(lead_exps, len(next(iter(iterate))), order, max_degree)
        if corner is None:
            kept = {}
        else:
            floor = order.key(corner)
            kept = {e: c for e, c in iterate.items() if order.key(e) >= floor}
        exact = len(kept) == len(iterate)
        iterate = kept
    steps = 0
    while iterate:
        steps += 1
        if guard is not None and steps > guard:
            raise NonTerminatingDivision(f"no stopping state after {guard} steps")
        e = max(iterate, key=order.key)
        j = region_of(lead_exps, e)
        if j is None:
            if mode == TRUNCATED:
                remainder = iterate
                break
            remainder[e] = iterate.pop(e)
            continue
        de, dc = leads[j]
        shift = exp_sub(e, de)
        coeff = iterate[e] / dc
        quotients[j][shift] = coeff
        for e0, c0 in divisors[j].terms.items():
            ee = exp_add(e0, shift)
            if ee in iterate:
                v = iterate[ee] - c0 * coeff
                if v:
                    iterate[ee] = v
                else:
                    del iterate[ee]
            elif mode == SERIES and (exp_degree(ee) > max_degree or (
                    floor is not None and order.key(ee) < floor)):
                exact = False
            else:
                iterate[ee] = -(c0 * coeff)
    return ([f.with_terms(q) for q in quotients], f.with_terms(remainder),
            exact, steps)


# in two variables the weight rows of the first three orders already tell
# every two exponents apart; neg_deglex breaks degree ties by the lex tail
LOOP_ORDERS = {"grevlex": GREVLEX2, "neg_grevlex": neg_grevlex(2), "mixed": MIXED2,
               "neg_deglex": matrix_order([[-1, -1]])}
LOOP_MODES = {"full": (FULL, False), "truncated": (TRUNCATED, False),
              "series": (SERIES, False), "remainder_only": (SERIES, True)}


def _loop_case(seed, ring, homogeneous):
    """A dividend and one to three divisors in two variables, over Q
    (AScalar) or over Frac(Q[a]) (ParamPoly); optionally homogeneous."""
    rng = random.Random(seed)

    def poly():
        d = rng.randint(0, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, d if homogeneous else 3)
            e = (i, d - i) if homogeneous else (i, rng.randint(0, 3))
            if ring == "AScalar":
                terms[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
            else:
                terms[e] = _random_coeff(rng)
        return AScalar(terms, 2) if ring == "AScalar" else ParamPoly(terms, 2, 1)

    return poly(), [poly() for _ in range(rng.randint(1, 3))]


@settings(max_examples=150)
# cases where a step's largest weight is shared, so only the lex tail of
# the key picks the leading term
@example(81, "full", "neg_deglex", "AScalar", False, 4)
@example(92, "truncated", "neg_deglex", "AScalar", False, 4)
@example(0, "series", "neg_deglex", "ParamPoly", False, 4)
@example(351, "remainder_only", "neg_deglex", "AScalar", False, 4)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(sorted(LOOP_MODES)),
       st.sampled_from(sorted(LOOP_ORDERS)), st.sampled_from(["AScalar", "ParamPoly"]),
       st.booleans(), st.integers(min_value=0, max_value=6))
def test_key_space_loop_matches_the_exponent_space_loop(seed, mode_name, order_name,
                                                        ring, homogeneous, max_degree):
    mode, remainder_only = LOOP_MODES[mode_name]
    order = LOOP_ORDERS[order_name]
    # full division terminates under a non-global order on homogeneous data
    homogeneous = homogeneous or (mode == FULL and not is_global(order))
    f, G = _loop_case(seed, ring, homogeneous)
    # every full and series case stops within 28 steps; a truncated one
    # under a non-global order may never stop, and its Frac(Q[a])
    # coefficients grow fast, so the guard ends it early in both loops
    kwargs = {"guard": 8 if mode == TRUNCATED else 40, "remainder_only": remainder_only,
              "max_degree": max_degree if mode == SERIES else None}
    if mode == SERIES:
        f = f.with_terms({e: c for e, c in f.terms.items() if exp_degree(e) <= max_degree})
        if f.is_zero():
            return
    try:
        want = _reference_loop(f, G, order, mode, **kwargs)
    except NonTerminatingDivision:
        with pytest.raises(NonTerminatingDivision):
            _division_loop(f, G, order, mode, **kwargs)
        return
    got = _division_loop(f, G, order, mode, **kwargs)
    assert len(got.quotients) == len(want[0])
    for q, q_ref in zip(got.quotients, want[0]):
        _assert_same_terms(q, q_ref)
    _assert_same_terms(got.remainder, want[1])
    assert (got.cofactor_ok, got.steps) == want[2:]


# ---------------------------------------------------------------------------
# the integer step: int coefficients against the same data over Fraction


# nonzero integers, most of them not +-1, so that leads are non-monic
_INT_COEFF = st.sampled_from([-9, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 9])


@st.composite
def _int_case(draw, max_vars=3):
    """An order, an int dividend and one to three int divisors in two to
    max_vars variables; homogeneous of one degree each under neg_grevlex."""
    name = draw(st.sampled_from(["grevlex", "lex", "neg_grevlex"]))
    n = draw(st.integers(2, max_vars))
    order = {"grevlex": grevlex, "lex": lex, "neg_grevlex": neg_grevlex}[name](n)

    def poly(max_terms):
        d = draw(st.integers(1, 3))
        exps = st.tuples(*[st.integers(0, 3)] * n)
        if name == "neg_grevlex":  # full division needs homogeneous data there
            exps = exps.filter(lambda e: sum(e) == d)
        return AScalar(draw(st.dictionaries(exps, _INT_COEFF, min_size=1,
                                            max_size=max_terms)), n)

    return order, poly(5), [poly(3) for _ in range(draw(st.integers(1, 3)))]


def _over_fractions(p):
    return AScalar({e: Fraction(c) for e, c in p.terms.items()}, p.m)


@given(_int_case())
def test_integer_step_is_the_field_step_times_the_multiplier(case):
    order, f, G = case
    res = divide(f, G, order)
    field = divide(_over_fractions(f), [_over_fractions(g) for g in G], order)
    lam = res.multiplier
    assert type(lam) is int and lam > 0 and field.multiplier == 1
    assert res.steps == field.steps
    assert res.remainder == field.remainder.scale(lam)
    for q, q_field in zip(res.quotients, field.quotients):
        assert q == q_field.scale(lam)
    acc = res.remainder
    for q, g in zip(res.quotients, G):
        acc = acc + q * g
    assert acc == f.scale(lam)


# two variables: lex bases of four random cubics in three can take minutes
@given(_int_case(max_vars=2))
def test_engine_generators_come_back_over_fractions(case):
    order, f, G = case
    gens = buchberger([f, *G], order).generators
    assert all(type(c) is Fraction for g in gens for c in g.terms.values())


# ---------------------------------------------------------------------------
# packed keys in the loop and in the S-function


KEY_ORDERS = [lex(3), grevlex(3), neg_grevlex(3), matrix_order([[2, -1, 3], [0, -4, 1]]),
              combined_order(neg_grevlex(1), 1, True), combined_order(grevlex(2), 1, False)]


def _fresh_keys(p, order):
    """p's keyed terms computed anew, not read from its cache."""
    return keyed_terms(p.with_terms(dict(p.terms)), order)


@given(st.sampled_from(KEY_ORDERS), st.lists(st.tuples(*[st.integers(0, 3)] * 3),
                                             max_size=5),
       st.tuples(*[st.integers(0, 4)] * 3))
def test_cone_lookup_is_region_of(order, leads, e):
    cones = [order.cone(order.key(d)) for d in leads]
    assert order.region(cones, order.key(e)) == region_of(leads, e)


def _int_poly(rng, n=3):
    return AScalar({tuple(rng.randint(0, 3) for _ in range(n)): rng.choice([-3, -1, 1, 2])
                    for _ in range(rng.randint(1, 5))}, 3)


@given(st.sampled_from(KEY_ORDERS), st.integers(0, 10 ** 6))
def test_key_space_s_function_is_the_exponent_space_one(order, seed):
    rng = random.Random(seed)
    f, g = _int_poly(rng), _int_poly(rng)
    s = s_function(f, g, order)
    assert s == s_combination(f, g, f.leading(order), g.leading(order))
    assert s._kc[0] is order and s._kc[1] == _fresh_keys(s, order)


@given(st.sampled_from(KEY_ORDERS[:2] + KEY_ORDERS[4:]), st.integers(0, 10 ** 6))
def test_remainder_keeps_its_keyed_terms(order, seed):
    rng = random.Random(seed)
    f, G = _int_poly(rng), [_int_poly(rng) for _ in range(rng.randint(1, 3))]
    r = divide(f, G, order).remainder
    assert r._kc[0] is order and r._kc[1] == _fresh_keys(r, order)
    for e, _ in r._kc[1]:
        assert not any(exp_divides(g.leading(order)[0], order.exponent(e)) for g in G)


def test_lex_division_past_the_entry_cap_raises():
    # x1^2 by x1 - x2^(2^31 - 1): the second step generates x2^(2^32 - 2)
    f = AScalar({(2, 0): Fraction(1)}, 2)
    g = AScalar({(1, 0): Fraction(1), (0, ENTRY_CAP - 1): Fraction(-1)}, 2)
    with pytest.raises(ExponentOverflow):
        divide(f, [g], lex(2))
    # one step stays in range: x1 = g + x2^(2^31 - 1)
    res = divide(AScalar({(1, 0): Fraction(1)}, 2), [g], lex(2))
    assert res.remainder == AScalar({(0, ENTRY_CAP - 1): Fraction(1)}, 2)


def test_s_function_past_the_entry_cap_raises():
    # under lex the head of f is x1, so x2 lifts x2^(2^31 - 1) to x2^(2^31)
    f = AScalar({(1, 0): Fraction(1), (0, ENTRY_CAP - 1): Fraction(1)}, 2)
    g = AScalar({(0, 1): Fraction(1)}, 2)
    with pytest.raises(ExponentOverflow):
        s_function(f, g, lex(2))
