import copy
import pickle
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from parastd.errors import DimensionMismatch, ExponentOverflow
from parastd.orders import (
    ENTRY_CAP,
    GLOBAL,
    LOCAL,
    MIXED,
    ROW_WEIGHT_CAP,
    MonomialOrder,
    Staircase,
    classify,
    combined_order,
    compare,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    grevlex,
    is_degree_compatible_local,
    lex,
    matrix_order,
    minimal_exponents,
    neg_grevlex,
)

LOCAL_ORDER = matrix_order([[-1, -1], [-1, 0]])
GREVLEX2 = matrix_order([[1, 1], [0, -1]])


def test_compare_local_order_prefers_low_weight():
    # under the local order x2 beats x1
    assert compare(LOCAL_ORDER, (1, 0), (0, 1)) == -1
    assert compare(LOCAL_ORDER, (0, 1), (1, 0)) == 1


def test_compare_reflexive():
    assert compare(LOCAL_ORDER, (2, 3), (2, 3)) == 0


def test_compare_grevlex():
    assert compare(GREVLEX2, (2, 0), (1, 1)) == 1


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compare(LOCAL_ORDER, (1, 0, 0), (0, 1, 0))


def test_classify_examples():
    assert classify(GREVLEX2) == GLOBAL
    assert classify(LOCAL_ORDER) == LOCAL
    assert classify(matrix_order([[1, -1], [1, 0]])) == MIXED
    assert classify(lex(3)) == GLOBAL
    assert classify(neg_grevlex(3)) == LOCAL


def homogenized_order(main):
    return combined_order(main, 0, homogenized=True)


def test_homogenized_order_construction():
    h = homogenized_order(LOCAL_ORDER)
    assert h.rows == ((1, 1, 1), (-1, -1, 0), (-1, 0, 0))
    assert classify(h) == GLOBAL


def test_homogenized_order_comparisons():
    h = homogenized_order(LOCAL_ORDER)
    # x2*z vs x1*x2: equal degree, the local main order prefers x2
    assert compare(h, (0, 1, 1), (1, 1, 0)) == 1
    # z vs x1: equal degree, 1 beats x1 locally, so z wins
    assert compare(h, (0, 0, 1), (1, 0, 0)) == 1


def test_composite_block_compare():
    co = combined_order(lex(2), 1, homogenized=False)
    assert co.n == 3  # exponents are (x1, x2, a)
    # a*x1 vs a^2*x2: the x part decides
    assert compare(co, (1, 0) + (1,), (0, 1) + (2,)) == 1
    # a*x1 vs a^2*x1: x parts equal, parameter part decides
    assert compare(co, (1, 0) + (1,), (1, 0) + (2,)) == -1


def test_composite_homogenized_compare():
    co = combined_order(LOCAL_ORDER, 1, homogenized=True)
    assert co.n == 4  # exponents are (x1, x2, z, a)
    # a*x1*z vs x1*x2: compared by the homogenized main part first
    assert compare(co, (1, 0, 1) + (1,), (1, 1, 0) + (0,)) == compare(
        homogenized_order(LOCAL_ORDER), (1, 0, 1), (1, 1, 0))
    # equal (x, z) parts: the parameter part decides
    assert compare(co, (1, 0, 1) + (1,), (1, 0, 1) + (0,)) == 1


def test_degree_compatibility_check():
    assert is_degree_compatible_local(LOCAL_ORDER)
    assert is_degree_compatible_local(neg_grevlex(3))
    assert not is_degree_compatible_local(matrix_order([[-1, -2], [-1, 0]]))
    assert not is_degree_compatible_local(grevlex(2))


small_exp = st.tuples(*[st.integers(min_value=0, max_value=6)] * 3)
orders3 = st.sampled_from([
    lex(3), grevlex(3), neg_grevlex(3),
    matrix_order([[-1, -1, -1], [-1, 0, 0], [0, -1, 0]]),
    matrix_order([[1, 2, 0], [0, -1, 3]]),
])


@given(orders3, small_exp, small_exp)
def test_totality(order, a, b):
    c = compare(order, a, b)
    assert c in (-1, 0, 1)
    assert (c == 0) == (a == b)
    assert compare(order, b, a) == -c


@given(orders3, small_exp, small_exp, small_exp)
def test_product_compatibility(order, a, b, g):
    assert compare(order, a, b) == compare(order, exp_add(a, g), exp_add(b, g))


@given(orders3)
def test_homogenized_always_global(order):
    assert classify(homogenized_order(order)) == GLOBAL


@given(st.integers(min_value=0, max_value=4),
       st.tuples(*[st.integers(min_value=0, max_value=4)] * 2),
       st.tuples(*[st.integers(min_value=0, max_value=4)] * 2))
def test_block_order_eliminates_main_variables(k, xpart, gamma):
    # with a global main order, any monomial containing an x variable
    # exceeds every pure-parameter monomial
    co = combined_order(grevlex(2), 2, homogenized=False)
    if sum(xpart) == 0:
        return
    assert compare(co, xpart + (0, k), (0, 0) + gamma) == 1


def test_product_compatibility_bulk():
    import random
    rng = random.Random(5)
    pools = {
        4: [lex(4), grevlex(4), neg_grevlex(4),
            matrix_order([[-2, -1, -3, -1], [0, 0, -1, 0]])],
        6: [lex(6), grevlex(6), neg_grevlex(6),
            matrix_order([[1, -1, 2, 0, 0, -3], [0, 1, 0, -1, 0, 0]])],
    }
    for _ in range(1000):
        n = rng.choice([4, 6])
        order = rng.choice(pools[n])
        a, b, g = (tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(3))
        assert compare(order, a, b) == compare(order, exp_add(a, g), exp_add(b, g))


# ---------------------------------------------------------------------------
# minimal generators of a monomial ideal, and the exponent kernels


def minimal_reference(exponents) -> set:
    """The O(k^2) definition: the distinct exponents no other one divides."""
    exps = set(exponents)
    return {e for e in exps
            if not any(f != e and all(x <= y for x, y in zip(f, e)) for f in exps)}


exponent_lists = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
                       max_size=16))


@given(exponent_lists)
@example([])
@example([(2, 1), (2, 1), (1, 0), (1, 0)])
@example([(1, 1, 0), (0, 2, 0), (0, 0, 2), (2, 0, 0), (1, 0, 1), (0, 1, 1)])
@example([(1, 1), (0, 1), (3, 0), (0, 1)])
def test_minimal_exponents_matches_the_quadratic_definition(exps):
    got = minimal_exponents(exps)
    assert len(got) == len(set(got))
    assert set(got) == minimal_reference(exps)


@pytest.mark.parametrize("n, d", [(1, 3), (2, 4), (3, 3), (4, 2)])
def test_minimal_exponents_keeps_an_equal_degree_antichain(n, d):
    # distinct exponents of one degree never divide each other
    layer = [e for e in product(range(d + 1), repeat=n) if sum(e) == d]
    assert set(minimal_exponents(layer + layer[::-1])) == set(layer)
    # one more exponent below the layer divides some of it, and those go
    below = (d - 1,) + (0,) * (n - 1)
    assert set(minimal_exponents(layer + [below])) == (
        {below} | {e for e in layer if not all(x <= y for x, y in zip(below, e))})


int_tuples = st.lists(st.integers(min_value=-5, max_value=5), max_size=5).map(tuple)


@given(int_tuples, int_tuples)
@example((1, 2, 3), (1, 2))
@example((), (0,))
def test_exponent_kernels_match_their_zip_forms(a, b):
    pairs = list(zip(a, b))
    assert exp_add(a, b) == tuple(x + y for x, y in pairs)
    assert exp_sub(a, b) == tuple(x - y for x, y in pairs)
    assert exp_lcm(a, b) == tuple(max(x, y) for x, y in pairs)
    assert exp_divides(a, b) is all(x <= y for x, y in pairs)


# ---------------------------------------------------------------------------
# packed keys: one int per exponent


@st.composite
def packed_orders(draw):
    """A matrix order with negative weights (some rows near the weight cap),
    neg_grevlex, or a block or homogenized combined order over one of them."""
    n = draw(st.integers(1, 4))
    weight = st.one_of(st.integers(-5, 5),
                       st.integers(-(ROW_WEIGHT_CAP - 1) // n, (ROW_WEIGHT_CAP - 1) // n))
    main = draw(st.one_of(
        st.lists(st.lists(weight, min_size=n, max_size=n), max_size=3).map(
            lambda rows: matrix_order(rows, n)),
        st.just(neg_grevlex(n)), st.just(grevlex(n))))
    if draw(st.booleans()):
        return main
    return combined_order(main, draw(st.integers(0, 2)), draw(st.booleans()))


def entries(n, top):
    return st.tuples(*[st.one_of(st.integers(0, 6), st.integers(0, top - 1))] * n)


def weighted(order, e):
    """The tuple key the packed one replaces: (W.e, e)."""
    return tuple(sum(w * x for w, x in zip(row, e)) for row in order.rows) + e


@given(packed_orders().flatmap(
    lambda o: st.tuples(st.just(o), entries(o.n, ENTRY_CAP), entries(o.n, ENTRY_CAP))))
def test_packed_key_compares_as_the_weighted_tuple(case):
    order, a, b = case
    assert (order.key(a) < order.key(b)) == (weighted(order, a) < weighted(order, b))
    assert (order.key(a) == order.key(b)) == (a == b)


@given(packed_orders().flatmap(lambda o: st.tuples(st.just(o), entries(o.n, ENTRY_CAP))))
def test_packed_key_unpacks_to_its_exponent_and_degree(case):
    order, e = case
    assert order.exponent(order.key(e)) == e
    assert order.degree(order.key(e)) == sum(e)


@given(packed_orders().flatmap(lambda o: st.tuples(
    st.just(o), entries(o.n, ENTRY_CAP // 2), entries(o.n, ENTRY_CAP // 2))))
def test_packed_key_is_linear(case):
    order, a, b = case
    zero = (0,) * order.n
    assert order.key(exp_add(a, b)) - order.key(b) == order.key(a) - order.key(zero)
    assert order.key(zero) == order.origin


@given(packed_orders().flatmap(
    lambda o: st.tuples(st.just(o), entries(o.n, ENTRY_CAP), entries(o.n, ENTRY_CAP))))
def test_cone_test_is_exp_divides(case):
    order, a, b = case
    cone = order.cone(order.key(a))
    assert (order.region([cone], order.key(b)) == 0) is exp_divides(a, b)
    assert order.region([], order.key(b)) is None


def test_key_refuses_an_entry_at_the_cap():
    order = grevlex(2)
    assert order.exponent(order.key((ENTRY_CAP - 1, 0))) == (ENTRY_CAP - 1, 0)
    with pytest.raises(ExponentOverflow):
        order.key((0, ENTRY_CAP))


def test_key_refuses_a_row_at_the_weight_cap():
    fits = matrix_order([[ROW_WEIGHT_CAP // 2, -(ROW_WEIGHT_CAP // 2 - 1)]])
    assert fits.exponent(fits.key((3, 4))) == (3, 4)
    with pytest.raises(ExponentOverflow):
        matrix_order([[ROW_WEIGHT_CAP // 2, -(ROW_WEIGHT_CAP // 2)]])


def test_overflow_mask_meets_a_sum_past_the_cap():
    # (2^31 - 1, 0) times x1 is one past the cap; keys add as exponents do
    order = neg_grevlex(2)
    top = order.key((ENTRY_CAP - 1, 0))
    shift = order.key((1, 0)) - order.origin
    assert (top - shift) & order.overflow == 0
    assert (top + shift) & order.overflow


def test_combined_order_is_memoized():
    main, same = grevlex(3), matrix_order(grevlex(3).rows)
    assert main == same and main is not same
    for homogenized in (False, True):
        assert combined_order(main, 2, homogenized) is combined_order(same, 2, homogenized)
    assert combined_order(main, 2, False) is not combined_order(main, 2, True)


def test_an_order_survives_copy_and_pickle():
    order = combined_order(neg_grevlex(2), 1, True)
    for twin in (copy.deepcopy(order), pickle.loads(pickle.dumps(order))):
        assert twin == order
        assert twin.key((1, 0, 2, 3)) == order.key((1, 0, 2, 3))


@pytest.mark.parametrize("value", [grevlex(3), matrix_order([[1, 2], [0, -1]]),
                                   Staircase(2, ((0, 2), (1, 1), (3, 0)))],
                         ids=["grevlex", "matrix", "staircase"])
def test_a_value_reads_back_from_its_repr(value):
    twin = eval(repr(value), {"MonomialOrder": MonomialOrder, "Staircase": Staircase})
    assert twin is not value
    assert twin == value and hash(twin) == hash(value)
