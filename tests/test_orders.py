from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from parastd.errors import DimensionMismatch
from parastd.orders import (
    GLOBAL,
    LOCAL,
    MIXED,
    MonomialOrder,
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
