import random
from fractions import Fraction
from itertools import product
from math import inf

import pytest

from parastd.errors import NoStabilization, ParastdError
from parastd.orders import grevlex, matrix_order, neg_grevlex
from parastd.genstd import Staircase, plain_staircase
from parastd.hilbert import (
    HilbertData,
    default_r_max,
    hilbert_partition,
    hilbert_polynomial,
    hsf,
    milnor_number,
)

from conftest import INTRO_ORDER, P


def brute_hsf(E: Staircase, r: int) -> int:
    """Enumerate the box [0..r]^n and count points outside every cone."""
    count = 0
    for alpha in product(range(r + 1), repeat=E.n):
        if sum(alpha) <= r and not E.contains(alpha):
            count += 1
    return count


def brute_complement(E: Staircase, bound: int):
    pts = [alpha for alpha in product(range(bound + 1), repeat=E.n)
           if not E.contains(alpha)]
    return pts


def S(n, *gens):
    return Staircase.from_exponents(n, gens)


def test_hsf_three_corner_example():
    E = S(2, (2, 0), (1, 1), (0, 2))
    assert hsf(E, 0) == 1
    assert hsf(E, 1) == 3
    assert hsf(E, 5) == 3


def test_hsf_zero_ideal():
    assert hsf(S(2), 2) == 6


def test_hsf_unit_ideal():
    E = S(2, (0, 0))
    assert all(hsf(E, r) == 0 for r in range(6))


def test_hsf_matches_brute_force_on_random_staircases():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 6) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        E = Staircase.from_exponents(n, gens)
        for r in range(13):
            assert hsf(E, r) == brute_hsf(E, r), (E, r)


def test_hsf_many_generators_pruned_tree():
    # generator counts beyond the naive inclusion-exclusion range
    rng = random.Random(8)
    gens = [tuple(rng.randint(0, 7) for _ in range(3)) for _ in range(16)]
    E = Staircase.from_exponents(3, gens)
    big = Staircase(3, tuple(sorted(set(gens))))  # keep all 16, antichain or not
    for r in range(0, 11, 2):
        assert hsf(big, r) == brute_hsf(big, r)


def test_hilbert_polynomial_constant_case():
    E = S(2, (2, 0), (1, 1), (0, 2))
    data = hilbert_polynomial(E, 8)
    assert data.coefficients == (Fraction(3),)
    assert data.stabilization_index == 1
    assert data.values[:3] == [1, 3, 3]
    assert data.polynomial_text() == "3"
    assert HilbertData([], (Fraction(0),), 0).polynomial_text() == "0"
    negative = HilbertData([], (Fraction(-1), Fraction(0), Fraction(-3, 2)), 0)
    assert negative.polynomial_text() == "-(3/2)*r^2 - 1"


def test_hilbert_polynomial_linear_case():
    E = S(2, (1, 0))
    data = hilbert_polynomial(E, 8)
    assert data.coefficients == (Fraction(1), Fraction(1))  # r + 1
    assert all(data.polynomial_value(r) == data.values[r] for r in range(9))


def test_hilbert_polynomial_zero_ideal_line():
    data = hilbert_polynomial(S(1), 6)
    assert data.coefficients == (Fraction(1), Fraction(1))
    plane = hilbert_polynomial(S(2), 8)
    assert plane.polynomial_text() == "(1/2)*r^2 + (3/2)*r + 1"


def test_hilbert_polynomial_no_stabilization():
    E = S(2, (5, 5))
    with pytest.raises(NoStabilization):
        hilbert_polynomial(E, 2)


def test_milnor_examples():
    E = S(2, (2, 0), (0, 2))  # jacobian staircase of x1^3 + x2^3
    assert milnor_number(E) == 4
    assert sorted(brute_complement(E, 3)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    morse = S(2, (1, 0), (0, 1))
    assert milnor_number(morse) == 1
    assert milnor_number(S(2)) == inf
    assert milnor_number(S(2, (3, 1), (0, 2))) == inf  # x1 axis unblocked


def test_milnor_family_partition():
    F = [P("3*x1^2 + a*x2"), P("3*x2^2 + a*x1")]
    strata = hilbert_partition(F, INTRO_ORDER)
    assert len(strata) == 2
    by_mu = {s.milnor: s for s in strata}
    assert set(by_mu) == {1, 4}
    assert by_mu[1].cells[0].nonvanish  # a != 0 stratum
    assert by_mu[4].cells[0].vanish     # a = 0 stratum
    assert by_mu[1].data.coefficients == (Fraction(1),)
    assert by_mu[4].data.coefficients == (Fraction(4),)


def test_hilbert_partition_parameter_free():
    strata = hilbert_partition([P("x1", params=()), P("x2", params=())],
                               neg_grevlex(2))
    assert len(strata) == 1
    assert strata[0].milnor == 1
    assert strata[0].data.coefficients == (Fraction(1),)


def test_hilbert_partition_requires_degree_compatible_local_order():
    with pytest.raises(ParastdError):
        hilbert_partition([P("x1")], grevlex(2))
    with pytest.raises(ParastdError):
        hilbert_partition([P("x1")], matrix_order([[-1, -2], [0, -1]]))


def test_specialization_cross_check_dimension():
    # dim Q[x]/(I + m^(r+1)) computed from a from-scratch standard basis of
    # I + m^(r+1) agrees with the staircase count
    F = [P("x1^2 - x2^3", params=())]
    order = neg_grevlex(2)
    E = plain_staircase(F, order)
    for r in range(1, 6):
        degree = r + 1
        mgens = [P(f"x1^{i}*x2^{degree - i}", params=())
                 for i in range(degree + 1)]
        big = plain_staircase(F + mgens, order)
        quotient_dim = hsf(big, 2 * degree)
        assert quotient_dim == hsf(E, r)


def test_milnor_semicontinuity_on_shipped_families():
    # closed cell mu >= open cell mu for families shipped with the package
    for F in ([P("3*x1^2 + a*x2"), P("3*x2^2 + a*x1")],
              [P("3*x1^2 + 2*a*x1"), P("2*x2")]):
        strata = hilbert_partition(F, neg_grevlex(2))
        open_mu = [s.milnor for s in strata if s.cells[0].nonvanish]
        closed_mu = [s.milnor for s in strata if s.cells[0].vanish]
        assert open_mu and closed_mu
        assert min(closed_mu) >= max(open_mu)
