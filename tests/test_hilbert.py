import json
import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import inf
from operator import add, le, mul
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from parastd.cli import main
from parastd.errors import ProblemSyntaxError
from parastd.orders import grevlex, matrix_order, neg_grevlex
from parastd.genstd import Staircase, plain_staircase
from parastd.problems import parse_problem
from parastd.hilbert import (
    HilbertData,
    default_r_max,
    hilbert_partition,
    hilbert_polynomial,
    hsf,
    milnor_number,
)

from conftest import BENCH_SPEC, INTRO_ORDER, P, polynomial_value


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
    assert all(polynomial_value(data, r) == data.values[r] for r in range(9))


def test_hilbert_polynomial_zero_ideal_line():
    data = hilbert_polynomial(S(1), 6)
    assert data.coefficients == (Fraction(1), Fraction(1))
    plane = hilbert_polynomial(S(2), 8)
    assert plane.polynomial_text() == "(1/2)*r^2 + (3/2)*r + 1"


def test_hilbert_polynomial_no_stabilization():
    # the window 0..2 is too short to see the polynomial; it is exact anyway
    # and stabilizes past the window
    data = hilbert_polynomial(S(2, (5, 5)), 2)
    assert data.values == [1, 3, 6]
    assert data.coefficients == (-35, 10)
    assert data.stabilization_index == 8


# x1^7 + x2^7 + a*x1*x2: its Jacobian staircase at a = 0 is (x1^6, x2^6)
BRIESKORN_TEXT = """\
params: a
vars: x1, x2
order: neg_grevlex
ideal: 7*x1^6 + a*x2, 7*x2^6 + a*x1
"""


def test_brieskorn_family_milnor_36(capsys, tmp_path):
    F = [P("7*x1^6 + a*x2"), P("7*x2^6 + a*x1")]
    closed = [s for s in hilbert_partition(F, neg_grevlex(2))
              if s.cells[0].vanish]
    assert len(closed) == 1
    assert closed[0].data.milnor == 36
    assert closed[0].data.coefficients == (Fraction(36),)
    path = tmp_path / "brieskorn.psb"
    path.write_text(BRIESKORN_TEXT)
    assert main(["hilbert", str(path), "--format", "json"]) == 0
    strata = json.loads(capsys.readouterr().out)["result"]["strata"]
    at_zero = [s for s in strata if s["cells"][0]["vanish"] == ["a"]]
    assert len(at_zero) == 1
    assert at_zero[0]["milnor"] == "36"
    assert at_zero[0]["polynomial"] == "36"
    assert at_zero[0]["stabilizes_at"] == 10


def simplex(n: int, r: int):
    """Exponents in N^n of degree <= r."""
    if n == 0:
        yield ()
        return
    for a in range(r + 1):
        for rest in simplex(n - 1, r - a):
            yield (a,) + rest


def brute_values(E: Staircase, r_max: int) -> list[int]:
    """hsf on 0..r_max by enumerating the simplex of degree <= r_max."""
    per_degree = [0] * (r_max + 1)
    for alpha in simplex(E.n, r_max):
        if not E.contains(alpha):
            per_degree[sum(alpha)] += 1
    return [sum(per_degree[:r + 1]) for r in range(r_max + 1)]


@st.composite
def staircases(draw):
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=5))
    return Staircase.from_exponents(n, gens)


@given(staircases())
def test_hilbert_polynomial_matches_sympy_binomial_sum(E):
    # c_d counts the generator subsets with lcm of degree d, signed by
    # their size, over every subset; sympy expands the binomials
    sympy = pytest.importorskip("sympy")
    n, r = E.n, sympy.Symbol("r")
    table: dict[int, int] = {}
    for size in range(len(E.generators) + 1):
        for subset in combinations(E.generators, size):
            d = sum(map(max, zip(*subset))) if subset else 0
            table[d] = table.get(d, 0) + (-1) ** size
    expr = sympy.expand(sum(c * sympy.expand_func(sympy.binomial(r - d + n, n))
                            for d, c in table.items()))
    expected = [Fraction(int(c.p), int(c.q)) for c in sympy.Poly(expr, r).all_coeffs()]
    assert hilbert_polynomial(E, 0).coefficients == tuple(reversed(expected))


@given(staircases())
def test_hilbert_polynomial_is_exact_from_its_index(E):
    r_max = default_r_max([E], E.n)
    data = hilbert_polynomial(E, r_max)
    assert data.values == brute_values(E, r_max)
    r0 = data.stabilization_index
    for r in range(r0, r0 + 21):
        assert polynomial_value(data, r) == hsf(E, r)
    if r0 > 0:
        assert polynomial_value(data, r0 - 1) != hsf(E, r0 - 1)


def test_box_staircase_polynomial_is_the_milnor_number():
    for a in range(1, 10):
        for b in range(1, 10):
            E = S(2, (a, 0), (0, b))
            data = hilbert_polynomial(E, default_r_max([E], 2))
            assert data.coefficients == (Fraction(a * b),)
            assert milnor_number(E) == a * b


def test_hilbert_polynomial_of_many_generators_is_fast():
    # m^4 in 4 variables: 35 generators
    E = Staircase.from_exponents(
        4, [e for e in product(range(5), repeat=4) if sum(e) == 4])
    start = time.perf_counter()
    data = hilbert_polynomial(E, default_r_max([E], 4))
    assert time.perf_counter() - start < 1
    assert data.coefficients == (Fraction(35),)
    assert data.stabilization_index == 3


def test_milnor_examples():
    E = S(2, (2, 0), (0, 2))  # jacobian staircase of x1^3 + x2^3
    assert milnor_number(E) == 4
    assert sorted(brute_complement(E, 3)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    morse = S(2, (1, 0), (0, 1))
    assert milnor_number(morse) == 1
    assert milnor_number(S(2)) == inf
    assert milnor_number(S(2, (3, 1), (0, 2))) == inf  # x1 axis unblocked


def test_milnor_number_in_no_variables():
    # Q[x] with n = 0 is Q: mu = dim Q = 1, and 0 for the unit ideal
    assert milnor_number(Staircase(0, ())) == 1 == hsf(Staircase(0, ()), 0)
    assert milnor_number(Staircase(0, ((),))) == 0


def test_milnor_family_partition():
    F = [P("3*x1^2 + a*x2"), P("3*x2^2 + a*x1")]
    strata = hilbert_partition(F, INTRO_ORDER)
    assert len(strata) == 2
    by_mu = {s.data.milnor: s for s in strata}
    assert set(by_mu) == {1, 4}
    assert by_mu[1].cells[0].nonvanish  # a != 0 stratum
    assert by_mu[4].cells[0].vanish     # a = 0 stratum
    assert by_mu[1].data.coefficients == (Fraction(1),)
    assert by_mu[4].data.coefficients == (Fraction(4),)


def test_hilbert_partition_parameter_free():
    strata = hilbert_partition([P("x1", params=()), P("x2", params=())],
                               neg_grevlex(2))
    assert len(strata) == 1
    assert strata[0].data.milnor == 1
    assert strata[0].data.coefficients == (Fraction(1),)


def test_hilbert_partition_requires_degree_compatible_local_order():
    with pytest.raises(ProblemSyntaxError):
        hilbert_partition([P("x1")], grevlex(2))
    with pytest.raises(ProblemSyntaxError):
        hilbert_partition([P("x1")], matrix_order([[-1, -2], [0, -1]]))


def test_specialization_cross_check_dimension():
    # dim Q[x]/(I + m^(r+1)) computed from a from-scratch standard basis of
    # I + m^(r+1) agrees with the staircase count
    F = [P("x1^2 - x2^3", params=()).specialize(())]
    order = neg_grevlex(2)
    E = plain_staircase(F, order)
    for r in range(1, 6):
        degree = r + 1
        mgens = [P(f"x1^{i}*x2^{degree - i}", params=()).specialize(())
                 for i in range(degree + 1)]
        big = plain_staircase(F + mgens, order)
        quotient_dim = hsf(big, 2 * degree)
        assert quotient_dim == hsf(E, r)


def test_milnor_semicontinuity_on_shipped_families():
    # closed cell mu >= open cell mu for families shipped with the package
    for F in ([P("3*x1^2 + a*x2"), P("3*x2^2 + a*x1")],
              [P("3*x1^2 + 2*a*x1"), P("2*x2")]):
        strata = hilbert_partition(F, neg_grevlex(2))
        open_mu = [s.data.milnor for s in strata if s.cells[0].nonvanish]
        closed_mu = [s.data.milnor for s in strata if s.cells[0].vanish]
        assert open_mu and closed_mu
        assert min(closed_mu) >= max(open_mu)


# ---------------------------------------------------------------------------
# mu against a dimension count that shares no engine, division or Hilbert code

ROOT = Path(__file__).resolve().parent.parent
# the shipped problems under a local order with a finite mu somewhere, and
# the families of the benchmark's local_tree workload
LOCAL_FAMILIES = {
    **{name: (ROOT / "problems" / f"{name}.psb").read_text(encoding="utf-8")
       for name in ("cusp_family", "milnor_cubic", "whitney")},
    **{op["problem"]: "\n".join(BENCH_SPEC["problems"][op["problem"]]) + "\n"
       for op in BENCH_SPEC["workloads"]["local_tree"]["ops"]},
}
GRID = [Fraction(v) for v in range(-2, 3)] + [Fraction(1, 2)]


def quotient_dimension(polys, order, k: int):
    """dim_Q Q[x]/(I + m^k) for I generated by polys ({exponent: Fraction}),
    and the leads of the truncations below degree k of the elements of I.

    Modulo m^k, I is spanned by the truncations below degree k of x^alpha * f
    with |alpha| < k, so the dimension is the number of monomials of degree
    below k minus the rank of those truncations, found by exact row
    reduction with each row's pivot its largest term under `order`, whose
    key (W.e followed by e) is written out here from the weight rows. The
    pivot leads are then the leads of every nonzero vector in the span.
    """
    monos = [e for e in product(range(k), repeat=order.n) if sum(e) < k]
    key = {e: tuple(sum(map(mul, row, e)) for row in order.rows) + e for e in monos}.get
    pivots: dict = {}  # largest monomial -> row whose entry there is 1
    for f in polys:
        for alpha in monos:
            row = {s: c for s, c in ((tuple(map(add, alpha, e)), c) for e, c in f.items())
                   if sum(s) < k}
            while row:
                lead = max(row, key=key)
                c = row[lead]
                if lead not in pivots:
                    pivots[lead] = {e: v / c for e, v in row.items()}
                    break
                for e, v in pivots[lead].items():
                    w = row.get(e, 0) - c * v
                    if w:
                        row[e] = w
                    else:
                        del row[e]
    return len(monos) - len(pivots), set(pivots)


@pytest.mark.parametrize("name", sorted(LOCAL_FAMILIES))
def test_milnor_number_matches_a_dimension_count(name):
    # at a grid point of each stratum: a finite mu is d(s+1) = d(s+2) for
    # d(k) = dim Q[x]/(I + m^k) and s = stabilizes_at (two equal values give
    # m^(s+1) in I locally, by Nakayama); an infinite mu needs d to grow.
    # Under a degree-compatible local order the leads of the truncations
    # below degree k are in(I) below k, so their minimal elements are the
    # staircase generators of degree below k: all of them for a finite mu
    # at k = s+2, since m^(s+1) lies in in(I)
    problem = parse_problem(LOCAL_FAMILIES[name])
    order = problem.order
    checked = 0
    for stratum in hilbert_partition(problem.ideal, order,
                                     seed=problem.options.get("seed", 0)):
        point = next((p for cell in stratum.cells
                      for p in product(GRID, repeat=problem.m) if cell.contains(p)), None)
        if point is None:
            continue
        polys = [{e: v for e, c in f.terms.items() if (v := c.evaluate(point))}
                 for f in problem.ideal]
        s = stratum.data.stabilization_index
        ks = range(1, 7) if stratum.data.milnor == inf else (s + 1, s + 2)
        dims, leads = zip(*(quotient_dimension(polys, order, k) for k in ks))
        if stratum.data.milnor == inf:
            assert all(x < y for x, y in zip(dims, dims[1:])), (point, dims)
        else:
            assert dims == (stratum.data.milnor,) * 2, (point, s)
        k, leads = ks[-1], leads[-1]
        minimal = {e for e in leads
                   if not any(d != e and all(map(le, d, e)) for d in leads)}
        got = plain_staircase([f.specialize(point) for f in problem.ideal], order)
        below = {e for e in got.generators if sum(e) < k}
        assert minimal == below, (point, k)
        if stratum.data.milnor != inf:
            assert below == set(got.generators), (point, k)
        checked += 1
    assert checked
