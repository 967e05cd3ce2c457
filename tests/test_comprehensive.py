import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from parastd.errors import DepthExceeded, MultipleCells, NoCell, ProblemSyntaxError
from parastd.orders import grevlex, lex, neg_grevlex
from parastd.polyring import AScalar, rational_roots
from parastd.genstd import generic_reduced_basis, plain_staircase, verify_specialization
from parastd.problems import parse_problem
from parastd.cli import run
from parastd import comprehensive, genstd, sampling
from parastd.comprehensive import (
    Cell,
    comprehensive_basis,
    in_radical,
    locate,
)

from conftest import (BENCH_SPEC, INTRO_ORDER, P, bench_text, leading_mod_q,
                      outside_input_ideal, record_calls, value_at)

A = AScalar.var(0, 1)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="module")
def intro_result():
    return comprehensive_basis([P("a*x2 - x1*x2 + x1")], INTRO_ORDER)


@pytest.fixture(scope="module")
def milnor_result():
    F = [P("3*x1^2 + a*x2"), P("3*x2^2 + a*x1")]
    return comprehensive_basis(F, INTRO_ORDER)


def test_intro_two_cells(intro_result):
    cells = intro_result.cells
    assert len(cells) == 2
    generic, special = cells
    assert generic.cell.vanish == ()
    assert list(generic.cell.nonvanish) == [A]
    assert generic.basis.staircase.generators == ((0, 1),)
    assert list(special.cell.vanish) == [A]
    assert special.basis.staircase.generators == ((1, 0),)


def test_parameter_free_input_single_cell():
    res = comprehensive_basis([P("x1", params=())], INTRO_ORDER)
    assert len(res.cells) == 1
    assert res.cells[0].basis.staircase.generators == ((1, 0),)


def test_milnor_family_cells(milnor_result):
    cells = milnor_result.cells
    assert len(cells) == 2
    assert cells[0].basis.staircase.generators == ((0, 1), (1, 0))
    assert cells[1].basis.staircase.generators == ((0, 2), (2, 0))


def test_locate_examples(intro_result):
    assert locate(intro_result, (Fraction(2),)) == 0
    assert locate(intro_result, (Fraction(0),)) == 1


def test_locate_error_paths(intro_result):
    broken = type(intro_result)(cells=[intro_result.cells[0]])
    with pytest.raises(NoCell):
        locate(broken, (Fraction(0),))
    dup = type(intro_result)(
        cells=[intro_result.cells[0], intro_result.cells[0]])
    with pytest.raises(MultipleCells):
        locate(dup, (Fraction(5),))


def test_partition_property_sampled(intro_result, milnor_result):
    rng = random.Random(99)
    for result in (intro_result, milnor_result):
        points = {(Fraction(0),)}
        # include every root of every condition polynomial
        for entry in result.cells:
            for s in list(entry.cell.vanish) + list(entry.cell.nonvanish):
                for r in rational_roots(s):
                    points.add((r,))
        while len(points) < 101:
            points.add((Fraction(rng.randint(-30, 30), rng.randint(1, 7)),))
        for p in sorted(points):
            locate(result, p)  # raises unless exactly one cell matches


def test_per_cell_staircase_constancy(milnor_result):
    rng = random.Random(5)
    F = [P("3*x1^2 + a*x2"), P("3*x2^2 + a*x1")]
    for entry in milnor_result.cells:
        samples = []
        if not entry.cell.vanish:
            while len(samples) < 5:
                c = (Fraction(rng.randint(-20, 20), rng.randint(1, 5)),)
                if entry.cell.contains(c):
                    samples.append(c)
        else:
            roots = rational_roots(entry.cell.vanish[0])
            samples = [(r,) for r in roots if entry.cell.contains((r,))]
        assert samples
        for c in samples:
            got = plain_staircase([f.specialize(c) for f in F], INTRO_ORDER)
            assert got == entry.basis.staircase


def test_global_generating_set(milnor_result):
    # union of all cells' generators lies in the input ideal (sympy oracle)
    sympy = pytest.importorskip("sympy")
    for entry in milnor_result.cells:
        assert outside_input_ideal(entry.basis, sympy) == []


def test_tree_termination_vanish_sets_grow(intro_result):
    for entry in intro_result.cells:
        seen = set()
        for v in entry.cell.vanish:
            key = str(sorted(v.terms.items()))
            assert key not in seen
            seen.add(key)


def test_depth_exceeded():
    F = [P("3*x1^2 + a*x2"), P("3*x2^2 + a*x1")]
    with pytest.raises(DepthExceeded):
        comprehensive_basis(F, INTRO_ORDER, max_depth=0)


def test_in_radical():
    a2 = A * A
    assert in_radical(A, [a2])
    assert not in_radical(A + AScalar.one(1), [a2])
    assert in_radical(a2, [A])
    # zero vanishes everywhere, with or without generators
    assert in_radical(AScalar.zero(1), []) and in_radical(AScalar.zero(1), [A])


_A2, _B2 = AScalar.var(0, 2), AScalar.var(1, 2)
_ONE2 = AScalar.one(2)


@pytest.mark.parametrize("p, egens", [
    (AScalar.const(2, 2), [_A2, _A2 - _ONE2]),  # unit ideal, constant p
    (_A2 + _ONE2, [_A2, _A2 - _ONE2]),  # unit ideal
    (AScalar.const(-3, 2), [_A2 * _B2 - _ONE2, _A2]),  # unit, not a Groebner basis
    (AScalar.const(2, 2), [_A2 * _A2, _B2]),  # proper ideal, constant p
    (AScalar.const(1, 2), [_A2 * _A2 + _ONE2]),  # proper, no rational point
    (_A2, [_A2 * _A2, _B2]),
    (_A2 + _B2 + _ONE2, [_A2 * _A2, _B2]),
    (_B2 * (_A2 + _ONE2), [_A2 * _A2 + _ONE2, _B2 * _B2]),
], ids=["unit-const", "unit-linear", "unit-const-not-gb", "proper-const",
        "proper-const-no-point", "proper-in", "proper-out", "proper-product"])
def test_in_radical_against_sympy(p, egens):
    # p lies in the radical of <egens> iff sympy's Groebner basis of
    # <egens, 1 - t*p> is [1]
    sympy = pytest.importorskip("sympy")
    a, b, t = sympy.symbols("a b t")

    def expr(s):
        return sum(sympy.Rational(c.numerator, c.denominator) * a ** i * b ** j
                   for (i, j), c in s.terms.items())

    gb = sympy.groebner([expr(g) for g in egens] + [1 - t * expr(p)], a, b, t,
                        order="lex")
    assert in_radical(p, egens) == (list(gb.exprs) == [1])


def _product(factors, m):
    out = AScalar.one(m)
    for f in factors:
        out = out * f
    return out


_ROOTS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# factors with no rational root, so they vanish at none of the chosen roots
_NO_ROOT = [A * A + AScalar.one(1), A * A - AScalar.const(2, 1), A * A + A + AScalar.one(1)]


# degrees stay at 6 or less: the lex basis behind in_radical grows fast
# over Q (E of degree 9 with p of degree 10 takes seconds)
@given(st.lists(st.tuples(_ROOTS, st.integers(1, 3)), min_size=1, max_size=2,
                unique_by=lambda t: t[0]),
       st.lists(st.tuples(_ROOTS, st.integers(1, 2)), max_size=2),
       st.lists(st.sampled_from(_NO_ROOT), max_size=1),
       st.integers(-3, 3).filter(bool))
def test_in_radical_one_parameter_matches_root_evaluation(e_roots, p_roots, extra, c):
    # E = <prod (a - r_i)^k_i> vanishes exactly at the r_i, so p lies in
    # the radical of E iff p vanishes at every r_i
    def lin(r):
        return A - AScalar.const(r, 1)

    E = _product([lin(r) for r, k in e_roots for _ in range(k)], 1)
    p = _product([lin(r) for r, k in p_roots for _ in range(k)]
                 + extra, 1).scale(Fraction(c))
    expected = all(value_at(p, (r,)) == 0 for r, _ in e_roots)
    assert in_radical(p, [E]) == expected


_AB_POLY = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           st.integers(-3, 3), max_size=3)


@given(_ROOTS, _ROOTS, _AB_POLY, _AB_POLY, st.integers(-2, 2))
def test_in_radical_two_parameters_matches_point_evaluation(r, s, u, v, c):
    # E = <a - r, b - s> vanishes exactly at (r, s); p = (a - r)*u + (b - s)*v + c
    # lies in its radical iff p vanishes there
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    ea, eb = a - AScalar.const(r, 2), b - AScalar.const(s, 2)

    def poly(terms):
        return AScalar({e: Fraction(k) for e, k in terms.items()}, 2)

    p = ea * poly(u) + eb * poly(v) + AScalar.const(c, 2)
    assert in_radical(p, [ea, eb]) == (value_at(p, (r, s)) == 0)


@given(_ROOTS, _ROOTS, _AB_POLY, _AB_POLY)
def test_in_radical_of_a_member_runs_no_engine(r, s, u, v):
    # p = (a - r)*u + (b - s)*v lies in <a - r, b - s> itself
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    ea, eb = a - AScalar.const(r, 2), b - AScalar.const(s, 2)

    def poly(terms):
        return AScalar({e: Fraction(k) for e, k in terms.items()}, 2)

    with pytest.MonkeyPatch.context() as mp:
        calls = record_calls(mp, comprehensive, "buchberger")
        assert in_radical(ea * poly(u) + eb * poly(v), [ea, eb])
    assert calls == []


def test_in_radical_outside_the_ideal_runs_the_engine(monkeypatch):
    # a is not in <a^2> but in its radical: only the Rabinowitsch run says so
    calls = record_calls(monkeypatch, comprehensive, "buchberger")
    assert in_radical(A, [A * A])
    assert len(calls) == 1


def test_tree_resplits_stored_h_factors():
    # h is (a - 1)*(a^2 + 8)^3 here; the tree branches on the square-free
    # factor a^2 + 8, not on a power of it
    res = comprehensive_basis([P("(a - 1)*(a^2 + 8)^3*x1^2 + x2")], grevlex(2))
    sq = A * A + AScalar.const(8, 1)
    root = res.cells[0].cell
    assert root.vanish == ()
    assert sq in root.nonvanish
    assert sq * sq not in root.nonvanish


def test_non_radical_conditions_handled():
    # user-style scenario where branching lands on a power: the machinery
    # saturates the vanishing set instead of emitting an empty cell
    F = [P("(a^2)*x1 + x2"), P("a*x2^2")]
    res = comprehensive_basis(F, lex(2))
    for point in [(Fraction(0),), (Fraction(1),), (Fraction(-2),)]:
        idx = locate(res, point)
        got = plain_staircase([f.specialize(point) for f in F], lex(2))
        assert got == res.cells[idx].basis.staircase


def test_two_parameter_partition():
    params = ("a", "b")
    F = [P("a*x1^2 + b*x2", params=params), P("x1*x2 + a", params=params)]
    res = comprehensive_basis(F, grevlex(2))
    rng = random.Random(17)
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
           (Fraction(0), Fraction(1))]
    while len(pts) < 40:
        pts.append((Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3))))
    for p in pts:
        idx = locate(res, p)
        got = plain_staircase([f.specialize(p) for f in F], grevlex(2))
        assert got == res.cells[idx].basis.staircase, (p, idx)


def test_partition_fuzz_random_families():
    # random one-parameter families: every sampled point lands in exactly
    # one cell whose staircase the from-scratch oracle confirms
    from conftest import random_poly
    rng = random.Random(31415)
    orders = [lex(2), grevlex(2), neg_grevlex(2), INTRO_ORDER]
    for trial in range(12):
        order = orders[trial % len(orders)]
        F = [random_poly(rng, 2, 1, max_terms=3, max_exp=2)
             for _ in range(rng.randint(1, 2))]
        res = comprehensive_basis(F, order, max_depth=10)
        pts = {(Fraction(0),)}
        while len(pts) < 12:
            pts.add((Fraction(rng.randint(-15, 15), rng.randint(1, 4)),))
        for p in sorted(pts):
            idx = locate(res, p)
            got = plain_staircase([f.specialize(p) for f in F], order)
            assert got == res.cells[idx].basis.staircase


def test_the_tree_draws_no_sample_point(monkeypatch):
    # each cell is right by the argument in the comprehensive docstring, so
    # building the tree runs no sample check and draws no point
    problem = parse_problem((PROBLEMS / "two_params.psb").read_text())
    calls = [record_calls(monkeypatch, mod, name)
             for owner, name in [(genstd, "verify_specialization"),
                                 (sampling, "variety_points")]
             for mod in (owner, comprehensive) if hasattr(mod, name)]
    comprehensive_basis(problem.ideal, problem.order)
    assert len(calls) >= 2 and not any(calls)


# every problem text of the shipped files and the benchmark ladder (all
# with at most two parameters), and a grid of small rational points that
# hits V(a), V(b) and V(a, b) directly
PARTITION_CASES = {**{p.stem: p.read_text(encoding="utf-8")
                      for p in sorted(PROBLEMS.glob("*.psb"))},
                   **{k: bench_text(k) for k in BENCH_SPEC["problems"]}}
GRID = [Fraction(v) for v in range(-2, 3)] + [Fraction(1, 2)]


@pytest.mark.parametrize("name", sorted(PARTITION_CASES))
def test_cells_partition_the_grid(name):
    # the tree's cells cover parameter space and are pairwise disjoint (so
    # `covering: true` holds), and each cell's staircase is the one the
    # specialized ideal has; the grid is not the sampler's, so cells the
    # sampler misses are checked too
    problem = parse_problem(PARTITION_CASES[name])
    assert problem.m <= 2
    if any(not c.den.is_constant() for f in problem.ideal for c in f.terms.values()):
        # a parameter denominator could vanish on a cell: the tree refuses it
        with pytest.raises(ProblemSyntaxError, match="polynomials in the parameters"):
            comprehensive_basis(problem.ideal, problem.order)
        return
    res = comprehensive_basis(problem.ideal, problem.order)
    for point in itertools.product(GRID, repeat=problem.m):
        cell = res.cells[locate(res, point)]  # raises unless exactly one cell
        got = plain_staircase([f.specialize(point) for f in problem.ideal],
                              problem.order)
        assert got == cell.basis.staircase, point
    # the leads read off the engine are the mod-Q leads, also on cell ideals
    # that are not prime, and so are those of the truncated reduced basis
    for entry in res.cells:
        basis = entry.basis
        trunc = max(6, basis.staircase.max_generator_degree())
        for b in (basis, generic_reduced_basis(basis, trunc)):
            for g, lead in zip(b.gens, b.leads):
                assert lead == leading_mod_q(g, b.order, b.ctx), entry.cell


# Coefficients whose factors meet at the origin and repeat across a and b,
# so the tree's node ideals are often not prime (<(a - b)^2>, <a^2 - b^2>);
# with factors such as a - 1 mixed in, the lex bases of the node ideals can
# grow for seconds, so the family keeps to these
_NODE_COEFFS = ["1", "-3", "a", "b", "a*b", "a^2", "(a - b)^2", "(a - b)*(a + b)",
                "a*(a - b)", "b*(a + b)"]
_TERM = st.tuples(st.sampled_from(_NODE_COEFFS),
                  st.sampled_from(["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]))


@settings(max_examples=25)
@given(st.sampled_from([lex(2), grevlex(2), neg_grevlex(2), INTRO_ORDER]),
       st.lists(st.lists(_TERM, min_size=2, max_size=2, unique_by=lambda t: t[1]),
                min_size=1, max_size=2))
def test_every_grid_point_passes_the_sample_check_of_its_cell(order, gens):
    # the tree samples no point (its docstring proves the cells right), so
    # the check runs here: at every grid point, on V(a), V(b) and V(a, b)
    # too, the staircase and the leads of the point's cell are the ones
    # the specialized ideal has
    F = [P(" + ".join(f"({c})*{m}" for c, m in g), params=("a", "b")) for g in gens]
    res = comprehensive_basis(F, order)
    for point in itertools.product(GRID, repeat=2):
        check, = verify_specialization(res.cells[locate(res, point)].basis, [point])
        assert check.ok, (point, check.note)


def test_hilbert_asks_each_radical_question_once(monkeypatch):
    # e7_local's tree asks 18 distinct questions (p against a Q basis); each
    # is asked once
    problem = parse_problem(bench_text("e7_local"))
    calls = record_calls(monkeypatch, comprehensive, "in_radical")
    _, code = run("hilbert", problem)
    assert code == 0
    asked = [(p, tuple(egens)) for p, egens in calls]
    assert len(asked) == len(set(asked)) == 18


def test_equal_cells_compare_and_hash_equal():
    def cell():  # a = 1, a != 0, from fresh polynomials each time
        return Cell((AScalar({(1,): Fraction(1), (0,): Fraction(-1)}, 1),),
                    (AScalar({(1,): Fraction(1)}, 1),))

    one, two = cell(), cell()
    assert one is not two and one.vanish[0] is not two.vanish[0]
    assert one == two and hash(one) == hash(two)
    assert len({one, two}) == 1
    assert one != Cell(one.nonvanish, one.vanish)
