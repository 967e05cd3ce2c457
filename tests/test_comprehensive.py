import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from parastd.errors import DepthExceeded, MultipleCells, NoCell, ParastdError
from parastd.orders import grevlex, lex, neg_grevlex
from parastd.polyring import AScalar, rational_roots
from parastd.genstd import SampleCheck, generic_reduced_basis, plain_staircase
from parastd.problems import parse_problem
from parastd.cli import run
from parastd import comprehensive
from parastd.buchberger import buchberger
from parastd.comprehensive import (
    Cell,
    comprehensive_basis,
    in_radical,
    locate,
)

from conftest import (BENCH_SPEC, INTRO_ORDER, P, leading_mod_q, outside_input_ideal,
                      value_at)

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


def _count_engine_runs(mp):
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return buchberger(*args, **kwargs)

    mp.setattr(comprehensive, "buchberger", counted)
    return calls


@given(_ROOTS, _ROOTS, _AB_POLY, _AB_POLY)
def test_in_radical_of_a_member_runs_no_engine(r, s, u, v):
    # p = (a - r)*u + (b - s)*v lies in <a - r, b - s> itself
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    ea, eb = a - AScalar.const(r, 2), b - AScalar.const(s, 2)

    def poly(terms):
        return AScalar({e: Fraction(k) for e, k in terms.items()}, 2)

    with pytest.MonkeyPatch.context() as mp:
        calls = _count_engine_runs(mp)
        assert in_radical(ea * poly(u) + eb * poly(v), [ea, eb])
    assert calls == []


def test_in_radical_outside_the_ideal_runs_the_engine(monkeypatch):
    # a is not in <a^2> but in its radical: only the Rabinowitsch run says so
    calls = _count_engine_runs(monkeypatch)
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
    res = comprehensive_basis(F, grevlex(2), seed=3)
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
    from parastd.orders import matrix_order
    rng = random.Random(31415)
    orders = [lex(2), grevlex(2), neg_grevlex(2), INTRO_ORDER]
    for trial in range(12):
        order = orders[trial % len(orders)]
        F = [random_poly(rng, 2, 1, max_terms=3, max_exp=2)
             for _ in range(rng.randint(1, 2))]
        res = comprehensive_basis(F, order, max_depth=10, seed=trial)
        pts = {(Fraction(0),)}
        while len(pts) < 12:
            pts.add((Fraction(rng.randint(-15, 15), rng.randint(1, 4)),))
        for p in sorted(pts):
            idx = locate(res, p)
            got = plain_staircase([f.specialize(p) for f in F], order)
            assert got == res.cells[idx].basis.staircase


def _fail_first_cell_at(point):
    """A stand-in for verify_specialization that fails only its first call."""
    calls = []

    def fake(basis, points):
        calls.append(basis)
        if len(calls) == 1:
            return [SampleCheck(point, False, basis.staircase, "staged")]
        return [SampleCheck(tuple(p), True, basis.staircase) for p in points]

    return fake, calls


def test_tree_splits_where_verify_specialization_fails(monkeypatch):
    # the tree checks its cells with verify_specialization: a failing check
    # at a = 2 splits the root cell on the factor a - 2 of a coefficient
    import parastd.comprehensive as comp

    fake, calls = _fail_first_cell_at((Fraction(2),))
    monkeypatch.setattr(comp, "verify_specialization", fake)
    res = comprehensive_basis([P("x1 + (a - 2)*x2")], lex(2))
    split = A - AScalar.const(2, 1)
    assert len(calls) == 3
    assert [(e.cell.vanish, e.cell.nonvanish) for e in res.cells] == [
        ((split,), ()), ((), (split,))]


def test_tree_raises_when_the_failing_sample_has_no_offending_factor(monkeypatch):
    import parastd.comprehensive as comp

    fake, _ = _fail_first_cell_at((Fraction(3),))
    monkeypatch.setattr(comp, "verify_specialization", fake)
    with pytest.raises(ParastdError, match="no offending coefficient"):
        comprehensive_basis([P("a*x2 - x1*x2 + x1")], INTRO_ORDER)


def test_every_cell_of_two_params_is_sampled(monkeypatch):
    # the cell vanish: [b, a] has the one point (0, 0); the tree must check it
    import parastd.comprehensive as comp

    problem = parse_problem((PROBLEMS / "two_params.psb").read_text())
    checked, real = {}, comp.verify_specialization

    def recording(basis, points):
        checked[basis.ctx.qbasis] = list(points)
        return real(basis, points)

    monkeypatch.setattr(comp, "verify_specialization", recording)
    res = comprehensive_basis(problem.ideal, problem.order, seed=problem.options["seed"])
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    cell = next(e for e in res.cells if set(e.cell.vanish) == {a, b})
    assert checked[cell.basis.ctx.qbasis] == [(Fraction(0), Fraction(0))]
    assert all(checked[e.basis.ctx.qbasis] for e in res.cells)


# every problem text of the shipped files and the benchmark ladder (all
# with at most two parameters), and a grid of small rational points that
# hits V(a), V(b) and V(a, b) directly
PARTITION_CASES = {**{p.stem: p.read_text(encoding="utf-8")
                      for p in sorted(PROBLEMS.glob("*.psb"))},
                   **{k: "\n".join(v) + "\n" for k, v in BENCH_SPEC["problems"].items()}}
GRID = [Fraction(v) for v in range(-2, 3)] + [Fraction(1, 2)]


@pytest.mark.parametrize("name", sorted(PARTITION_CASES))
def test_cells_partition_the_grid(name):
    # the tree's cells cover parameter space and are pairwise disjoint (so
    # `covering: true` holds), and each cell's staircase is the one the
    # specialized ideal has; the grid is not the sampler's, so cells the
    # sampler misses are checked too
    problem = parse_problem(PARTITION_CASES[name])
    assert problem.m <= 2
    res = comprehensive_basis(problem.ideal, problem.order,
                              seed=problem.options.get("seed", 0))
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


def test_hilbert_asks_each_radical_question_once(monkeypatch):
    # e7_local's tree asks 18 distinct questions (p against a Q basis); each
    # is asked once, and the result is the benchmark's golden one
    golden = json.loads((PROBLEMS.parent / "bench" / "golden.json").read_text(encoding="utf-8"))
    problem = parse_problem("\n".join(BENCH_SPEC["problems"]["e7_local"]) + "\n")
    asked = []

    def recording(p, egens):
        asked.append((p, tuple(egens)))
        return in_radical(p, egens)

    monkeypatch.setattr(comprehensive, "in_radical", recording)
    doc, code = run("hilbert", problem)
    assert code == 0
    assert len(asked) == len(set(asked)) == 18
    text = json.dumps(doc["result"], sort_keys=True, separators=(",", ":"))
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
            == golden["default_seed"]["hilbert e7_local"])
