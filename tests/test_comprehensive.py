import random
from fractions import Fraction

import pytest

from parastd.errors import DepthExceeded, MultipleCells, NoCell, ParastdError
from parastd.orders import grevlex, lex, neg_grevlex
from parastd.polyring import AScalar, rational_roots
from parastd.genstd import SampleCheck, VerificationReport, plain_staircase
from parastd.comprehensive import (
    Cell,
    comprehensive_basis,
    in_radical,
    locate,
)

from conftest import INTRO_ORDER, P

A = AScalar.var(0, 1)


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
    assert generic.staircase.generators == ((0, 1),)
    assert list(special.cell.vanish) == [A]
    assert special.staircase.generators == ((1, 0),)


def test_parameter_free_input_single_cell():
    res = comprehensive_basis([P("x1", params=())], INTRO_ORDER)
    assert len(res.cells) == 1
    assert res.cells[0].staircase.generators == ((1, 0),)


def test_milnor_family_cells(milnor_result):
    cells = milnor_result.cells
    assert len(cells) == 2
    assert cells[0].staircase.generators == ((0, 1), (1, 0))
    assert cells[1].staircase.generators == ((0, 2), (2, 0))


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
            assert got == entry.staircase


def test_global_generating_set(milnor_result):
    # union of all cells' generators lies in the input ideal, with
    # certificates, and each cell's subset specializes to a standard basis
    from parastd.genstd import certify_membership
    for entry in milnor_result.cells:
        assert all(d.is_zero() for d in certify_membership(entry.basis))


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


def test_non_radical_conditions_handled():
    # user-style scenario where branching lands on a power: the machinery
    # saturates the vanishing set instead of emitting an empty cell
    F = [P("(a^2)*x1 + x2"), P("a*x2^2")]
    res = comprehensive_basis(F, lex(2))
    for point in [(Fraction(0),), (Fraction(1),), (Fraction(-2),)]:
        idx = locate(res, point)
        got = plain_staircase([f.specialize(point) for f in F], lex(2))
        assert got == res.cells[idx].staircase


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
        assert got == res.cells[idx].staircase, (p, idx)


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
            assert got == res.cells[idx].staircase


def _fail_first_cell_at(point):
    """A stand-in for verify_specialization that fails only its first call."""
    calls = []

    def fake(basis, points):
        calls.append(basis)
        if len(calls) == 1:
            return VerificationReport([SampleCheck(point, False, basis.staircase, "staged")])
        return VerificationReport([SampleCheck(tuple(p), True, basis.staircase)
                                   for p in points])

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
