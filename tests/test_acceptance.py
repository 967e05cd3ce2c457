"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Expected values tagged as derived were computed with the
independent oracles in this module (brute-force lattice enumeration,
hand-replayed division loops) before being pinned.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

from parastd.orders import grevlex, lex, matrix_order, region_of
from parastd.polyring import (
    AScalar,
    ParamPoly,
    ParamScalar,
    embed_params_as_vars,
    render_poly,
)
from parastd.division import divide, s_function
from parastd.buchberger import buchberger
from parastd.genstd import (
    PrimeContext,
    Staircase,
    generic_basis,
    generic_reduced_basis,
    plain_staircase,
    verify_specialization,
)
from parastd.comprehensive import comprehensive_basis, locate
from parastd.hilbert import hilbert_polynomial, hsf, milnor_number
from parastd.cli import main as cli_main
from parastd.problems import parse_problem, poly_from_string

from conftest import (INTRO_ORDER, P, divides_factor_power, division_identity,
                      polynomial_value)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
CTX0 = PrimeContext.trivial(1)


def _report(k, name, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {k} {name}: PASS ({elapsed:.2f}s)")
    return elapsed


def test_criterion_1_intro_reproduction():
    started = time.perf_counter()
    f = P("a*x2 - x1*x2 + x1")
    b0 = generic_basis([f], INTRO_ORDER, CTX0)
    assert b0.h_poly() == AScalar.var(0, 1)          # h = a, exactly
    assert b0.staircase.generators == ((0, 1),)
    ctx_a = PrimeContext.from_generators([AScalar.var(0, 1)], 1)
    ba = generic_basis([f], INTRO_ORDER, ctx_a)
    assert ba.staircase.generators == ((1, 0),)
    red = generic_reduced_basis(b0, 3)
    assert render_poly(red.gens[0], INTRO_ORDER, ("x1", "x2"), ("a",)) == \
        "x2 + (1/a)*x1 + (1/a^2)*x1^2 + (1/a^3)*x1^3"
    elapsed = _report(1, "intro-example reproduction", started)
    assert elapsed < 1.0


def _random_term_bounded(rng, n, max_deg):
    while True:
        e = tuple(rng.randint(0, max_deg) for _ in range(n))
        if sum(e) <= max_deg:
            return e


def _random_poly_deg(rng, n, m, max_terms, max_deg, homogeneous=False):
    terms = {}
    target = rng.randint(1, max_deg) if homogeneous else None
    for _ in range(rng.randint(1, max_terms)):
        if homogeneous:
            e = _random_term_bounded(rng, n, target)
            while sum(e) != target:
                e = _random_term_bounded(rng, n, target)
        else:
            e = _random_term_bounded(rng, n, max_deg)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        num = {(0,) * m: Fraction(c)}
        if m and rng.random() < 0.5:
            num[tuple(rng.randint(0, 1) for _ in range(m))] = Fraction(
                rng.choice([1, 2, -1]))
        coeff = ParamScalar(AScalar({k: v for k, v in num.items() if v}, m))
        if not coeff.is_zero():
            terms[e] = coeff
    if not terms:
        terms = {(0,) * n: ParamScalar.one(m)}
    return ParamPoly(terms, n, m)


def test_criterion_2_division_suite():
    started = time.perf_counter()
    rng = random.Random(2024)
    orders = [lex(1), lex(2), lex(3), grevlex(2), grevlex(3),
              matrix_order([[1, 1], [1, 0]]), matrix_order([[3, 1, 2], [0, 1, 0]])]
    for k in range(500):
        order = orders[k % len(orders)]
        n = order.n
        m = 1 if k % 3 else 0
        f = _random_poly_deg(rng, n, m, max_terms=5, max_deg=4)
        G = [_random_poly_deg(rng, n, m, max_terms=3, max_deg=3)
             for _ in range(rng.randint(1, 4))]
        res = divide(f, G, order)
        assert division_identity(res, f, G)
        leads = [g.leading(order)[0] for g in G]
        for j, q in enumerate(res.quotients):
            ej = G[j].leading(order)[0]
            for e in q.terms:
                assert region_of(leads, tuple(a + b for a, b in zip(e, ej))) == j
        for e in res.remainder.terms:
            assert region_of(leads, e) is None
        if not f.is_zero():
            cands = [res.remainder] + [q * g for q, g in zip(res.quotients, G)]
            tops = [p.leading(order)[0] for p in cands if not p.is_zero()]
            assert max(tops, key=order.key) == f.leading(order)[0]
        if not res.remainder.is_zero():
            again = divide(res.remainder, G, order)
            assert again.remainder == res.remainder
            assert all(q.is_zero() for q in again.quotients)
        if m:
            lead_nums = [g.leading(order)[1].num for g in G]
            for p in res.quotients + [res.remainder]:
                for c in p.terms.values():
                    assert c.den.is_constant() or \
                        divides_factor_power(c.den, lead_nums)
    elapsed = _report(2, "division suite (500 instances)", started)
    assert elapsed < 30.0


def test_criterion_3_buchberger_suite():
    started = time.perf_counter()
    rng = random.Random(777)
    for k in range(100):
        n = rng.randint(1, 3)
        order = grevlex(n) if k % 2 else lex(n)
        homogeneous = k % 5 == 0
        F = [embed_params_as_vars(_random_poly_deg(rng, n, 0, max_terms=3, max_deg=3,
                                                   homogeneous=homogeneous))
             for _ in range(rng.randint(1, 3))]
        res = buchberger(F, order)
        G = res.generators
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                s = s_function(G[i], G[j], order)
                if not s.is_zero():
                    assert divide(s, G, order).remainder.is_zero()
        for f in F:
            assert divide(f, G, order).remainder.is_zero()
        if homogeneous:
            assert all(g.is_homogeneous() for g in G)
    elapsed = _report(3, "buchberger suite (100 ideals)", started)
    assert elapsed < 60.0


def test_criterion_4_specialization_theorem():
    started = time.perf_counter()
    rng = random.Random(4321)
    failures = 0
    examples = ["intro", "milnor_cubic", "cusp_family", "global_lex",
                "two_params", "whitney"]
    for name in examples:
        prob = parse_problem((PROBLEMS / f"{name}.psb").read_text())
        ctx = PrimeContext.from_generators(prob.qgens, prob.m)
        B = generic_basis(prob.ideal, prob.order, ctx)
        h = B.h_poly()
        points = []
        tries = 0
        while len(points) < 10 and tries < 1000:
            tries += 1
            c = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(prob.m))
            if h.evaluate(c) != 0 and c not in points:
                points.append(c)
        assert len(points) >= 10
        report = verify_specialization(B, points)
        failures += sum(0 if c.ok else 1 for c in report)
    # the single admissible point of the Q=<a> variant
    prob = parse_problem((PROBLEMS / "intro_q_a.psb").read_text())
    ctx = PrimeContext.from_generators(prob.qgens, prob.m)
    B = generic_basis(prob.ideal, prob.order, ctx)
    report = verify_specialization(B, [(Fraction(0),)])
    failures += sum(0 if c.ok else 1 for c in report)
    assert failures == 0
    elapsed = _report(4, "specialization theorem on shipped examples", started)
    assert elapsed < 60.0


def _brute_complement_count(E: Staircase, bound: int):
    pts = [a for a in product(range(bound + 1), repeat=E.n)
           if not E.contains(a)]
    return len(pts)


def test_criterion_5_comprehensive_partition():
    started = time.perf_counter()
    rng = random.Random(55)
    intro = comprehensive_basis([P("a*x2 - x1*x2 + x1")], INTRO_ORDER)
    milnor_F = [P("3*x1^2 + a*x2"), P("3*x2^2 + a*x1")]
    milnor = comprehensive_basis(milnor_F, INTRO_ORDER)
    for result in (intro, milnor):
        points = {(Fraction(0),)}
        while len(points) < 101:
            points.add((Fraction(rng.randint(-40, 40), rng.randint(1, 9)),))
        for p in points:
            locate(result, p)  # unique cell or it raises
    # per-cell staircase constancy via the from-scratch oracle
    for entry in milnor.cells:
        samples = [(Fraction(0),)] if entry.cell.vanish else \
            [(Fraction(k),) for k in (1, 2, -1, 3, -5)]
        for c in samples:
            if not entry.cell.contains(c):
                continue
            spec = [f.specialize(c) for f in milnor_F]
            got = plain_staircase([f for f in spec if not f.is_zero()],
                                  INTRO_ORDER)
            assert got == entry.basis.staircase
    # Milnor numbers per cell, verified against brute-force complements
    mus = {}
    for entry in milnor.cells:
        mu = milnor_number(entry.basis.staircase)
        brute = _brute_complement_count(entry.basis.staircase, 8)
        assert mu == brute
        key = "open" if entry.cell.nonvanish else "closed"
        mus[key] = mu
    assert mus == {"open": 1, "closed": 4}
    elapsed = _report(5, "comprehensive partition + Milnor numbers", started)
    assert elapsed < 30.0


def test_criterion_6_hilbert_oracle():
    started = time.perf_counter()
    rng = random.Random(66)
    for _ in range(20):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 6) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        E = Staircase.from_exponents(n, gens)
        for r in range(13):
            brute = sum(1 for a in product(range(r + 1), repeat=n)
                        if sum(a) <= r and not E.contains(a))
            assert hsf(E, r) == brute
        data = hilbert_polynomial(E, max(12, n + E.max_generator_degree() + 2))
        for r in range(data.stabilization_index, len(data.values)):
            assert polynomial_value(data, r) == data.values[r]
    elapsed = _report(6, "hilbert oracle equivalence", started)
    assert elapsed < 10.0


def test_criterion_7_reduced_uniqueness():
    started = time.perf_counter()
    f = P("a*x2 - x1*x2 + x1")
    other = [P("x1 + 1") * f, P("x1*x2") * f, f]
    for qgens in ([], [AScalar.var(0, 1)]):
        ctx = PrimeContext.from_generators(qgens, 1)
        r1 = generic_reduced_basis(generic_basis([f], INTRO_ORDER, ctx), 4)
        r2 = generic_reduced_basis(generic_basis(other, INTRO_ORDER, ctx), 4)
        assert r1.staircase == r2.staircase
        assert len(r1.gens) == len(r2.gens)
        for g1, g2 in zip(r1.gens, r2.gens):
            diff = g1 - g2
            for c in diff.terms.values():
                assert ctx.contains(c.num)  # difference vanishes mod Q
    _report(7, "generic reduced basis uniqueness mod Q", started)


def test_criterion_8_cli_contract(capsys, tmp_path):
    started = time.perf_counter()
    shipped = ["intro", "intro_q_a", "milnor_cubic", "cusp_family",
               "global_lex", "two_params", "whitney"]
    # parse/print round trip on every generator of every shipped example
    for name in shipped:
        path = PROBLEMS / f"{name}.psb"
        prob = parse_problem(path.read_text())
        assert cli_main(["gsb", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for text in doc["result"]["generators"]:
            g = poly_from_string(text, prob.params, prob.vars)
            assert render_poly(g, prob.order, prob.vars, prob.params) == text
    # determinism: byte-identical output for a fixed seed
    for args in (["verify", str(PROBLEMS / "intro.psb"), "--seed", "9",
                  "--format", "json"],
                 ["comprehensive", str(PROBLEMS / "milnor_cubic.psb")],
                 ["hilbert", str(PROBLEMS / "milnor_cubic.psb"),
                  "--format", "json"]):
        assert cli_main(args) in (0,)
        first = capsys.readouterr().out
        assert cli_main(args) in (0,)
        assert capsys.readouterr().out == first
    # exit-code contract on malformed inputs
    bad = tmp_path / "bad.psb"
    for text in ("vars: x1\norder: lex\nideal:\n",
                 "vars: x1\norder: lex\nideal: zz\n",
                 "vars: x1\norder: nope\nideal: x1\n",
                 "vars: x1\norder: lex\nideal: x1\nideal: x1\n"):
        bad.write_text(text)
        assert cli_main(["gsb", str(bad)]) == 1
        capsys.readouterr()
    assert cli_main(["gsb", str(tmp_path / "missing.psb")]) == 1
    capsys.readouterr()
    with capsys.disabled():
        _report(8, "CLI contract", started)
