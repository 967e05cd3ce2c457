import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from parastd import buchberger as engine, division
from parastd.cli import main
from parastd.comprehensive import in_radical
from parastd.genstd import plain_staircase
from parastd.errors import NonTerminatingOrder
from parastd.orders import combined_order, exp_divides, grevlex, lex, neg_grevlex
from parastd.polyring import AScalar, embed_params_as_vars
from parastd.division import divide, divide_keyed, s_function, s_function_keyed
from parastd.buchberger import (
    buchberger,
    minimalize,
    normal_form_param,
    parameter_groebner,
    reduce_basis,
)

from conftest import INTRO_ORDER, P, bench_text, random_poly

GREVLEX2 = grevlex(2)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


# the engine runs over Q: inputs are AScalar polynomials in the variables
# of the ring (x1, x2, and then a where the text has a parameter)
def QP(text, vars=("x1", "x2")):
    return embed_params_as_vars(P(text, params=(), vars=vars))


def XA(text):
    return embed_params_as_vars(P(text))


def random_q_poly(rng, n, **kwargs):
    return embed_params_as_vars(random_poly(rng, n, 0, **kwargs))


def staircase_of(res):
    return sorted(set(res.leads))


def assert_is_standard_basis(res, inputs, order):
    # S-criterion plus zero remainder of every input: the full certificate
    G = res.generators
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            s = s_function(G[i], G[j], order)
            if not s.is_zero():
                assert divide(s, G, order).remainder.is_zero()
    for f in inputs:
        if not f.is_zero():
            assert divide(f, G, order).remainder.is_zero()


def images_follow(F, order, seed):
    """Run the engine with images p*f for a random p; every generator's
    image must then be p*g, before and after minimalize (the image map is
    linear, so a wrong sign or a lost quotient step shows here)."""
    p = random_q_poly(random.Random(seed), F[0].m, max_terms=3, max_exp=2,
                      integral=False)
    res = buchberger(F, order, [p * f for f in F])
    for r in (res, minimalize(res)):
        assert len(r.images) == len(r.generators)
        assert all(im == p * g for g, im in zip(r.generators, r.images))
    return res


SEEDS = st.integers(min_value=0, max_value=10 ** 6)


@given(SEEDS)
def test_buchberger_textbook_pair(seed):
    F = [QP("x1^2 - x2"), QP("x1*x2 - 1")]
    res = images_follow(F, GREVLEX2, seed)
    assert_is_standard_basis(res, F, GREVLEX2)
    mini = minimalize(res)
    # staircase pinned by the oracle: x1^2, x1*x2, x2^2 are the corners
    assert staircase_of(mini) == [(0, 2), (1, 1), (2, 0)]


def test_buchberger_single_element():
    F = [XA("a*x2 - x1*x2 + x1")]
    res = buchberger(F, combined_order(GREVLEX2, 1, homogenized=False))
    assert len(res.generators) == 1
    assert res.generators[0] == F[0]


def test_buchberger_homogenized_principal():
    # the homogenized intro polynomial is already a basis (principal ideal)
    comb = XA("a*x2 - x1*x2 + x1").homogenize(2)
    order = combined_order(INTRO_ORDER, 1, homogenized=True)
    res = buchberger([comb], order)
    assert len(res.generators) == 1
    assert all(g.is_homogeneous(3) for g in res.generators)


def test_buchberger_rejects_local_order():
    with pytest.raises(NonTerminatingOrder):
        buchberger([XA("a*x2 - x1*x2 + x1")],
                   combined_order(INTRO_ORDER, 1, homogenized=False))


def test_minimalize_cone_absorption():
    F = [QP("x1"), QP("x1^2"), QP("x2")]
    res = buchberger(F, GREVLEX2)
    mini = minimalize(res)
    assert staircase_of(mini) == [(0, 1), (1, 0)]
    already = minimalize(mini)
    assert [g for g in already.generators] == [g for g in mini.generators]


def test_minimalize_keeps_staircase():
    F = [QP("x1*x2"), QP("x1")]
    res = minimalize(buchberger(F, GREVLEX2))
    assert staircase_of(res) == [(1, 0)]


def test_minimalize_under_a_local_order():
    # neg_grevlex puts x1^2 below x1, so a walk up the order meets the
    # multiple before its divisor
    res = buchberger([QP("x1^2"), QP("x1")], neg_grevlex(2))
    assert res.leads == [(2, 0), (1, 0)]
    mini = minimalize(res)
    assert mini.generators == [res.generators[1]]
    assert mini.images == [res.images[1]]


@pytest.mark.parametrize("regime", ["lex", "grevlex", "homogenized"])
@given(st.sampled_from([(2, 2), (3, 1)]).flatmap(
    lambda shape: q_ideals(shape[0], 3, max_exp=shape[1])))
def test_minimalize_keeps_the_first_generator_on_each_minimal_lead(regime, F):
    n = F[0].m
    if regime == "homogenized":
        F, order = [f.homogenize(n) for f in F], neg_grevlex(n + 1)
    else:
        order = {"lex": lex, "grevlex": grevlex}[regime](n)
    res = buchberger(F, order)
    mini = minimalize(res)
    leads, kept = res.leads, mini.leads
    assert leads == [g.leading(order)[0] for g in res.generators]
    assert kept == [g.leading(order)[0] for g in mini.generators]
    assert not any(i != j and exp_divides(a, b)
                   for i, a in enumerate(kept) for j, b in enumerate(kept))
    assert all(any(exp_divides(a, e) for a in kept) for e in leads)
    firsts = [leads.index(e) for e in kept]
    assert firsts == sorted(firsts)
    assert all(g is res.generators[i] for g, i in zip(mini.generators, firsts))


def test_reduce_basis_examples():
    lex2 = lex(2)
    F = [QP("2*x1 + x2^2"), QP("x2^3")]
    res = reduce_basis(minimalize(buchberger(F, lex2)).generators, lex2)
    assert res[0] == QP("x1 + 1/2*x2^2")
    assert res[1] == QP("x2^3")
    # fixed point
    assert reduce_basis(res, lex2) == res
    # tail reduction
    F2 = [QP("x1 + x2"), QP("x2")]
    res2 = reduce_basis(minimalize(buchberger(F2, lex2)).generators, lex2)
    assert sorted_polys(res2) == sorted_polys([QP("x1"), QP("x2")])


def sorted_polys(gens):
    return sorted(str(sorted(g.terms)) for g in gens)


def test_reduced_basis_unique_across_generating_sets():
    lex2 = lex(2)
    F1 = [QP("x1^2 - x2"), QP("x1*x2 - 1")]
    # same ideal, different generators: add x1*f1 + x2*f2 and reorder
    F2 = [QP("x1^3 + x1*x2^2 - x1*x2 - x2"), QP("x1*x2 - 1"), QP("x1^2 - x2")]
    r1 = reduce_basis(minimalize(buchberger(F1, lex2)).generators, lex2)
    r2 = reduce_basis(minimalize(buchberger(F2, lex2)).generators, lex2)
    assert sorted_polys(r1) == sorted_polys(r2)


def test_zero_remainder_for_random_ideal_elements():
    rng = random.Random(3)
    F = [QP("x1^2 - x2"), QP("x1*x2 - 1")]
    res = buchberger(F, GREVLEX2)
    for _ in range(10):
        f = AScalar.zero(2)
        for g in F:
            f = f + random_q_poly(rng, 2, max_terms=3, max_exp=2) * g
        if f.is_zero():
            continue
        assert divide(f, res.generators, GREVLEX2).remainder.is_zero()


def test_homogeneity_preserved():
    F = [QP("x1^2 + x2^2"), QP("x1*x2")]
    res = buchberger(F, GREVLEX2)
    assert all(g.is_homogeneous() for g in res.generators)


def test_staircase_stable_under_minimalize_and_reduce():
    F = [QP("x1^2 - x2"), QP("x1*x2 - 1")]
    res = buchberger(F, GREVLEX2)
    cones = {e for e in res.leads}
    mini = minimalize(res)
    red = reduce_basis(mini.generators, GREVLEX2)
    for leads in (mini.leads, [g.leading(GREVLEX2)[0] for g in red]):
        for e in cones:
            assert any(exp_divides(d, e) for d in leads)


def test_random_ideals_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    syms = [x1, x2, x3]
    for _ in range(8):
        n = rng.choice([2, 3])
        F = [random_q_poly(rng, n, max_terms=3, max_exp=2) for _ in range(2)]
        res = minimalize(buchberger(F, grevlex(n)))
        ours = set(res.leads)
        sf = [to_sympy(f, syms, sympy) for f in F]
        gb = sympy.groebner(sf, *syms[:n], order="grevlex")
        theirs = set()
        for p in gb.polys:
            theirs.add(tuple(p.LM(order="grevlex").exponents))
        assert ours == theirs


def test_parameter_groebner_and_normal_form():
    a = AScalar.var(0, 2)
    b = AScalar.var(1, 2)
    one = AScalar.one(2)
    basis = parameter_groebner([a * b - b, a * a - a])
    # b*(a-1) and a*(a-1): membership via zero normal form
    assert normal_form_param((a - one) * b, basis).is_zero()
    assert not normal_form_param(a + b, basis).is_zero()


def to_sympy(f, syms, sympy):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.prod([s ** k for s, k in zip(syms, e)])
               for e, c in f.terms.items())


def sympy_reduced_basis(F, syms, order_name, sympy):
    """Reduced basis from sympy.groebner, as scaled term sets."""
    gb = sympy.groebner([to_sympy(f, syms, sympy) for f in F], *syms, order=order_name)
    return {_scaled_terms({e: Fraction(int(c.p), int(c.q))
                           for e, c in p.terms(order=order_name)})
            for p in gb.polys}


def _scaled_terms(terms):
    """Terms scaled so that the lex-largest exponent has coefficient 1."""
    lead = terms[max(terms)]
    return frozenset((e, c / lead) for e, c in terms.items())


def q_ideals(n, count, integral=True, max_exp=2):
    """Lists of small random polynomials over Q in n variables."""
    return st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=count,
                    max_size=count).map(
        lambda seeds: [random_q_poly(random.Random(s), n, max_terms=3, max_exp=max_exp,
                                     integral=integral) for s in seeds])


@given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(
           q_ideals(n, 2, integral=False), st.sampled_from(["lex", "grevlex"]))), SEEDS)
def test_engine_on_q_against_sympy(case, seed):
    # images follow their generators through minimalize, and the reduced
    # basis is sympy's
    sympy = pytest.importorskip("sympy")
    F, order_name = case
    n = F[0].m
    order = {"lex": lex, "grevlex": grevlex}[order_name](n)
    mini = minimalize(images_follow(F, order, seed))
    red = reduce_basis(mini.generators, order)
    assert all(g.leading(order)[1] == 1 for g in red)
    ours = {_scaled_terms(g.terms) for g in red}
    assert ours == sympy_reduced_basis(F, sympy.symbols(f"x0:{n}"), order_name, sympy)


@pytest.mark.parametrize("regime", ["lex", "grevlex", "homogenized"])
@given(st.sampled_from([(2, 2), (3, 1)]).flatmap(lambda shape: st.integers(
    min_value=3, max_value=4).flatmap(lambda k: q_ideals(shape[0], k, max_exp=shape[1]))),
    SEEDS)
def test_pruned_engine_against_full_certificate(regime, F, seed):
    # the certificate forms every S-pair of the result, so it shares nothing
    # with the criteria that let the engine skip pairs; 3-4 generators make
    # the criteria fire, and the homogenized regime runs under a local order.
    # Three variables take exponents up to 1: at 2 the homogenized runs blow up
    n = F[0].m
    if regime == "homogenized":
        F, order = [f.homogenize(n) for f in F], neg_grevlex(n + 1)
    else:
        order = {"lex": lex, "grevlex": grevlex}[regime](n)
    res = images_follow(F, order, seed)
    assert_is_standard_basis(res, F, order)


@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda m: st.integers(min_value=1, max_value=3).flatmap(lambda k: q_ideals(m, k))))
def test_parameter_groebner_against_sympy(F):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(f"a0:{F[0].m}")
    ours = parameter_groebner(F)
    assert {_scaled_terms(g.terms) for g in ours} == sympy_reduced_basis(
        F, syms, "lex", sympy)
    assert all(g.terms[max(g.terms)] == 1 for g in ours)


def run_cli(tmp_path, command, problem):
    """One quiet CLI run on problems/<problem>.psb, or on the bench text."""
    path = PROBLEMS / f"{problem}.psb"
    if not path.exists():
        path = tmp_path / f"{problem}.psb"
        path.write_text(bench_text(problem), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main([command, str(path)]) == 0


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name from here on; returns the counter."""
    counts = {name: 0}
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return counts


def engine_work(monkeypatch, tmp_path, command, problem):
    """Counts of the engine's work in one CLI run: S-functions formed,
    reductions, zero remainders and division steps, read off the engine's
    calls of the two key-space kernels."""
    counts = {"s_functions": 0, "reductions": 0, "zero": 0, "steps": 0}

    def s_function_counted(*args):
        counts["s_functions"] += 1
        return s_function_keyed(*args)

    def divide_counted(*args):
        out = divide_keyed(*args)
        counts["reductions"] += 1
        counts["zero"] += not out[1]
        counts["steps"] += out[3]
        return out

    monkeypatch.setattr(engine, "s_function_keyed", s_function_counted)
    monkeypatch.setattr(engine, "divide_keyed", divide_counted)
    run_cli(tmp_path, command, problem)
    return counts


# S-functions the engine forms for `gsb`; a lost pair criterion raises them
# (with the coprime test alone it formed 35 on cyclic4_a and 15 on katsura4_a)
@pytest.mark.parametrize("problem, formed", [("cyclic4_a", 11), ("katsura4_a", 10),
                                             ("katsura5_a", 28), ("cyclic5_a", 136)])
def test_gsb_s_function_count(problem, formed, monkeypatch, tmp_path):
    assert engine_work(monkeypatch, tmp_path, "gsb", problem)["s_functions"] == formed


# The engine's work on the ops of the well_gsb and local_tree benchmark
# workloads: (S-functions formed, reductions, zero remainders, division
# steps); a zero S-function is not reduced. A change to the pair criteria,
# the pair order or the division loop moves them.
ENGINE_WORK = {
    ("gsb", "katsura4_a"): (10, 10, 5, 243),
    ("gsb", "cyclic4_a"): (11, 11, 5, 53),
    ("hilbert", "jac_cross3"): (188, 174, 87, 576),
    ("hilbert", "jac_chain3"): (386, 238, 98, 521),
    ("hilbert", "t345"): (79, 72, 28, 322),
    ("hilbert", "e7_local"): (105, 91, 25, 158),
}


@pytest.mark.parametrize("command, problem", ENGINE_WORK,
                         ids=[f"{c} {p}" for c, p in ENGINE_WORK])
def test_engine_work_on_the_benchmark_ops(command, problem, monkeypatch, tmp_path):
    counts = engine_work(monkeypatch, tmp_path, command, problem)
    assert tuple(counts.values()) == ENGINE_WORK[command, problem]


# Values no caller reads are not built: with every input image zero the
# engine tracks no image, a caller that reads only the leads builds no
# ring element, and a normal form builds no quotient.


def test_zero_images_are_not_tracked(monkeypatch, tmp_path):
    combined = count_calls(monkeypatch, engine, "s_combination")
    quotients = count_calls(monkeypatch, engine, "quotient_poly")
    run_cli(tmp_path, "gsb", "katsura4_a")
    assert (combined["s_combination"], quotients["quotient_poly"]) == (0, 0)


def test_readers_of_the_leads_build_no_generator(monkeypatch):
    built = count_calls(monkeypatch, engine, "with_keyed_terms")
    F = [QP("x1^2 - x2"), QP("x1*x2 - 1")]
    assert plain_staircase(F, GREVLEX2).generators == ((0, 2), (1, 1), (2, 0))
    a = AScalar.var(0, 1)
    # a is not in <a^2>, so the Rabinowitsch run decides both
    assert in_radical(a, [a * a])
    assert not in_radical(a + AScalar.one(1), [a * a])
    assert built["with_keyed_terms"] == 0


def test_normal_form_param_builds_no_quotient(monkeypatch):
    a, b = AScalar.var(0, 2), AScalar.var(1, 2)
    basis = parameter_groebner([a * a - b, a * b - AScalar.one(2)])
    s = a * a * a + a * b + b
    want = divide(s, basis, lex(2))
    assert any(not q.is_zero() for q in want.quotients) and not want.remainder.is_zero()
    quotients = count_calls(monkeypatch, division, "quotient_poly")
    assert normal_form_param(s, basis) == want.remainder
    assert quotients["quotient_poly"] == 0
