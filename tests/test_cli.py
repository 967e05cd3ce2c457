import json
import os
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from parastd.errors import (
    DuplicateSection,
    ProblemSyntaxError,
    UnknownIdentifier,
)
from parastd import orders
from parastd.cli import main, run
from parastd.genstd import PrimeContext, generic_basis
from parastd.polyring import AScalar, ParamScalar, _Sparse, render_poly
from parastd.problems import Problem, parse_point, parse_problem, poly_from_string

from conftest import INTRO_ORDER, P, bench_text, record_calls, value_at

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

INTRO_TEXT = """\
params: a
vars: x1, x2
order: matrix [[-1,-1],[-1,0]]
ideal: a*x2 - x1*x2 + x1
"""


def test_parse_problem_intro():
    prob = parse_problem(INTRO_TEXT)
    assert prob.params == ("a",)
    assert prob.vars == ("x1", "x2")
    assert prob.order.rows == ((-1, -1), (-1, 0))
    assert prob.ideal == [P("a*x2 - x1*x2 + x1")]


@pytest.mark.parametrize("n", range(7))
def test_power_equals_repeated_product(n):
    expected = P(" * ".join(["(x1 + a)"] * n) or "1")
    assert P(f"(x1 + a)^{n}") == expected


def test_huge_power_parses_by_squaring():
    start = time.perf_counter()
    p = P("x1^100000")
    assert time.perf_counter() - start < 0.1
    assert list(p.terms) == [(100000, 0)]


def test_an_integer_power_past_the_digit_limit_is_refused_before_it_is_computed():
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    with pytest.raises(ProblemSyntaxError, match=f"integer power has more than {limit} digits"):
        P("x1 + 3^10000000")
    assert time.perf_counter() - start < 0.1
    # a power that may fit is computed, and so are any powers of 0 and 1
    assert P("10^4300").terms[(0, 0)].num.terms[(0,)] == 10 ** 4300
    assert P("1^100000000*x1 + 0^100000000*x2") == P("x1")
    # the limit 0 means no limit
    try:
        sys.set_int_max_str_digits(0)
        assert P("3^20000").terms[(0, 0)].num.terms[(0,)] == 3 ** 20000
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_problem_empty_ideal():
    with pytest.raises(ProblemSyntaxError):
        parse_problem(INTRO_TEXT.replace("ideal: a*x2 - x1*x2 + x1",
                                         "ideal:"))


def test_parse_problem_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as exc:
        parse_problem(INTRO_TEXT.replace("a*x2 - x1*x2 + x1", "a*y"))
    assert exc.value.line == 4


def test_parse_problem_duplicate_section():
    with pytest.raises(DuplicateSection):
        parse_problem(INTRO_TEXT + "vars: y1\n")


def test_parse_problem_unknown_section():
    with pytest.raises(ProblemSyntaxError):
        parse_problem(INTRO_TEXT + "junk: 1\n")


def test_parse_problem_name_clash():
    with pytest.raises(ProblemSyntaxError):
        parse_problem(INTRO_TEXT.replace("vars: x1, x2", "vars: a, x2"))


def test_parse_problem_bad_matrix():
    with pytest.raises(ProblemSyntaxError):
        parse_problem(INTRO_TEXT.replace("matrix [[-1,-1],[-1,0]]",
                                         "matrix [[-1,-1],[-1]]"))


def test_parse_problem_q_with_main_variable():
    with pytest.raises(ProblemSyntaxError):
        parse_problem(INTRO_TEXT + "Q: a*x1\n")


Q_TEXT = """\
params: a, b
vars: x1
order: lex
ideal: x1
"""


@pytest.mark.parametrize("q", ["a/b", "1/a", "(a + 1)/(a - b)"])
def test_q_generator_with_a_parameter_denominator_is_an_input_error(capsys, tmp_path, q):
    # Q is an ideal of the polynomial ring Q[a, b]; a fraction in the
    # parameters is not an element of it
    path = tmp_path / "q.psb"
    path.write_text(Q_TEXT + f"Q: {q}\n")
    code, out, err = run_cli(capsys, "gsb", str(path))
    assert (code, out) == (1, "")
    assert err == ("error[input]: Q generators must be polynomials in the "
                   "parameters (line 5, col 1)\n")


def test_q_generator_with_a_constant_denominator_is_kept(capsys, tmp_path):
    path = tmp_path / "q.psb"
    path.write_text(Q_TEXT + "Q: a/2, b\n")
    code, out, _ = run_cli(capsys, "gsb", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["q"] == ["1/2*a", "b"]


def test_parse_problem_options():
    prob = parse_problem(INTRO_TEXT + "options: trunc_degree = 3, seed = 7\n")
    assert prob.options == {"trunc_degree": 3, "seed": 7}
    with pytest.raises(ProblemSyntaxError):
        parse_problem(INTRO_TEXT + "options: wibble = 3\n")


def test_problems_share_no_default_qgens_or_options():
    one, two = (Problem((), ("x",), orders.grevlex(1), []) for _ in range(2))
    one.qgens.append(AScalar.one(0))
    one.options["seed"] = 7
    assert (two.qgens, two.options) == ([], {})


def test_parse_problem_duplicate_option():
    with pytest.raises(ProblemSyntaxError, match="duplicate option 'seed'"):
        parse_problem(INTRO_TEXT + "options: seed = 1, seed = 2\n")


def test_parse_point_duplicate_parameter():
    with pytest.raises(ProblemSyntaxError, match="duplicate parameter 'a'"):
        parse_point("a=1,a=2", ("a",))


def test_cli_rejects_duplicate_keys(capsys, tmp_path):
    path = tmp_path / "intro.psb"
    path.write_text(INTRO_TEXT + "options: seed = 1, seed = 2\n")
    code, out, err = run_cli(capsys, "gsb", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error[input]: duplicate option 'seed'")
    path.write_text(INTRO_TEXT)
    code, out, err = run_cli(capsys, "specialize", str(path), "--point", "a=1,a=2")
    assert (code, out) == (1, "")
    assert err.startswith("error[input]: duplicate parameter 'a'")


# ---------------------------------------------------------------------------
# lexical rules and list separators of the section readers


def test_names_take_unicode_digits_and_a_leading_underscore():
    prob = parse_problem("params: _b\nvars: x\u00b2, y\norder: lex\n"
                         "ideal: _b*x\u00b2 - y\n")
    assert (prob.params, prob.vars) == (("_b",), ("x\u00b2", "y"))
    assert prob.ideal == [poly_from_string("b*x - y", ("b",), ("x", "y"))]


def test_a_tab_separates_tokens():
    prob = parse_problem("params:\ta\nvars:\tx1,\tx2\norder:\tmatrix\t[[-1,\t-1],[-1,0]]\n"
                         "ideal:\ta*x2\t-\tx1*x2\t+\tx1\n")
    intro = parse_problem(INTRO_TEXT)
    assert (prob.params, prob.vars, prob.order.rows, prob.ideal) == \
        (intro.params, intro.vars, intro.order.rows, intro.ideal)
    assert parse_point("a\t=\t-1/2", ("a",)) == (Fraction(-1, 2),)


def test_a_trailing_comma_ends_names_options_and_points(capsys):
    prob = parse_problem("params: a,\nvars: x1, x2,\norder: matrix [[-1,-1],[-1,0]]\n"
                         "ideal: a*x2 - x1*x2 + x1\noptions: seed = 3,\n")
    assert (prob.params, prob.vars, prob.options) == (("a",), ("x1", "x2"), {"seed": 3})
    intro = str(PROBLEMS / "intro.psb")
    code, out, err = run_cli(capsys, "specialize", intro, "--point", "a=2,")
    assert code == 0 and (code, out, err) == run_cli(capsys, "specialize", intro,
                                                     "--point", "a=2")


@pytest.mark.parametrize("text, message", [
    (INTRO_TEXT.replace("x1\n", "x1,\n"), "unexpected end of expression (line 4, col 0)"),
    (INTRO_TEXT.replace("[[-1,-1],[-1,0]]", "[[1,]]"),
     "matrix entries must be integers (line 3, col 19)"),
    (INTRO_TEXT + "options: seed =\n", "unexpected end of expression (line 5, col 0)"),
], ids=["ideal_trailing_comma", "matrix_trailing_comma", "option_without_value"])
def test_cli_refuses_a_trailing_comma_in_ideal_and_matrix_and_a_missing_value(
        capsys, tmp_path, text, message):
    path = tmp_path / "bad.psb"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ProblemSyntaxError):
        parse_problem(text)
    code, out, err = run_cli(capsys, "gsb", str(path))
    assert (code, out, err) == (1, "", f"error[input]: {message}\n")


@pytest.mark.parametrize("old, new, message", [
    ("x1\n", "$\n", "unexpected character '$' (line 4, col 23)"),
    ("ideal: ", "  ideal :   ", "unexpected character '$' (line 4, col 28)"),
], ids=["payload_after_one_space", "padded_section_name"])
def test_error_columns_count_from_the_start_of_the_line(capsys, tmp_path, old, new,
                                                       message):
    text = INTRO_TEXT.replace("x1\n", "$\n").replace(old, new)
    path = tmp_path / "bad.psb"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "gsb", str(path))
    assert (code, out, err) == (1, "", f"error[input]: {message}\n")


def _intro_with(section, payload):
    """INTRO_TEXT (lines 1-4) with one section's payload replaced; a new
    section goes on line 5."""
    sections = {"params": "a", "vars": "x1, x2", "order": "matrix [[-1,-1],[-1,0]]",
                "ideal": "a*x2 - x1*x2 + x1", section: payload}
    return "".join(f"{name}: {text}\n" for name, text in sections.items())


DEEP = "(" * 250 + "x1" + ")" * 250

# every raise in problems.py: where (a section, "text" for a whole problem
# text, "point" for parse_point with params ("a",)), input, type, message,
# line and column
PARSER_ERRORS = [
    ("ideal", "x1 + " + "7" * 5000, ProblemSyntaxError,
     "integer literal of 5000 digits is too long", 4, 13),
    ("ideal", "x1 + 3^10000000", ProblemSyntaxError,
     f"integer power has more than {sys.get_int_max_str_digits()} digits", 4, 13),
    ("ideal", "x1 $ x2", ProblemSyntaxError, "unexpected character '$'", 4, 11),
    ("ideal", "x1 +", ProblemSyntaxError, "unexpected end of expression", 4, 0),
    ("ideal", "x1^", ProblemSyntaxError, "unexpected end of expression", 4, 0),
    ("options", "seed =", ProblemSyntaxError, "unexpected end of expression", 5, 0),
    ("ideal", "(x1 + a", ProblemSyntaxError, "expected ')', got 'end of line'", 4, 0),
    ("ideal", "(x1 + a x2", ProblemSyntaxError, "expected ')', got 'x2'", 4, 16),
    ("options", "seed 3", ProblemSyntaxError, "expected '=', got '3'", 5, 15),
    ("vars", "x1 x2", ProblemSyntaxError, "expected ',', got 'x2'", 2, 10),
    ("order", "matrix 1", ProblemSyntaxError, "expected '[', got '1'", 3, 15),
    ("ideal", "x1 x2", ProblemSyntaxError, "trailing input 'x2'", 4, 11),
    ("ideal", DEEP, ProblemSyntaxError, "expression nested too deeply", 4, 0),
    ("ideal", "x1/0", ProblemSyntaxError, "division by zero", 4, 11),
    ("ideal", "x1/(a - a)", ProblemSyntaxError, "division by zero", 4, 11),
    ("ideal", "a/(x1 + 1)", ProblemSyntaxError,
     "division only by parameter/constant expressions", 4, 10),
    ("ideal", "x1^a", ProblemSyntaxError, "exponent must be a natural number", 4, 11),
    ("ideal", "x1*y", UnknownIdentifier, "unknown identifier 'y'", 4, 11),
    ("ideal", "x1 + -x2", ProblemSyntaxError, "unexpected token '-'", 4, 13),
    ("ideal", "x1 * -x2", ProblemSyntaxError, "unexpected token '-'", 4, 13),
    ("ideal", "x1, )", ProblemSyntaxError, "unexpected token ')'", 4, 12),
    ("order", "matrix [[1,x1]]", ProblemSyntaxError, "matrix entries must be integers", 3, 19),
    ("options", "seed = x1", ProblemSyntaxError, "option values must be integers", 5, 17),
    ("options", "wibble = 3", ProblemSyntaxError,
     "unknown option 'wibble' (expected one of ('trunc_degree', 'max_depth', 'samples', "
     "'seed'))", 5, 10),
    ("options", "seed = 1, seed = 2", ProblemSyntaxError, "duplicate option 'seed'", 5, 20),
    ("options", "seed = -1", ProblemSyntaxError, "seed must be nonnegative", 5, 18),
    ("vars", "x1, 3", ProblemSyntaxError, "expected a name, got '3'", 2, 11),
    ("order", "matrix [[1]]", ProblemSyntaxError, "matrix rows must have 2 entries", 3, 0),
    ("order", "wibble", ProblemSyntaxError,
     "unknown order 'wibble' (grevlex, lex, neg_grevlex or matrix [[..]])", 3, 0),
    ("vars", "", ProblemSyntaxError, "'vars' must declare at least one variable", 2, 1),
    ("vars", "a, x2", ProblemSyntaxError,
     "parameter and variable names must be distinct (check ['a'])", 2, 1),
    ("ideal", "", ProblemSyntaxError, "'ideal' section is empty", 4, 1),
    ("Q", "a*x1", ProblemSyntaxError, "Q generators must not involve main variables", 5, 1),
    ("Q", "1/a", ProblemSyntaxError, "Q generators must be polynomials in the parameters",
     5, 1),
    ("text", "params: a\nvars: x1\nfoo\n", ProblemSyntaxError,
     "expected 'section: content'", 3, 1),
    ("text", "junk: 1\n", ProblemSyntaxError, "unknown section 'junk'", 1, 1),
    ("text", "vars: x1\nvars: x2\n", DuplicateSection, "duplicate section 'vars'", 2, 1),
    ("text", "vars: x1\norder: lex\n", ProblemSyntaxError, "missing 'ideal' section", None,
     None),
    ("point", "a=x1", ProblemSyntaxError, "point values must be rationals", 1, 3),
    ("point", "c=1", UnknownIdentifier, "unknown parameter 'c' (expected one of ('a',))",
     1, 1),
    ("point", "a=1,a=2", ProblemSyntaxError, "duplicate parameter 'a'", 1, 5),
    ("point", "a=1/0", ProblemSyntaxError, "bad rational value", 1, 5),
    ("point", "", ProblemSyntaxError, "point misses parameters ['a']", 1, 0),
]


@pytest.mark.parametrize("where, payload, kind, message, line, col", PARSER_ERRORS,
                         ids=[f"{row[0]}-{row[3][:40]}" for row in PARSER_ERRORS])
def test_every_parser_error_names_its_message_line_and_column(where, payload, kind, message,
                                                              line, col):
    with pytest.raises(ProblemSyntaxError) as exc:
        if where == "point":
            parse_point(payload, ("a",))
        else:
            parse_problem(payload if where == "text" else _intro_with(where, payload))
    assert type(exc.value) is kind
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        message if line is None else f"{message} (line {line}, col {col})", line, col)


E7_LOCAL_TEXT = bench_text("e7_local")


@pytest.mark.parametrize("command, flag, option", [
    ("divide", "--trunc", "trunc_degree"),
    ("reduce", "--trunc", "trunc_degree"),
    ("comprehensive", "--max-depth", "max_depth"),
    ("verify", "--samples", "samples"),
    ("verify", "--seed", "seed"),
])
def test_cli_rejects_negative_options(capsys, tmp_path, command, flag, option):
    # the flags get the same check as the options section of a problem file
    path = tmp_path / "e7_local.psb"
    path.write_text(E7_LOCAL_TEXT)
    code, out, err = run_cli(capsys, command, str(path), flag, "-1")
    assert (code, out) == (1, "")
    assert err == f"error[input]: {option} must be nonnegative\n"
    path.write_text(E7_LOCAL_TEXT + f"options: {option} = -1\n")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert f"{option} must be nonnegative" in err


@pytest.mark.parametrize("command", ["comprehensive", "hilbert"])
def test_cli_reports_an_unresolved_tree(capsys, command):
    # milnor_cubic needs one split, so a depth of 0 leaves its root cell open
    code, out, err = run_cli(capsys, command, str(PROBLEMS / "milnor_cubic.psb"),
                             "--max-depth", "0")
    assert (code, out, err) == (1, "", "error[DepthExceeded]: 1 cells unresolved at depth 0\n")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_1_quietly(unbuffered):
    # the reader is gone before the child starts: the document's write fails
    # inside main (unbuffered) or at its flush (buffered), never at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run([sys.executable, "-m", "parastd.cli", "gsb",
                                str(PROBLEMS / "intro.psb")],
                               stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (1, b"")


def test_cli_verify_refuses_zero_samples(capsys, tmp_path):
    # a request for no points is an input error, not a failure to find any
    code, out, err = run_cli(capsys, "verify", str(PROBLEMS / "intro.psb"), "--samples", "0")
    assert (code, out, err) == (1, "", "error[input]: samples must be positive\n")
    path = tmp_path / "intro.psb"
    path.write_text(INTRO_TEXT + "options: samples = 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out, err) == (1, "", "error[input]: samples must be positive\n")


def test_cli_verify_on_a_locus_without_rational_points_fails(capsys, tmp_path):
    # V(a^2 + 1) has no rational point, so no specialization can be checked
    path = tmp_path / "no_points.psb"
    path.write_text(INTRO_TEXT + "Q: a^2 + 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out, err) == (
        1, "", "error[ParastdError]: no admissible sample points found\n")


def test_parse_point():
    assert parse_point("a=2,b=-1/3", ("a", "b")) == \
        (2, pytest.approx(-1 / 3))
    with pytest.raises(ProblemSyntaxError):
        parse_point("a=2", ("a", "b"))
    with pytest.raises(UnknownIdentifier):
        parse_point("c=2", ("a",))


# Divisions by parameter expressions, with the text each prints and every
# coefficient's numerator and denominator terms. A ParamScalar fraction is
# not gcd-reduced, so another arithmetic path could build an equal fraction
# that prints differently; these pin the path.
PINNED_DIVISIONS = {
    "x2 + x1/a + x1^2/a^2": ("x2 + (1/a)*x1 + (1/a^2)*x1^2", {
        (0, 1): ({(0, 0): "1"}, {(0, 0): "1"}),
        (1, 0): ({(0, 0): "1"}, {(1, 0): "1"}),
        (2, 0): ({(0, 0): "1"}, {(2, 0): "1"})}),
    "4/a + b*x1^2 - a*b*x1 + a/2": ("(1/2*a^2 + 4)/a - a*b*x1 + b*x1^2", {
        (0, 0): ({(0, 0): "4", (2, 0): "1/2"}, {(1, 0): "1"}),
        (2, 0): ({(0, 1): "1"}, {(0, 0): "1"}),
        (1, 0): ({(1, 1): "-1"}, {(0, 0): "1"})}),
    "x1/(a^2 - b) - (1/b)*x2": ("-(1/b)*x2 + (1/(a^2 - b))*x1", {
        (1, 0): ({(0, 0): "1"}, {(2, 0): "1", (0, 1): "-1"}),
        (0, 1): ({(0, 0): "-1"}, {(0, 1): "1"})}),
    "(a + b)^3*x1/(a*b)": ("((a^3 + 3*a^2*b + 3*a*b^2 + b^3)/(a*b))*x1", {
        (1, 0): ({(3, 0): "1", (2, 1): "3", (1, 2): "3", (0, 3): "1"}, {(1, 1): "1"})}),
    # parenthesized factors, powers and integer divisions: denominators 1
    "(a + 1)*(x1 - a)": ("-(a^2 + a) + (a + 1)*x1", {
        (1, 0): ({(1, 0): "1", (0, 0): "1"}, {(0, 0): "1"}),
        (0, 0): ({(2, 0): "-1", (1, 0): "-1"}, {(0, 0): "1"})}),
    "(x1 + a)^3": ("a^3 + 3*a^2*x1 + 3*a*x1^2 + x1^3", {
        (3, 0): ({(0, 0): "1"}, {(0, 0): "1"}),
        (2, 0): ({(1, 0): "3"}, {(0, 0): "1"}),
        (1, 0): ({(2, 0): "3"}, {(0, 0): "1"}),
        (0, 0): ({(3, 0): "1"}, {(0, 0): "1"})}),
    "(x1 + a)/2": ("1/2*a + (1/2)*x1", {
        (1, 0): ({(0, 0): "1/2"}, {(0, 0): "1"}),
        (0, 0): ({(1, 0): "1/2"}, {(0, 0): "1"})}),
    "(x1 + a) - (x1 - 1)": ("a + 1", {
        (0, 0): ({(1, 0): "1", (0, 0): "1"}, {(0, 0): "1"})}),
    "-(a*x1 + 1)*x2": ("-x2 - a*x1*x2", {
        (1, 1): ({(1, 0): "-1"}, {(0, 0): "1"}),
        (0, 1): ({(0, 0): "-1"}, {(0, 0): "1"})}),
}


def test_expression_grammar_round_trip():
    texts = [
        "a*x2 + x1 - x1*x2",
        "x2 + (1/a)*x1 + (1/a^2)*x1^2",
        "-x1*x2 + 3",
        "(a+1)*x1 - 1/2",
        *PINNED_DIVISIONS,
    ]
    for t in texts:
        f = poly_from_string(t, ("a", "b"), ("x1", "x2"))
        printed = render_poly(f, INTRO_ORDER, ("x1", "x2"), ("a", "b"))
        if t in PINNED_DIVISIONS:
            want, coefficients = PINNED_DIVISIONS[t]
            assert printed == want
            assert {e: (c.num.terms, c.den.terms) for e, c in f.terms.items()} == {
                e: tuple({k: Fraction(v) for k, v in part.items()} for part in parts)
                for e, parts in coefficients.items()}
        f2 = poly_from_string(printed, ("a", "b"), ("x1", "x2"))
        assert f2 == f
        assert render_poly(f2, INTRO_ORDER, ("x1", "x2"), ("a", "b")) == printed


def test_a_monomial_denominator_reads_back_as_printed():
    # a denominator a*b printed without parentheses would read back as
    # ((a + b)^3/a)*b*x1
    f = poly_from_string("(a + b)^3*x1/(a*b)", ("a", "b"), ("x1", "x2"))
    printed = render_poly(f, INTRO_ORDER, ("x1", "x2"), ("a", "b"))
    assert poly_from_string(printed, ("a", "b"), ("x1", "x2")) == f


# the parser against sympy on the same text: vars x, y and params a, b
ORACLE_VARS, ORACLE_PARAMS = ("x", "y"), ("a", "b")


def _power(atom, top=4):
    return st.tuples(atom, st.none() | st.integers(0, top)).map(
        lambda p: p[0] if p[1] is None else f"{p[0]}^{p[1]}")


def _sum(term, min_size=0, max_size=2):
    """'-'? term (('+'|'-') term)*, with min_size to max_size terms after
    the first; a term may be followed by its own negation, which cancels it."""
    flip = {"+": "-", "-": "+"}
    rest = st.lists(st.tuples(st.sampled_from("+-"), term, st.booleans()),
                    min_size=min_size, max_size=max_size)
    return st.tuples(st.booleans(), term, rest).map(
        lambda p: ("-" if p[0] else "") + p[1] + "".join(
            f" {op} {t}" + (f" {flip[op]} {t}" if cancel else "") for op, t, cancel in p[2]))


def _parameter_sum(parts) -> str:
    """Parenthesized sum of (negative, coefficient, monomial) parts."""
    text = ""
    for i, (neg, c, mono) in enumerate(parts):
        sign = "-" if neg else ("+" if i else "")
        text += f" {sign} {c}*{mono}" if i else f"{sign}{c}*{mono}"
    return f"({text})"


# divisors: nonzero integers and parameters, and sums of distinct parameter
# monomials with nonzero coefficients (so nonzero), each to a power
DIVISORS = st.one_of(
    _power(st.integers(1, 9).map(str)),
    _power(st.sampled_from(ORACLE_PARAMS)),
    _power(st.lists(st.tuples(st.booleans(), st.integers(1, 5),
                              st.sampled_from(["1", "a", "b", "a*b", "a^2"])),
                    min_size=1, max_size=3, unique_by=lambda t: t[2]).map(_parameter_sum),
           top=2),
)


def _terms(depth, divide=True):
    """factor (('*'|'/') factor)*: integers (0 among them) and names, each to
    a power, so names repeat (x*x^2) and integers take powers (2^3*x); to
    depth, parenthesized expressions; with divide, divisors from DIVISORS."""
    atom = st.one_of(st.integers(0, 12).map(str),
                     st.sampled_from(ORACLE_VARS + ORACLE_PARAMS))
    if depth:
        atom = st.one_of(atom, _expressions(depth - 1).map(lambda t: f"({t})"))
    factor = _power(atom, 4 if not depth else 2)
    step = factor.map(lambda t: "*" + t)
    if divide:
        step = st.one_of(step, DIVISORS.map(lambda t: "/" + t))
    return st.tuples(factor, st.lists(step, max_size=3)).map(lambda p: p[0] + "".join(p[1]))


def _expressions(depth):
    return _sum(_terms(depth))


# short nested expressions, and sums of 20 to 30 terms, mostly products of
# integers and names
ORACLE_TEXTS = st.one_of(
    _expressions(2),
    _sum(st.one_of(_terms(0, divide=False), _terms(0, divide=False), _terms(0), _terms(1)),
         min_size=19, max_size=29))


def _value(f, point):
    """f at point (x, y, a, b) from its terms, by plain Fraction arithmetic;
    None where a coefficient's denominator vanishes."""
    xs, ps = point[:2], point[2:]
    total = Fraction(0)
    for e, c in f.terms.items():
        den = value_at(c.den, ps)
        if den == 0:
            return None
        term = value_at(c.num, ps) / den
        for x, k in zip(xs, e):
            term *= x ** k
        total += term
    return total


@given(ORACLE_TEXTS, st.lists(st.fractions(-4, 4, max_denominator=7), min_size=4,
                              max_size=4))
def test_parser_agrees_with_sympy(text, point):
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

    f = poly_from_string(text, ORACLE_PARAMS, ORACLE_VARS)
    names = ORACLE_VARS + ORACLE_PARAMS
    symbols = {name: sympy.Symbol(name) for name in names}
    expr = parse_expr(text, local_dict=symbols,
                      transformations=standard_transformations + (convert_xor,))
    # the same monomials in x, y, and no zero stored down to the numerators' terms
    poly = sympy.Poly(expr, *(symbols[name] for name in ORACLE_VARS))
    assert set(f.terms) == {e for e, c in poly.terms() if c != 0}, text
    assert all(q for c in f.terms.values() for q in c.num.terms.values()), text
    want = expr.xreplace({symbols[name]: sympy.Rational(v.numerator, v.denominator)
                          for name, v in zip(names, point)})
    got = _value(f, point)
    if got is None or not want.is_Rational:
        return  # a denominator vanishes at this point, on one side or both
    assert Fraction(int(want.p), int(want.q)) == got, text


KATSURA4_A = bench_text("katsura4_a")


def test_parsing_builds_one_param_scalar_per_coefficient(monkeypatch):
    made = record_calls(monkeypatch, ParamScalar, "__init__")
    problem = parse_problem(KATSURA4_A)
    assert len(made) == sum(len(f.terms) for f in problem.ideal) == 18


@pytest.mark.parametrize("text", [KATSURA4_A, (PROBLEMS / "katsura5_a.psb").read_text()],
                         ids=["katsura4_a", "katsura5_a"])
def test_parsing_sums_of_monomials_does_no_ring_arithmetic(monkeypatch, text):
    # each expression's terms sum into one dict; no ring element is
    # multiplied or added on the way
    products = record_calls(monkeypatch, AScalar, "__mul__")
    sums = record_calls(monkeypatch, _Sparse, "__add__")
    parse_problem(text)
    assert products + sums == []


def test_rendering_a_basis_keys_no_coefficient(monkeypatch):
    problem = parse_problem(KATSURA4_A)
    basis = generic_basis(problem.ideal, problem.order, PrimeContext.trivial(problem.m))
    keyed = record_calls(monkeypatch, orders, "keyed_terms")
    for g in basis.gens:
        render_poly(g, problem.order, problem.vars, problem.params)
    assert keyed == []


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("power, code", [(2 ** 31 - 1, 0), (2 ** 31, 1)])
def test_cli_gsb_refuses_an_exponent_past_the_key_cap(capsys, tmp_path, power, code):
    path = tmp_path / "big.psb"
    path.write_text(f"params: a\nvars: x1, x2\norder: grevlex\nideal: x1^{power} - x2\n")
    got, out, err = run_cli(capsys, "gsb", str(path))
    assert got == code
    if code:
        assert out == "" and err.startswith("error[ExponentOverflow]: ")
    else:
        assert err == "" and f"x1^{power}" in out


def test_cli_gsb_refuses_a_weight_row_at_the_cap(capsys, tmp_path):
    # |2^29| + |-2^29| = 2^30: the smallest row weight the cap refuses
    path = tmp_path / "wide.psb"
    path.write_text("vars: x, y\norder: matrix [[536870912, -536870912]]\nideal: x + y\n")
    assert run_cli(capsys, "gsb", str(path)) == (1, "", (
        "error[ExponentOverflow]: a weight row of the order has absolute weights "
        "summing to 2^30 or more\n"))


def test_cli_gsb_intro(capsys):
    code, out, _ = run_cli(capsys, "gsb", str(PROBLEMS / "intro.psb"),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "parastd/1"
    assert doc["result"]["h"] == "a"
    assert doc["result"]["staircase"] == [[0, 1]]


def test_cli_reduce_intro(capsys):
    code, out, _ = run_cli(capsys, "reduce", str(PROBLEMS / "intro.psb"),
                           "--trunc", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["generators"] == [
        "x2 + (1/a)*x1 + (1/a^2)*x1^2 + (1/a^3)*x1^3"]


def test_cli_gsb_q_a(capsys):
    code, out, _ = run_cli(capsys, "gsb", str(PROBLEMS / "intro_q_a.psb"),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["staircase"] == [[1, 0]]


@pytest.mark.parametrize("command", ["gsb", "reduce"])
def test_cli_every_input_in_q(capsys, tmp_path, command):
    # on the homogeneous route every input lies in Q: no generator survives
    path = tmp_path / "allq.psb"
    path.write_text("params: a\nvars: x1, x2\norder: neg_grevlex\n"
                    "ideal: a*x1 + a^2*x2\nQ: a\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, command, str(path), "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["generators"], result["staircase"], result["h"]) == ([], [], "1")


def test_cli_comprehensive_milnor(capsys):
    code, out, _ = run_cli(capsys, "comprehensive",
                           str(PROBLEMS / "milnor_cubic.psb"),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    cells = doc["result"]["cells"]
    assert len(cells) == 2
    assert cells[0]["nonvanish"] == ["a"]
    assert cells[1]["vanish"] == ["a"]
    assert cells[1]["staircase"] == [[0, 2], [2, 0]]


def test_cli_hilbert_milnor(capsys):
    code, out, _ = run_cli(capsys, "hilbert",
                           str(PROBLEMS / "milnor_cubic.psb"),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    mus = sorted(s["milnor"] for s in doc["result"]["strata"])
    assert mus == ["1", "4"]


def test_cli_divide(capsys, tmp_path):
    text = INTRO_TEXT.replace("ideal: a*x2 - x1*x2 + x1",
                              "ideal: a*x1*x2, a*x2 - x1*x2 + x1")
    path = tmp_path / "div.psb"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "divide", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["mode"] == "truncated"
    assert doc["result"]["quotients"] == ["x1"]
    assert doc["result"]["remainder"] == "-x1^2 + x1^2*x2"


def test_cli_specialize(capsys):
    code, out, _ = run_cli(capsys, "specialize", str(PROBLEMS / "intro.psb"),
                           "--point", "a=0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["staircase"] == [[1, 0]]


def test_cli_specialize_every_generator_vanishes(capsys, tmp_path):
    path = tmp_path / "vanish.psb"
    path.write_text(INTRO_TEXT.replace("ideal: a*x2 - x1*x2 + x1",
                                       "ideal: a*x1, a*x2 + a^2*x1"))
    code, out, err = run_cli(capsys, "specialize", str(path), "--point", "a=0")
    assert (code, err) == (0, "")
    assert "  staircase: []" in out.splitlines()


def test_cli_specialize_without_parameters(capsys, tmp_path):
    # a parameter-free problem takes the empty point; the rest still need --point
    path = tmp_path / "free.psb"
    path.write_text("vars: x1, x2\norder: neg_grevlex\nideal: x1^2 - x2^3, x1*x2\n")
    code, out, err = run_cli(capsys, "specialize", str(path), "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)["result"]
    assert doc["point"] == {}
    assert doc["polynomials"] == ["x1^2 - x2^3", "x1*x2"]
    assert doc["staircase"] == [[0, 4], [1, 1], [2, 0]]
    code, _, err = run_cli(capsys, "specialize", str(PROBLEMS / "intro.psb"))
    assert code == 1
    assert err == "error[input]: specialize needs --point a=..,b=..\n"


def test_cli_problem_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.psb"
    path.write_bytes(b"\xff\xfe params: a\n")
    code, out, err = run_cli(capsys, "gsb", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error[input]: 'utf-8' codec can't decode byte 0xff")


def test_cli_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", str(PROBLEMS / "intro.psb"),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["ok"] is True
    assert doc["result"]["tested"] >= 10


def test_cli_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", str(PROBLEMS / "intro.psb"),
                               "--seed", "123", "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    # and text mode too
    code, t1, _ = run_cli(capsys, "comprehensive",
                          str(PROBLEMS / "milnor_cubic.psb"))
    code, t2, _ = run_cli(capsys, "comprehensive",
                          str(PROBLEMS / "milnor_cubic.psb"))
    assert t1 == t2


def test_cli_exit_codes(capsys, tmp_path):
    # missing file
    code, _, err = run_cli(capsys, "gsb", str(tmp_path / "nope.psb"))
    assert code == 1 and "error" in err
    # malformed inputs
    bad_inputs = [
        "vars: x1\norder: lex\nideal:\n",
        "vars: x1\norder: lex\nideal: y\n",
        "vars: x1\nideal: x1\n",
        "params: a\nvars: x1\norder: matrix [[1,2]]\nideal: x1\n",
        "vars: x1\norder: lex\nideal: x1\nvars: x2\n",
        "vars: x1\norder: wat\nideal: x1\n",
        "vars: x1\norder: lex\nideal: x1 + + x1\n",
        "vars: x1\norder: lex\nideal: x1/x1\n",
        "vars: x1\norder: lex\nideal: x1\noptions: max_depth = -2\n",
    ]
    for i, text in enumerate(bad_inputs):
        path = tmp_path / f"bad{i}.psb"
        path.write_text(text)
        code, _, err = run_cli(capsys, "gsb", str(path))
        assert code == 1, text
        assert "error[input]" in err or "error[" in err
    # specialize without --point
    code, _, err = run_cli(capsys, "specialize", str(PROBLEMS / "intro.psb"))
    assert code == 1


def test_cli_round_trip_on_shipped_outputs(capsys):
    # every polynomial the CLI emits parses back to itself
    for name in ("intro", "milnor_cubic", "two_params", "cusp_family",
                 "whitney", "global_lex"):
        path = PROBLEMS / f"{name}.psb"
        prob = parse_problem(path.read_text())
        code, out, _ = run_cli(capsys, "gsb", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for text in doc["result"]["generators"]:
            f = poly_from_string(text, prob.params, prob.vars)
            assert render_poly(f, prob.order, prob.vars, prob.params) == text


def test_run_rejects_unknown_command():
    prob = parse_problem(INTRO_TEXT)
    with pytest.raises(ProblemSyntaxError):
        run("nonsense", prob)


def test_cli_verify_failure_exit_code(capsys, monkeypatch):
    # a failing verification must surface as status + exit code 2; staged
    # by patching the verifier since correct pipelines never fail it
    import parastd.cli as cli_mod
    from parastd.genstd import SampleCheck
    from parastd.genstd import Staircase

    def fake_verify(basis, points):
        st = Staircase(2, ())
        return [SampleCheck(tuple(p), False, st, "staged") for p in points]

    monkeypatch.setattr(cli_mod, "verify_specialization", fake_verify)
    code, out, _ = run_cli(capsys, "verify", str(PROBLEMS / "intro.psb"),
                           "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "verification_failed"
    assert doc["result"]["ok"] is False


@pytest.mark.parametrize("name", ["global_lex", "two_params"])
def test_cli_hilbert_rejects_non_local_order(capsys, name):
    code, out, err = run_cli(capsys, "hilbert", str(PROBLEMS / f"{name}.psb"))
    assert code == 1
    assert out == ""
    assert err == "error[input]: hilbert_partition needs a degree-compatible local order\n"


# ---------------------------------------------------------------------------
# each command reads a fixed set of settings


@pytest.mark.parametrize("command, overrides, key", [
    ("gsb", {"point": "zzz=1"}, "point"),
    ("gsb", {"trunc_degree": 99, "max_depth": 3}, "trunc_degree"),
    ("reduce", {"max_depth": 3}, "max_depth"),
    ("comprehensive", {"samples": 4}, "samples"),
    ("verify", {"trunc_degree": 6}, "trunc_degree"),
    ("specialize", {"point": "a=1", "trunc_degree": 6}, "trunc_degree"),
])
def test_run_rejects_settings_the_command_does_not_read(command, overrides, key):
    prob = parse_problem(INTRO_TEXT)
    with pytest.raises(ProblemSyntaxError, match=f"{command} does not read the setting '{key}'"):
        run(command, prob, overrides)


@pytest.mark.parametrize("flags, key", [
    (["--point", "zzz=1"], "point"),
    (["--trunc", "99", "--max-depth", "3"], "trunc_degree"),
    (["--samples", "3"], "samples"),
])
def test_cli_rejects_flags_the_command_does_not_read(capsys, flags, key):
    code, out, err = run_cli(capsys, "gsb", str(PROBLEMS / "intro.psb"), *flags)
    assert (code, out) == (1, "")
    assert err == f"error[input]: gsb does not read the setting '{key}'\n"


@pytest.mark.parametrize("command, flags", [
    ("reduce", ["--trunc", "4"]),
    ("divide", ["--trunc", "4"]),
    ("specialize", ["--point", "a=2"]),
    ("verify", ["--samples", "3"]),
    ("comprehensive", ["--max-depth", "5"]),
    ("hilbert", ["--max-depth", "5"]),
] + [(command, ["--seed", "5"]) for command in
     ("gsb", "reduce", "comprehensive", "hilbert", "divide", "verify")]
  + [("specialize", ["--point", "a=2", "--seed", "5"])])
def test_cli_flags_the_command_reads(capsys, command, flags):
    code, out, err = run_cli(capsys, command, str(PROBLEMS / "milnor_cubic.psb"),
                             "--format", "json", *flags)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["seed"] == (5 if "--seed" in flags else 11)
    field, value = {
        ("reduce", "--trunc"): ("trunc_degree", 4),
        ("divide", "--trunc"): ("mode", "series"),
        ("specialize", "--point"): ("point", {"a": "2"}),
        ("verify", "--samples"): ("requested", 3),
    }.get((command, flags[0]), (None, None))
    if field is not None:
        assert doc["result"][field] == value


NESTED = "(" * 250 + "x1" + ")" * 250


def test_deep_nesting_is_an_input_error():
    with pytest.raises(ProblemSyntaxError, match="expression nested too deeply"):
        poly_from_string(NESTED, ("a",), ("x1", "x2"))
    with pytest.raises(ProblemSyntaxError, match="expression nested too deeply") as exc:
        parse_problem(INTRO_TEXT.replace("a*x2 - x1*x2 + x1", f"x2, {NESTED}"))
    assert exc.value.line == 4
    shallow = "(" * 100 + "x1" + ")" * 100
    assert poly_from_string(shallow, ("a",), ("x1", "x2")) == P("x1")


def test_cli_deep_nesting_exits_1(capsys, tmp_path):
    path = tmp_path / "deep.psb"
    path.write_text(INTRO_TEXT.replace("a*x2 - x1*x2 + x1", NESTED))
    code, out, err = run_cli(capsys, "gsb", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error[input]: expression nested too deeply")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# numerals: ASCII digits only, each converted once by the tokenizer

LONG = "7" * 5000  # past the interpreter's 4300-digit int() limit


@pytest.mark.parametrize("section, payload, message", [
    ("ideal", "x1^\u00b2", "unexpected character '\u00b2' (line 4, col 11)"),
    ("ideal", "x1 + \u00b2", "unexpected character '\u00b2' (line 4, col 13)"),
    ("order", "matrix [[\u00b2,1]]", "unexpected character '\u00b2' (line 3, col 17)"),
    ("ideal", f"x1 + {LONG}", "integer literal of 5000 digits is too long (line 4, col 13)"),
], ids=["superscript_exponent", "superscript_atom", "superscript_matrix_entry",
        "long_literal"])
def test_cli_bad_numeral_in_problem_is_an_input_error(capsys, tmp_path, section, payload,
                                                       message):
    text = "".join(f"{section}: {payload}\n" if ln.startswith(f"{section}:") else f"{ln}\n"
                   for ln in INTRO_TEXT.splitlines())
    path = tmp_path / "bad.psb"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "gsb", str(path))
    assert (code, out, err) == (1, "", f"error[input]: {message}\n")


def test_cli_bad_numeral_in_options_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.psb"
    path.write_text(INTRO_TEXT + "options: seed = \u00b2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out, err) == (
        1, "", "error[input]: unexpected character '\u00b2' (line 5, col 17)\n")


@pytest.mark.parametrize("point, message", [
    ("a=\u00b2", "unexpected character '\u00b2' (line 1, col 3)"),
    (f"a={LONG}", "integer literal of 5000 digits is too long (line 1, col 3)"),
    (f"a=1/{LONG}", "integer literal of 5000 digits is too long (line 1, col 5)"),
    ("a=1/-3", "bad rational value (line 1, col 5)"),
    ("a=1/0", "bad rational value (line 1, col 5)"),
], ids=["superscript", "long_numerator", "long_denominator", "negative_denominator",
        "zero_denominator"])
def test_cli_bad_numeral_in_point_is_an_input_error(capsys, point, message):
    code, out, err = run_cli(capsys, "specialize", str(PROBLEMS / "intro.psb"),
                             "--point", point)
    assert (code, out, err) == (1, "", f"error[input]: {message}\n")


def test_numerals_are_ascii_digits_converted_once():
    # another script's decimal digit is not a numeral (int() would read it)
    with pytest.raises(ProblemSyntaxError, match="unexpected character"):
        poly_from_string("x1^\u0663", ("a",), ("x1", "x2"))
    long_ok = "9" * 4000
    assert poly_from_string(f"{long_ok}*x1", ("a",), ("x1", "x2")).terms == \
        {(1, 0): ParamScalar.const(10 ** 4000 - 1, 1)}
    assert parse_point("a=-12/30", ("a",)) == (Fraction(-2, 5),)


@pytest.mark.parametrize("text, digits", [
    ("vars: x1\norder: lex\nideal: x1 + 3^10000\n", 4772),
    # 1 479-digit inputs; the lex basis holds 3^9300 (4 438 digits)
    ("vars: x1, x2\norder: lex\nideal: x1 - 3^3100*x2, x1^3 - 1\n", 4438),
], ids=["parsed", "computed"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_coefficient_too_long_to_print_is_an_error(capsys, tmp_path, text, digits, fmt):
    path = tmp_path / "big.psb"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "gsb", str(path), "--format", fmt)
    assert (code, out, err) == (1, "", f"error[ParastdError]: a coefficient has {digits} "
                                f"digits, more than the {sys.get_int_max_str_digits()} "
                                "that can be printed\n")


# ---------------------------------------------------------------------------
# usage errors: exit 1 (input error), never 2 (verification failure)


@pytest.mark.parametrize("argv", [
    ["gsb"],
    ["bogus", str(PROBLEMS / "intro.psb")],
    ["gsb", str(PROBLEMS / "intro.psb"), "--trunc", "x"],
    ["gsb", str(PROBLEMS / "intro.psb"), "--format", "xml"],
])
def test_cli_usage_error_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: parastd")


def test_cli_help_exits_0(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: parastd")


def test_cli_main_twice_starts_the_second_call_from_the_defaults(capsys, monkeypatch):
    # one parser serves every call in a process; flags given to one call
    # must not carry over to the next
    seen = []
    monkeypatch.setattr(sys.modules[main.__module__], "run",
                        lambda command, problem, settings: (seen.append(settings),
                                                            run(command, problem, settings))[1])
    intro = PROBLEMS / "intro.psb"
    code, first, _ = run_cli(capsys, "reduce", str(intro), "--trunc", "6", "--seed", "9",
                             "--format", "json")
    assert code == 0 and json.loads(first)["seed"] == 9
    code, second, _ = run_cli(capsys, "reduce", str(intro), "--format", "json")
    assert code == 0
    assert seen[0]["trunc_degree"] == 6 and seen[0]["seed"] == 9
    assert seen[1] == dict.fromkeys(seen[0])
    doc, _ = run("reduce", parse_problem(intro.read_text(encoding="utf-8")))
    assert json.loads(second) == json.loads(json.dumps(doc)) != json.loads(first)


def test_cli_module_entry_point(capsys, monkeypatch):
    # what `python -m parastd.cli` runs, in this interpreter: a fresh
    # parastd.cli module as __main__, exiting with main's code
    def entry(*argv):
        monkeypatch.setattr(sys, "argv", ["parastd", *argv])
        monkeypatch.delitem(sys.modules, "parastd.cli", raising=False)
        with pytest.raises(SystemExit) as done:
            runpy.run_module("parastd.cli", run_name="__main__")
        out = capsys.readouterr()
        return done.value.code, out.out, out.err

    assert entry("--help")[0] == 0
    code, _, err = entry("gsb")
    assert code == 1
    assert "usage: parastd" in err
    intro = str(PROBLEMS / "intro.psb")
    done = entry("gsb", intro)
    code, out, _ = run_cli(capsys, "gsb", intro)
    assert done == (code, out, "")
