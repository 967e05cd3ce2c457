import json
from pathlib import Path

import pytest

from parastd.errors import (
    DuplicateSection,
    ProblemSyntaxError,
    UnknownIdentifier,
)
from parastd.cli import main, run
from parastd.polyring import render_poly
from parastd.problems import parse_point, parse_problem, poly_from_string

from conftest import INTRO_ORDER, P

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

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


def test_parse_problem_options():
    prob = parse_problem(INTRO_TEXT + "options: trunc_degree = 3, seed = 7\n")
    assert prob.options == {"trunc_degree": 3, "seed": 7}
    with pytest.raises(ProblemSyntaxError):
        parse_problem(INTRO_TEXT + "options: wibble = 3\n")


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


E7_LOCAL_TEXT = """\
params: a, b
vars: x, y
order: neg_grevlex
ideal: 3*x^2 + y^3 + a*y, 3*x*y^2 + b*x + a*x
"""


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


def test_parse_point():
    assert parse_point("a=2,b=-1/3", ("a", "b")) == \
        (2, pytest.approx(-1 / 3))
    with pytest.raises(ProblemSyntaxError):
        parse_point("a=2", ("a", "b"))
    with pytest.raises(UnknownIdentifier):
        parse_point("c=2", ("a",))


def test_expression_grammar_round_trip():
    texts = [
        "a*x2 + x1 - x1*x2",
        "x2 + (1/a)*x1 + (1/a^2)*x1^2",
        "-x1*x2 + 3",
        "(a+1)*x1 - 1/2",
    ]
    for t in texts:
        f = poly_from_string(t, ("a",), ("x1", "x2"))
        printed = render_poly(f, INTRO_ORDER, ("x1", "x2"), ("a",))
        f2 = poly_from_string(printed, ("a",), ("x1", "x2"))
        assert f2 == f
        assert render_poly(f2, INTRO_ORDER, ("x1", "x2"), ("a",)) == printed


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    from parastd.genstd import SampleCheck, VerificationReport
    from parastd.genstd import Staircase

    def fake_verify(basis, points):
        st = Staircase(2, ())
        return VerificationReport(
            [SampleCheck(tuple(p), False, st, "staged")
             for p in points])

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
    assert "degree-compatible local order" in err


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
