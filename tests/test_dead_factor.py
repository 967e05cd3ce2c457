"""The dead-factor branch of the comprehensive tree and its input contract.

An h factor is dead at a node when it vanishes on all of the node's
variety; the tree then adds it to the vanishing conditions, which grows
the ideal only because the factor lies outside it. Every h factor divides
a leading or top-degree coefficient that is outside the cell ideal, so
this holds once parameter denominators, which would enter h as they are,
are refused up front.
"""

from pathlib import Path

import pytest

from parastd.cli import main
from parastd.comprehensive import comprehensive_basis
from parastd.polyring import render_ascalar
from parastd.problems import parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DENOMINATOR_TEXT = "params: a\nvars: x1, x2\norder: neg_grevlex\nideal: x1/a + x2^2, x2^3\n"
REFUSED = ("error[input]: comprehensive_basis needs coefficients that are "
           "polynomials in the parameters\n")


@pytest.mark.parametrize("command, code, err", [
    ("comprehensive", 1, REFUSED), ("hilbert", 1, REFUSED),
    ("gsb", 0, ""), ("reduce", 0, ""), ("verify", 0, "")],
    ids=["comprehensive", "hilbert", "gsb", "reduce", "verify"])
def test_parameter_denominator_is_refused_by_the_tree_only(capsys, tmp_path,
                                                           command, code, err):
    path = tmp_path / "den.psb"
    path.write_text(DENOMINATOR_TEXT, encoding="utf-8")
    got = main([command, str(path)])
    out = capsys.readouterr()
    assert (got, out.err) == (code, err)
    assert bool(out.out) == (code == 0)


def test_dead_factor_is_added_to_the_cell_ideal():
    # on V(a^3 - b^2, a) = {(0, 0)} the h factor a^2 - b vanishes, but it is
    # not in <a^3 - b^2, a>; the tree saturates by it
    problem = parse_problem((PROBLEMS / "dead_factor.psb").read_text(encoding="utf-8"))
    res = comprehensive_basis(problem.ideal, problem.order, seed=problem.options["seed"])
    vanish = [[render_ascalar(v, problem.params) for v in e.cell.vanish] for e in res.cells]
    assert ["a^3 - b^2", "a", "a^2 - b"] in vanish
    assert ["a^3 - b^2", "a"] not in vanish
