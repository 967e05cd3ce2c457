"""The scripts run end to end: the two demonstrations print what they
printed before, and the output digest tool prints the pinned lines.

They import the library API directly, so an API change that breaks them
fails here rather than only when someone runs them by hand.
"""

import hashlib
import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from parastd.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

INTRO_WALKTHROUGH = """\
ideal generator: a*x2 + x1 - x1*x2

--- generic standard basis on V(Q = <0>)
  a*x2 + x1 - x1*x2
  staircase: [(0, 1)]
  excluded locus h: a
  reduced (degree <= 1): x2 + (1/a)*x1
  reduced (degree <= 2): x2 + (1/a)*x1 + (1/a^2)*x1^2
  reduced (degree <= 3): x2 + (1/a)*x1 + (1/a^2)*x1^2 + (1/a^3)*x1^3
  reduced (degree <= 5): x2 + (1/a)*x1 + (1/a^2)*x1^2 + (1/a^3)*x1^3 + (1/a^4)*x1^4 + (1/a^5)*x1^5

--- generic standard basis on V(Q = <a>)
  a*x2 + x1 - x1*x2
  staircase: [(1, 0)]
  excluded locus h: 1
  reduced (degree <= 1): a*x2 + x1
  reduced (degree <= 2): a*x2 + x1
  reduced (degree <= 3): a*x2 + x1
  reduced (degree <= 5): a*x2 + x1

specialization checks off V(h):
  a = 1: staircase [(0, 1)] ok
  a = -2: staircase [(0, 1)] ok
  a = 5/3: staircase [(0, 1)] ok
"""

MILNOR_STRATA = """\

family f = x1^3 + x2^3 + a*x1*x2
  stratum {- = 0, a != 0}: HSP = 1, milnor = 1
  stratum {a = 0, - != 0}: HSP = 4, milnor = 4

family f = x2^2 - x1^3 - a*x1^2
  stratum {- = 0, a != 0}: HSP = 1, milnor = 1
  stratum {a = 0, - != 0}: HSP = 2, milnor = 2
"""


@pytest.mark.parametrize("script, expected", [
    ("intro_walkthrough.py", INTRO_WALKTHROUGH),
    ("milnor_strata.py", MILNOR_STRATA),
])
def test_script_output_pinned(capsys, script, expected):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert capsys.readouterr().out == expected


def test_output_digests_on_one_problem(capsys, monkeypatch):
    # the name filter keeps the problem file and the bench text of intro,
    # and the printed lines are the pinned ones
    monkeypatch.setattr(sys, "argv", ["output_digests.py", "intro"])
    runpy.run_path(str(SCRIPTS / "output_digests.py"), run_name="__main__")
    pinned = (ROOT / "tests" / "output_digests.txt").read_text(encoding="utf-8")
    intro = [line for line in pinned.splitlines()
             if line.startswith(("problems/intro ", "bench/intro "))]
    assert len(intro) == 2 * 7 * 2 * 2  # sources, commands, formats, seeds
    assert capsys.readouterr().out.splitlines() == intro
    # a line digests what the CLI prints
    with redirect_stdout(io.StringIO()) as printed:
        assert main(["gsb", str(ROOT / "problems" / "intro.psb"), "--format", "json"]) == 0
    digest = hashlib.sha256(printed.getvalue().encode("utf-8")).hexdigest()
    empty = hashlib.sha256(b"").hexdigest()
    assert f"problems/intro gsb json seed=default {digest} {empty} 0" in intro
