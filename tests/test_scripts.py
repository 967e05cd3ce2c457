"""The demonstration scripts run end to end and print what they printed before.

Both import the library API directly, so an API change that breaks them
fails here rather than only when someone runs them by hand.
"""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

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
