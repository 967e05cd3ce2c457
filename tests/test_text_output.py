"""Byte-identity of the CLI output, pinned line by line.

scripts/output_digests.py is the one runner of the output contract: every
shipped problem and benchmark problem text, with each command, in text
and json format, at the problem's default seed and at `--seed 3`. Its
output is committed as tests/output_digests.txt; each test here runs the
cases of one command on one problem name (its shipped file and its bench
text) and compares their lines with the pinned ones, so a failure names
the moved problem, command, format and seed.

Regenerate the pins (only for an intended output change) with
`PYTHONPATH=src python3 scripts/output_digests.py > tests/output_digests.txt`
and explain every moved line of its `git diff`.
"""

import runpy
from functools import cache
from pathlib import Path

import pytest

from parastd.cli import run
from parastd.problems import parse_problem

from conftest import bench_text

ROOT = Path(__file__).resolve().parent.parent
HARNESS = runpy.run_path(str(ROOT / "scripts" / "output_digests.py"))
CASES = HARNESS["cases"]()
PINNED = (Path(__file__).resolve().parent / "output_digests.txt").read_text(
    encoding="utf-8").splitlines()
PINNED_BY_LABEL = {line.rsplit(" ", 3)[0]: line for line in PINNED}

GROUPS = {}
for case in CASES:
    GROUPS.setdefault(f"{case.command} {case.name}", []).append(case)


def test_digest_file_covers_every_case():
    assert [line.rsplit(" ", 3)[0] for line in PINNED] == [c.label for c in CASES]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_text_output_matches_digest(group):
    moved = [c.label for c in GROUPS[group]
             if HARNESS["digest_line"](c) != PINNED_BY_LABEL.get(c.label)]
    assert not moved, "moved: " + "; ".join(moved)


# The comprehensive tree draws no sample points: `--seed` is echoed in the
# document and must reach nothing else in it.
ENGINE_PROBLEMS = ["jac_cross3", "jac_chain3", "t345", "e7_local",
                   "katsura4_a", "cyclic4_a"]
SEED_CASES = [(p, seed) for p in ENGINE_PROBLEMS for seed in (1, 12345)]


@cache
def _comprehensive(problem: str, seed: int | None):
    doc, code = run("comprehensive", parse_problem(bench_text(problem)), {"seed": seed})
    return doc["result"], code


@pytest.mark.parametrize("problem, seed", SEED_CASES,
                         ids=[f"comprehensive {p} --seed {s}" for p, s in SEED_CASES])
def test_comprehensive_output_does_not_depend_on_the_seed(problem, seed):
    assert _comprehensive(problem, seed) == _comprehensive(problem, None)
