#!/usr/bin/env python3
"""Digests of the CLI's output over the shipped and the benchmark problems.

    PYTHONPATH=src python3 scripts/output_digests.py [PROBLEM ...]

Runs `parastd.cli.main` in-process on every problem file in problems/ and
on every problem text in bench/workloads.json (both read only, the texts
written to a temporary directory), with each of the seven commands, in
text and json format, at the problem's default seed and at `--seed 3`.
`specialize` gets the benchmark's desk point for the problem's number of
parameters. Each run prints one line: the problem's source and name, the
command, format and seed, the sha256 of its stdout, the sha256 of its
stderr, and its exit code. Naming problems keeps only those.

The CLI's output contract is byte-identical output. tests/output_digests.txt
holds this script's output, and tier-1 (tests/test_text_output.py) runs
every case and compares its line with the pinned one. After an intended
output change, regenerate the pins and explain each moved line:

    PYTHONPATH=src python3 scripts/output_digests.py > tests/output_digests.txt
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

from parastd.cli import COMMANDS, main
from parastd.errors import ParastdError
from parastd.problems import parse_problem

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "bench" / "workloads.json").read_text(encoding="utf-8"))
POINTS = BENCH["workloads"]["desk"]["matrix"]["points"]
FORMATS = ("text", "json")
SEEDS = (None, 3)  # None: the problem's own seed


class Case(NamedTuple):
    source: str  # "problems" or "bench"
    name: str
    text: str
    command: str
    fmt: str
    seed: int | None
    point: str | None  # specialize's --point

    @property
    def label(self) -> str:
        seed = "default" if self.seed is None else self.seed
        return f"{self.source}/{self.name} {self.command} {self.fmt} seed={seed}"


def cases(names=()) -> list[Case]:
    """Every run, in output order; naming problems keeps only those."""
    texts = [("problems", p.stem, p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "problems").glob("*.psb"))]
    texts += [("bench", name, "\n".join(lines) + "\n")
              for name, lines in sorted(BENCH["problems"].items())]
    out = []
    for source, name, text in texts:
        if names and name not in names:
            continue
        try:
            point = POINTS.get(str(parse_problem(text).m))
        except ParastdError:
            point = None
        out += [Case(source, name, text, command, fmt, seed,
                     point if command == "specialize" else None)
                for command in COMMANDS for fmt in FORMATS for seed in SEEDS]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_line(case: Case) -> str:
    """The output line of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{case.source}_{case.name}.psb"
        path.write_text(case.text, encoding="utf-8")
        argv = [case.command, str(path), "--format", case.fmt]
        if case.point:
            argv += ["--point", case.point]
        if case.seed is not None:
            argv += ["--seed", str(case.seed)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return f"{case.label} {_sha(out.getvalue())} {_sha(err.getvalue())} {code}"


if __name__ == "__main__":
    for case in cases(sys.argv[1:]):
        print(digest_line(case), flush=True)
