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

The CLI's output contract is byte-identical output. Two source trees meet
it on these inputs when this script, run against each tree's `src`,
prints the same lines:

    PYTHONPATH=<other tree>/src python3 scripts/output_digests.py > other.txt
    PYTHONPATH=src python3 scripts/output_digests.py | diff other.txt -
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from parastd.cli import COMMANDS, main
from parastd.errors import ParastdError
from parastd.problems import parse_problem

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "bench" / "workloads.json").read_text(encoding="utf-8"))
POINTS = BENCH["workloads"]["desk"]["matrix"]["points"]
FORMATS = ("text", "json")
SEEDS = (None, 3)  # None: the problem's own seed


def sources(names=()) -> list[tuple[str, str, str]]:
    """(source, name, text) of the shipped problems and the bench texts."""
    out = [("problems", p.stem, p.read_text(encoding="utf-8"))
           for p in sorted((ROOT / "problems").glob("*.psb"))]
    out += [("bench", name, "\n".join(lines) + "\n")
            for name, lines in sorted(BENCH["problems"].items())]
    return [s for s in out if not names or s[1] in names]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(names=()):
    """Yield one output line per run, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for source, name, text in sources(names):
            path = Path(tmp) / f"{source}_{name}.psb"
            path.write_text(text, encoding="utf-8")
            try:
                point = POINTS.get(str(parse_problem(text).m))
            except ParastdError:
                point = None
            for command in COMMANDS:
                for fmt in FORMATS:
                    for seed in SEEDS:
                        argv = [command, str(path), "--format", fmt]
                        if command == "specialize" and point:
                            argv += ["--point", point]
                        if seed is not None:
                            argv += ["--seed", str(seed)]
                        out, err = io.StringIO(), io.StringIO()
                        with redirect_stdout(out), redirect_stderr(err):
                            code = main(argv)
                        seed_label = "default" if seed is None else seed
                        yield (f"{source}/{name} {command} {fmt} seed={seed_label} "
                               f"{_sha(out.getvalue())} {_sha(err.getvalue())} {code}")


if __name__ == "__main__":
    for line in digests(sys.argv[1:]):
        print(line, flush=True)
