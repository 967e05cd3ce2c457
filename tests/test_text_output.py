"""Byte-identity of the CLI text output on the shipped problems.

Every command runs through `cli.main` in `--format text` on each file of
`problems/` at its default seed; `specialize` takes the desk workload's
point for the problem's parameter count (bench/workloads.json). The
digest of stdout, stderr and the exit code must match
tests/text_digests.json, so a change to the text rendering, to an error
message or to an exit code shows here, not only in the JSON results that
tests/test_golden_cli.py pins.

`gsb` and `comprehensive` also run on the engine problems of
bench/workloads.json (`gsb` only on jac_x4y4_local, whose tree is slow).
Their printed bases are minimal but not reduced, so a change to the
basis engine that picks other generators of the same ideal (another
sign or scale of one of them) shows here. `gsb` also runs on two larger
engine problems kept in conftest.py, katsura5_a and cyclic5_a, whose
non-monic integer leads load the engine's integer reduction step.

Regenerate the digests (only for an intended output change) with
`PYTHONPATH=src python tests/test_text_output.py --write`; it prints the
case ids it added, changed and removed.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from parastd.cli import COMMANDS, main
from parastd.problems import parse_problem

from conftest import STRESS_PROBLEMS

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = sorted(p.stem for p in (ROOT / "problems").glob("*.psb"))
DIGESTS = Path(__file__).resolve().parent / "text_digests.json"
SPEC = json.loads((ROOT / "bench" / "workloads.json").read_text(encoding="utf-8"))
POINTS = SPEC["workloads"]["desk"]["matrix"]["points"]
ENGINE_PROBLEMS = ["jac_cross3", "jac_chain3", "t345", "e7_local",
                   "katsura4_a", "cyclic4_a"]


def _argv(command: str, path: Path) -> list[str]:
    argv = [command, str(path), "--format", "text"]
    if command == "specialize":
        text = path.read_text(encoding="utf-8")
        params = next((line.split(":", 1)[1] for line in text.splitlines()
                       if line.startswith("params:")), "")
        count = len([p for p in params.split(",") if p.strip()])
        argv += ["--point", POINTS[str(count)]]
    return argv


def text_digest(command: str, problem: str, seed: int | None = None) -> str:
    """Digest of one run; with `seed`, the echoed seed line is put back to
    the problem's default so that the digest of the default run applies."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = ROOT / "problems" / f"{problem}.psb"
        if problem not in PROBLEMS:
            path = Path(tmp) / f"{problem}.psb"
            lines = STRESS_PROBLEMS.get(problem) or SPEC["problems"][problem]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = _argv(command, path) + ([] if seed is None else ["--seed", str(seed)])
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        stdout = out.getvalue()
        if seed is not None:
            default = parse_problem(path.read_text(encoding="utf-8")).options.get("seed", 0)
            stdout = stdout.replace(f"\nseed: {seed}\n", f"\nseed: {default}\n", 1)
    blob = json.dumps([stdout, err.getvalue(), code])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _case_id(command: str, problem: str) -> str:
    return f"{command} {problem}"


CASES = ([(c, p) for p in PROBLEMS for c in COMMANDS]
         + [(c, p) for p in ENGINE_PROBLEMS for c in ("gsb", "comprehensive")]
         + [("gsb", "jac_x4y4_local")]
         + [("gsb", p) for p in STRESS_PROBLEMS])


# The comprehensive tree shares one rng across its cells, so the sample
# points of every cell depend on the seed; the printed cells must not.
SEED_CASES = [(p, seed) for p in ENGINE_PROBLEMS for seed in (1, 12345)]


@pytest.mark.parametrize("problem, seed", SEED_CASES,
                         ids=[f"comprehensive {p} --seed {s}" for p, s in SEED_CASES])
def test_comprehensive_output_does_not_depend_on_the_seed(problem, seed):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert text_digest("comprehensive", problem, seed) == \
        recorded[_case_id("comprehensive", problem)]


def test_digest_file_covers_every_case():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(_case_id(c, p) for c, p in CASES)


@pytest.mark.parametrize("command, problem", CASES,
                         ids=[_case_id(c, p) for c, p in CASES])
def test_text_output_matches_digest(command, problem):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert text_digest(command, problem) == recorded[_case_id(command, problem)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_text_output.py --write")
    old = json.loads(DIGESTS.read_text(encoding="utf-8"))
    table = {_case_id(c, p): text_digest(c, p) for c, p in CASES}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}")
    # every moved digest is to be listed in CHANGES.md
    for label, ids in (("added", table.keys() - old.keys()),
                       ("changed", {k for k in table.keys() & old.keys()
                                    if table[k] != old[k]}),
                       ("removed", old.keys() - table.keys())):
        for case in sorted(ids):
            print(f"{label}: {case}")
