"""Byte-identity of CLI results on the shipped problems.

Every op of the benchmark's desk workload runs through `cli.run` on
`problems/*.psb`, and the digest of its result must match the benchmark's
golden digest for the problem's default seed. The benchmark's workload
module is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

from parastd.cli import run
from parastd.problems import parse_problem

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


WL = _load_workloads()
GOLDEN = WL.load_golden()["default_seed"]
DESK = WL.ops("desk")


def _overrides(args):
    flags = dict(zip(args[::2], args[1::2]))
    assert set(flags) <= {"--point"}, args
    return {"point": flags.get("--point")}


def test_desk_problems_are_the_shipped_files():
    for name in WL.problems_of("desk"):
        shipped = (ROOT / "problems" / f"{name}.psb").read_text(encoding="utf-8")
        assert shipped == "\n".join(WL.SPEC["problems"][name]) + "\n", name


@pytest.mark.parametrize("op", DESK, ids=WL.op_id)
def test_desk_op_matches_golden_digest(op):
    path = ROOT / "problems" / f"{op['problem']}.psb"
    problem = parse_problem(path.read_text(encoding="utf-8"))
    doc, code = run(op["command"], problem, _overrides(op["args"]))
    assert code == 0
    assert WL.digest(doc["result"]) == GOLDEN[WL.op_id(op)]
