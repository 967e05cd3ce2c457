"""Byte-identity of CLI results on the shipped problems and engine workloads.

Every op of the benchmark's desk workload runs through `cli.run` on
`problems/*.psb`, and the digest of its result must match the benchmark's
golden digest for the problem's default seed. Every distinct op of the
well_gsb, local_tree and series_reduce workloads, which load the basis
engine and the series division, runs the same way on the problem text in
bench/workloads.json. The ops that build a comprehensive tree (local_tree's,
and desk's comprehensive and hilbert) also run at two other seeds, under
the benchmark's check for a random seed. The benchmark's workload module
is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

from parastd.cli import run
from parastd.problems import parse_problem

from conftest import bench_text

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


WL = _load_workloads()
GOLDEN, ANY_SEED = (WL.load_golden()[k] for k in ("default_seed", "any_seed"))
DESK = WL.ops("desk")
# every distinct op of the block-order route (gsb), the homogenized route
# (hilbert) and the remainder-only series reduction (reduce --trunc), about
# 1.5 s together
ENGINE = {WL.op_id(op): op for w in ("well_gsb", "local_tree", "series_reduce")
          for op in WL.ops(w)}


def _overrides(args):
    flags = dict(zip(args[::2], args[1::2]))
    assert set(flags) <= {"--point", "--trunc"}, args
    trunc = flags.get("--trunc")
    return {"point": flags.get("--point"),
            "trunc_degree": None if trunc is None else int(trunc)}


def test_desk_problems_are_the_shipped_files():
    for name in WL.problems_of("desk"):
        shipped = (ROOT / "problems" / f"{name}.psb").read_text(encoding="utf-8")
        assert shipped == bench_text(name), name


def _check_golden(op, text, seed=None):
    """Digest check of one op; with a seed, the check the benchmark makes
    on every op it runs at a random seed."""
    doc, code = run(op["command"], parse_problem(text),
                    {**_overrides(op["args"]), "seed": seed})
    assert code == 0
    oid = WL.op_id(op)
    if seed is None:
        assert WL.digest(doc["result"]) == GOLDEN[oid]
    else:
        want = ANY_SEED.get(oid, GOLDEN[oid])
        assert WL.digest(WL.seed_free(op, doc["result"])) == want


@pytest.mark.parametrize("op", DESK, ids=WL.op_id)
def test_desk_op_matches_golden_digest(op):
    path = ROOT / "problems" / f"{op['problem']}.psb"
    _check_golden(op, path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("op_id", sorted(ENGINE))
def test_engine_op_matches_golden_digest(op_id):
    op = ENGINE[op_id]
    _check_golden(op, bench_text(op["problem"]))


# the comprehensive tree draws no sample points, so no seed may reach its
# results: every distinct local_tree op and the desk ops that build a tree,
# each at two seeds other than the problem's own
SAMPLED = {WL.op_id(op): op for op in WL.ops("local_tree") + DESK
           if op["command"] in ("comprehensive", "hilbert")}


@pytest.mark.parametrize("seed", [1, 12345])
@pytest.mark.parametrize("op_id", sorted(SAMPLED))
def test_sampled_op_is_seed_independent(op_id, seed):
    op = SAMPLED[op_id]
    _check_golden(op, bench_text(op["problem"]), seed)
