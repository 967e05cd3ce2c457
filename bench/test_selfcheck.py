"""Self-checks of the benchmark (about a minute): python3 -m pytest bench -q

They run each workload for one traced pass and check that the benchmark
measures what BENCHMARK.json and workloads.json say it does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from random import Random

import pytest

import oracles
import workloads as wl
from tracer import self_shares

RUN = [sys.executable, str(wl.HERE / "run.py")]


def _bench(*args, cwd=wl.ROOT):
    proc = subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)
    return proc


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _spec():
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_describes_the_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.NAMES)
    layer_names = {m["name"] for m in spec["per_layer"]}
    for w in wl.SPEC["workloads"].values():
        assert set(w["loads"]) <= layer_names
        assert set(w["bypasses"]) <= layer_names
    assert len(wl.ops("desk")) == 44
    assert set(wl.load_golden()["default_seed"]) == {
        wl.op_id(op) for name in wl.NAMES for op in wl.ops(name)}


@pytest.mark.parametrize("workload", wl.NAMES)
def test_traced_run_loads_and_bypasses_the_predicted_layers(workload):
    # correct covers the traced and untraced passes giving identical digests
    out = _last_json(_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    values = {k: m["value"] for k, m in out["metrics"].items()}
    assert set(values) == {m["name"] for m in _spec()["per_layer"]}
    spec = wl.SPEC["workloads"][workload]
    assert all(values[k] > 0 for k in spec["loads"]), {k: values[k] for k in spec["loads"]}
    assert all(values[k] == 0 for k in spec["bypasses"]), {k: values[k] for k in spec["bypasses"]}
    assert values["trace_overhead"] > 0

    with open(wl.WORK / f"spans-{workload}.jsonl", encoding="utf-8") as fh:
        shares = self_shares([json.loads(line) for line in fh])
    if workload == "series_reduce":
        assert next(iter(shares)) == "division.divide_series"
    if workload == "well_gsb":
        assert shares["division.divide"] + shares["buchberger.buchberger"] > 0.5


def test_untraced_run_reports_every_end_to_end_metric():
    out = _last_json(_bench("--workload", "desk", "--seed", "2", "--seconds", "1"))
    assert out["correct"] and out["attempted"] >= 88  # default-seed pass + one timed pass
    assert set(out["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def _result(problem, command):
    sys.path.insert(0, str(wl.ROOT / "src"))
    from parastd import cli
    from parastd.problems import parse_problem

    text = "\n".join(wl.SPEC["problems"][problem])
    doc, code = cli.run(command, parse_problem(text), {})
    assert code == 0
    return json.loads(json.dumps(doc["result"]))


def test_staircase_oracle_rejects_a_wrong_staircase():
    lines = wl.SPEC["problems"]["katsura4_a"]
    result = _result("katsura4_a", "gsb")
    assert oracles.generic_staircase(lines, result, Random(1)) == (2, [])
    result["staircase"] = result["staircase"][1:]
    checks, failures = oracles.generic_staircase(lines, result, Random(1))
    assert checks == 2 and len(failures) == 2


def test_milnor_oracle_rejects_a_wrong_milnor_number():
    lines = wl.SPEC["problems"]["e7_local"]
    result = _result("e7_local", "hilbert")
    checks, failures = oracles.milnor_strata(lines, result, Random(1))
    assert checks >= 3 and failures == []
    for stratum in result["strata"]:
        if stratum["milnor"] != "infinite":
            stratum["milnor"] = str(int(stratum["milnor"]) + 1)
    checks, failures = oracles.milnor_strata(lines, result, Random(1))
    assert len(failures) == checks >= 3


def test_refuses_to_run_without_the_sources():
    bare = wl.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(wl.HERE, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
