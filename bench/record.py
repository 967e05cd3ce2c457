"""Maintenance commands for the benchmark's recorded data.

    python3 bench/record.py golden
        Runs every op of every workload once at its default seed and writes
        bench/golden.json (digests of each op's JSON result). Ops whose
        command samples (comprehensive, hilbert, verify) also run at
        GOLDEN_SEEDS other CLI seeds, and recording stops if their
        seed-free result changes.

    python3 bench/record.py spread [--workloads ...]
        Runs bench/run.py SPREAD_RUNS times per workload of BENCHMARK.json
        (seeds 1..SPREAD_RUNS, its run_seconds), and once traced;
        prints each end-to-end metric's median and quartile spread (as a
        share of the median), and writes them with the traced layer values
        and self-time shares to bench/baseline.json.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from random import Random

import workloads as wl
from tracer import self_shares

SAMPLING_COMMANDS = ("comprehensive", "hilbert", "verify")
GOLDEN_SEEDS = 3
SPREAD_RUNS = 10  # as many runs as the acceptance check makes per workload


def _result(main, op, cli_seed):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(wl.argv(op, cli_seed))
    if code != 0:
        raise SystemExit(f"{wl.op_id(op)} exited with {code}")
    return json.loads(buf.getvalue())["result"]


def golden() -> None:
    sys.path.insert(0, str(wl.ROOT / "src"))
    from parastd.cli import main

    wl.write_problems()
    rng = Random(0)
    out = {"default_seed": {}, "any_seed": {}}
    for workload in wl.NAMES:
        for op in wl.ops(workload):
            oid = wl.op_id(op)
            if oid in out["default_seed"]:
                continue
            result = _result(main, op, None)
            out["default_seed"][oid] = wl.digest(result)
            stable = wl.digest(wl.seed_free(op, result))
            if stable != out["default_seed"][oid]:
                out["any_seed"][oid] = stable
            if op["command"] in SAMPLING_COMMANDS:
                for _ in range(GOLDEN_SEEDS):
                    s = rng.randrange(1, 2**31)
                    if wl.digest(wl.seed_free(op, _result(main, op, s))) != stable:
                        raise SystemExit(f"{oid}: result depends on the CLI seed ({s})")
            print(oid, out["default_seed"][oid][:12], flush=True)
    wl.GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def _benchmark_spec() -> dict:
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run([sys.executable, str(wl.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=wl.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def spread(names) -> None:
    seconds = _benchmark_spec()["run_seconds"]
    baseline = {}
    for workload in names:
        e2e = [_run(workload, seed, seconds, 0) for seed in range(1, SPREAD_RUNS + 1)]
        row = {"runs": SPREAD_RUNS, "seconds": seconds, "end_to_end": {},
               "errors": sum(r["failed"] for r in e2e)}
        for name in e2e[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in e2e]
            q1, med, q3 = statistics.quantiles(values, n=4)
            row["end_to_end"][name] = {"median": med, "spread": (q3 - q1) / med,
                                       "unit": e2e[0]["metrics"][name]["unit"]}
            print(f"{workload:14s} {name:14s} median {med:10.4g}  spread {(q3 - q1) / med:6.1%}",
                  flush=True)
        traced = _run(workload, 1, seconds, 1)
        row["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        row["errors"] += traced["failed"]
        spans = wl.WORK / f"spans-{workload}.jsonl"
        with open(spans, encoding="utf-8") as fh:
            shares = self_shares([json.loads(line) for line in fh])
        row["self_time_shares"] = {k: round(v, 4) for k, v in shares.items()}
        baseline[workload] = row
    path = wl.HERE / "baseline.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    old.update(baseline)
    path.write_text(json.dumps(old, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="record golden digests or the baseline")
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("golden")
    s = sub.add_parser("spread")
    s.add_argument("--workloads", nargs="*", choices=wl.NAMES,
                   default=[w["name"] for w in _benchmark_spec()["workloads"]])
    args = ap.parse_args(argv)
    if args.cmd == "golden":
        golden()
    else:
        spread(args.workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
