"""parastd benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload desk|well_gsb|local_tree|series_reduce \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and drives parastd only through
parastd.cli.main, on problem files it writes under bench/.work/. The
workloads, their ops and the layers each one loads or bypasses are in
bench/workloads.json; the metric names and units are in BENCHMARK.json.

--trace 0 reports the end-to-end metrics: setup_s (median of several fresh
imports plus problem parsing), pass_s (median wall time of one pass over
the workload's ops), op_ms_p50/op_ms_p90 (per-op latency) and peak_rss_mb
(the worker's peak RSS). The times are wall times scaled to a reference CPU
speed: the speed a shared host gives a process drifts by a fifth or more
within seconds, and by up to a factor of two between runs. So a fixed
pure-Python probe (worker.probe) runs about every quarter second between ops,
and each op's time is multiplied by worker.PROBE_REFERENCE_S / (mean of
the probes just before and after it); each setup sample is scaled by
probes run in its own process. The raw medians are printed as well.

--trace 1 runs each pass untraced and again under the outside-in tracer
(bench/tracer.py) and reports the per-layer metrics, including
trace_overhead; per-layer times are not scaled.

Every op's result is checked against bench/golden.json; well_gsb and
local_tree outputs are also checked against sympy (bench/oracles.py), all
outside the timed region. The last stdout line is one JSON object with
correct, attempted, failed and metrics. error_rate is failed/attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from random import Random

import workloads as wl
from worker import PROBE_REFERENCE_S

SETUP_REPEATS = 21
WORKER_TIMEOUT_S = 160.0
WORKER = str(wl.HERE / "worker.py")
# The warm-up setup writes parastd's bytecode cache, so that the timed
# imports read it whether or not the caller's environment turns it off.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def _benchmark_spec() -> dict:
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=wl.ROOT, env=WORKER_ENV,
                          stdout=subprocess.PIPE, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode("utf-8").splitlines()[-1])


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median import-plus-parse time over fresh interpreters (after one
    warm-up), each sample scaled by the probe run in its own process;
    returns (scaled, raw) medians."""
    args = ["setup", "--workload", workload]
    _worker(args, 60)
    samples = [_worker(args, 60) for _ in range(SETUP_REPEATS)]
    scaled = [s["setup_s"] * PROBE_REFERENCE_S / s["probe_s"] for s in samples]
    return statistics.median(scaled), statistics.median(s["setup_s"] for s in samples)


def check_outputs(workload: str, outputs: dict, seed: int) -> tuple[int, list[str]]:
    """Independent sympy checks on the distinct results of a run."""
    if workload not in ("well_gsb", "local_tree"):
        return 0, []
    import oracles

    check = oracles.generic_staircase if workload == "well_gsb" else oracles.milnor_strata
    rng = Random(seed)
    checks, failures = 0, []
    for op in wl.ops(workload):
        result = outputs.get(wl.op_id(op))
        if result is None:
            continue  # the op failed; already counted
        n, bad = check(wl.SPEC["problems"][op["problem"]], result, rng)
        checks += n
        failures += [f"{wl.op_id(op)}: {b}" for b in bad]
    return checks, failures


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="parastd benchmark")
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (wl.ROOT / "src" / "parastd" / "__init__.py").is_file():
        print(f"error: no parastd sources under {wl.ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    wl.write_problems()

    try:
        setup_s, raw_setup_s = setup_seconds(args.workload) if not args.trace else (0, 0)
        res = _worker(["run", "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    checks, oracle_failures = check_outputs(args.workload, res["outputs"], args.seed)
    failures = res["failures"] + oracle_failures
    attempted = res["attempted"] + checks
    failed = min(len(failures), attempted)

    if args.trace:
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        values = {**res, "setup_s": setup_s}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{res['passes']} passes, {res['attempted']} ops and {checks} sympy checks")
    for name, m in metrics.items():
        print(f"  {name:40s} {_fmt(m['value']):>14s} {m['unit']}")
    if not args.trace:
        print(f"  (pass_s is the median of {res['passes']} passes, op_ms percentiles "
              f"are over {res['ops_timed']} timed ops, setup_s is the median of "
              f"{SETUP_REPEATS} fresh imports; times are scaled by {res['probes']} speed "
              f"probes of median {res['probe_s']:.4f} s; raw pass_s "
              f"{res['raw_pass_s']:.6g} s, raw setup_s {raw_setup_s:.6g} s)")
    print(f"  {'error_rate':40s} {_fmt(failed / attempted):>14s} ratio ({failed} of {attempted})")
    if args.trace:
        print("  self-time shares of traced op time:")
        for name, share in list(res["shares"].items())[:12]:
            print(f"    {name:38s} {share:8.1%}")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
