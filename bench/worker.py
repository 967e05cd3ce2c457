"""Benchmark worker: runs one workload in this process through parastd.cli.main.

run.py starts it as a child process, so that the import time and the peak
RSS it reports belong to parastd alone. It prints one JSON object.

    python3 bench/worker.py setup --workload W
    python3 bench/worker.py run --workload W --seed N --seconds S --trace 0|1

`setup` times importing parastd and parsing the workload's problem files,
then runs the speed probe, so that run.py can scale that sample by the
speed of the process it was taken in.
`run` repeats passes over the workload's ops (a closed loop: each op starts
when the previous one returns) until the time is used up. Every op's
result is checked against golden digests outside the timed region, and
every op runs under a timeout, so a hang counts as a failure.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import signal
import statistics
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from random import Random
from time import perf_counter

import workloads as wl

MIN_PASSES = 3
OP_TIMEOUT_S = 60.0
HARD_BUDGET_S = 120.0  # stop starting ops after this, whatever --seconds says
PROBE_REFERENCE_S = 0.02  # the probe's time at the reference CPU speed
PROBE_EVERY_S = 0.25
PROBE_MAX_REPEAT = 4


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("op timed out")


def _setup(workload: str) -> float:
    """Import parastd and parse the workload's problems; return seconds."""
    sys.path.insert(0, str(wl.ROOT / "src"))
    t0 = perf_counter()
    import parastd.cli  # noqa: F401
    from parastd.problems import parse_problem

    for name in wl.problems_of(workload):
        parse_problem(wl.problem_path(name).read_text(encoding="utf-8"))
    elapsed = perf_counter() - t0
    import parastd

    if not parastd.__file__.startswith(str(wl.ROOT / "src")):
        raise SystemExit(f"parastd imported from {parastd.__file__}, not this checkout")
    return elapsed


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work, with gc off.

    The CPU speed a shared host gives this process drifts by a fifth or
    more within a second, and parastd and the probe slow down together.
    The work (tuple exponents, dict accumulation, Fraction products) is
    like parastd's inner loops but shares no code with it. It is short
    (PROBE_REFERENCE_S) so that it can run every PROBE_EVERY_S and still
    cost less than a tenth of the run.
    """
    gc.disable()
    t0 = perf_counter()
    acc: dict = {}
    for i in range(3000):
        e = (i % 7, i % 5, i % 3)
        f = tuple(a + b for a, b in zip(e, (1, 2, 0)))
        acc[f] = acc.get(f, 0) + Fraction(i % 11 + 1, i % 13 + 1) * Fraction(3, i % 4 + 1)
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed


class Runner:
    """Runs ops, times them and checks their results."""

    def __init__(self, workload: str, deadline: float, tracer=None):
        from parastd import cli

        self.main = cli.main
        self.ops = wl.ops(workload)
        self.golden = wl.load_golden()
        self.deadline = deadline
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, dict] = {}
        self.digests: list[str] = []  # per op of every pass, in order
        self.next_op = 0

    def call(self, op: dict, cli_seed: int | None) -> float:
        """Run one op; return its wall time in seconds (checks excluded)."""
        self.attempted += 1
        buf = io.StringIO()
        timeout = min(OP_TIMEOUT_S, self.deadline - perf_counter())
        err = None
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        t0 = perf_counter()
        try:
            with redirect_stdout(buf):
                if self.tracer is None:
                    code = self.main(wl.argv(op, cli_seed))
                else:
                    self.next_op += 1
                    with self.tracer.op(self.next_op):
                        code = self.main(wl.argv(op, cli_seed))
        except OpTimeout:
            code, err = None, f"timeout after {timeout:.1f} s"
        except Exception as e:  # an op that crashes is a failure, not the end of the run
            code, err = None, f"{type(e).__name__}: {e}"
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._check(op, cli_seed, code, err, buf.getvalue())
        return elapsed

    def _check(self, op, cli_seed, code, err, text):
        oid = wl.op_id(op)
        if err is None and code != 0:
            err = f"exit code {code}"
        if err is None:
            try:
                result = json.loads(text)["result"]
            except (ValueError, KeyError) as e:
                err = f"unreadable output: {e}"
        if err is None:
            if cli_seed is None:
                got, want = wl.digest(result), self.golden["default_seed"][oid]
            else:
                got = wl.digest(wl.seed_free(op, result))
                want = self.golden["any_seed"].get(oid, self.golden["default_seed"][oid])
            self.digests.append(got)
            if got != want:
                err = "result digest differs from golden"
            else:
                self.outputs.setdefault(oid, result)
        else:
            self.digests.append("")
        if err is not None:
            self.failures.append(f"{oid} (seed {cli_seed}): {err}")

    def run_pass(self, seeds) -> tuple[float, list[float]]:
        times = [self.call(op, s) for op, s in zip(self.ops, seeds)]
        return sum(times), times


def _timed_passes(runner: Runner, rng: Random, seconds: float):
    """Passes until the time is used up, with a speed probe about every
    PROBE_EVERY_S between ops.

    Each op's time is scaled by the speed that the probes just before and
    just after it measured, so a drift of the host's speed within a run is
    corrected where it happens. Returns (scaled pass times, scaled op
    times, raw pass times, probe times).
    """
    start = perf_counter()
    probes = [probe()]
    last_probe = perf_counter()
    timed = []  # (pass number, raw seconds, index of the last probe before the op)
    passes = 0
    while perf_counter() < runner.deadline:
        for op in runner.ops:
            timed.append((passes, runner.call(op, rng.randrange(1, 2**31)), len(probes) - 1))
            gap = perf_counter() - last_probe
            if gap >= PROBE_EVERY_S:
                # after a long op, probe longer too: one short probe is a noisy
                # speed sample for a second of work
                count = min(PROBE_MAX_REPEAT, int(gap / PROBE_EVERY_S))
                probes.append(statistics.mean(probe() for _ in range(count)))
                last_probe = perf_counter()
        passes += 1
        elapsed = perf_counter() - start
        mean = elapsed / passes
        if passes >= MIN_PASSES and elapsed + mean > seconds:
            break
        if elapsed + mean > HARD_BUDGET_S:
            break
    probes.append(probe())
    pass_s, raw_pass_s, op_s = [0.0] * passes, [0.0] * passes, []
    for n, raw, j in timed:
        scaled = raw * 2 * PROBE_REFERENCE_S / (probes[j] + probes[j + 1])
        pass_s[n] += scaled
        raw_pass_s[n] += raw
        op_s.append(scaled)
    return pass_s, op_s, raw_pass_s, probes


def _percentile(values, p: int):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _plain_run(args, rng: Random, deadline: float):
    """End-to-end measurement; returns (metrics, runners)."""
    runner = Runner(args.workload, deadline)
    if any(op["command"] in wl.SPEC["seed_free_fields"] for op in runner.ops):
        for op in runner.ops:  # untimed pass at the default seeds
            runner.call(op, None)
    pass_s, op_s, raw_pass_s, probes = _timed_passes(runner, rng, args.seconds)
    return {
        "probes": len(probes),
        "probe_s": statistics.median(probes),
        "raw_pass_s": statistics.median(raw_pass_s),
        "pass_s": statistics.median(pass_s),
        "passes": len(pass_s),
        "op_ms_p50": 1000 * _percentile(op_s, 50),
        "op_ms_p90": 1000 * _percentile(op_s, 90),
        "ops_timed": len(op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, [runner]


def _traced_run(args, rng: Random, deadline: float):
    """Per-layer measurement; returns (metrics, runners).

    Each pass of CLI seeds runs once untraced and once traced, alternating
    which goes first so that warm-up does not land on one side.
    """
    from tracer import Tracer, layer_metrics, self_shares

    start = perf_counter()
    tracer = Tracer()
    plain = Runner(args.workload, deadline)
    traced = Runner(args.workload, deadline, tracer)
    seeds, plain_s, traced_s = [], [], []
    while perf_counter() < deadline:
        pass_seeds = [rng.randrange(1, 2**31) for _ in plain.ops]
        seeds.append(pass_seeds)
        for tracing in ((False, True) if len(seeds) % 2 else (True, False)):
            if not tracing:
                plain_s.append(plain.run_pass(pass_seeds)[0])
                continue
            tracer.install()
            try:
                traced_s.append(traced.run_pass(pass_seeds)[0])
            finally:
                tracer.uninstall()
        elapsed = perf_counter() - start
        if elapsed * (len(seeds) + 1) / len(seeds) > min(args.seconds, HARD_BUDGET_S):
            break
    tracer.write(wl.WORK / f"spans-{args.workload}.jsonl")
    if plain.digests != traced.digests:
        traced.failures.append("traced and untraced runs gave different result digests")
    layers = layer_metrics(tracer.spans, tracer.hot, len(seeds))
    layers["trace_overhead"] = statistics.median(traced_s) / statistics.median(plain_s)
    return {"passes": len(seeds), "layers": layers,
            "shares": self_shares(tracer.spans)}, [plain, traced]


def run(args) -> dict:
    _setup(args.workload)
    signal.signal(signal.SIGALRM, _on_alarm)
    measure = _traced_run if args.trace else _plain_run
    out, runners = measure(args, Random(args.seed), perf_counter() + HARD_BUDGET_S)
    out["attempted"] = sum(r.attempted for r in runners)
    out["failures"] = [f for r in runners for f in r.failures]
    out["outputs"] = {k: v for r in runners for k, v in r.outputs.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        setup_s = _setup(args.workload)
        probes = [probe() for _ in range(PROBE_MAX_REPEAT)]
        result = {"setup_s": setup_s, "probe_s": statistics.mean(probes)}
    else:
        result = run(args)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
