"""Workload definitions shared by run.py and its worker.

The problems and op lists live in workloads.json; this module writes the
problem files, expands the desk matrix into ops and digests results.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
GOLDEN_PATH = HERE / "golden.json"
NAMES = tuple(SPEC["workloads"])


def problem_path(name: str) -> Path:
    return WORK / "problems" / f"{name}.psb"


def write_problems() -> None:
    (WORK / "problems").mkdir(parents=True, exist_ok=True)
    for name, lines in SPEC["problems"].items():
        problem_path(name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _param_count(problem: str) -> int:
    for line in SPEC["problems"][problem]:
        if line.startswith("params:"):
            return len([p for p in line[len("params:"):].split(",") if p.strip()])
    return 0


def ops(workload: str) -> list[dict]:
    """The ops of one pass, in order: {"command", "problem", "args"}."""
    spec = SPEC["workloads"][workload]
    if "ops" in spec:
        return [{"args": [], **op} for op in spec["ops"]]
    matrix = spec["matrix"]
    excluded = {(ex["command"], p) for ex in matrix["exclude"] for p in ex["problems"]}
    out = []
    for problem in matrix["problems"]:
        for command in matrix["commands"]:
            if (command, problem) in excluded:
                continue
            args = []
            if command == "specialize":
                args = ["--point", matrix["points"][str(_param_count(problem))]]
            out.append({"command": command, "problem": problem, "args": args})
    return out


def problems_of(workload: str) -> list[str]:
    return sorted({op["problem"] for op in ops(workload)})


def op_id(op: dict) -> str:
    return " ".join([op["command"], op["problem"], *op["args"]])


def argv(op: dict, cli_seed: int | None) -> list[str]:
    """CLI arguments; cli_seed None keeps the problem's default seed."""
    out = [op["command"], str(problem_path(op["problem"])), "--format", "json", *op["args"]]
    if cli_seed is not None:
        out += ["--seed", str(cli_seed)]
    return out


def digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seed_free(op: dict, result: dict) -> dict:
    """The part of a result that must not depend on the CLI seed."""
    fields = SPEC["seed_free_fields"].get(op["command"])
    if fields is None:
        return result
    return {k: result[k] for k in fields}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
