"""Command dispatch and machine-readable output for problem files.

Commands: gsb, reduce, comprehensive, hilbert, divide, specialize, verify.
Output is a single self-describing document (schema "parastd/1", rationals
as strings) rendered as text or JSON. Exit codes: 0 success, 1 input
error (a usage error included), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import inf
from random import Random

from .errors import ParastdError, ProblemSyntaxError
from .polyring import render_ascalar, render_fraction, render_poly, split_params
from .division import divide, divide_series, divide_truncated, full_division_terminates
from .genstd import (
    PrimeContext,
    generic_basis,
    generic_reduced_basis,
    plain_staircase,
    verify_specialization,
)
from .comprehensive import MAX_DEPTH, comprehensive_basis
from .hilbert import hilbert_partition
from .problems import OPTION_KEYS, Problem, check_option, parse_point, parse_problem
from .sampling import variety_points

SCHEMA = "parastd/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


def _render(problem: Problem, f) -> str:
    return render_poly(f, problem.order, problem.vars, problem.params)


def _render_a(problem: Problem, s) -> str:
    return render_ascalar(s, problem.params)


def _staircase_doc(st) -> list:
    return [list(e) for e in st.generators]


def _point_doc(problem: Problem, point) -> dict:
    return {name: render_fraction(Fraction(v))
            for name, v in zip(problem.params, point)}


def _generic_basis(problem: Problem):
    ctx = PrimeContext.from_generators(problem.qgens, problem.m)
    return generic_basis(problem.ideal, problem.order, ctx)


def _basis_doc(problem: Problem, basis, **extra) -> dict:
    """Result of gsb and reduce; `extra` fields go after the staircase."""
    return {
        "generators": [_render(problem, g) for g in basis.gens],
        "staircase": _staircase_doc(basis.staircase),
        **extra,
        "q": [_render_a(problem, q) for q in problem.qgens],
        "h": _render_a(problem, basis.h_poly()),
        "h_factors": [{"factor": _render_a(problem, f), "power": k}
                      for f, k in basis.h_factors],
    }


def _cell_doc(problem: Problem, cell) -> dict:
    return {
        "vanish": [_render_a(problem, v) for v in cell.vanish],
        "nonvanish": [_render_a(problem, v) for v in cell.nonvanish],
    }


def _gsb(problem, settings):
    return _basis_doc(problem, _generic_basis(problem)), EXIT_OK


def _reduce(problem, settings):
    basis = _generic_basis(problem)
    trunc = settings.get("trunc_degree")
    if trunc is None:
        trunc = max(6, basis.staircase.max_generator_degree())
    red = generic_reduced_basis(basis, trunc)
    return _basis_doc(problem, red, trunc_degree=trunc), EXIT_OK


def _comprehensive(problem, settings):
    result = comprehensive_basis(
        problem.ideal, problem.order,
        max_depth=settings.get("max_depth", MAX_DEPTH), seed=settings["seed"])
    cells = [{
        **_cell_doc(problem, entry.cell),
        "basis": [_render(problem, g) for g in entry.basis.gens],
        "staircase": _staircase_doc(entry.basis.staircase),
        "h": _render_a(problem, entry.basis.h_poly()),
    } for entry in result.cells]
    return {"cells": cells, "covering": True}, EXIT_OK


def _hilbert(problem, settings):
    strata = hilbert_partition(
        problem.ideal, problem.order,
        max_depth=settings.get("max_depth", MAX_DEPTH), seed=settings["seed"])
    return {"strata": [{
        "cells": [_cell_doc(problem, c) for c in s.cells],
        "hsf_values": s.data.values,
        "polynomial": s.data.polynomial_text(),
        "stabilizes_at": s.data.stabilization_index,
        "milnor": "infinite" if s.data.milnor is inf else str(s.data.milnor),
    } for s in strata]}, EXIT_OK


def _divide(problem, settings):
    if len(problem.ideal) < 2:
        raise ProblemSyntaxError(
            "divide needs the dividend and at least one divisor in 'ideal'")
    f, G = problem.ideal[0], problem.ideal[1:]
    trunc = settings.get("trunc_degree")
    if trunc is not None:
        res, mode = divide_series(f, G, problem.order, trunc), "series"
    elif full_division_terminates(f, G, problem.order):
        res, mode = divide(f, G, problem.order), "full"
    else:
        res, mode = divide_truncated(f, G, problem.order), "truncated"
    return {
        "mode": mode,
        "quotients": [_render(problem, q) for q in res.quotients],
        "remainder": _render(problem, res.remainder),
        "cofactor_ok": res.cofactor_ok,
    }, EXIT_OK


def _specialize(problem, settings):
    point_text = settings.get("point")
    if not point_text and problem.params:
        raise ProblemSyntaxError("specialize needs --point a=..,b=..")
    point = parse_point(point_text or "", problem.params)
    spec = [f.specialize(point) for f in problem.ideal]
    return {
        "point": _point_doc(problem, point),
        "polynomials": [render_poly(split_params(f, len(problem.vars), 0), problem.order,
                                    problem.vars, ()) for f in spec],
        "staircase": _staircase_doc(plain_staircase(spec, problem.order)),
    }, EXIT_OK


def _verify(problem, settings):
    count = settings.get("samples", 10)
    if count == 0:
        raise ProblemSyntaxError("samples must be positive")
    basis = _generic_basis(problem)
    points = variety_points(basis.ctx.qbasis, problem.m, Random(settings["seed"]),
                            count, avoid=[fac for fac, _ in basis.h_factors])
    if not points:
        raise ParastdError("no admissible sample points found")
    checks = verify_specialization(basis, points)
    ok = all(c.ok for c in checks)
    return {
        "staircase": _staircase_doc(basis.staircase),
        "samples": [{
            "point": _point_doc(problem, c.point),
            "ok": c.ok,
            "staircase": _staircase_doc(c.got),
            "note": c.note,
        } for c in checks],
        "ok": ok,
        "requested": count,
        "tested": len(checks),
    }, EXIT_OK if ok else EXIT_VERIFY


# command name -> (fn(problem, settings) returning (result, exit code), the
# settings it reads besides "seed", which every command reads)
COMMANDS = {
    "gsb": (_gsb, ()),
    "reduce": (_reduce, ("trunc_degree",)),
    "comprehensive": (_comprehensive, ("max_depth",)),
    "hilbert": (_hilbert, ("max_depth",)),
    "divide": (_divide, ("trunc_degree",)),
    "specialize": (_specialize, ("point",)),
    "verify": (_verify, ("samples",)),
}


def run(command: str, problem: Problem, overrides: dict | None = None) -> tuple[dict, int]:
    """Execute a command on a parsed problem; return (document, exit code).

    Non-None overrides take precedence over the problem's options; one the
    command does not read is an input error.
    """
    if command not in COMMANDS:
        raise ProblemSyntaxError(f"unknown command {command!r}")
    fn, reads = COMMANDS[command]
    given = {k: v for k, v in (overrides or {}).items() if v is not None}
    for key in given:
        if key != "seed" and key not in reads:
            raise ProblemSyntaxError(f"{command} does not read the setting {key!r}")
    settings = {"seed": 0, **problem.options, **given}
    for key in OPTION_KEYS:
        if key in settings:
            check_option(key, settings[key])
    result, code = fn(problem, settings)
    status = "ok" if code == EXIT_OK else "verification_failed"
    return {"schema": SCHEMA, "command": command, "seed": settings["seed"],
            "status": status, "result": result}, code


# ---------------------------------------------------------------------------
# text rendering of documents


def _inline(value) -> str | None:
    """Compact rendering for lists of numbers (and lists thereof)."""
    if isinstance(value, list):
        parts = [_inline(v) for v in value]
        if all(p is not None for p in parts):
            return "[" + ", ".join(parts) + "]"
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    return None


def _text_lines(value, indent=0) -> list[str]:
    """Lines of a nonempty dict ("key:" labels) or list ("-" labels)."""
    pad = "  " * indent
    if isinstance(value, dict):
        pairs = [(f"{key}:", v) for key, v in value.items()]
    else:
        pairs = [("-", v) for v in value]
    lines = []
    for label, v in pairs:
        compact = _inline(v)
        if compact is not None:
            lines.append(f"{pad}{label} {compact}")
        elif isinstance(v, (dict, list)) and v:
            lines.append(f"{pad}{label}")
            lines.extend(_text_lines(v, indent + 1))
        else:
            lines.append(f"{pad}{label} {_scalar_text(v)}")
    return lines


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (dict, list)) and not v:
        return "(none)"
    return str(v)


def render_document(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True)
    return "\n".join(_text_lines(doc))


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command; each setting flag stores under its setting name."""
    ap = argparse.ArgumentParser(
        prog="parastd",
        description="standard bases of parametric polynomial ideals")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("problem", help="problem file")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--trunc", dest="trunc_degree", type=int,
                    help="series truncation degree (setting trunc_degree)")
    ap.add_argument("--max-depth", type=int)
    ap.add_argument("--samples", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--point", help="parameter point, e.g. a=2,b=-1/3")
    return ap


PARSER = build_parser()  # built once; each parse_args returns a fresh namespace


def main(argv=None) -> int:
    try:
        settings = vars(PARSER.parse_args(argv))
    except SystemExit as e:  # argparse has printed the usage or the help
        return EXIT_INPUT if e.code else EXIT_OK
    command, path, fmt = (settings.pop(k) for k in ("command", "problem", "format"))
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error[input]: {e}", file=sys.stderr)
        return EXIT_INPUT
    try:
        problem = parse_problem(text)
        doc, code = run(command, problem, settings)
    except ProblemSyntaxError as e:
        print(f"error[input]: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ParastdError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return EXIT_INPUT
    print(render_document(doc, fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
