"""Outside-in tracer: wraps parastd's public functions from the outside.

Nothing under src/ knows about it. `Tracer.install()` replaces each traced
function in every parastd module namespace that holds it (several modules
import `divide` or `generic_basis` by name), so calls between modules go
through the wrapper too. Each wrapped call records a span
[id, parent id, op id, name, start, end, attributes] in memory; spans are
written out only when the run ends. Three hot methods are counted (and
`AScalar.__mul__` timed) without spans, because a span per call would cost
more than the call.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _steps(out, args, kwargs):
    return {"steps": out.steps, "zero": out.remainder.is_zero()}


def _requested(out, args, kwargs):
    count = args[3] if len(args) > 3 else kwargs["count"]
    return {"found": len(out), "requested": count}


# span name -> (defining module, function name, attribute extractor)
SPANS = {
    "buchberger.buchberger": ("parastd.buchberger", "buchberger",
                              lambda out, a, k: {"size": len(out.generators)}),
    "buchberger.parameter_groebner": ("parastd.buchberger", "parameter_groebner", None),
    "buchberger.normal_form_param": ("parastd.buchberger", "normal_form_param", None),
    "division.divide": ("parastd.division", "divide", _steps),
    "division.divide_truncated": ("parastd.division", "divide_truncated", _steps),
    "division.divide_series": ("parastd.division", "divide_series", _steps),
    "division.s_function": ("parastd.division", "s_function", None),
    "genstd.generic_basis": ("parastd.genstd", "generic_basis", None),
    "genstd.generic_reduced_basis": ("parastd.genstd", "generic_reduced_basis", None),
    "genstd.divide_mod_q": ("parastd.genstd", "divide_mod_q", None),
    "genstd.plain_staircase": ("parastd.genstd", "plain_staircase", None),
    "comprehensive.comprehensive_basis": ("parastd.comprehensive", "comprehensive_basis",
                                          lambda out, a, k: {"cells": len(out.cells)}),
    "comprehensive.in_radical": ("parastd.comprehensive", "in_radical",
                                 lambda out, a, k: {"true": bool(out)}),
    "sampling.variety_points": ("parastd.sampling", "variety_points", _requested),
    "polyring.rational_roots": ("parastd.polyring", "rational_roots", None),
    "hilbert.strata_from_cells": ("parastd.hilbert", "strata_from_cells", None),
    "problems.parse_problem": ("parastd.problems", "parse_problem", None),
    "cli.run": ("parastd.cli", "run", None),
    "cli.render_document": ("parastd.cli", "render_document", None),
}

OP = "op"  # root span of one CLI call, opened by the benchmark itself


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack = [0]
        self.op_id = 0
        self.hot = {"orders.key.calls": 0, "polyring.ascalar_mul.calls": 0,
                    "polyring.ascalar_mul.s": 0.0, "polyring.paramscalar_new.calls": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        rec = [len(self.spans) + 1, self.stack[-1], self.op_id, name,
               perf_counter(), 0.0, None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def _close(self, rec):
        rec[5] = perf_counter()
        self.stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span opened inside carries op_id."""
        self.op_id = op_id
        rec = self._open(OP)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[6] = attrs(out, args, kwargs)
            return out

        return functools.update_wrapper(traced, fn)

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import parastd.cli  # noqa: F401  (loads every parastd module)

        mods = [m for k, m in sys.modules.items()
                if k == "parastd" or k.startswith("parastd.")]
        for name, (modname, attr, attrs) in SPANS.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig, attrs)
            for mod in mods:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    self._set(mod, key, wrapper)
        self._install_hot()

    def _install_hot(self):
        from parastd.orders import MonomialOrder
        from parastd.polyring import AScalar, ParamScalar

        hot = self.hot
        key0, mul0, init0 = MonomialOrder.key, AScalar.__mul__, ParamScalar.__init__

        def key(order, e):
            hot["orders.key.calls"] += 1
            return key0(order, e)

        def mul(a, b):
            t = perf_counter()
            try:
                return mul0(a, b)
            finally:
                hot["polyring.ascalar_mul.s"] += perf_counter() - t
                hot["polyring.ascalar_mul.calls"] += 1

        def init(scalar, *args, **kwargs):
            hot["polyring.paramscalar_new.calls"] += 1
            init0(scalar, *args, **kwargs)

        self._set(MonomialOrder, "key", key)
        self._set(AScalar, "__mul__", mul)
        self._set(ParamScalar, "__init__", init)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


def layer_metrics(spans, hot, passes: int) -> dict:
    """Per-pass layer metrics from recorded spans and hot counters."""
    by_id = {rec[0]: rec for rec in spans}

    def parent_name(rec):
        parent = by_id.get(rec[1])
        return parent[3] if parent else None

    def outermost(rec):
        parent = by_id.get(rec[1])
        while parent is not None:
            if parent[3] == rec[3]:
                return False
            parent = by_id.get(parent[1])
        return True

    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    attr_sum: dict[str, float] = {}
    s_under_bb = red_under_bb = zero_under_bb = nodes = 0
    for rec in spans:
        name = rec[3]
        calls[name] = calls.get(name, 0) + 1
        if outermost(rec):
            incl[name] = incl.get(name, 0.0) + rec[5] - rec[4]
        for k, v in (rec[6] or {}).items():
            key = f"{name}.{k}"
            attr_sum[key] = attr_sum.get(key, 0) + v
        parent = parent_name(rec)
        if parent == "buchberger.buchberger":
            if name == "division.s_function":
                s_under_bb += 1
            elif name in ("division.divide", "division.divide_truncated"):
                red_under_bb += 1
                zero_under_bb += rec[6]["zero"]
        elif parent == "comprehensive.comprehensive_basis" and name == "genstd.generic_basis":
            nodes += 1

    sizes = [rec[6]["size"] for rec in spans if rec[3] == "buchberger.buchberger"]
    pairs = sum(_pairs(k) for k in sizes)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return incl.get(name, 0.0)

    total = {
        "orders.key.calls": hot["orders.key.calls"],
        "buchberger.calls": c("buchberger.buchberger"),
        "buchberger.pairs": pairs,
        "buchberger.pairs_coprime": pairs - s_under_bb,
        "buchberger.reductions": red_under_bb,
        "buchberger.zero_reductions": zero_under_bb,
        "buchberger.s": s("buchberger.buchberger"),
        "division.divide.calls": c("division.divide"),
        "division.divide.s": s("division.divide"),
        "division.divide.steps": attr_sum.get("division.divide.steps", 0),
        "division.s_function.calls": c("division.s_function"),
        "division.s_function.s": s("division.s_function"),
        "division.divide_series.calls": c("division.divide_series"),
        "division.divide_series.s": s("division.divide_series"),
        "division.divide_series.steps": attr_sum.get("division.divide_series.steps", 0),
        "genstd.divide_mod_q.calls": c("genstd.divide_mod_q"),
        "genstd.divide_mod_q.s": s("genstd.divide_mod_q"),
        "polyring.ascalar_mul.calls": hot["polyring.ascalar_mul.calls"],
        "polyring.ascalar_mul.s": hot["polyring.ascalar_mul.s"],
        "polyring.paramscalar_new.calls": hot["polyring.paramscalar_new.calls"],
        "comprehensive.nodes": nodes,
        "comprehensive.cells": attr_sum.get("comprehensive.comprehensive_basis.cells", 0),
        "comprehensive.in_radical.calls": c("comprehensive.in_radical"),
        "comprehensive.in_radical.s": s("comprehensive.in_radical"),
        "comprehensive.in_radical.true": attr_sum.get("comprehensive.in_radical.true", 0),
        "buchberger.parameter_groebner.calls": c("buchberger.parameter_groebner"),
        "buchberger.parameter_groebner.s": s("buchberger.parameter_groebner"),
        "buchberger.normal_form_param.calls": c("buchberger.normal_form_param"),
        "buchberger.normal_form_param.s": s("buchberger.normal_form_param"),
        "genstd.generic_basis.calls": c("genstd.generic_basis"),
        "genstd.generic_basis.s": s("genstd.generic_basis"),
        "genstd.plain_staircase.calls": c("genstd.plain_staircase"),
        "genstd.plain_staircase.s": s("genstd.plain_staircase"),
        "polyring.rational_roots.calls": c("polyring.rational_roots"),
        "polyring.rational_roots.s": s("polyring.rational_roots"),
        "sampling.variety_points.calls": c("sampling.variety_points"),
        "sampling.variety_points.s": s("sampling.variety_points"),
        "sampling.points_found": attr_sum.get("sampling.variety_points.found", 0),
        "sampling.points_requested": attr_sum.get("sampling.variety_points.requested", 0),
        "hilbert.strata_from_cells.s": s("hilbert.strata_from_cells"),
        "problems.parse_problem.s": s("problems.parse_problem"),
        "cli.render_document.s": s("cli.render_document"),
    }
    out = {k: v / passes for k, v in total.items()}
    out["buchberger.useful_ratio"] = (
        (red_under_bb - zero_under_bb) / red_under_bb if red_under_bb else 0.0)
    out["buchberger.basis_size"] = sum(sizes) / len(sizes) if sizes else 0.0
    return out


def self_shares(spans) -> dict:
    """Share of traced op time spent in each span name's own code."""
    child_time: dict[int, float] = {}
    for rec in spans:
        if rec[1]:
            child_time[rec[1]] = child_time.get(rec[1], 0.0) + rec[5] - rec[4]
    own: dict[str, float] = {}
    total = 0.0
    for rec in spans:
        dur = rec[5] - rec[4]
        if rec[3] == OP:
            total += dur
        own[rec[3]] = own.get(rec[3], 0.0) + dur - child_time.get(rec[0], 0.0)
    if total <= 0:
        return {}
    return dict(sorted(((k, v / total) for k, v in own.items()),
                       key=lambda kv: -kv[1]))
