"""The benchmark's tracer (bench/tracer.py) still fits parastd.

It wraps parastd functions by module and name and patches three hot
methods, so renaming one under src/ breaks traced benchmark runs. Its
module is loaded by path; nothing under bench/ is written.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACER = _load_tracer()
SPANS = TRACER.SPANS
HOT_CALLS = ("orders.key.calls", "polyring.ascalar_mul.calls",
             "polyring.paramscalar_new.calls")


@pytest.mark.parametrize("name", sorted(SPANS))
def test_span_resolves_to_a_function(name):
    modname, attr, _ = SPANS[name]
    assert callable(getattr(importlib.import_module(modname), attr))


def test_installed_tracer_counts_hot_calls_and_uninstalls():
    buchberger, cli, division, genstd = (importlib.import_module(f"parastd.{name}")
                                         for name in ("buchberger", "cli", "division", "genstd"))
    from parastd.orders import MonomialOrder, grevlex
    from parastd.polyring import AScalar, ParamScalar
    from parastd.problems import parse_problem

    def hot_methods():
        return (MonomialOrder.key, AScalar.__mul__, ParamScalar.__init__,
                division.divide)

    originals = hot_methods()
    problem = parse_problem((ROOT / "problems" / "intro.psb").read_text())
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        with tracer.op(1):
            doc, code = cli.run("reduce", problem)
    finally:
        tracer.uninstall()
    assert (code, doc["status"]) == (0, "ok")
    assert all(tracer.hot[k] > 0 for k in HOT_CALLS), tracer.hot
    names = {rec[3] for rec in tracer.spans}
    assert {TRACER.OP, "cli.run", "genstd.generic_basis", "buchberger.buchberger"} <= names

    assert all(now is orig for now, orig in zip(hot_methods(), originals))
    assert buchberger.divide is genstd.divide is cli.divide is division.divide
    before = dict(tracer.hot)
    a = AScalar.var(0, 1)
    assert a * a == AScalar({(2,): 1}, 1)
    assert grevlex(2).exponent(grevlex(2).key((1, 0))) == (1, 0)
    ParamScalar(a)
    assert tracer.hot == before
