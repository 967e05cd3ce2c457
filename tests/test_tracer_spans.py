"""Every span the benchmark's tracer wraps names a function that exists.

The tracer (bench/tracer.py) wraps parastd functions by module and name,
so renaming one under src/ breaks traced benchmark runs. Its module is
loaded by path and only read.
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


SPANS = _load_tracer().SPANS


@pytest.mark.parametrize("name", sorted(SPANS))
def test_span_resolves_to_a_function(name):
    modname, attr, _ = SPANS[name]
    assert callable(getattr(importlib.import_module(modname), attr))
