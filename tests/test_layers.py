"""Layering of the parastd modules, read from their relative imports and calls.

Each module imports only modules earlier in LAYERS. `orders` is the bottom
layer (order keys, exponent arithmetic and staircases) and `division` the
one division loop above it; both stay below the coefficient rings in
`polyring`, whose exact division and gcd call that loop.

The engine route (homogenization, the combined order, the flattening of
a parametric polynomial into Q[x, a]) is chosen in `genstd` only, so the
functions that build it are called nowhere else in the package.

The packed key layout is known to `orders` only: no other module names
its constants or tables, or slices a key by the number of weight rows.

Importing the CLI loads no `dataclasses` or `typing` (nor `inspect` and the
parsers it pulls in): they would cost a fresh process more than all of
parastd's own modules.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "parastd"


def relative_imports(module: str) -> set[str]:
    """Names of the parastd modules that `module` imports relatively."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:  # from . import name
                out.update(alias.name for alias in node.names)
    return out


LAYERS = ("errors", "orders", "division", "polyring", "buchberger", "genstd",
          "sampling", "comprehensive", "hilbert", "problems", "cli")


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_low_layers_import_only_what_is_below_them(module):
    assert relative_imports(module) <= set(LAYERS[:LAYERS.index(module)])


ROUTE_FUNCTIONS = {"homogenize", "dehomogenize", "combined_order", "embed_params_as_vars"}


def called_names(module: str) -> set[str]:
    """Names of the functions and methods that `module` calls, by name or attribute."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_the_engine_route_is_built_in_genstd_only():
    callers = {f: sorted(mod for mod in LAYERS if f in called_names(mod))
               for f in ROUTE_FUNCTIONS}
    assert callers == {f: ["genstd"] for f in ROUTE_FUNCTIONS}


LAYOUT_NAMES = {"_FIELD_BITS", "ENTRY_CAP", "ROW_WEIGHT_CAP", "_FIELD", "_ROW_BIAS",
                "_GUARD", "_Layout", "_layout", "_lay"}


def layout_readers(module: str) -> set[str]:
    """Layout names that `module` uses, and "len(.rows)" if it counts weight rows."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "len" and node.args
              and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "rows"):
            out.add("len(.rows)")
    return out & (LAYOUT_NAMES | {"len(.rows)"})


def test_the_key_layout_is_known_to_orders_only():
    readers = {mod: sorted(layout_readers(mod)) for mod in LAYERS}
    assert readers.pop("orders")  # the guard sees the layout where it lives
    assert readers == {mod: [] for mod in LAYERS if mod != "orders"}


def imported_names(module: str) -> set[str]:
    """Names that `module` imports from other parastd modules."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}


def test_division_walks_the_corner_on_keys():
    # the highest corner is found from the cones' keys, not from exponents
    assert not {"region_of", "exp_degree"} & imported_names("division")


def test_importing_the_cli_loads_no_dataclass_or_typing_machinery():
    # -S: no site .pth file may import typing first and hide a regression
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import parastd.cli; "
             "print(*sorted({'dataclasses', 'inspect', 'typing', 'ast', 'dis', 'tokenize'}"
             " & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC.parent)],
                           capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout.split() == []


ROOT = SRC.parent.parent
SCANNED = ([p for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")))


def unused_imports(path: Path) -> list[str]:
    """Names that the module at path imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    # `__init__` imports only to re-export; every other module of the
    # package, the tests and the scripts reads each name it imports
    unused = {str(p.relative_to(ROOT)): names for p in SCANNED if (names := unused_imports(p))}
    assert unused == {}
