"""The layer rule of heunkit/__init__.py: a module imports only modules that
come before it in the stated layer order, the package root imports nothing,
and each CLI verb, in a fresh interpreter, loads only the layers it runs."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heunkit

SRC = Path(heunkit.__file__).resolve().parent


def _layer_order():
    """The module names of the docstring's "Layer order:" line, in order."""
    doc = ast.get_docstring(ast.parse((SRC / "__init__.py").read_text()))
    line = re.search(r"Layer order:(.*?)\.\n", doc, re.S).group(1)
    return [name.strip() for name in line.split("<")]


def _heunkit_imports(path):
    """(imported heunkit module, line, inside a function) for every import
    statement of a source file, relative or absolute."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.ImportFrom):
                if child.level:
                    names = [child.module] if child.module else \
                        [alias.name for alias in child.names]
                elif (child.module or "").startswith("heunkit."):
                    names = [child.module.split(".")[1]]
                else:
                    names = []
                found.extend((n, child.lineno, in_function) for n in names)
            elif isinstance(child, ast.Import):
                found.extend((alias.name.split(".")[1], child.lineno,
                              in_function) for alias in child.names
                             if alias.name.startswith("heunkit."))
            visit(child, nested)

    visit(ast.parse(path.read_text()), False)
    return found


def test_layer_order_names_every_module():
    assert sorted(_layer_order()) == sorted(
        p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def test_modules_import_only_earlier_layers():
    """Every heunkit import, at module or function level, names an earlier
    layer; the package root imports no submodule; only cli imports inside
    functions (its runners load the layers each verb runs)."""
    order = _layer_order()
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for name, line, in_function in _heunkit_imports(path):
            where = f"{path.name}:{line} imports {name}"
            if path.stem == "__init__":
                bad.append(where)
            elif order.index(name) >= order.index(path.stem):
                bad.append(where + " (not an earlier layer)")
            elif in_function and path.stem != "cli":
                bad.append(where + " inside a function")
    assert bad == []


_LOADED_CHILD = """
import contextlib, io, json, sys
argv = {argv!r}
if argv:
    from heunkit.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
else:
    import heunkit
    status = 0
print(json.dumps([status, sorted(m.split(".")[1] for m in sys.modules
                                 if m.startswith("heunkit."))]))
"""

_HEUN = ["--a", "0.31", "--b", "0.77", "--c", "1.23", "--d", "0.62",
         "--e", "0.23", "--f", "2.5", "--q", "0.1"]


@pytest.mark.parametrize("argv, not_loaded", [
    ([], set(_layer_order())),
    (["classify", "--corpus", "gauss-hypergeometric"],
     {"engine", "mathieu", "scenarios"}),
    (["heun-eval", *_HEUN, "--z", "0.3+0.1i"],
     {"engine", "mathieu", "scenarios", "corpus"}),
    (["mathieu-table", "--q-values", "0,1,0.7+0.4i", "--n-max", "2"],
     {"series", "heun", "engine", "scenarios", "corpus"}),
    (["connect", *_HEUN, "--from", "0", "--to", "1"],
     {"mathieu", "scenarios", "corpus"}),
], ids=["import heunkit", "classify", "heun-eval", "mathieu-table", "connect"])
def test_fresh_process_loads_only_its_layers(argv, not_loaded):
    p = subprocess.run([sys.executable, "-c", _LOADED_CHILD.format(argv=argv)],
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    status, loaded = json.loads(p.stdout)
    assert status == 0
    assert not_loaded.isdisjoint(loaded), loaded
