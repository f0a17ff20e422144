"""Package exports: every public name the package lists resolves, and the
package imports without scipy."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys

import selfsim


def test_every_listed_name_resolves():
    # a deleted function left in `__all__` breaks `from selfsim.<module> import *`
    missing = []
    for info in pkgutil.iter_modules(selfsim.__path__):
        module = importlib.import_module(f"selfsim.{info.name}")
        listed = getattr(module, "__all__", ())
        missing += [f"{info.name}.{name}" for name in listed if not hasattr(module, name)]
    tree = ast.parse(inspect.getsource(selfsim))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"selfsim.{node.module}")
            for alias in node.names:
                if not (hasattr(selfsim, alias.name) and hasattr(module, alias.name)):
                    missing.append(f"selfsim.{alias.name}")
    assert missing == []


def test_import_loads_numpy_alone():
    # numpy is the one runtime dependency; numpy.random and numpy.fft load with
    # the package, so the first draw does not pay for their import
    probe = (
        "import sys, selfsim, selfsim.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
        "print('numpy.random' in sys.modules, 'numpy.fft' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.stdout.split("\n")[:2] == ["[]", "True True"], result.stderr
