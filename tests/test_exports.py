"""Package exports: every public name the package lists resolves."""

import ast
import importlib
import inspect
import pkgutil

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
