"""Package exports: every public name the package lists resolves, every name
the benchmark imports from it resolves, the README's library example runs,
the package imports without scipy, and no module imports one above it (the
samplers below the checks, the checks below the CLI). Also the suite's own
node-id list of slow tests."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import selfsim

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def test_benchmark_imports_resolve():
    # the benchmark's bit gate checks simulate output against public samplers:
    # deleting one would pass this suite and break only the benchmark
    tree = ast.parse((ROOT / "perfbench" / "gates.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "selfsim"
        for alias in node.names
    ]
    assert imported
    missing = [f"{m}.{name}" for m, name in imported if not hasattr(importlib.import_module(m), name)]
    assert missing == []


def _package_imports(name: str) -> set:
    """The selfsim modules that src/selfsim/<name>.py imports, relatively or not."""
    tree = ast.parse((ROOT / "src" / "selfsim" / f"{name}.py").read_text(encoding="utf-8"))
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            dotted += [f"selfsim.{node.module or alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted += [f"{node.module}.{alias.name}" for alias in node.names]
    return {d.split(".")[1] for d in dotted if d.startswith("selfsim.")}


def test_modules_import_no_layer_above():
    # a sampler module that imported the checks would tie the law's builders to
    # the harness that judges them
    for name in ("core", "covmodels", "samplers", "lamperti"):
        assert not _package_imports(name) & {"verify", "cli"}, name
    assert "lamperti" in _package_imports("verify")  # the guard sees a real import
    assert "cli" not in _package_imports("verify")


def test_readme_library_example_runs():
    # the README's one python block shows the public API: a renamed or re-signed
    # name fails here instead of leaving the example stale
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_stale_slow_id_is_a_usage_error(monkeypatch, request):
    conftest = sys.modules["conftest"]
    monkeypatch.setattr(conftest, "SLOW", {"tests/test_exports.py::test_renamed_away"})
    with pytest.raises(pytest.UsageError, match="test_renamed_away"):
        conftest.pytest_collection_modifyitems([request.node])


def test_import_loads_numpy_alone():
    # numpy is the one runtime dependency; numpy.random and numpy.fft load with
    # the package, so the first draw does not pay for their import
    probe = (
        "import sys, selfsim, selfsim.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
        "print('numpy.random' in sys.modules, 'numpy.fft' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, encoding="utf-8"
    )
    assert result.stdout.split("\n")[:2] == ["[]", "True True"], result.stderr
