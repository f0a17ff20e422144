"""Suite configuration: the `slow` marker, so `pytest -m "not slow"` is a quick loop.

The marker is added here by node id rather than in the test files, so that
no test's own code changes. The full suite still runs every test.
"""

import pytest

# Above 5 s in `pytest --durations=15` on a 2-vCPU VM (Python 3.11, numpy 2.4): none
# since the circulant ACF test draws its 100 000 rows as one batch (0.5 s).
SLOW: set[str] = set()


def pytest_collection_modifyitems(items):
    # a renamed test would silently lose its marker: a listed id must name a test
    # of its module, whenever that module is collected
    modules = {item.nodeid.split("::", 1)[0]: getattr(item, "module", None) for item in items}
    for node_id in sorted(SLOW):
        path, *names = node_id.split("::")
        obj = modules.get(path)
        if obj is None:
            continue
        for name in names:
            obj = getattr(obj, name, None)
        if not callable(obj):
            raise pytest.UsageError(f"SLOW in tests/conftest.py names no test: {node_id}")
    for item in items:
        if item.nodeid.split("[", 1)[0] in SLOW:
            item.add_marker(pytest.mark.slow)
