"""Correctness gates: each command's output is checked before it counts.

A gate returns ``(ok, record)``. ``record`` carries what was observed (the
sha256 of a simulate output, the verdict of a verify report) and, when the
gate fails, the reason. The digest is information only: later changes may
alter the bits on purpose, so it is never compared.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json

import numpy as np

from selfsim import GridSpec, RngStream, davies_harte_fbm, ma_truncated_fbm, simulate_lamperti


@functools.lru_cache(maxsize=8)
def _grid_row(n: int) -> np.ndarray:
    return np.concatenate([[0.0], np.arange(1, n + 1, dtype=float) / n])


def reference_path(process: str, method: str, hurst: float, n: int, seed: int, stream: int):
    """The path the public sampler gives for (seed, stream)."""
    grid, rng = GridSpec(n), RngStream(seed, stream)
    if method == "davies-harte":
        return davies_harte_fbm(grid, hurst, rng).values
    if method == "lamperti":
        return simulate_lamperti(process, hurst, grid, rng).values
    if method == "ma-truncated":
        return ma_truncated_fbm(grid, hurst, rng).values
    raise ValueError(f"no reference sampler for method {method!r}")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _parse_csv(text: str, paths: int, n: int) -> np.ndarray:
    header, _, body = text.partition("\n")
    if header != "path_id,t,value":
        raise ValueError(f"bad CSV header {header!r}")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if rows.shape != (paths * (n + 1), 3):
        raise ValueError(f"CSV has shape {rows.shape}, expected {(paths * (n + 1), 3)}")
    if not np.array_equal(rows[:, 0], np.repeat(np.arange(paths), n + 1)):
        raise ValueError("path_id column out of order")
    if not _same_bits(rows[:, 1].reshape(paths, n + 1), np.tile(_grid_row(n), (paths, 1))):
        raise ValueError("t column is not the grid j/n")
    return rows[:, 2].reshape(paths, n + 1)


def _parse_json(text: str, spec: dict) -> np.ndarray:
    payload = json.loads(text)
    meta = payload["meta"]
    for key in ("process", "method", "n", "paths", "seed"):
        if meta[key] != spec[key]:
            raise ValueError(f"meta {key} is {meta[key]!r}, expected {spec[key]!r}")
    values = np.array(payload["paths"], dtype=float)
    if values.shape != (spec["paths"], spec["n"] + 1):
        raise ValueError(f"JSON paths have shape {values.shape}")
    return values


def gate_simulate(path, spec: dict, rc) -> tuple[bool, dict]:
    """`spec` holds process, method, hurst, n, paths, seed and format."""
    record = {}
    try:
        data = path.read_bytes()
        record["sha256"] = hashlib.sha256(data).hexdigest()
        record["bytes"] = len(data)
        if rc != 0:
            raise ValueError(f"exit code {rc!r}")
        text = data.decode()
        if spec["format"] == "csv":
            values = _parse_csv(text, spec["paths"], spec["n"])
        else:
            values = _parse_json(text, spec)
        if not np.all(values[:, 0] == 0.0):
            raise ValueError("a t = 0 value is not 0.0")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite value")
        for stream in range(spec["paths"]):
            expected = reference_path(
                spec["process"], spec["method"], spec["hurst"], spec["n"], spec["seed"], stream
            )
            if not _same_bits(values[stream, 1:], expected):
                raise ValueError(f"path {stream} differs from the public sampler")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        record["error"] = str(exc)
        return False, record
    return True, record


def gate_verify(path, spec: dict, rc) -> tuple[bool, dict]:
    """`spec` holds suite, method, n, paths and whether a fail verdict is accepted."""
    record = {}
    try:
        report = json.loads(path.read_text())
        record["verdict"] = report["verdict"]
        expected_check = {"marginals": "marginal-variance", "covariance": "covariance-match"}
        if report["check"] != expected_check[spec["suite"]]:
            raise ValueError(f"report check {report['check']!r}")
        if report["method"] != spec["method"]:
            raise ValueError(f"report method {report['method']!r}")
        if report["n"] != spec["n"] or report["m_replicates"] != spec["paths"]:
            raise ValueError(f"report n={report['n']} m_replicates={report['m_replicates']}")
        if report["verdict"] not in ("pass", "fail"):
            raise ValueError(f"verdict {report['verdict']!r}")
        if rc != (0 if report["verdict"] == "pass" else 1):
            raise ValueError(f"exit code {rc!r} with verdict {report['verdict']}")
        if report["verdict"] == "fail" and not spec["fail_verdict_ok"]:
            raise ValueError("verdict fail")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        record["error"] = str(exc)
        return False, record
    return True, record
