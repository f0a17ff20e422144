"""Compare the bytes two source trees write over a fixed list of CLI cases,
and the bits of the paths their per-path route draws.

    python3 tools/bitsweep.py OLD_TREE NEW_TREE

Each tree is a checkout with the package under ``src/`` (for example a
``git archive`` of the parent commit, and the working tree). For each tree
the script starts one fresh interpreter with ``PYTHONPATH=<tree>/src`` and
BLAS pinned to one thread, which runs ``selfsim.cli.main`` on every CLI case
with ``--out`` a scratch file, then draws every path case. It prints each
case's result (a CLI case's exit code, a path case's 0) and the sha256 of its
output (a path's float64 bytes) in both trees, then the cases that differ,
with the CLI, path and writer counts apart.

The CLI cases: every (process, method) pair at n in {1, 2, 3, 16, 64, 257, 262,
263, 2048} and H in {0.3, 0.7, 0.72, 0.8, 0.95, 0.99}, as CSV and as JSON (262
and 263 are the last dense and the first circulant ``lamperti`` grids); paths
of three write chunks (n = 2 * cli._CHUNK + 1), one and three of them, of
``bm-cumsum`` and ``davies-harte``, as CSV and as JSON; the four benchmark
commands; and every ``verify`` suite, each also at n = 16 with one path fewer
than its minimum (a refusal) and with its minimum. A pair that refuses an H, an
n or a path count gives its exit code and an empty output in both trees.

The path cases: for the same pairs, n and H, the path
``sampler(RngStream(11, s)).values`` for s in {0, 1, 2**64 - 1}, the sampler
built through ``cli.METHOD_TABLE`` with the default MA options, and the same
path from the per-path function of each pair that has one
(``davies_harte_fbm``, ``ma_truncated_fbm``, ``simulate_lamperti``). A refused
parameter gives its exception's name and an empty output.

The writer cases: a hand-built ``ReplicateBatch`` of the edge values of the
float formatter's domain, in both signs (``EDGES``: 1e-4 and its neighbours,
the largest double below 1e16, the powers of two from 2**-14 to 2**53, the
smallest subnormal, both zeros, values with a carry in their shortest digits
and reprs of 24 characters, which fill a formatter slot), which sampler paths
rarely hold; its first and last rows end in a 24-character repr: three rows at
n in {2047, 2048, 4097} (one side and the other of ``cli._REPR_FLOOR``, and a
path of two chunks), and 8 rows at n = 1024, 40 at n = 64, 5000 at n = 1
(paths below the floor, whose rows the writers format together) and 1 000 001
at n = 1 (path ids of seven digits). Each batch goes through the tree's
``cli._write_csv`` and ``cli._write_json`` as one block, and its output's
sha256 is taken as it is written.

The exit status checks the bit contract: 0 when the cases that differ are
exactly those that NEW_TREE declares in ``tools/bitsweep_declared.txt``, one
``fnmatch`` pattern per line ('#' starts a comment), 1 when a case differs
undeclared or a pattern matches no differing case. So the file is empty
unless the new tree changes bits on purpose, and a declaration fails the next
change, whose parent already has those bits. A case that the old tree cannot
run (a new option) reads as its exit code, so it must be declared too. Run
both trees on one host: the bits of every method but ``bm-cumsum`` move with
numpy's SIMD dispatch tier and with the BLAS library, kernel and thread count.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import types

PAIRS = (
    ("bm", "bm-cumsum"),
    ("fbm", "cholesky"),
    ("sfbm", "cholesky"),
    ("fbm", "davies-harte"),
    ("fbm", "ma-truncated"),
    ("fbm", "lamperti"),
    ("sfbm", "lamperti"),
)
GRID_SIZES = (1, 2, 3, 16, 64, 257, 262, 263, 2048)
HURSTS = (0.3, 0.7, 0.72, 0.8, 0.95, 0.99)
# 2 * cli._CHUNK + 1: two whole write chunks of a path and one of a single value
MULTI_CHUNK_N = 8193
# the workloads of BENCHMARK.json (perfbench/run.py), at seed 1
BENCHMARK = (
    "simulate --process fbm --method davies-harte --hurst 0.7 --n 1024 --paths 100 --format csv",
    "simulate --process sfbm --method lamperti --hurst 0.8 --n 32768 --paths 4 --format json",
    "verify --suite marginals --process fbm --method lamperti --hurst 0.8 --n 256 --paths 4000",
    "verify --suite covariance --process fbm --method ma-truncated --hurst 0.7 --n 64 --paths 400",
)
# each suite's path count: at least what it needs
SUITE_PATHS = {"marginals": 500, "covariance": 200, "normality": 1000, "equivalence": 200}
# each suite's path minimum, as the docstring of selfsim/cli.py states it
SUITE_MINIMA = {"marginals": 2, "covariance": 100, "normality": 1000, "equivalence": 2}
# the streams of every path case, at seed 11: the first two and the last
PATH_STREAMS = (0, 1, 2**64 - 1)
# the edges of the float formatter's numpy domain, 1e-4 <= |x| < 1e16 less the powers of
# two, and last the reprs that fill a whole 24-byte slot once negative
EDGES = (
    [1e-4, 0.00009999999999999999, 0.00010000000000000002, 9999999999999998.0]
    + [2.0**e for e in range(-14, 54)]
    + [5e-324, 0.0, -0.0, 0.1 + 0.2, 9.5, 0.9999999999999999, 99.99999999999999, 123.0]
    + [2.2250738585072014e-308, 1.7976931348623157e308, 2.4761579193295082e303]
)
# (n, rows) of each writer batch
WRITER_SHAPES = (
    (2047, 3), (2048, 3), (4097, 3), (1024, 8), (64, 40), (1, 5000), (1, 1_000_001)
)
# the pairs with a per-path function of their own
WRAPPED = {("fbm", "davies-harte"), ("fbm", "ma-truncated"), ("fbm", "lamperti"),
           ("sfbm", "lamperti")}


def cases() -> list[str]:
    """Every case, as the argument string of one command."""
    out = []
    for process, method in PAIRS:
        hursts = (0.5,) if process == "bm" else HURSTS
        for n in GRID_SIZES:
            for hurst in hursts:
                for fmt in ("csv", "json"):
                    out.append(
                        f"simulate --process {process} --method {method} --hurst {hurst}"
                        f" --n {n} --paths 3 --seed 11 --format {fmt}"
                    )
    for process, method, hurst in (("bm", "bm-cumsum", 0.5), ("fbm", "davies-harte", 0.7)):
        for paths in (1, 3):
            for fmt in ("csv", "json"):
                out.append(
                    f"simulate --process {process} --method {method} --hurst {hurst}"
                    f" --n {MULTI_CHUNK_N} --paths {paths} --seed 13 --format {fmt}"
                )
    out += [f"{case} --seed 1" for case in BENCHMARK]
    for process, method in PAIRS:
        for hurst in (0.5,) if process == "bm" else (0.3, 0.8):
            common = f"--process {process} --method {method} --hurst {hurst} --seed 5"
            for suite, paths in SUITE_PATHS.items():
                for n in (1, 16, 263):
                    out.append(f"verify --suite {suite} {common} --n {n} --paths {paths}")
                for paths in (SUITE_MINIMA[suite] - 1, SUITE_MINIMA[suite]):
                    out.append(f"verify --suite {suite} {common} --n 16 --paths {paths}")
            out.append(f"verify --suite error-bound {common} --n 16,64,256,1024")
    return list(dict.fromkeys(out))  # normality's minimum is also its sweep count


def path_cases() -> list[str]:
    """Every path case, as "path ROUTE PROCESS METHOD HURST N STREAM"."""
    out = []
    for process, method in PAIRS:
        routes = ("sampler", "wrapper") if (process, method) in WRAPPED else ("sampler",)
        for n in GRID_SIZES:
            for hurst in (0.5,) if process == "bm" else HURSTS:
                for route in routes:
                    case = f"path {route} {process} {method} {hurst} {n}"
                    out += [f"{case} {stream}" for stream in PATH_STREAMS]
    return out


def writer_cases() -> list[str]:
    """Every writer case, as "writer FORMAT N ROWS"."""
    return [f"writer {fmt} {n} {rows}" for n, rows in WRITER_SHAPES for fmt in ("csv", "json")]


class _Digest:
    """A text stream that keeps only the sha256 of the UTF-8 bytes written to it."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> None:
        self.sha.update(text.encode("utf-8"))


def write_batch(case: str) -> str:
    """The sha256 of the UTF-8 bytes one writer case writes: ROWS rows of EDGES in both
    signs, the first and the last ending in a 24-character repr."""
    import numpy as np
    from selfsim import GridSpec, ReplicateBatch
    from selfsim.cli import _write_csv, _write_json

    _, fmt, n, count = case.split()
    n, count = int(n), int(count)
    edges = np.array(EDGES + [-v for v in EDGES])
    rows = np.resize(np.concatenate([edges, edges[::-1], -edges]), (count, n))
    rows[0, -1] = rows[-1, -1] = -EDGES[-1]
    batch = ReplicateBatch(GridSpec(n), rows, "edges", "fbm", 0.7, 1, range(count))
    stream = _Digest()
    if fmt == "csv":
        _write_csv([batch], n, count, stream)
    else:
        _write_json([batch], n, {"process": "fbm", "n": n}, stream)
    return stream.sha.hexdigest()


def draw_path(case: str) -> bytes:
    """The float64 bytes of the path of one path case."""
    from selfsim import GridSpec, RngStream, davies_harte_fbm, ma_truncated_fbm, simulate_lamperti
    from selfsim.cli import METHOD_TABLE
    from selfsim.samplers import MA_DEFAULT_SUBSTEPS, MA_DEFAULT_TRUNCATION

    _, route, process, method, hurst, n, stream = case.split()
    grid, hurst, rng = GridSpec(int(n)), float(hurst), RngStream(11, int(stream))
    if route == "sampler":
        options = types.SimpleNamespace(
            process=process, hurst=hurst,
            truncation=MA_DEFAULT_TRUNCATION, substeps=MA_DEFAULT_SUBSTEPS,
        )
        path = METHOD_TABLE[method][1](options, grid)(rng)
    elif method == "davies-harte":
        path = davies_harte_fbm(grid, hurst, rng)
    elif method == "ma-truncated":
        path = ma_truncated_fbm(grid, hurst, rng)
    else:
        path = simulate_lamperti(process, hurst, grid, rng)
    return path.values.tobytes()


def run_cases() -> None:
    """In the tree's interpreter: run every case, print one JSON line each."""
    import selfsim
    from selfsim.cli import main

    if not selfsim.__file__.startswith(os.environ["PYTHONPATH"] + os.sep):
        raise SystemExit(f"selfsim imported from {selfsim.__file__}, not the tree's src")
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out")
        for case in cases():
            if os.path.exists(out):
                os.unlink(out)
            try:
                code = main([*case.split(), "--out", out])
            except Exception as exc:  # an escaped exception is a result too
                code = type(exc).__name__
            data = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    data = fh.read()
            print(json.dumps([case, code, hashlib.sha256(data).hexdigest()]), flush=True)
    for case in path_cases():
        try:
            code, data = 0, draw_path(case)
        except Exception as exc:  # a refused parameter is a result too
            code, data = type(exc).__name__, b""
        print(json.dumps([case, code, hashlib.sha256(data).hexdigest()]), flush=True)
    for case in writer_cases():
        print(json.dumps([case, 0, write_batch(case)]), flush=True)


def sweep(tree: str) -> dict:
    """{case: (result, sha256)} of one tree, from a fresh interpreter."""
    env = {
        **os.environ,
        "PYTHONPATH": os.path.join(os.path.abspath(tree), "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run"],
        env=env, capture_output=True, text=True, encoding="utf-8", check=True,
    )
    rows = (json.loads(line) for line in result.stdout.splitlines())
    return {case: (code, digest) for case, code, digest in rows}


def main(argv: list[str]) -> int:
    if argv == ["--run"]:
        run_cases()
        return 0
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    declared = []
    path = os.path.join(argv[1], "tools", "bitsweep_declared.txt")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            declared = [line.split("#", 1)[0].strip() for line in fh]
        declared = [pattern for pattern in declared if pattern]
    old, new = (sweep(tree) for tree in argv)
    summary = []
    for kind, kind_cases in (("CLI", cases()), ("path", path_cases()), ("writer", writer_cases())):
        differ = []
        for case in kind_cases:
            a, b = old.get(case), new.get(case)
            same = a == b
            print(f"{'same' if same else 'DIFF'}  {a[0]} {a[1][:12]}  {b[0]} {b[1][:12]}  {case}")
            if not same:
                differ.append(case)
        summary.append((kind, len(kind_cases), differ))
    for kind, total, differ in summary:
        print(f"\n{len(differ)} of {total} {kind} cases differ")
        for case in differ:
            print(f"  {case}")
    differ = [case for *_, kind_differ in summary for case in kind_differ]
    undeclared = [c for c in differ if not any(fnmatch.fnmatchcase(c, p) for p in declared)]
    unused = [p for p in declared if not any(fnmatch.fnmatchcase(c, p) for c in differ)]
    for case in undeclared:
        print(f"undeclared: {case}")
    for pattern in unused:
        print(f"declared, but no case differs: {pattern}")
    return 1 if undeclared or unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
