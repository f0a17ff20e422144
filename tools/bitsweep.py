"""Compare the bytes two source trees write over a fixed list of CLI cases.

    python3 tools/bitsweep.py OLD_TREE NEW_TREE

Each tree is a checkout with the package under ``src/`` (for example a
``git archive`` of the parent commit, and the working tree). For each tree
the script starts one fresh interpreter with ``PYTHONPATH=<tree>/src`` and
BLAS pinned to one thread, which runs ``selfsim.cli.main`` on every case
with ``--out`` a scratch file. It prints each case's exit code and the
sha256 of its output in both trees, then the cases that differ.

The cases: every (process, method) pair at n in {1, 2, 3, 16, 64, 257, 262,
263, 2048} and H in {0.3, 0.7, 0.72, 0.8, 0.95, 0.99}, as CSV and as JSON (262
and 263 are the last dense and the first circulant ``lamperti`` grids); paths
of three write chunks (n = 2 * cli._CHUNK + 1), one and three of them, of
``bm-cumsum`` and ``davies-harte``, as CSV and as JSON; the four benchmark
commands; and every ``verify`` suite, each also at n = 16 with one path fewer
than its minimum (a refusal) and with its minimum. A pair that refuses an H, an
n or a path count gives its exit code and an empty output in both trees.

It is a tool, not a test: it gates nothing, and it exits 0 whatever differs.
Run both trees on one host, since the GEMM bits of the BLAS may differ
between machines.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

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


def run_cases() -> None:
    """In the tree's interpreter: run every case, print one JSON line each."""
    from selfsim.cli import main

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


def sweep(tree: str) -> dict:
    """{case: (exit code, sha256)} of one tree, from a fresh interpreter."""
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
    old, new = (sweep(tree) for tree in argv)
    differ = []
    for case in cases():
        a, b = old.get(case), new.get(case)
        same = a == b
        print(f"{'same' if same else 'DIFF'}  {a[0]} {a[1][:12]}  {b[0]} {b[1][:12]}  {case}")
        if not same:
            differ.append(case)
    print(f"\n{len(differ)} of {len(old)} cases differ")
    for case in differ:
        print(f"  {case}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
