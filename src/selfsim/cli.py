"""Command-line front end: simulate path batches, run verification suites,
and benchmark methods, with reproducible seeds and CSV/JSON output.

Exit codes: 0 success, 1 a verification verdict failed, 2 usage error
(including invalid process/method combinations, malformed values, bad
config files and an unwritable output path), 3 numerical failure (e.g.
indefinite circulant embedding).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import stat
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .core import (
    DEFAULT_SEED,
    GridSpec,
    ParameterError,
    ReplicateBatch,
    RngStream,
    generate_batch,
)
from .covmodels import make_kernel
from .lamperti import error_bound_diagnostics, lamperti_sampler, marginal_variance_profile
from .samplers import (
    MA_DEFAULT_SUBSTEPS,
    MA_DEFAULT_TRUNCATION,
    MAX_DOUBLINGS,
    EmbeddingError,
    NotPositiveDefiniteError,
    bm_sampler,
    cholesky_sampler,
    davies_harte_sampler,
    ma_sampler,
    wood_chan_sampler,
)
from .verify import covariance_match, method_equivalence, normality_check

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Each method once: the processes it samples, and a builder that takes
# (args, process, hurst, grid) and returns its LinearSampler.
METHOD_TABLE = {
    "bm-cumsum": (("bm",), lambda args, process, hurst, grid: bm_sampler(grid)),
    "cholesky": (
        ("fbm", "sfbm"),
        lambda args, process, hurst, grid: cholesky_sampler(make_kernel(process, hurst), grid),
    ),
    "davies-harte": (
        ("fbm",),
        lambda args, process, hurst, grid: davies_harte_sampler(grid, hurst),
    ),
    "circulant": (
        ("fbm",),
        lambda args, process, hurst, grid: wood_chan_sampler(
            grid, hurst, _resolve(args, "embedding_cap", int)
        ),
    ),
    "ma-truncated": (
        ("fbm",),
        lambda args, process, hurst, grid: ma_sampler(
            grid,
            hurst,
            truncation=_resolve(args, "truncation", float),
            substeps=_resolve(args, "substeps", int),
        ),
    ),
    "lamperti": (
        ("fbm", "sfbm"),
        lambda args, process, hurst, grid: lamperti_sampler(process, hurst, grid),
    ),
}
PROCESSES = tuple(sorted({p for processes, _ in METHOD_TABLE.values() for p in processes}))

SUITES = ("marginals", "covariance", "normality", "equivalence", "error-bound")

_DEFAULTS = {
    "process": "fbm",
    "method": "davies-harte",
    "hurst": 0.5,
    "n": 256,
    "paths": 1,
    "seed": DEFAULT_SEED,
    "out": None,
    "format": "csv",
    "truncation": MA_DEFAULT_TRUNCATION,
    "substeps": MA_DEFAULT_SUBSTEPS,
    "embedding_cap": MAX_DOUBLINGS,
    "suite": "marginals",
    "baseline": "cholesky",
}


class UsageError(Exception):
    pass


def _read_config(path: str) -> dict:
    """Plain key=value config file; '#' starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"config file {path!r} is not UTF-8 text") from None
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = val
    return values


def _resolve(args: argparse.Namespace, key: str, cast=None):
    """Precedence: command-line flag > config file > SELFSIM_SEED environment
    variable (seed only) > defaults. A value that `cast` rejects is a usage error."""
    value = getattr(args, key, None)
    if value is None:
        value = getattr(args, "_config", {}).get(key)
    if value is None and key == "seed":
        value = os.environ.get("SELFSIM_SEED")
    if value is None:
        value = _DEFAULTS[key]
    if value is not None and cast is not None:
        try:
            value = cast(value)
        except ValueError:
            raise UsageError(f"invalid value for {key}: {value!r}") from None
    return value


def _int_list(value) -> list[int]:
    return [int(part) for part in str(value).split(",")]


def _build_sampler(args: argparse.Namespace, process, method, hurst, n):
    """The LinearSampler of a (process, method) pair on GridSpec(n)."""
    processes, build = METHOD_TABLE.get(method, ((), None))
    if process not in processes:
        raise UsageError(f"method {method!r} is not valid for process {process!r}")
    if process == "bm" and hurst != 0.5:
        raise UsageError(f"process 'bm' has Hurst index 0.5, got {hurst}")
    return build(args, process, hurst, GridSpec(n))


@contextmanager
def _open_out(out):
    """The output stream; an unwritable path is a usage error.

    The file is opened at offset 0 without truncation, and its old tail is
    cut only when the block succeeds. So a command that opens it before its
    work fails on a bad path at once. A failed run removes a file it
    created; one that fails before writing leaves an existing file as it was.
    """
    if out is None:
        yield sys.stdout
        return
    created = not os.path.lexists(out)
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise UsageError(f"cannot write output file {out!r}: {exc.strerror}") from None
    with open(fd, "w", newline="") as stream:
        try:
            yield stream
        except BaseException:
            if created:
                os.unlink(out)
            raise
        if stat.S_ISREG(os.fstat(fd).st_mode):
            stream.truncate()


def _write_csv(batch: ReplicateBatch, stream) -> None:
    """Rows path_id,t,value with the t = 0 row first; one write per path.

    Each "t," cell is formatted once per batch, as repr(j / n) of Python ints.
    """
    n = batch.n
    times = [f"{j / n!r}," for j in range(1, n + 1)]
    stream.write("path_id,t,value\n")
    for i, path in enumerate(batch.paths):
        sep = f"\n{i},"
        cells = map(operator.add, times, map(repr, path.values.tolist()))
        stream.write(f"{i},0.0,0.0{sep}{sep.join(cells)}\n")


def _write_json(batch: ReplicateBatch, meta: dict, stream) -> None:
    """The layout of json.dump({"meta": ..., "paths": ...}, indent=2), one write per path.

    repr equals the JSON token only for finite floats; SamplePath rejects
    non-finite values, and this writer relies on that.
    """
    head = json.dumps({"meta": {**meta, "artifact_version": __version__}}, indent=2)
    stream.write(f'{head[:-2]},\n  "paths": [\n')
    sep = ""
    for path in batch.paths:
        values = ",\n      ".join(map(repr, path.values.tolist()))
        stream.write(f"{sep}    [\n      0.0,\n      {values}\n    ]")
        sep = ",\n"
    stream.write("\n  ]\n}\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    process = _resolve(args, "process")
    method = _resolve(args, "method")
    hurst = _resolve(args, "hurst", float)
    n = _resolve(args, "n", int)
    paths = _resolve(args, "paths", int)
    seed = _resolve(args, "seed", int)
    out = _resolve(args, "out")
    fmt = _resolve(args, "format")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")

    sampler = _build_sampler(args, process, method, hurst, n)
    with _open_out(out) as stream:
        batch = generate_batch(sampler, paths, seed)
        if fmt == "csv":
            _write_csv(batch, stream)
        else:
            meta = {
                "process": process,
                "method": method,
                "hurst": hurst,
                "n": n,
                "paths": paths,
                "seed": seed,
                "format": fmt,
            }
            if method == "ma-truncated":
                meta.update(batch.paths[0].info)
            _write_json(batch, meta, stream)
    return EXIT_OK


def _error_bound_report(n_values, hurst) -> dict:
    if len(set(n_values)) < 2:
        raise UsageError("the error-bound suite needs at least two distinct grid sizes in --n")
    diag = error_bound_diagnostics(n_values, hurst)
    first, last = diag["entries"][0], diag["entries"][-1]
    # rate confirmation against log(n)/n with 50% slack
    expected_ratio = (np.log(last["n"]) / last["n"]) / (np.log(first["n"]) / first["n"])
    rate_ok = last["a"] / first["a"] < expected_ratio * 1.5
    verdict = diag["a_decreasing"] and diag["b_decreasing"] and rate_ok
    return {
        "check": "error-bound",
        "method": "lamperti",
        "process": "any",
        "hurst": hurst,
        "n": int(last["n"]),
        "m_replicates": 0,
        "verdict": "pass" if verdict else "fail",
        "worst_deviation": diag["c1_fitted"],
        "tolerance": diag["c1_fitted"],
        "details": diag["entries"],
    }


def cmd_verify(args: argparse.Namespace) -> int:
    suite = _resolve(args, "suite")
    process = _resolve(args, "process")
    method = _resolve(args, "method")
    hurst = _resolve(args, "hurst", float)
    paths = _resolve(args, "paths", int)
    seed = _resolve(args, "seed", int)
    out = _resolve(args, "out")
    n_values = _resolve(args, "n", _int_list)
    n = n_values[0]

    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if suite != "error-bound":
        if len(n_values) > 1:
            raise UsageError(f"the {suite} suite takes one grid size in --n, got {len(n_values)}")
        sampler = _build_sampler(args, process, method, hurst, n)
    if suite == "equivalence":
        baseline = _resolve(args, "baseline")
        base_sampler = _build_sampler(args, process, baseline, hurst, n)

    reports: list[dict] = []
    with _open_out(out) as stream:
        if suite == "error-bound":
            reports.append(_error_bound_report(n_values, hurst))
        else:
            batch = generate_batch(sampler, paths, seed)
            if suite == "marginals":
                reports.append(marginal_variance_profile(batch, process, hurst).to_dict())
            elif suite == "covariance":
                kernel = make_kernel("fbm" if process == "bm" else process, hurst)
                reports.append(covariance_match(batch, kernel).to_dict())
            elif suite == "normality":
                for node in sorted({max(1, n // 4), max(1, n // 2), n}):
                    reports.append(normality_check(batch, node).to_dict())
            elif suite == "equivalence":
                base_batch = generate_batch(base_sampler, paths, seed + 1)
                diagonal_only = "lamperti" in (method, baseline)
                reports.append(
                    method_equivalence(batch, base_batch, diagonal_only=diagonal_only).to_dict()
                )
        json.dump(reports if len(reports) > 1 else reports[0], stream, indent=2)
        stream.write("\n")
    all_pass = all(r["verdict"] == "pass" for r in reports)
    return EXIT_OK if all_pass else EXIT_VERDICT


def cmd_bench(args: argparse.Namespace) -> int:
    process = _resolve(args, "process")
    hurst = _resolve(args, "hurst", float)
    seed = _resolve(args, "seed", int)
    out = _resolve(args, "out")
    fmt = _resolve(args, "format")
    paths = _resolve(args, "paths", int)
    methods = str(_resolve(args, "method")).split(",")
    n_values = _resolve(args, "n", _int_list)

    rows = []
    with _open_out(out) as stream:
        for method in methods:
            previous = None
            for n in n_values:
                sampler = _build_sampler(args, process, method, hurst, n)
                sampler(RngStream(seed, 0))  # warmup: builds cached spectra/factors
                count = max(3, paths)
                start = time.perf_counter()
                generate_batch(sampler, count, seed)
                elapsed = time.perf_counter() - start
                per_path = elapsed / count
                row = {
                    "method": method,
                    "n": n,
                    "paths": count,
                    "seconds_per_path": per_path,
                    "seconds_per_batch": elapsed,
                    "ratio_vs_previous_n": (per_path / previous) if previous else None,
                }
                previous = per_path
                rows.append(row)

        if fmt == "json":
            json.dump(rows, stream, indent=2)
            stream.write("\n")
        else:
            stream.write("method,n,paths,seconds_per_path,seconds_per_batch,ratio_vs_previous_n\n")
            for r in rows:
                ratio = "" if r["ratio_vs_previous_n"] is None else repr(r["ratio_vs_previous_n"])
                stream.write(
                    f"{r['method']},{r['n']},{r['paths']},"
                    f"{r['seconds_per_path']!r},{r['seconds_per_batch']!r},{ratio}\n"
                )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Simulate and verify self-similar Gaussian process paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--process", choices=PROCESSES)
        p.add_argument("--method")
        p.add_argument("--hurst", type=float)
        p.add_argument("--n")
        p.add_argument("--paths", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--truncation", type=float)
        p.add_argument("--substeps", type=int)
        p.add_argument("--embedding-cap", dest="embedding_cap", type=int)
        p.add_argument("--config")

    p_sim = sub.add_parser("simulate", help="write a batch of sample paths")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a statistical verification suite")
    add_common(p_ver)
    p_ver.add_argument("--suite", choices=SUITES)
    p_ver.add_argument("--baseline")
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time methods across grid sizes")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _read_config(args.config) if args.config else {}
        return args.func(args)
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EmbeddingError, NotPositiveDefiniteError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
