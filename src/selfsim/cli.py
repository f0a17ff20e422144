"""Command-line front end: simulate path batches, run verification suites,
and benchmark methods, with reproducible seeds and CSV/JSON output.

Every option is declared once, in `_OPTIONS`: each command's flags come
from it, and each option is resolved and checked once, through its cast,
before a command runs, so a malformed option is a usage error even where it
is not used.

Every `verify` run writes one report object. Exit codes: 0 success, 1 a
verification verdict failed, 2 usage error (including invalid process/method
combinations, flags a command does not take, malformed values, bad config
files, an unwritable output path, a write that fails (a full device), a grid
too large to allocate, and fewer paths than a suite needs: 2 for marginals and
equivalence, 100 for covariance, 1000 for normality), 3 numerical failure (a
Cholesky factor that stays indefinite through the whole jitter ladder). A
reader that closes standard output early (`selfsim simulate | head -1`) is not
an error: the rest of the output is dropped, and the command returns its own
code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import stat
import sys
import time
from contextlib import contextmanager

from . import __version__, verify
from .core import (
    DEFAULT_SEED,
    GridSpec,
    ParameterError,
    generate_blocks,
)
from .lamperti import lamperti_sampler
from .samplers import (
    MA_DEFAULT_SUBSTEPS,
    MA_DEFAULT_TRUNCATION,
    NotPositiveDefiniteError,
    _check_substeps,
    _check_truncation,
    _in_range,
    bm_sampler,
    cholesky_sampler,
    davies_harte_sampler,
    ma_sampler,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Each method once: the processes it samples, and a builder that takes the
# resolved options and a grid and returns its LinearSampler.
METHOD_TABLE = {
    "bm-cumsum": (("bm",), lambda o, grid: bm_sampler(grid)),
    "cholesky": (("fbm", "sfbm"), lambda o, grid: cholesky_sampler(o.process, o.hurst, grid)),
    "davies-harte": (("fbm",), lambda o, grid: davies_harte_sampler(grid, o.hurst)),
    "ma-truncated": (
        ("fbm",),
        lambda o, grid: ma_sampler(grid, o.hurst, truncation=o.truncation, substeps=o.substeps),
    ),
    "lamperti": (("fbm", "sfbm"), lambda o, grid: lamperti_sampler(o.process, o.hurst, grid)),
}
PROCESSES = tuple(sorted({p for processes, _ in METHOD_TABLE.values() for p in processes}))

# The check of each suite that draws paths, as blocks (equivalence: a --baseline run too, seed + 1).
BATCH_CHECKS = {
    "marginals": verify.marginal_variance_profile,
    "covariance": verify.covariance_match,
    "normality": verify.normality_check,
    "equivalence": verify.method_equivalence,
}
SUITES = (*BATCH_CHECKS, "error-bound")
FORMATS = ("csv", "json")
# Values of a path per write: a chunk's floats, reprs and text live only while it
# is written, so a writer holds O(_CHUNK) of them, not O(n). One bm path of
# n = 2**21 peaks at 84 MiB as CSV and as JSON, against 614 and 323 MiB in one
# write. A warm write of 4 sfBm paths of n = 32768 takes at most one page fault
# at 4096 or 8192; at 16384 (core._BLOCK_NORMALS) the CSV one takes about 2500.
_CHUNK = 4096


class UsageError(Exception):
    pass


def _int_list(value) -> list[int]:
    return [int(part) for part in str(value).split(",")]


def _choice(*allowed, sep=None):
    """A cast to one of `allowed`, or with `sep` to a `sep`-separated list of them."""

    def cast(value):
        if not set(value.split(sep) if sep else [value]) <= set(allowed):
            raise ValueError(f"valid: {', '.join(allowed)}")
        return value

    return cast


# Every option once: its default and the cast that checks it. A cast raises
# ValueError on a malformed value; `main` turns that into a usage error.
_OPTIONS = {
    "process": ("fbm", _choice(*PROCESSES)),
    "method": ("davies-harte", _choice(*METHOD_TABLE, sep=",")),  # bench takes a list
    "hurst": (0.5, float),
    "n": (256, _int_list),
    "paths": (1, functools.partial(_in_range, "paths", int, 1)),
    "seed": (DEFAULT_SEED, int),
    "out": (None, str),
    "format": ("csv", _choice(*FORMATS)),
    "truncation": (MA_DEFAULT_TRUNCATION, _check_truncation),
    "substeps": (MA_DEFAULT_SUBSTEPS, _check_substeps),
    "suite": ("marginals", _choice(*SUITES)),
    "baseline": ("cholesky", _choice(*METHOD_TABLE)),
}
_VERIFY_ONLY = ("suite", "baseline")  # flags of verify alone; every command resolves all keys


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
        if key not in _OPTIONS:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = val
    return values


def _options(args: argparse.Namespace, config: dict) -> argparse.Namespace:
    """Each `_OPTIONS` key, used or not: flag > config file > SELFSIM_SEED environment
    variable (seed only) > default, through its cast; a ValueError is a usage error."""
    o = argparse.Namespace()
    for key, (default, cast) in _OPTIONS.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key)
        if value is None and key == "seed":
            value = os.environ.get("SELFSIM_SEED")
        if value is None:
            value = default
        try:
            setattr(o, key, None if value is None else cast(value))
        except ValueError as exc:
            raise UsageError(f"invalid value for {key}: {value!r} ({exc})") from None
    return o


def _builder(o: argparse.Namespace, method):
    """The builder of the (o.process, method) pair; an invalid pair is a usage error."""
    processes, build = METHOD_TABLE.get(method, ((), None))  # bench alone takes a list
    if o.process not in processes:
        raise UsageError(f"method {method!r} is not valid for process {o.process!r}")
    if o.process == "bm" and o.hurst != 0.5:
        raise UsageError(f"process 'bm' has Hurst index 0.5, got {o.hurst}")
    return build


def _build_sampler(o: argparse.Namespace, method, n):
    """The LinearSampler of the (o.process, method) pair on GridSpec(n)."""
    return _builder(o, method)(o, GridSpec(n))


def _drop_output(fd: int) -> None:
    """Point `fd` at the null device, so the flush of what its stream still holds is quiet."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


@contextmanager
def _open_out(out):
    """The output stream; an unwritable path, or a write or flush that fails (a full
    device), is a usage error.

    A closed pipe, on standard output or named by `out`, ends the writing, and the
    command returns its own code. After a closed pipe or a failed write the
    descriptor points at the null device, so the final flush stays quiet. A file is
    opened as UTF-8 at offset 0 without truncation, and its old tail is cut only
    when the block succeeds. So a command that opens it before its work fails on a
    bad path at once. A failed run removes a file it created; one that fails
    before writing leaves an existing file as it was.
    """
    if out is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            _drop_output(sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):
                raise UsageError(f"cannot write standard output: {exc.strerror}") from None
        return
    created = not os.path.lexists(out)
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise UsageError(f"cannot write output file {out!r}: {exc.strerror}") from None
    with open(fd, "w", encoding="utf-8", newline="") as stream:
        try:
            yield stream
            stream.flush()
        except BrokenPipeError:  # a pipe has no tail to cut
            _drop_output(fd)
            return
        except BaseException as exc:
            if created:
                os.unlink(out)
            if not isinstance(exc, OSError):
                raise
            _drop_output(fd)
            raise UsageError(f"cannot write output file {out!r}: {exc.strerror}") from None
        if stat.S_ISREG(os.fstat(fd).st_mode):
            stream.truncate()


def _chunks(n: int, end: str) -> list[tuple[slice, str]]:
    """The slice of each chunk of a path of n values, with `end` after the last one."""
    return [(slice(s, s + _CHUNK), "" if s + _CHUNK < n else end) for s in range(0, n, _CHUNK)]


def _write_csv(blocks, n: int, count: int, stream) -> None:
    """Rows path_id,t,value of the `count` paths of n values in `blocks`, the t = 0
    row first; one write per chunk of a path.

    A chunk is one join of a list that repeats the row's "\n{i}," separator, its
    "t," cell and its value's repr, so no "t,value" string is built per value.
    Each "t," cell is formatted once, as repr(j / n) of Python ints, when the first
    path reaches its chunk, and kept only while another path follows: one path
    holds O(_CHUNK) of them, not n.
    """
    last = count - 1
    chunks = _chunks(n, "\n")
    times = [None] * len(chunks)
    stream.write("path_id,t,value\n")
    for i, row in enumerate(row for block in blocks for row in block.values):
        sep, head = f"\n{i},", f"{i},0.0,0.0"
        for c, (part, end) in enumerate(chunks):
            cells = times[c] or [f"{j / n!r}," for j in range(1, n + 1)[part]]
            times[c] = cells if i < last else None
            parts = [sep] * (3 * len(cells))
            parts[1::3] = cells
            parts[2::3] = map(repr, row[part].tolist())
            stream.write(f"{head}{''.join(parts)}{end}")
            head = ""


def _write_json(blocks, n: int, meta: dict, stream) -> None:
    """The layout of json.dump({"meta": ..., "paths": ...}, indent=2) for the paths of
    n values in `blocks`; one write per chunk of a path.

    repr equals the JSON token only for finite floats; ReplicateBatch rejects
    non-finite values, and this writer relies on that.
    """
    chunks = _chunks(n, "\n    ]")
    head = json.dumps({"meta": {**meta, "artifact_version": __version__}}, indent=2)
    stream.write(f'{head[:-2]},\n  "paths": [\n')
    sep, head = ",\n      ", "    [\n      0.0,\n      "
    for row in (row for block in blocks for row in block.values):
        for part, end in chunks:
            stream.write(f"{head}{sep.join(map(repr, row[part].tolist()))}{end}")
            head = sep
        head = ",\n    [\n      0.0,\n      "
    stream.write("\n  ]\n}\n")


# The details of a report as one list: its records' items and the records themselves
# are joined by the separator that json.dumps(..., indent=2) puts between items.
_RECORDS = json.JSONEncoder(separators=(",\n      ", ": "))
_SCALARS = {str, int, float, bool, type(None)}  # exact types: a subclass takes json.dumps


def _report_text(report: dict) -> str:
    """The text of json.dumps(report, indent=2).

    When every record of report["details"] is a nonempty dict of `_SCALARS`, the list
    is one call of the C encoder (`_RECORDS`), not the pure-Python indent layout,
    and one replace re-indents the record boundaries. A JSON string holds no raw
    newline, so "}," then the separator and "{" only sit between records. Any other
    report (empty details, an empty record, a record holding a list or dict) is
    json.dumps(report, indent=2) itself.
    """
    details = report["details"]
    flat = (
        details
        and all(type(record) is dict and record for record in details)
        and {type(v) for record in details for v in record.values()} <= _SCALARS
    )
    if not flat:
        return json.dumps(report, indent=2)
    body = _RECORDS.encode(details)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    head = json.dumps({**report, "details": []}, indent=2)  # one top-level "details" key
    return head.replace('\n  "details": []', f'\n  "details": [\n    {{\n      {body}\n    }}\n  ]')


def cmd_simulate(o: argparse.Namespace) -> int:
    n = o.n[0]
    with _open_out(o.out) as stream:
        sampler = _build_sampler(o, o.method, n)
        blocks = generate_blocks(sampler, o.paths, o.seed)
        if o.format == "csv":
            _write_csv(blocks, n, o.paths, stream)
        else:
            meta = {
                "process": o.process,
                "method": o.method,
                "hurst": o.hurst,
                "n": n,
                "paths": o.paths,
                "seed": o.seed,
                "format": o.format,
                **sampler.info,
            }
            _write_json(blocks, n, meta, stream)
    return EXIT_OK


def cmd_verify(o: argparse.Namespace) -> int:
    with _open_out(o.out) as stream:
        if o.suite == "error-bound":
            _builder(o, o.method)  # it draws nothing, but the pair must be valid all the same
            report = verify.error_bound_check(o.n, o.hurst)
        else:
            methods = (o.method, o.baseline) if o.suite == "equivalence" else (o.method,)
            samplers = [_build_sampler(o, method, o.n[0]) for method in methods]
            blocks = [generate_blocks(s, o.paths, o.seed + i) for i, s in enumerate(samplers)]
            report = BATCH_CHECKS[o.suite](*blocks)
        stream.write(_report_text(report.to_dict()) + "\n")
    return EXIT_OK if report.verdict else EXIT_VERDICT


def cmd_bench(o: argparse.Namespace) -> int:
    rows = []
    with _open_out(o.out) as stream:
        for method in o.method.split(","):
            previous = None
            for n in o.n:
                sampler = _build_sampler(o, method, n)
                next(generate_blocks(sampler, 1, o.seed))  # warm-up: one-off costs go untimed
                count = max(3, o.paths)
                start = time.perf_counter()
                for _ in generate_blocks(sampler, count, o.seed):
                    pass
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

        if o.format == "json":
            stream.write(json.dumps(rows, indent=2) + "\n")
        else:  # the records' keys, then their values: None is an empty cell, a float its repr
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(rows[0])
            writer.writerows(row.values() for row in rows)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # not argparse's usage text and exit(2): `main` reports it
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="selfsim",
        description="Simulate and verify self-similar Gaussian process paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("simulate", cmd_simulate, "write a batch of sample paths"),
        ("verify", cmd_verify, "run a statistical verification suite"),
        ("bench", cmd_bench, "time methods across grid sizes"),
    )
    for name, func, summary in commands:
        p = sub.add_parser(name, help=summary)
        for key in _OPTIONS:
            if name == "verify" or key not in _VERIFY_ONLY:
                p.add_argument(f"--{key}")
        p.add_argument("--config")
        p.set_defaults(func=func)
    return parser


# Built once, at import: parse_args keeps no state between calls.
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        o = _options(args, _read_config(args.config) if args.config else {})
        takes_list = args.command == "bench" or (args.command, o.suite) == ("verify", "error-bound")
        if len(o.n) > 1 and not takes_list:
            raise UsageError(f"{args.command} takes one grid size in --n, got {len(o.n)}")
        return args.func(o)
    except (UsageError, ParameterError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotPositiveDefiniteError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
