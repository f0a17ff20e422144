"""Command-line front end: simulate path batches, run verification suites,
and benchmark methods, with reproducible seeds and CSV/JSON output.

Every option is declared once, in `_OPTIONS`: each command's flags come
from it, and each option is resolved and checked once, through its cast,
before a command runs, so a malformed option is a usage error even where it
is not used.

Every `verify` report, and `bench --format json`'s list of records, is written
as one line, `json.dumps` of its value and a newline, so appended runs make a
JSON-Lines log. Exit codes: 0 success, 1 a verification verdict failed, 2 usage
error (including invalid process/method combinations, flags a command does not
take, malformed values, bad config files, an unwritable output path, a write
that fails (a full device), a grid too large to allocate, and fewer paths than
a suite needs: 2 for marginals and equivalence, 100 for covariance, 1000 for
normality), 3 numerical failure (a Cholesky factor that stays indefinite
through the whole jitter ladder). A reader that closes standard output early
(`selfsim simulate | head -1`) is not an error: the rest of the output is
dropped, and the command returns its own code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import stat
import sys
import time
from contextlib import contextmanager

import numpy as np

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
# Values per write and per `_reprs` call, at most (`_pieces`): their floats, words and text
# live only while written, so a writer holds O(_CHUNK) of them, not O(n) or O(paths). Its
# warm traced peak is 1.4 MiB as CSV and as JSON for the widest piece, 4096 rows of n = 1.
# One bm path of n = 2**21 peaks at 84 MiB as CSV and as JSON, against 614 and 323 MiB in
# one write. A warm write of 4 sfBm paths of n = 32768 takes about 250 page faults as CSV
# and none as JSON; at 8192 about 8800 and 6000, at 16384 (core._BLOCK_NORMALS) 12600 and 8300.
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
    processes, build = METHOD_TABLE[method]
    if o.process not in processes:
        raise UsageError(f"method {method!r} is not valid for process {o.process!r}")
    if o.process == "bm" and o.hurst != 0.5:
        raise UsageError(f"process 'bm' has Hurst index 0.5, got {o.hurst}")
    return build


def _build_sampler(o: argparse.Namespace, method, n):
    """The LinearSampler of the (o.process, method) pair on GridSpec(n)."""
    return _builder(o, method)(o, GridSpec(n))


@contextmanager
def _open_out(out):
    """The output stream, standard output or the file `out`; an unwritable path, or a
    write, flush or truncate that fails (a full device), is a usage error.

    A closed pipe, on standard output or named by `out`, ends the writing, and the
    command returns its own code. After a closed pipe or a failed write the
    descriptor points at the null device, so the final flush stays quiet; any other
    error propagates. A file is opened as UTF-8 at offset 0 without truncation, and
    its old tail is cut only when the block succeeds. So a command that opens it
    before its work fails on a bad path at once. A failed run removes a file it
    created; one that fails before writing leaves an existing file as it was.
    Standard output's own file (`--out /dev/stdout >> log`) is standard output.
    """
    name = "standard output" if out is None else f"output file {out!r}"
    created = out is not None and not os.path.lexists(out)
    try:
        fd = None if out is None else os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        if fd is not None and sys.stdout and os.path.samestat(os.fstat(fd), os.fstat(1)):
            os.close(fd)  # standard output's own file: write through its offset and flags
            fd = None
    except OSError as exc:
        raise UsageError(f"cannot write {name}: {exc.strerror}") from None
    stream = sys.stdout if fd is None else open(fd, "w", encoding="utf-8", newline="")
    try:
        yield stream
        stream.flush()
        if fd is not None and stat.S_ISREG(os.fstat(fd).st_mode):
            stream.truncate()
    except BaseException as exc:
        if isinstance(exc, OSError):
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, stream.fileno())
            os.close(null)
        if isinstance(exc, BrokenPipeError):  # a pipe has no tail to cut
            return
        if created:
            os.unlink(out)
        if not isinstance(exc, OSError):
            raise
        raise UsageError(f"cannot write {name}: {exc.strerror}") from None
    finally:
        if fd is not None:
            stream.close()


# Below this many values `_reprs` is repr itself. A process's first call of 1024 values took
# 1.0 ms against repr's 0.9, of 2048 1.6 against 2.7 (2-vCPU Xeon VM, numpy 2.4, medians).
# A whole piece holds at least this many, so only a block's or a path's last one can be short.
_REPR_FLOOR = 2048
_POW10 = tuple(10.0**q for q in range(23))  # exact doubles
_U = np.uint64
_PAD = "\x10"  # '0' & 0xDF: the pad byte of a word, which no output holds


def _digits(g):
    """The 8 digits of each int64 g < 10**8 as bytes 0..9 of a uint64, the first lowest."""
    h = (g * 109951163) >> 40  # g // 10**4, then // 100 and // 10 per lane: exact there
    g = (h | (g - h * 10000) << 32).view(_U)
    h = (g * _U(5243)) >> _U(19) & _U(0x7F0000007F)
    g = h | (g - h * _U(100)) << _U(16)
    h = (g * _U(103)) >> _U(10) & _U(0x000F000F000F000F)
    return h | (g - h * _U(10)) << _U(8)


@functools.cache
def _layouts():
    """The keep, clear and put masks of a `_reprs` slot, each [word, layout]: 9 tables of
    its 3 words per layout (unit byte u, digit count k, sign), at (u * 18 + k) * 2 + sign."""
    layout, first = np.arange(756), np.arange(0, 24, 8)[:, None]
    u, k, neg = layout // 36, layout // 2 % 18, layout % 2
    start, point, end = np.minimum(5, u), u + 1, np.maximum(6 + k, u + 3)
    ones = np.array([(1 << 8 * c) - 1 for c in range(9)], _U)

    def below(b):  # the bytes of each word before byte b of the slot
        return ones[np.clip(b - first, 0, 8)]

    keep, text = below(point), below(end) & ~below(start)
    dot, sign = below(point + 1) & ~keep, below(start - 1 + neg) & ~below(start - 1)
    clear = (text | _U(0xDFDFDFDFDFDFDFDF)) & ~(dot | sign)
    return keep, clear, dot & _U(0x2E2E2E2E2E2E2E2E) | sign & _U(0x2D2D2D2D2D2D2D2D)


def _words(texts, count: int):
    """Each text, which fits `count` words, padded to them: a (len(texts), count) array."""
    text = "".join(map(str.ljust, texts, itertools.repeat(8 * count), itertools.repeat(_PAD)))
    return np.frombuffer(text.encode("ascii"), _U).reshape(-1, count)


def _reprs(values, out) -> None:
    """Write each float64 x of `values` into its slot out[..., :3], 3 uint64 words
    (out.shape is values.shape + (3,); `out` may view a larger buffer), as repr(x) and
    pad bytes, in whole-array numpy steps; repr is the reference and the fallback. A
    24-character repr fills its slot, so separators need words of their own.

    repr writes 1e-4 <= |x| < 1e16 in fixed notation, with the shortest decimal that
    rounds back to x, the nearest to x of those. With q = 16 - floor(log10|x|), Dekker's
    TwoProduct gives V = |x| 10**q = hi + lo exactly, and I = floor(V) has 17 digits.
    Unless x's significand is a power of two, the reals that round to x lie within
    H = ulp(x)/2 10**q < 12 of V, so j digits can go iff the nearest multiple of 10**j
    lies within less than H of V. The distance beyond two digits holds only while I's
    digits run 0 (or 9), so V rounded to a multiple of 100, else 10, else 1, within H
    is repr's digits with j trailing zeros. Each test compares lo with H less a small
    integer, exactly. A distance of exactly H, a tie, 0, subnormals, powers of two,
    exponent forms, non-finite values, calls below _REPR_FLOOR and big-endian hosts
    (the slots are built as little-endian words) go to repr.
    """
    flat = values.ravel()
    if len(flat) < _REPR_FLOOR or sys.byteorder != "little":
        out[...] = _words(map(repr, flat.tolist()), 3).reshape(out.shape)
        return
    a = np.abs(flat)
    fast = (a >= 1e-4) & (a < 1e16) & (a.view(np.int64) & (2**52 - 1) != 0)
    a = np.where(fast, a, 1.5)
    q = 16 - np.floor(np.log10(a)).astype(np.int64)
    p = np.take(_POW10, q)
    ah, ph = a * 134217729.0, p * 134217729.0  # Veltkamp's split into 26-bit halves
    ah, ph = ah - (ah - a), ph - (ph - p)
    al, pl, hi = a - ah, p - ph, a * p
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    c = np.floor(lo)  # V - I == lo - c
    i = hi.astype(np.int64) + c.astype(np.int64)
    h = (a.view(np.int64) & 0x7FF0000000000000).view(np.float64) * 2.0**-53 * p
    bad, m, r = ~fast | (i < 10**16), 1, 0
    for step in (10, 100):  # s + lo: V's distance above the multiple of step below
        rs = i % step
        s = rs - c
        near = (lo < h - s) | (lo > step - s - h)
        bad |= (lo == h - s) | (lo == step - s - h)
        m, r = np.where(near, step, m), np.where(near, rs, r)
    mid = m * 0.5 - (r - c)
    i += m * (lo > mid) - r
    bad |= (lo == mid) | (i >= 10**17)
    i[bad], q[bad] = 10**16, 16
    top, low = np.divmod(i, 10**8)
    d0 = (top * 1441151881) >> 57  # top // 10**8
    g = _digits(np.stack([top - d0 * 10**8, low]))
    zeros = np.where(g == 0, 8, 7 - (np.frexp(g.astype(np.float64))[1] - 1) // 8)
    k = 17 - np.where(g[1] == 0, 8 + zeros[0], zeros[1])
    # A slot is 24 bytes: "0000", the 17 digits and "00" from byte 1. Up to the unit digit
    # (byte 5 + exponent) it keeps its bytes, then the point, then its bytes moved up one;
    # outside the text '0' becomes the pad byte, or '-' before a negative. Word by word.
    g |= _U(0x3030303030303030)
    s0 = ((d0 | 0x30) << 40 | 0x3030303030).view(_U) | g[0] << _U(48)
    s1, s2 = g[0] >> _U(16) | g[1] << _U(48), g[1] >> _U(16) | _U(0x3030 << 48)
    moved = (s0 << _U(8), s1 << _U(8) | s0 >> _U(56), s2 << _U(8) | s1 >> _U(56))
    layout = ((21 - q) * 18 + k) * 2 + (flat < 0)
    keep, clear, put = _layouts()
    for w, (kept, shifted) in enumerate(zip((s0, s1, s2), moved)):
        word = (shifted ^ (kept ^ shifted) & np.take(keep[w], layout)) & np.take(clear[w], layout)
        out[..., w] = (word | np.take(put[w], layout)).reshape(values.shape)
    bad = np.flatnonzero(bad)
    if len(bad):
        out[np.unravel_index(bad, values.shape)] = _words(map(repr, flat[bad].tolist()), 3)


def _pieces(blocks, n: int):
    """(i, s, last, piece) per piece of the paths of n values in `blocks`: the 2-d view of
    values s, s + 1, ... of paths i, i + 1, ..., and whether they close their paths. A
    piece is max(1, _CHUNK // n) consecutive rows of a block, or one row's chunk of _CHUNK
    values (the last one shorter) if n > _CHUNK.
    """
    step, i = max(1, _CHUNK // n), 0
    for block in blocks:
        for a in range(0, len(block.values), step):
            rows = block.values[a : a + step]
            for s in range(0, n, _CHUNK):
                yield i + a, s, s + _CHUNK >= n, rows[:, s : s + _CHUNK]
        i += len(block.values)


def _write_csv(blocks, n: int, count: int, stream) -> None:
    """Rows path_id,t,value of the `count` paths of n values in `blocks`, the t = 0
    row first; one write per piece of at most _CHUNK values (`_pieces`).

    A piece is one array of padded words, written less its pad bytes. Per row: the
    path's "{i},0.0,0.0" head if the piece opens it, per value its "\n{i}," words, its
    "t," cell and its `_reprs` slot, and "\n" if the piece closes it. A "t," cell is the
    slot of repr(t), from GridSpec.times()'s arange / n, with ',' in its 24th byte
    (repr(t) has at most 22 characters). A chunk's cells are formatted when the first
    piece reaches it, and kept only while another path follows: one path holds
    O(_CHUNK) of them, not n.
    """
    last, times, newline = count - 1, {}, _words(("\n",), 1)
    stream.write("path_id,t,value\n")
    for i, s, end, piece in _pieces(blocks, n):
        rows, w = piece.shape
        d = len(str(i + rows - 1))  # the digits of the piece's last path id
        p, h = (d + 9) // 8, 0 if s else (d + 15) // 8  # the words of "\n{i}," and the head
        cells = times.get(s)
        if cells is None:
            cells = np.empty((w, 3), _U)
            _reprs((np.arange(s, s + w) + 1) / n, cells)
            cells.view(np.uint8)[:, 23] = ord(",")
        times[s] = cells if i + rows <= last else None
        buf = np.empty((rows, h + w * (p + 6) + end), _U)
        if h:
            buf[:, :h] = _words(map("{},0.0,0.0".format, range(i, i + rows)), h)
        lines = buf[:, h : h + w * (p + 6)].reshape(rows, w, p + 6)
        lines[..., :p] = _words(map("\n{},".format, range(i, i + rows)), p)[:, None]
        lines[..., p : p + 3] = cells
        _reprs(piece, lines[..., p + 3 :])
        buf[:, h + w * (p + 6) :] = newline
        stream.write(buf.tobytes().translate(None, _PAD.encode()).decode("ascii"))


def _write_json(blocks, n: int, meta: dict, stream) -> None:
    """The layout of json.dump({"meta": ..., "paths": ...}, indent=2) for the paths of
    n values in `blocks`; one write per piece of at most _CHUNK values (`_pieces`).

    A piece is one array of padded words, written less its pad bytes. Per row: the
    path's opening words and its 0.0 if the piece opens it, per value the word
    ",\n      " and its `_reprs` slot, and "\n    ]" if the piece closes it. repr equals
    the JSON token only for finite floats; ReplicateBatch rejects non-finite values,
    and this writer relies on that.
    """
    head = json.dumps({"meta": {**meta, "artifact_version": __version__}}, indent=2)
    stream.write(f'{head[:-2]},\n  "paths": [\n')
    opens = _words(("    [\n      0.0", ",\n    [\n      0.0"), 3)
    sep, close = _words((",\n      ", "\n    ]"), 1)
    for i, s, end, piece in _pieces(blocks, n):
        (rows, w), h = piece.shape, 0 if s else 3
        buf = np.empty((rows, h + 4 * w + end), _U)
        if h:
            buf[:, :h], buf[0, :h] = opens[1], opens[min(i, 1)]
        values = buf[:, h : h + 4 * w].reshape(rows, w, 4)
        values[..., 0] = sep
        _reprs(piece, values[..., 1:])
        buf[:, h + 4 * w :] = close
        stream.write(buf.tobytes().translate(None, _PAD.encode()).decode("ascii"))
    stream.write("\n  ]\n}\n")


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
        stream.write(json.dumps(report.to_dict()) + "\n")
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
            stream.write(json.dumps(rows) + "\n")
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
        methods = o.method.count(",") + 1
        if methods > 1 and args.command != "bench":
            raise UsageError(f"{args.command} takes one method in --method, got {methods}")
        return args.func(o)
    except (UsageError, ParameterError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotPositiveDefiniteError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
