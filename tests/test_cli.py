"""CLI contract: output formats, determinism, exit codes, config precedence."""

import argparse
import csv
import io
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from selfsim.cli import main
from selfsim.core import GridSpec, generate_batch, generate_blocks
from selfsim.samplers import davies_harte_sampler
from selfsim.verify import _ks_distance, error_bound_check


def run(args):
    return main(args)


class TestSimulate:
    def test_csv_row_count_and_header(self, tmp_path):
        out = tmp_path / "paths.csv"
        code = run(
            [
                "simulate",
                "--process",
                "fbm",
                "--method",
                "lamperti",
                "--hurst",
                "0.8",
                "--n",
                "1024",
                "--paths",
                "1",
                "--seed",
                "42",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "path_id,t,value"
        assert len(lines) == 1 + 1025  # header + t=0 row + 1024 nodes
        assert lines[1] == "0,0.0,0.0"

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate",
            "--process",
            "fbm",
            "--method",
            "davies-harte",
            "--hurst",
            "0.6",
            "--n",
            "128",
            "--paths",
            "3",
            "--seed",
            "7",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_roundtrip_exact(self, tmp_path):
        from selfsim.core import GridSpec, RngStream
        from selfsim.samplers import davies_harte_fbm

        out = tmp_path / "p.csv"
        run(
            [
                "simulate",
                "--method",
                "davies-harte",
                "--hurst",
                "0.6",
                "--n",
                "64",
                "--paths",
                "1",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        parsed = np.array([float(r["value"]) for r in rows[1:]])
        expected = davies_harte_fbm(GridSpec(64), 0.6, RngStream(11, 0)).values
        assert np.array_equal(parsed, expected)

    def test_json_format(self, tmp_path):
        out = tmp_path / "p.json"
        code = run(
            [
                "simulate",
                "--process",
                "sfbm",
                "--method",
                "lamperti",
                "--hurst",
                "0.4",
                "--n",
                "32",
                "--paths",
                "2",
                "--seed",
                "5",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["meta"]["process"] == "sfbm"
        assert "artifact_version" in payload["meta"]
        assert len(payload["paths"]) == 2
        assert len(payload["paths"][0]) == 33
        assert payload["paths"][0][0] == 0.0

    def test_json_meta_carries_sampler_info(self, tmp_path):
        # the clamp of the lamperti fBm spectrum at H = 0.8 is in the output itself,
        # above the dense cutover; below it, the exact factor's jitter is
        out = tmp_path / "p.json"
        argv = "simulate --process fbm --method lamperti --hurst 0.8 --format json --n"
        assert run([*argv.split(), "2048", "--out", str(out)]) == 0
        meta = json.loads(out.read_text(encoding="utf-8"))["meta"]
        assert meta["embedding_size"] == 4096 and "clamped_count" not in meta
        assert meta["clamped_mass"] == pytest.approx(6.9220e-5, rel=1e-4)
        assert run([*argv.split(), "256", "--out", str(out)]) == 0
        meta = json.loads(out.read_text(encoding="utf-8"))["meta"]
        assert meta["jitter"] == 0.0
        assert not {"clamped_mass", "embedding_size", "clamped_count"} & set(meta)

    @pytest.mark.parametrize(
        "process, method, code",
        [
            ("bm", "bm-cumsum", 0),
            ("fbm", "cholesky", 0),
            ("sfbm", "cholesky", 0),
            ("fbm", "davies-harte", 0),
            ("fbm", "ma-truncated", 0),
            ("fbm", "lamperti", 2),
            ("sfbm", "lamperti", 2),
        ],
    )
    def test_one_point_grid_exit_code(self, process, method, code, tmp_path, capsys):
        out = tmp_path / "one.csv"
        hurst = "0.5" if process == "bm" else "0.7"
        argv = ["simulate", "--process", process, "--method", method, "--hurst", hurst]
        assert run([*argv, "--n", "1", "--paths", "3", "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == "error: lamperti method needs a grid of n >= 2 points, got n = 1\n"
            assert not out.exists()
        else:
            assert err == "" and len(out.read_text(encoding="utf-8").splitlines()) == 1 + 3 * 2

    def test_invalid_combination_exits_2(self):
        assert (
            run(
                [
                    "simulate",
                    "--process",
                    "sfbm",
                    "--method",
                    "davies-harte",
                    "--hurst",
                    "0.5",
                    "--n",
                    "16",
                ]
            )
            == 2
        )

    def test_embedding_cap_flag_exits_2(self, capsys):
        assert run(["simulate", "--n", "16", "--embedding-cap", "6"]) == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --embedding-cap 6\n"

    def test_grid_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # below the largest grid an array can index, but 8e17 bytes exceed any 57-bit
        # address space: the allocation fails at once (a MemoryError)
        out = tmp_path / "x.csv"
        argv = ["simulate", "--method", "davies-harte", "--n", str(10**17), "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_every_pair_matches_public_sampler(self, tmp_path):
        from selfsim.cli import METHOD_TABLE, PROCESSES
        from selfsim.core import GridSpec, RngStream
        from selfsim.lamperti import simulate_lamperti
        from selfsim.samplers import (
            bm_sampler,
            cholesky_sampler,
            davies_harte_fbm,
            ma_truncated_fbm,
        )

        public = {
            ("bm", "bm-cumsum"): lambda p, h, g, r: bm_sampler(g)(r),
            ("fbm", "cholesky"): lambda p, h, g, r: cholesky_sampler(p, h, g)(r),
            ("sfbm", "cholesky"): lambda p, h, g, r: cholesky_sampler(p, h, g)(r),
            ("fbm", "davies-harte"): lambda p, h, g, r: davies_harte_fbm(g, h, r),
            ("fbm", "ma-truncated"): lambda p, h, g, r: ma_truncated_fbm(g, h, r),
            ("fbm", "lamperti"): lambda p, h, g, r: simulate_lamperti(p, h, g, r),
            ("sfbm", "lamperti"): lambda p, h, g, r: simulate_lamperti(p, h, g, r),
        }
        valid = {(p, m) for m, (processes, _) in METHOD_TABLE.items() for p in processes}
        assert valid == set(public)
        n, count, seed = 16, 3, 11
        for process, method in sorted(valid):
            hurst = 0.5 if process == "bm" else 0.7
            out = tmp_path / f"{process}-{method}.csv"
            argv = ["simulate", "--process", process, "--method", method, "--hurst", str(hurst)]
            argv += ["--n", str(n), "--paths", str(count), "--seed", str(seed), "--out", str(out)]
            assert run(argv) == 0
            with open(out, encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            values = np.array([float(r["value"]) for r in rows]).reshape(count, n + 1)
            for i in range(count):
                path = public[process, method](process, hurst, GridSpec(n), RngStream(seed, i))
                assert np.array_equal(values[i, 1:], path.values), (process, method, i)
        for process in PROCESSES:
            for method in [*METHOD_TABLE, "nope"]:
                if (process, method) not in valid:
                    argv = ["simulate", "--process", process, "--method", method, "--n", "16"]
                    assert run(argv) == 2, (process, method)

    def test_bm_cumsum_only_for_bm(self):
        assert (
            run(["simulate", "--process", "fbm", "--method", "bm-cumsum", "--n", "16"])
            == 2
        )

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SELFSIM_SEED", "123")
        run(["simulate", "--method", "davies-harte", "--n", "16", "--out", str(out1)])
        monkeypatch.delenv("SELFSIM_SEED")
        run(
            [
                "simulate",
                "--method",
                "davies-harte",
                "--n",
                "16",
                "--seed",
                "123",
                "--out",
                str(out2),
            ]
        )
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = davies-harte\nn = 16\nhurst = 0.7\nseed = 9\n", encoding="utf-8")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        # flag overrides the config's hurst
        run(["simulate", "--config", str(cfg), "--hurst", "0.3", "--out", str(out1)])
        run(
            [
                "simulate",
                "--method",
                "davies-harte",
                "--n",
                "16",
                "--hurst",
                "0.3",
                "--seed",
                "9",
                "--out",
                str(out2),
            ]
        )
        assert out1.read_bytes() == out2.read_bytes()


def _reference_csv(batch, stream):
    """The per-value CSV writer the bulk writer replaced: the format oracle."""
    n = batch.n
    stream.write("path_id,t,value\n")
    for i, row in enumerate(batch.values):
        stream.write(f"{i},0.0,0.0\n")
        for j, value in enumerate(row, start=1):
            stream.write(f"{i},{j / n!r},{float(value)!r}\n")


def _reference_json(batch, meta, stream):
    """The json.dump(indent=2) writer the bulk writer replaced: the format oracle."""
    from selfsim import __version__

    payload = {
        "meta": {**meta, "artifact_version": __version__},
        "paths": [[0.0] + [float(v) for v in row] for row in batch.values],
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _rendered(writer, *args):
    buf = io.StringIO()
    writer(*args, buf)
    return buf.getvalue()


# The edges of cli._reprs' numpy domain, 1e-4 <= |x| < 1e16 without the powers of
# two, and values whose shortest digits end in a carry or sit next to one
REPR_EDGES = np.array(
    [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), np.nextafter(1e16, 0)]
    + [2.0**e for e in range(-14, 54)]
    + [5e-324, 0.0, -0.0, 0.1 + 0.2, 9.5, 0.9999999999999999, 99.99999999999999, 123.0]
)


class TestReprs:
    """cli._reprs returns list(map(repr, values.tolist())), above and below its floor."""

    @staticmethod
    def _families():
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64, 250_000, dtype=np.uint64, endpoint=False).view(float)
        rounded = rng.standard_normal(17 * 12_000) * 10.0 ** rng.integers(-4, 12, 17 * 12_000)
        return {
            "normals": np.concatenate(
                [rng.standard_normal(40_000) * 10.0**e for e in range(-6, 7)]
            ),
            "bit-patterns": bits[np.isfinite(bits)],
            "eighths": rng.integers(-(2**40), 2**40, 100_000) / 8,
            "rounded": np.concatenate(
                [np.round(part, d) for d, part in enumerate(np.split(rounded, 17), 1)]
            ),
        }

    def test_matches_repr(self):
        from selfsim.cli import _REPR_FLOOR, _reprs

        # consecutive chunks above, at and below the floor: every value is seen once
        sizes = itertools.cycle((4096, _REPR_FLOOR, 3000, _REPR_FLOOR - 1, 1000))
        total = 0
        for name, values in self._families().items():
            start = 0
            while start < values.size:
                chunk = values[start : start + next(sizes)]
                assert _reprs(chunk) == list(map(repr, chunk.tolist())), (name, start)
                start += chunk.size
            total += values.size
        assert total >= 10**6

    def test_edges_match_repr(self):
        from selfsim.cli import _CHUNK, _REPR_FLOOR, _reprs

        assert _REPR_FLOOR <= _CHUNK  # the writers' chunks reach the numpy pass
        edges = np.concatenate([REPR_EDGES, -REPR_EDGES])
        for size in (_REPR_FLOOR, 2049, 4096):
            values = np.resize(edges, size)
            assert _reprs(values) == list(map(repr, values.tolist()))
            assert _reprs(values[::-1]) == list(map(repr, values[::-1].tolist()))


class TestWriters:
    """The CSV and JSON bytes equal the reference writers above."""

    META = {"process": "fbm", "method": "x", "hurst": 0.7, "n": 2, "paths": 3, "seed": 17}

    def test_every_pair_matches_reference(self):
        from selfsim.cli import METHOD_TABLE, _build_sampler, _options, _write_csv, _write_json
        from selfsim.core import generate_batch

        for method, (processes, _) in METHOD_TABLE.items():
            for process in processes:
                hurst = 0.5 if process == "bm" else 0.7
                o = _options(argparse.Namespace(process=process, hurst=hurst), {})
                for n in (2, 257):
                    batch = generate_batch(_build_sampler(o, method, n), 3, 17)
                    assert _rendered(_write_csv, [batch], n, 3) == _rendered(
                        _reference_csv, batch
                    ), (process, method, n)
                    assert _rendered(_write_json, [batch], n, self.META) == _rendered(
                        _reference_json, batch, self.META
                    ), (process, method, n)

    @pytest.mark.parametrize(
        "chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 3)], ids=["C-1", "C", "C+1", "2C+3"]
    )
    def test_chunk_boundaries_match_reference(self, chunks, extra):
        # the writers take the paths as generate_blocks yields them, 1 or 2 rows a block
        from selfsim.cli import _CHUNK, _write_csv, _write_json

        n = chunks * _CHUNK + extra
        sampler = davies_harte_sampler(GridSpec(n), 0.7)
        batch = generate_batch(sampler, 3, 17)
        csv_text = _rendered(_write_csv, generate_blocks(sampler, 3, 17), n, 3)
        assert csv_text == _rendered(_reference_csv, batch)
        assert _rendered(_write_json, generate_blocks(sampler, 3, 17), n, self.META) == _rendered(
            _reference_json, batch, self.META
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024, 1365, 2047, 2048, 4096, 4097])
    @pytest.mark.parametrize("sampling", ["bm", "davies-harte"])
    def test_blocks_match_reference(self, n, sampling):
        # one whole block and one of a whole piece and one row: pieces of several rows,
        # a short last piece and a short last block (and a short piece inside a whole
        # block where the block's rows are no multiple of the piece's, as at n = 3)
        from selfsim.cli import _CHUNK, _write_csv, _write_json
        from selfsim.samplers import bm_sampler

        grid = GridSpec(n)
        sampler = bm_sampler(grid) if sampling == "bm" else davies_harte_sampler(grid, 0.7)
        count = sampler._block_rows + max(1, _CHUNK // n) + 1
        batch = generate_batch(sampler, count, 17)
        csv_text = _rendered(_write_csv, generate_blocks(sampler, count, 17), n, count)
        assert csv_text == _rendered(_reference_csv, batch)
        assert _rendered(_write_json, generate_blocks(sampler, count, 17), n, self.META) == (
            _rendered(_reference_json, batch, self.META)
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_reprs_call_per_piece_of_rows(self, fmt, tmp_path, monkeypatch):
        # simulate-csv's shape: 100 davies-harte paths of n = 1024 in blocks of 8 rows
        # are 25 pieces of 4 rows, each one `_reprs` call of 4096 values (so the numpy
        # pass, not repr), not 100 calls of 1024; the CSV's "t," cells are one more
        import selfsim.cli as cli

        sizes = []

        def counted(values):
            sizes.append(len(values))
            return reprs(values)

        reprs = cli._reprs
        monkeypatch.setattr(cli, "_reprs", counted)
        argv = "simulate --method davies-harte --hurst 0.7 --n 1024 --paths 100 --seed 1".split()
        assert run(argv + ["--format", fmt, "--out", str(tmp_path / "paths")]) == 0
        t_cells = [1024] if fmt == "csv" else []
        assert sorted(sizes) == t_cells + [4096] * 25
        assert 4096 >= cli._REPR_FLOOR

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_write_exceeds_a_chunk(self, fmt):
        # A float's shortest repr has at most 24 characters. So a CSV line of path i
        # ("\n{i},", the t repr, ",", the value repr) has at most 51 + d characters, d
        # the digits of i, and a JSON value (",\n      " and its repr) at most 32. Each
        # row of a piece adds its head and end: "{i},0.0,0.0" and "\n" in CSV (d + 9),
        # the path's brackets and its 0.0 in JSON (at most 32). A write is one piece:
        # _CHUNK values, of max(1, _CHUNK // n) rows.
        from selfsim.cli import _CHUNK, _write_csv, _write_json
        from selfsim.samplers import bm_sampler

        sizes = []

        class Recorder(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        for n, paths in ((3 * _CHUNK + 1, 1), (1, 20_000), (1024, 100)):
            sizes.clear()
            grid = GridSpec(n)
            sampler = bm_sampler(grid) if n == 1 else davies_harte_sampler(grid, 0.7)
            batch = generate_batch(sampler, paths, 17)
            stream, d, rows = Recorder(), len(str(paths - 1)), max(1, _CHUNK // n)
            if fmt == "csv":
                _write_csv(generate_blocks(sampler, paths, 17), n, paths, stream)
                bound = (51 + d) * _CHUNK + (d + 9) * rows
                reference = _rendered(_reference_csv, batch)
            else:
                _write_json(generate_blocks(sampler, paths, 17), n, self.META, stream)
                bound = 32 * _CHUNK + 32 * rows
                reference = _rendered(_reference_json, batch, self.META)
            assert stream.getvalue() == reference, n
            assert max(sizes) <= bound < len(reference) // 2, n

    def test_one_path_csv_holds_a_chunk_of_t_cells(self):
        # a one-path batch formats each chunk's "t," cells as it writes that chunk and
        # keeps none, so the writer's peak does not grow with n (16 chunks against 2)
        import tracemalloc

        from selfsim.cli import _CHUNK, _write_csv
        from selfsim.samplers import bm_sampler

        class Sink:
            def write(self, text):
                return len(text)

        peaks = []
        for chunks in (2, 16):
            batch = generate_batch(bm_sampler(GridSpec(chunks * _CHUNK)), 1, 3)
            tracemalloc.start()
            try:
                _write_csv([batch], batch.n, 1, Sink())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_many_path_csv_holds_the_t_cells_and_one_chunk(self):
        # paths after the first reuse the n cached "t," cells, and each chunk is built
        # alone, so the writer's peak does not grow with the path count (16 against 2)
        import tracemalloc

        from selfsim.cli import _CHUNK, _write_csv
        from selfsim.samplers import bm_sampler

        class Sink:
            def write(self, text):
                return len(text)

        peaks = []
        for paths in (2, 16):
            batch = generate_batch(bm_sampler(GridSpec(2 * _CHUNK)), paths, 3)
            tracemalloc.start()
            try:
                _write_csv([batch], batch.n, paths, Sink())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_edge_reprs_match_reference(self):
        from selfsim.cli import _write_csv, _write_json
        from selfsim.core import GridSpec, ReplicateBatch

        edge = [1e-05, 1.5e16, 5e-324, -0.0, 1e300, 0.1, -2.5e-7, 123456789.0, 1e16, 1e22, -1e-300]
        grid = GridSpec(len(edge))
        batch = ReplicateBatch(grid, np.array([edge, edge[::-1]]), "x", "fbm", 0.7, 1, (0, 0))
        csv_text = _rendered(_write_csv, [batch], grid.n, 2)
        assert csv_text == _rendered(_reference_csv, batch)
        assert "0,1.0,-1e-300\n" in csv_text and "1,0.8181818181818182,5e-324\n" in csv_text
        meta = {**self.META, "note": "é", "info": {"jitter": 0.0}}
        assert _rendered(_write_json, [batch], grid.n, meta) == _rendered(
            _reference_json, batch, meta
        )
        # a path above the formatter's size floor, so its values and its "t," cells
        # take the numpy pass, with the edges of its domain in both signs
        from selfsim.cli import _REPR_FLOOR

        path = np.resize(np.concatenate([REPR_EDGES, -REPR_EDGES]), 2049)
        assert path.size > _REPR_FLOOR
        grid = GridSpec(path.size)
        batch = ReplicateBatch(grid, np.array([path, path[::-1]]), "x", "fbm", 0.7, 1, (0, 0))
        assert _rendered(_write_csv, [batch], grid.n, 2) == _rendered(_reference_csv, batch)
        assert _rendered(_write_json, [batch], grid.n, meta) == _rendered(
            _reference_json, batch, meta
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_matches_reference(self, fmt, capsys):
        from selfsim.core import GridSpec, ReplicateBatch, RngStream
        from selfsim.samplers import davies_harte_fbm

        argv = ["simulate", "--method", "davies-harte", "--hurst", "0.3", "--n", "257"]
        assert run(argv + ["--paths", "3", "--seed", "17", "--format", fmt]) == 0
        text = capsys.readouterr().out
        # the reference rows come from one per-path call each, not from generate_batch
        grid = GridSpec(257)
        rows = [davies_harte_fbm(grid, 0.3, RngStream(17, i)).values for i in range(3)]
        batch = ReplicateBatch(grid, np.array(rows), "davies-harte", "fbm", 0.3, 17, (0, 1, 2))
        if fmt == "csv":
            assert text == _rendered(_reference_csv, batch)
        else:
            meta = json.loads(text)["meta"]
            del meta["artifact_version"]
            assert text == _rendered(_reference_json, batch, meta)


# sizes no array can index: each is rejected where it enters, and the message says so
TOO_LARGE = [
    ["simulate", "--process", "bm", "--method", "bm-cumsum", "--n", str(10**19)],
    ["simulate", "--method", "cholesky", "--n", str(10**19)],
    ["simulate", "--method", "lamperti", "--n", str(10**19)],
    ["simulate", "--method", "ma-truncated", "--n", "4", "--truncation", "1e300"],
    ["simulate", "--method", "ma-truncated", "--n", "4", "--substeps", str(10**30)],
    ["simulate", "--method", "ma-truncated", "--n", "4", "--truncation", "1e308"],  # T s n is inf
    ["simulate", "--method", "ma-truncated", "--n", "4", "--substeps", str(10**400)],  # no float
    ["verify", "--suite", "error-bound", "--method", "lamperti", "--n", f"64,{10**19}"],
    ["simulate", "--method", "davies-harte", "--n", str(2**63 - 1)],
    ["simulate", "--n", "16", "--paths", str(10**19)],
    ["verify", "--suite", "marginals", "--n", "16", "--paths", str(2**62)],
]

MALFORMED = [
    (["simulate", "--n", "abc"], None),
    (["simulate", "--n", "256,512"], None),
    (["verify", "--suite", "error-bound", "--n", "256,x"], None),
    (["simulate", "--n", "16"], "hurst = abc\n"),
    (["simulate", "--n", "16"], "seed = 1.5\n"),
    (["simulate", "--n", "16", "--config", "/nonexistent/selfsim.cfg"], None),
    (["simulate", "--process", "bm", "--method", "bm-cumsum", "--hurst", "0.7"], None),
    (["simulate", "--n", "16", "--out", "/nonexistent/dir/x.csv"], None),
    (["simulate", "--n", "16"], "hurts = 0.7\n"),
    (["simulate", "--n", "16"], b"hurst = 0.7 # \xe9t\xe9\n"),
    (["verify", "--suite", "error-bound", "--n", "256"], None),
    (["verify", "--n", "16", "--paths", "50", "--out", "/nonexistent/dir/r.json"], None),
    (["bench", "--n", "16", "--paths", "3", "--out", "/nonexistent/dir/b.csv"], None),
    (["verify", "--suite", "marginals", "--n", "16,512"], None),
    (["simulate", "--n", "16", "--paths", "0"], None),
    (["verify", "--suite", "error-bound", "--n", "16,64", "--hurst", "1.5"], None),
    (["bench", "--n", "16", "--paths", "-4"], None),
    (["bench", "--n", "16"], "format = xml\n"),
    (["simulate", "--n", "16"], "truncation = x\n"),
    (["verify", "--suite", "error-bound", "--n", "16,64", "--method", "nope"], None),
    (["simulate", "--method", "circulant", "--n", "16"], None),
    (["verify", "--suite", "equivalence", "--baseline", "circulant", "--n", "16"], None),
    (["simulate", "--method", "ma-truncated", "--n", "16", "--truncation", "nan"], None),
    (["verify", "--suite", "marginals", "--n", "16"], None),
    (["simulate", "--n", "16"], "embedding_cap = 6\n"),
    (["verify", "--suite", "equivalence", "--n", "16"], None),
    (["verify", "--suite", "covariance", "--n", "16", "--paths", "99"], None),
    (["verify", "--suite", "normality", "--n", "16", "--paths", "999"], None),
    (["simulate", "--n", "16", "--substeps", "0"], None),
    (["simulate", "--n", "16", "--truncation", "0.5"], None),
    (["simulate", "--n", "16"], "truncation = nan\n"),
    (["simulate", "--method", "davies-harte,cholesky", "--n", "16"], None),
    (["verify", "--method", "lamperti,cholesky", "--n", "16", "--paths", "50"], None),
    (["verify", "--suite", "error-bound", "--n", "4,2", "--hurst", "0.7"], None),
    (["verify", "--suite", "error-bound", "--n", "8,16,4", "--hurst", "0.7"], None),
    (["verify", "--suite", "error-bound", "--n", "2,2,4"], None),
    (["verify", "--suite", "nope", "--n", "16"], None),
    (["simulate", "--process", "nope", "--n", "16"], None),
    (["simulate", "--format", "xml", "--n", "16"], None),
    (["verify", "--suite", "error-bound", "--process", "bm", "--method", "lamperti",
      "--hurst", "0.7", "--n", "64,256"], None),
    (["verify", "--suite", "error-bound", "--process", "bm", "--method", "bm-cumsum",
      "--hurst", "0.7", "--n", "64,256"], None),
    (["verify", "--suite", "error-bound", "--process", "sfbm", "--n", "64,256"], None),
    (["simulate", "--suite", "marginals", "--n", "16"], None),
    (["bench", "--baseline", "cholesky", "--n", "16"], None),
    (["simulate", "--n", "16", "--hurts", "0.7"], None),
    (["simulate", "--n"], None),
    (["sample", "--n", "16"], None),
    (["simulate", "--n", "16"], "hurst 0.7\n"),
    *((argv, None) for argv in TOO_LARGE),
]


@pytest.mark.parametrize(
    "argv, config",
    MALFORMED,
    ids=[
        "n-abc",
        "n-list",
        "n-list-entry",
        "cfg-hurst",
        "cfg-seed",
        "cfg-missing",
        "bm-hurst",
        "out-unwritable",
        "cfg-unknown-key",
        "cfg-not-utf8",
        "error-bound-one-n",
        "verify-out-unwritable",
        "bench-out-unwritable",
        "verify-n-list",
        "paths-zero",
        "error-bound-hurst",
        "bench-paths-negative",
        "bench-cfg-format",
        "cfg-unused-malformed",
        "unused-method-unknown",
        "method-circulant",
        "baseline-circulant",
        "truncation-nan",
        "marginals-one-path",
        "cfg-embedding-cap",
        "equivalence-one-path",
        "covariance-99-paths",
        "normality-999-paths",
        "unused-substeps-zero",
        "unused-truncation-below-1",
        "cfg-unused-truncation-nan",
        "simulate-method-list",
        "verify-method-list",
        "error-bound-decreasing",
        "error-bound-unsorted",
        "error-bound-repeated",
        "suite-unknown",
        "process-unknown",
        "format-unknown",
        "error-bound-pair",
        "error-bound-bm-hurst",
        "error-bound-default-method",
        "flag-suite-simulate",
        "flag-baseline-bench",
        "flag-unknown",
        "flag-missing-value",
        "command-unknown",
        "cfg-line-without-equals",
        "too-large-bm-n",
        "too-large-cholesky-n",
        "too-large-lamperti-n",
        "too-large-ma-truncation",
        "too-large-ma-substeps",
        "too-large-ma-truncation-inf",
        "too-large-ma-substeps-no-float",
        "too-large-error-bound-n",
        "too-large-davies-harte-n",
        "too-large-paths",
        "too-large-verify-paths",
    ],
)
def test_malformed_input_exits_2(argv, config, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        if isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(cfg)]
    if "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "out")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "," in (argv[argv.index("--method") + 1] if "--method" in argv else ""):
        # a list of valid methods outside bench: refused for its length, not its pair
        assert err == f"error: {argv[0]} takes one method in --method, got 2\n"
    if "circulant" in argv:  # a method outside METHOD_TABLE: the error lists the valid ones
        assert "davies-harte" in err
    if "nope" in argv or "xml" in argv:  # a name outside its list, checked by its cast
        assert err.startswith("error: invalid value for ") and "(valid: " in err
    if any(argv[: len(too_large)] == too_large for too_large in TOO_LARGE):
        assert "array" in err


def test_option_table_matches_parser():
    # every flag is resolved and checked through _OPTIONS, and every table key is a
    # flag; only verify takes --suite and --baseline
    from selfsim.cli import _OPTIONS, build_parser

    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    flags = {
        name: {
            action.dest
            for action in parser._actions
            if action.option_strings and action.dest not in ("help", "config")
        }
        for name, parser in commands.items()
    }
    assert set(flags) == {"simulate", "verify", "bench"}
    assert flags["verify"] == set(_OPTIONS)
    assert flags["simulate"] == flags["bench"] == set(_OPTIONS) - {"suite", "baseline"}


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    # `main` reuses one parser: each call in a sequence writes what the same
    # command writes alone, in a fresh interpreter
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "process = sfbm\nmethod = cholesky\nhurst = 0.3\nn = 24\npaths = 2\nformat = json",
        encoding="utf-8",
    )
    commands = [
        "simulate --format json --paths 3 --process fbm --method lamperti --hurst 0.8 --n 32",
        "simulate",
        f"simulate --config {cfg}",
    ]
    for i, command in enumerate(commands):
        assert run([*command.split(), "--out", str(tmp_path / f"seq{i}")]) == 0
    for i, command in enumerate(commands):
        alone = tmp_path / f"alone{i}"
        argv = [sys.executable, "-m", "selfsim.cli", *command.split(), "--out", str(alone)]
        subprocess.run(argv, check=True)
        assert (tmp_path / f"seq{i}").read_bytes() == alone.read_bytes()


def test_closed_pipe_exits_quietly():
    # the reader takes one line of about 2 MB and closes the pipe: the command
    # drops the rest and returns its own code, with no traceback, on standard
    # output and where --out names the pipe; the pipe closes between paths, or
    # inside one path that spans several chunks
    simulate = [sys.executable, "-m", "selfsim.cli", "simulate"]
    for size in (["--n", "4096", "--paths", "20"], ["--n", "50000", "--paths", "1"]):
        for out in ([], ["--out", "/dev/stdout"]):
            argv = simulate + size + out
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
                assert proc.stdout.readline() == b"path_id,t,value\n"
                proc.stdout.close()
                assert proc.wait(timeout=60) == 0, argv
                assert proc.stderr.read() == b"", argv


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_closed_named_pipe_exits_quietly(tmp_path):
    # a pipe named by --out that is not standard output is opened as a file: the
    # reader takes one line and closes it, and the command drops the rest quietly
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read_line = "import sys; sys.stdout.buffer.write(open(sys.argv[1], 'rb').readline())"
    reader = subprocess.Popen([sys.executable, "-c", read_line, str(fifo)], stdout=subprocess.PIPE)
    try:
        argv = [sys.executable, "-m", "selfsim.cli", "simulate", "--n", "50000", "--out", str(fifo)]
        result = subprocess.run(argv, capture_output=True, timeout=60)
        line = reader.communicate(timeout=60)[0]
    finally:
        reader.kill()
        reader.wait()
    assert line == b"path_id,t,value\n"
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")


class TestOutputFile:
    @pytest.fixture
    def sampling(self, monkeypatch):
        """Count draw requests; raise `fail` instead of sampling when it is set."""
        import selfsim.cli

        state = argparse.Namespace(calls=0, fail=None)
        real = selfsim.cli.generate_blocks

        def generate(*args):
            state.calls += 1
            if state.fail is not None:
                raise state.fail
            return real(*args)

        monkeypatch.setattr(selfsim.cli, "generate_blocks", generate)
        return state

    def test_unwritable_out_fails_before_sampling(self, sampling, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        assert run(["simulate", "--n", "16", "--out", str(out)]) == 2
        assert sampling.calls == 0

    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_unwritable_out_fails_before_verify_or_bench(self, command, sampling, tmp_path):
        out = tmp_path / "missing" / "r.json"
        assert run([command, "--n", "16", "--paths", "50", "--out", str(out)]) == 2
        assert sampling.calls == 0

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_unwritable_out_fails_before_building(self, command, monkeypatch, tmp_path):
        import selfsim.cli

        builds = []
        monkeypatch.setattr(selfsim.cli, "davies_harte_sampler", lambda *a: builds.append(a))
        out = tmp_path / "missing" / "x.json"
        assert run([command, "--n", "16", "--paths", "50", "--out", str(out)]) == 2
        assert builds == []

    def test_numerical_failure_leaves_no_new_file(self, sampling, tmp_path, capsys):
        from selfsim.samplers import NotPositiveDefiniteError

        sampling.fail = NotPositiveDefiniteError(0, "indefinite")
        out = tmp_path / "x.csv"
        assert run(["simulate", "--n", "16", "--out", str(out)]) == 3
        assert not out.exists()
        out.write_text("kept\n", encoding="utf-8")
        assert run(["simulate", "--n", "16", "--out", str(out)]) == 3
        assert out.read_text(encoding="utf-8") == "kept\n"
        capsys.readouterr()
        # on standard output an error that is not a failed write propagates as well
        assert run(["simulate", "--n", "16"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), lines

    def test_out_file_names_its_encoding(self, tmp_path):
        # a file opened in the locale's default encoding raises EncodingWarning here
        out = tmp_path / "x.csv"
        argv = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        argv += ["-m", "selfsim.cli", "simulate", "--out", str(out)]
        result = subprocess.run(argv, capture_output=True, timeout=60)
        assert (result.returncode, result.stderr) == (0, b"")
        assert out.read_bytes().startswith(b"path_id,t,value\n0,0.0,0.0\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "argv, redirect, target",
        [
            ("simulate --n 64 --paths 3 --out /dev/full", False, "output file '/dev/full'"),
            (
                "verify --suite marginals --n 16 --paths 10 --out /dev/full",
                False,
                "output file '/dev/full'",
            ),
            ("simulate --n 64 --paths 3", True, "standard output"),
        ],
        ids=["simulate-out", "verify-out", "simulate-stdout"],
    )
    def test_failed_write_is_a_usage_error(self, argv, redirect, target):
        # a full device fails the write or the flush (ENOSPC): exit 2 with one error
        # line, no traceback, and a quiet final flush ("Exception ignored", status 120)
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "selfsim.cli", *argv.split()],
                stdout=full if redirect else subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        lines = result.stderr.decode().splitlines()
        assert result.returncode == 2, lines
        assert lines == [f"error: cannot write {target}: No space left on device"]
        assert b"Exception ignored" not in result.stderr
        assert result.stdout in (None, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout device")
    def test_out_naming_an_appended_stdout_appends(self, tmp_path):
        # `--out /dev/stdout >> log` keeps the log's lines and adds what `>> log` adds
        simulate = [sys.executable, "-m", "selfsim.cli", "simulate", "--n", "2"]
        logs = {}
        for name, out in [("plain", []), ("out", ["--out", "/dev/stdout"])]:
            logs[name] = tmp_path / name
            logs[name].write_bytes(b"earlier line 1\nearlier line 2\n")
            with open(logs[name], "ab") as log:
                subprocess.run(simulate + out, stdout=log, check=True, timeout=60)
        expected = logs["plain"].read_bytes()
        assert expected.startswith(b"earlier line 1\nearlier line 2\npath_id,t,value\n")
        assert logs["out"].read_bytes() == expected

    def test_failed_write_removes_a_file_it_created(self, monkeypatch, tmp_path, capsys):
        import errno

        import selfsim.cli

        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(selfsim.cli, "_write_csv", full)
        out = tmp_path / "x.csv"
        assert run(["simulate", "--n", "16", "--out", str(out)]) == 2
        assert not out.exists()
        message = f"cannot write output file {str(out)!r}: {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_failed_truncate_is_a_usage_error(self, monkeypatch, tmp_path, capsys):
        # cutting an existing file's old tail is the last step of a write: its failure
        # is one error line and exit 2, like a failed write
        import errno

        import selfsim.cli

        class NoTruncate(io.TextIOWrapper):
            def truncate(self, pos=None):
                raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        def opener(fd, mode, encoding, newline):
            return NoTruncate(io.BufferedWriter(io.FileIO(fd, mode)), encoding, newline=newline)

        monkeypatch.setattr(selfsim.cli, "open", opener, raising=False)
        out = tmp_path / "x.csv"
        out.write_text("x" * 100_000, encoding="utf-8")
        assert run(["simulate", "--n", "16", "--out", str(out)]) == 2
        message = f"cannot write output file {str(out)!r}: {os.strerror(errno.EFBIG)}"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_shorter_output_replaces_existing_file(self, tmp_path):
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        reused.write_text("x" * 100_000, encoding="utf-8")
        for out in (fresh, reused):
            assert run(["simulate", "--n", "16", "--paths", "2", "--out", str(out)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()


class TestVerifyCommand:
    def test_error_bound_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "verify",
                "--suite",
                "error-bound",
                "--hurst",
                "0.5",
                "--n",
                "256,1024,4096,16384",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["verdict"] == "pass"

    def test_marginals_suite(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "verify",
                "--suite",
                "marginals",
                "--process",
                "fbm",
                "--method",
                "lamperti",
                "--hurst",
                "0.2",
                "--n",
                "64",
                "--paths",
                "20000",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["check"] == "marginal-variance"
        assert report["verdict"] == "pass"

    def test_davies_harte_marginals_at_one_point(self, tmp_path):
        out = tmp_path / "report.json"
        argv = "verify --suite marginals --method davies-harte --n 1 --paths 300 --seed 3"
        assert run([*argv.split(), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["n"] == 1 and report["details"][0]["target"] == 1.0

    def test_bm_covariance_report_names_bm(self, tmp_path):
        # a bm batch is judged against fBm at H = 1/2, and its report names bm
        out = tmp_path / "report.json"
        argv = "verify --suite covariance --process bm --method bm-cumsum --n 16 --paths 500"
        assert run([*argv.split(), "--seed", "11", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["check"] == "covariance-match"
        assert (report["process"], report["hurst"]) == ("bm", 0.5)

    def test_equivalence_suite(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "verify",
                "--suite",
                "equivalence",
                "--process",
                "fbm",
                "--method",
                "davies-harte",
                "--baseline",
                "cholesky",
                "--hurst",
                "0.7",
                "--n",
                "64",
                "--paths",
                "20000",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0

    def test_error_bound_zero_factor_fails_verdict(self, tmp_path):
        # every residual of grid_map(2) is 0, so a(2) = 0 and a does not decrease
        out = tmp_path / "report.json"
        assert run(["verify", "--suite", "error-bound", "--n", "2,4", "--out", str(out)]) == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["details"][0]["a"] == 0.0
        assert report["verdict"] == "fail"

    @pytest.mark.parametrize("sizes, code", [("16,64,256,1024", 0), ("2,8", 1)])
    def test_error_bound_json_is_the_library_check(self, tmp_path, sizes, code):
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", "error-bound", "--hurst", "0.7", "--n", sizes]
        assert run([*argv, "--out", str(out)]) == code
        report = error_bound_check([int(n) for n in sizes.split(",")], 0.7)
        assert json.loads(out.read_text(encoding="utf-8")) == report.to_dict()

    @pytest.mark.parametrize(
        "argv",
        [
            "--suite marginals --n 16 --paths 300",
            "--suite covariance --n 16 --paths 300",
            "--suite normality --n 16 --paths 1000",
            "--suite equivalence --n 16 --paths 300",
            "--suite error-bound --n 16,64",
        ],
    )
    def test_every_suite_writes_one_report(self, argv, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", *argv.split(), "--seed", "5", "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        assert isinstance(report, dict)
        assert code == (0 if report["verdict"] == "pass" else 1)

    @pytest.mark.parametrize("n, nodes", [(1, [1]), (2, [1, 2]), (3, [1, 3]), (16, [4, 8, 16])])
    def test_normality_judges_its_own_nodes(self, n, nodes, tmp_path):
        # one report: a KS distance per node n/4, n/2, n (each at least 1) of the
        # batch, the largest its worst deviation, and the exit code its verdict
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", "normality", "--n", str(n), "--paths", "1000"]
        code = run([*argv, "--seed", "5", "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["check"] == "normality"
        assert [d["node"] for d in report["details"]] == nodes
        batch = generate_batch(davies_harte_sampler(GridSpec(n), 0.5), 1000, 5)
        distances = [_ks_distance(batch.values[:, j - 1]) for j in nodes]
        assert [d["ks_distance"] for d in report["details"]] == distances
        assert report["worst_deviation"] == max(distances)
        assert code == (0 if report["verdict"] == "pass" else 1)
        assert report["verdict"] == ("pass" if max(distances) <= report["tolerance"] else "fail")

    @pytest.mark.parametrize(
        "argv",
        [
            "--suite marginals --method lamperti --hurst 0.8 --n 16 --paths 300",
            "--suite covariance --n 16 --paths 300",
            "--suite normality --n 16 --paths 1000",
            "--suite equivalence --method lamperti --n 16 --paths 300",
            "--suite error-bound --n 64,256",
        ],
        ids=["marginals", "covariance", "normality", "equivalence", "error-bound"],
    )
    @pytest.mark.parametrize("verdict", ["pass", "fail"])
    def test_report_is_one_line_of_json(self, argv, verdict, tmp_path, monkeypatch):
        # a fail is forced by a zero tolerance, or for error-bound by sizes whose a(2) is 0
        from selfsim import verify

        if verdict == "fail":
            monkeypatch.setattr(verify, "DEFAULT_TOL_MULTIPLIER", 0.0)
            monkeypatch.setattr(verify, "KS_CRIT_1PCT", 0.0)
            argv = argv.replace("64,256", "2,8")
        out = tmp_path / "report.json"
        code = run(["verify", *argv.split(), "--seed", "5", "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        assert (report["verdict"], code) == (verdict, 0 if verdict == "pass" else 1)
        assert text == json.dumps(report) + "\n"
        assert text.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout device")
    def test_appended_reports_are_json_lines(self, tmp_path):
        # each report is one line, so runs appended to one log read back one report a line
        verify = [sys.executable, "-m", "selfsim.cli", "verify", "--out", "/dev/stdout"]
        runs = [["--suite", "error-bound", "--n", "64,256"], ["--n", "16", "--paths", "300"]]
        log = tmp_path / "runs.log"
        for argv in runs:
            with open(log, "ab") as stream:
                subprocess.run(verify + argv, stdout=stream, timeout=60)
        lines = log.read_text(encoding="utf-8").split("\n")
        assert lines[2:] == [""]
        checks = [json.loads(line)["check"] for line in lines[:2]]
        assert checks == ["error-bound", "marginal-variance"]


class TestBench:
    def test_bench_reports_rows(self, tmp_path):
        out = tmp_path / "bench.json"
        code = run(
            [
                "bench",
                "--method",
                "davies-harte,cholesky",
                "--n",
                "256,512",
                "--hurst",
                "0.7",
                "--paths",
                "3",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        rows = json.loads(text)
        assert text == json.dumps(rows) + "\n"
        assert text.count("\n") == 1
        assert len(rows) == 4
        assert all(r["seconds_per_path"] > 0 for r in rows)
        ratios = [r["ratio_vs_previous_n"] for r in rows if r["ratio_vs_previous_n"]]
        assert len(ratios) == 2

    def test_csv_rows_are_the_json_records(self, tmp_path):
        # CSV is the default format: the header is the JSON record's keys, and each
        # row its values, with an empty ratio cell where JSON has null
        argv = "bench --method davies-harte,lamperti --n 16,32 --hurst 0.7 --paths 3".split()
        assert run(argv + ["--out", str(tmp_path / "bench.csv")]) == 0
        assert run(argv + ["--format", "json", "--out", str(tmp_path / "bench.json")]) == 0
        records = json.loads((tmp_path / "bench.json").read_text(encoding="utf-8"))
        text = (tmp_path / "bench.csv").read_text(encoding="utf-8")
        header, *rows = csv.reader(io.StringIO(text))
        assert header == list(records[0])
        expected = [[r["method"], str(r["n"]), str(r["paths"])] for r in records]
        assert [row[:3] for row in rows] == expected
        assert [row[0] for row in rows] == ["davies-harte"] * 2 + ["lamperti"] * 2
        ratio = header.index("ratio_vs_previous_n")
        assert [row[ratio] for row in rows[::2]] == ["", ""]
        assert all(float(row[ratio]) > 0 for row in rows[1::2])


class TestCommandMemory:
    """Every command takes its paths a block at a time: simulate writes each block and
    drops it, normality keeps three columns of each, and covariance and equivalence
    keep a stride-4 subgrid (a quarter of the columns at n = 1024)."""

    @staticmethod
    def traced_peak(argv):
        import tracemalloc

        tracemalloc.start()
        try:
            assert main(argv) in (0, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_peak_does_not_grow_with_paths(self, fmt, tmp_path):
        # 900 more paths of 128 points are 0.92 MB: held whole, the peak grows by that
        argv = "simulate --method davies-harte --hurst 0.7 --n 128 --format".split()
        argv += [fmt, "--out", str(tmp_path / "paths")]
        small, large = (self.traced_peak(argv + ["--paths", str(p)]) for p in (100, 1_000))
        assert large - small < 900 * 128 * 8 / 4

    # 4 000 paths of 1 024 points: a 32.8 MB batch
    PATHS, N = 4_000, 1_024

    @pytest.mark.parametrize(
        "suite, share",
        [
            ("normality", 1 / 16),
            # the subgrid's stack and its centred copy: half a batch (1.5 held whole)
            ("covariance", 3 / 4),
            # two stacks and the temporaries of one: 0.8 of a batch (2.5 held whole)
            ("equivalence", 1),
        ],
        ids=["normality", "covariance", "equivalence"],
    )
    def test_verify_peak(self, suite, share, tmp_path):
        # lamperti above 262 points builds a circulant, not a dense factor of its own size
        argv = f"verify --suite {suite} --method davies-harte --baseline lamperti --hurst 0.7"
        argv = argv.split() + ["--n", str(self.N), "--paths", str(self.PATHS)]
        peak = self.traced_peak(argv + ["--out", str(tmp_path / "report.json")])
        assert peak < share * self.PATHS * self.N * 8
