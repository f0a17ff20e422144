"""CLI contract: output formats, determinism, exit codes, config precedence."""

import csv
import json
import math

import numpy as np
import pytest

from selfsim.cli import main


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
        lines = out.read_text().splitlines()
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
        with open(out) as fh:
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
        payload = json.loads(out.read_text())
        assert payload["meta"]["process"] == "sfbm"
        assert "artifact_version" in payload["meta"]
        assert len(payload["paths"]) == 2
        assert len(payload["paths"][0]) == 33
        assert payload["paths"][0][0] == 0.0

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

    def test_every_pair_matches_public_sampler(self, tmp_path):
        from selfsim.cli import METHOD_TABLE, PROCESSES
        from selfsim.core import GridSpec, RngStream
        from selfsim.covmodels import make_kernel
        from selfsim.lamperti import simulate_lamperti
        from selfsim.samplers import (
            cholesky_sample,
            davies_harte_fbm,
            ma_truncated_fbm,
            sample_bm,
            wood_chan_fbm,
        )

        public = {
            ("bm", "bm-cumsum"): lambda p, h, g, r: sample_bm(g, r),
            ("fbm", "cholesky"): lambda p, h, g, r: cholesky_sample(make_kernel(p, h), g, r),
            ("sfbm", "cholesky"): lambda p, h, g, r: cholesky_sample(make_kernel(p, h), g, r),
            ("fbm", "davies-harte"): lambda p, h, g, r: davies_harte_fbm(g, h, r),
            ("fbm", "circulant"): lambda p, h, g, r: wood_chan_fbm(g, h, r),
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
            with open(out) as fh:
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
        cfg.write_text("method = davies-harte\nn = 16\nhurst = 0.7\nseed = 9\n")
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


MALFORMED = [
    (["simulate", "--n", "abc"], None),
    (["simulate", "--n", "256,512"], None),
    (["verify", "--suite", "error-bound", "--n", "256,x"], None),
    (["simulate", "--n", "16"], "hurst = abc\n"),
    (["simulate", "--n", "16"], "seed = 1.5\n"),
    (["simulate", "--n", "16", "--config", "/nonexistent/selfsim.cfg"], None),
    (["simulate", "--process", "bm", "--method", "bm-cumsum", "--hurst", "0.7"], None),
]


@pytest.mark.parametrize(
    "argv, config",
    MALFORMED,
    ids=["n-abc", "n-list", "n-list-entry", "cfg-hurst", "cfg-seed", "cfg-missing", "bm-hurst"],
)
def test_malformed_input_exits_2(argv, config, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
        report = json.loads(out.read_text())
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
        report = json.loads(out.read_text())
        assert report["check"] == "marginal-variance"
        assert report["verdict"] == "pass"

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

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["verify", "--suite", "nope", "--n", "16"])
        assert err.value.code == 2


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
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        assert all(r["seconds_per_path"] > 0 for r in rows)
        ratios = [r["ratio_vs_previous_n"] for r in rows if r["ratio_vs_previous_n"]]
        assert len(ratios) == 2
