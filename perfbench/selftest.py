"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Smoke: every workload at tiny sizes, with tracing off and on, must print
   exactly the metrics BENCHMARK.json names, each with its unit, and no
   failed operation.
2. Gates: a good output passes; a truncated CSV, one value with its last bit
   flipped (CSV and JSON), a wrong t = 0 row, a non-finite value and a bad
   verify exit code each count as a failure.
3. Bare directory: with only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check holds; prints each failed check.
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_runs" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gates  # noqa: E402
import run  # noqa: E402
from selfsim import cli  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def smoke() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for workload in bench["workloads"]:
            name = workload["name"]
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                    "--seconds", "1", "--trace", str(trace), "--smoke"]  # fmt: skip
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"smoke {name} trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: correct, {result['failed']} of {result['attempted']} failed")  # fmt: skip
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == want, f"{label}: every metric with its unit")
            printed = proc.stdout.splitlines()
            check(all(any(line.split()[:1] == [m] for line in printed) for m in want),
                  f"{label}: every metric printed by name")  # fmt: skip


def _flip_last_bit(token: str) -> str:
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(token)))
    return repr(struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0])


def gates_catch_corruption() -> None:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    spec = {**run.WORKLOADS["simulate-csv"].spec(smoke=True), "seed": 11}
    csv_out = SCRATCH / "good.csv"
    rc = cli.main([*run.command_argv(spec), "--seed", "11", "--out", str(csv_out)])
    good = csv_out.read_text()
    check(gates.gate_simulate(csv_out, spec, rc)[0], "gate passes a good CSV")

    def gate_text(text: str, rc=0) -> bool:
        bad = SCRATCH / "bad.csv"
        bad.write_text(text)
        return gates.gate_simulate(bad, spec, rc)[0]

    lines = good.splitlines(keepends=True)
    check(not gate_text(good[: len(good) // 2]), "gate fails a CSV truncated mid-line")
    check(not gate_text("".join(lines[:-1])), "gate fails a CSV missing its last row")
    middle = spec["n"] + 1 + spec["n"] // 2 + 1  # a node inside path 1 of 3
    pid, t, value = lines[middle].rstrip("\n").split(",")
    flipped = lines[:middle] + [f"{pid},{t},{_flip_last_bit(value)}\n"] + lines[middle + 1 :]
    check(not gate_text("".join(flipped)), "gate fails a CSV with one value's last bit flipped")
    zero_row = lines[1].rstrip("\n").rsplit(",", 1)[0] + ",1e-300\n"
    check(not gate_text("".join([lines[0], zero_row, *lines[2:]])), "gate fails a non-zero t = 0 row")
    check(not gate_text("".join([*lines[:middle], f"{pid},{t},nan\n", *lines[middle + 1 :]])),
          "gate fails a non-finite value")  # fmt: skip
    check(not gate_text(good, rc=3), "gate fails a non-zero exit code")

    jspec = {**run.WORKLOADS["simulate-json-large"].spec(smoke=True), "seed": 11}
    json_out = SCRATCH / "good.json"
    rc = cli.main([*run.command_argv(jspec), "--seed", "11", "--out", str(json_out)])
    check(gates.gate_simulate(json_out, jspec, rc)[0], "gate passes a good JSON")
    payload = json.loads(json_out.read_text())
    payload["paths"][-1][3] = float(_flip_last_bit(repr(payload["paths"][-1][3])))
    json_out.write_text(json.dumps(payload))
    check(not gates.gate_simulate(json_out, jspec, rc)[0], "gate fails a JSON with one value's last bit flipped")

    vspec = {**run.WORKLOADS["verify-lamperti"].spec(smoke=True), "seed": 11}
    report = SCRATCH / "report.json"
    rc = cli.main([*run.command_argv(vspec), "--seed", "11", "--out", str(report)])
    check(gates.gate_verify(report, vspec, rc)[0], "gate passes a verify report")
    check(not gates.gate_verify(report, vspec, 1)[0], "gate fails a verify exit code that contradicts the verdict")
    check(not gates.gate_verify(report, {**vspec, "paths": vspec["paths"] + 1}, rc)[0],
          "gate fails a report with the wrong replicate count")  # fmt: skip


def bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "simulate-csv", "--seed", "1",
            "--seconds", "1", "--trace", "0"]  # fmt: skip
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, no result printed")  # fmt: skip
    shutil.rmtree(bare)


def main() -> int:
    gates_catch_corruption()
    bare_directory()
    smoke()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
