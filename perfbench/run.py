"""Layered benchmark of the selfsim CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every command goes through the stable entry
point ``selfsim.cli.main(argv)`` in a fresh single-threaded process
(worker.py), with BLAS pinned to one thread.

``--trace 0`` reports the end-to-end metrics: each of several fresh
processes times ``import selfsim`` and a cold ``simulate --paths 1`` call,
then times the workload command warm; together they time it for
``--seconds``. On a shared host the speed of one core can drift by up to
2x over seconds to minutes, so every command and import is also timed
against a fixed reference kernel run beside it (worker.REFERENCE_KERNELS),
and the gated times are in units of that kernel (``ref``); the raw seconds
are printed in brackets and kept in the result file. ``--trace 1``
alternates untraced and traced cold runs of the command and reports the
per-layer metrics of layers.py. Every command gets
``--seed`` as its seed.

Every command's output passes a gate (gates.py) before it counts. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. Outputs, per-command records and spans go to ``.perfbench_runs/``.
See NOTES.md for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# Set before numpy loads here, and inherited by every worker.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A trace-0 run is ROUNDS fresh processes, each timing the import, a cold
# set-up call and then warm commands for 1/ROUNDS of the run. Spreading the
# fresh processes over the run averages the machine's slow speed drift into
# every metric alike.
ROUNDS = 8
MIN_OPS_PER_ROUND = 2  # 16 in all: the tail percentile needs ten timings beyond it
MAX_OPS_PER_ROUND = 200
DEADLINE_S = 170.0
MiB = 2**20


@dataclass(frozen=True)
class Workload:
    suite: str | None  # None for simulate
    process: str
    method: str
    hurst: float
    n: int
    paths: int
    smoke_n: int
    smoke_paths: int
    fmt: str = "csv"
    kernel: str = "interp"  # the reference kernel its commands are timed against (worker.py)

    def spec(self, smoke: bool) -> dict:
        return {
            "process": self.process,
            "method": self.method,
            "hurst": self.hurst,
            "n": self.smoke_n if smoke else self.n,
            "paths": self.smoke_paths if smoke else self.paths,
            "format": self.fmt,
            "suite": self.suite,
            "kernel": self.kernel,
            # covariance at T = 50 may fail its band; the verdict is recorded, not gated
            "fail_verdict_ok": self.suite == "covariance",
        }


WORKLOADS = {
    "simulate-csv": Workload(None, "fbm", "davies-harte", 0.7, 1024, 100, 64, 3),
    "simulate-json-large": Workload(None, "sfbm", "lamperti", 0.8, 32768, 4, 512, 2, fmt="json"),
    "verify-lamperti": Workload("marginals", "fbm", "lamperti", 0.8, 256, 4000, 16, 200),
    # its dense matrix-vector product streams 13 MB of weights per path
    "verify-ma": Workload("covariance", "fbm", "ma-truncated", 0.7, 64, 400, 8, 100, kernel="gemv"),
}


def _model_args(spec: dict, paths: int) -> list[str]:
    return [
        "--process", spec["process"], "--method", spec["method"],
        "--hurst", repr(spec["hurst"]), "--n", str(spec["n"]), "--paths", str(paths),
    ]  # fmt: skip


def command_argv(spec: dict) -> list[str]:
    """The workload's CLI arguments, without --seed and --out."""
    if spec["suite"] is None:
        return ["simulate", *_model_args(spec, spec["paths"]), "--format", spec["format"]]
    return ["verify", "--suite", spec["suite"], *_model_args(spec, spec["paths"])]


def setup_argv(spec: dict) -> list[str]:
    """A first `simulate --paths 1` with the workload's (process, method, hurst, n)."""
    return ["simulate", *_model_args(spec, 1), "--format", "csv"]


class Harness:
    """One benchmark run: starts workers, gates their outputs, counts failures.

    Every command gets the workload seed, so a run repeats one input; each
    distinct (output, exit code) is gated once and the verdict reused for
    repeats of the same bytes.
    """

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.name = workload
        self.seed = seed
        self.spec = {**WORKLOADS[workload].spec(smoke), "seed": seed}
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.verdicts: dict[tuple, tuple[bool, dict]] = {}
        self.records: list[dict] = []
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.out_dir = RUNS / f"{workload}-seed{seed}"
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)

    def worker(self, job: dict) -> dict:
        env = {**os.environ, **PINNED, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps({**job, "seed": self.seed}),
            capture_output=True,
            text=True,
            env=env,
            timeout=max(timeout, 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    def gate(self, setup: bool, out: Path, rc, digest: str | None = None) -> dict:
        """Gate one command's output (once per distinct bytes), record it, delete it."""
        import gates

        if digest is None and out.exists():
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
        key = (setup, digest, rc)
        if key not in self.verdicts:
            if setup:
                spec = {**self.spec, "paths": 1, "format": "csv"}
                self.verdicts[key] = gates.gate_simulate(out, spec, rc)
            elif self.spec["suite"] is None:
                self.verdicts[key] = gates.gate_simulate(out, self.spec, rc)
            else:
                self.verdicts[key] = gates.gate_verify(out, self.spec, rc)
        ok, record = self.verdicts[key]
        self.attempted += 1
        self.failed += not ok
        record = {**record, "command": "setup" if setup else "workload", "rc": rc, "ok": ok}
        self.records.append(record)
        out.unlink(missing_ok=True)
        return record

    def end_to_end(self, seconds: float) -> tuple[dict, dict, dict]:
        """Gated metrics (times in reference-kernel units, set-up, memory) and raw times."""
        imports, import_refs, setups, rss, walls, refs_beside, rel = [], [], [], [], [], [], []
        for round_ in range(ROUNDS):
            out = str(self.out_dir / f"r{round_}-op{{}}.out")
            job = {
                "mode": "loop",
                "setup_argv": setup_argv(self.spec),
                "setup_out": str(self.out_dir / f"r{round_}-setup.out"),
                "argv": command_argv(self.spec),
                "kernel": self.spec["kernel"],
                "out": out,
                "seconds": seconds / ROUNDS,
                "min_ops": MIN_OPS_PER_ROUND,
                "max_ops": MAX_OPS_PER_ROUND,
            }
            result = self.worker(job)
            self.gate(True, Path(job["setup_out"]), result["setup_rc"])
            imports.append(result["import_s"])
            import_refs.append(result["import_s"] / result["import_kernel_s"])
            setups.append(result["setup_s"])
            rss.append(result["maxrss_kib"] * 1024 / MiB)
            refs = result["refs"]
            for i, (k, rc, wall, digest) in enumerate(result["ops"]):
                ref = (refs[i] + refs[i + 1]) / 2  # the kernel timed just before and just after
                record = self.gate(False, Path(out.format(k)), rc, digest)
                record.update(wall_s=wall, ref_s=ref)
                walls.append(wall)
                refs_beside.append(ref)
                rel.append(wall / ref)
        self.samples = {"import_s": imports, "import_ref": import_refs, "setup_s": setups, "peak_rss_mb": rss}

        count = len(walls)
        tail_rank = count - 10  # highest percentile with at least ten timings beyond it
        rel.sort()
        metrics = {
            # a ratio of totals: it averages the machine's sub-second speed swings,
            # which a median of per-command ratios picks one side of
            "wall_ref": (sum(walls) / sum(refs_beside), "ref"),
            "wall_ref_tail": (rel[tail_rank - 1], "ref"),
            "import_ref": (statistics.median(import_refs), "ref"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MiB"),
        }
        walls.sort()
        wall = statistics.median(walls)
        raw = {
            "wall_s": (wall, "s"),
            "wall_s_tail": (walls[tail_rank - 1], "s"),
            "paths_per_s": (self.spec["paths"] / wall, "1/s"),
            "import_s": (statistics.median(imports), "s"),
        }
        tail = f"p{100 * tail_rank / count:.1f}: {count - tail_rank} of {count} commands slower"
        notes = {
            "wall_ref": f"total of {count} warm commands over the total of the {self.spec['kernel']} kernel timed beside each",
            "wall_ref_tail": tail,
            "import_ref": f"median of {len(setups)} fresh processes, each over 6 format-kernel timings around its import",
            "setup_s": f"median of {len(setups)} fresh processes",
            "peak_rss_mb": f"median ru_maxrss of {len(rss)} timing processes",
            "wall_s": f"median of {count} warm commands; not gated: drifts with the machine",
            "wall_s_tail": tail,
            "paths_per_s": f"{self.spec['paths']} paths / wall_s",
            "import_s": f"median of {len(setups)} fresh processes",
        }
        return metrics, notes, raw

    def traced(self, seconds: float) -> tuple[dict, dict]:
        import layers

        argv = command_argv(self.spec)
        untraced, layer_runs, out_sizes = [], [], []
        pair = 0
        began = time.monotonic()
        while pair < 2 or time.monotonic() - began < seconds:
            # alternate which side runs first, so drift does not favour one
            for trace in ((False, True) if pair % 2 == 0 else (True, False)):
                run_id = f"{self.name}-seed{self.seed}-{pair}{'t' if trace else 'u'}"
                out = self.out_dir / f"{run_id}.out"
                spans_out = RUNS / f"spans-{run_id}.json"
                job = {"mode": "cold", "argv": argv, "out": str(out), "trace": trace,
                       "run_id": run_id, "spans_out": str(spans_out)}  # fmt: skip
                result = self.worker(job)
                size = out.stat().st_size if out.exists() else 0
                self.gate(False, out, result["rc"])
                if not trace:
                    untraced.append(result["wall_s"])
                    continue
                metrics = layers.layer_metrics(json.loads(spans_out.read_text())["spans"])
                gap = abs(metrics["accounted_s"] - metrics["root_s"])
                if gap > 0.01 * metrics["root_s"]:
                    self.problems.append(f"{run_id}: layer self-times miss the root span by {gap:.6f} s")
                layer_runs.append(metrics)
                out_sizes.append(size)
            pair += 1

        for key in layers.COUNTS:
            if len({run[key] for run in layer_runs}) != 1:
                self.problems.append(f"count {key} differs between traced runs")

        def med(key):
            return statistics.median(run[key] for run in layer_runs)

        metrics = {key: (med(key), "s") for key in layers.SELF_TIME_METRICS}
        metrics.update({key: (med(key), unit) for key, unit in layers.COUNTS.items()})
        metrics["cli.out_mb"] = (statistics.median(out_sizes) / MiB, "MiB")
        metrics["trace.root_s"] = (med("root_s"), "s")
        cli_self = metrics["cli.self_s"][0]
        metrics["cli.out_mb_per_s"] = (metrics["cli.out_mb"][0] / cli_self if cli_self else 0.0, "MiB/s")
        base = statistics.median(untraced)
        metrics["trace.overhead_frac"] = ((metrics["trace.root_s"][0] - base) / base, "ratio")
        notes = {
            "trace.root_s": f"median of {len(layer_runs)} traced cold commands",
            "trace.overhead_frac": f"against the median of {len(untraced)} untraced cold commands ({base:.4f} s)",
        }
        return metrics, notes, {}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _blas_threads() -> dict:
    """Threads of each OpenBLAS library loaded in this process, by file name."""
    import ctypes

    import numpy.linalg  # noqa: F401  (loads BLAS)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    threads = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):  # fmt: skip
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "selfsim" / "cli.py").is_file():
        print(f"error: no selfsim source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))

    harness = Harness(args.workload, args.seed, args.smoke)
    if args.trace:
        metrics, notes, raw = harness.traced(args.seconds)
    else:
        metrics, notes, raw = harness.end_to_end(args.seconds)
    shutil.rmtree(harness.out_dir, ignore_errors=True)

    env = environment(args.seed)
    fail_frac = harness.failed / harness.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  argv: selfsim {' '.join(command_argv(harness.spec))}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    for name, (value, unit) in raw.items():
        print(f"  ({name}){'':{24 - len(name)}s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'fail_frac':26s} {fail_frac:14.6g} {'ratio':6s} {harness.failed} of {harness.attempted} operations failed their gate")
    for problem in harness.problems:
        print(f"  problem: {problem}")
    print("environment " + json.dumps(env))

    summary = {
        "correct": harness.failed == 0 and not harness.problems,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RUNS.mkdir(exist_ok=True)
    detail = RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({**summary, "environment": env, "notes": notes,
                                  "fail_frac": fail_frac, "problems": harness.problems,
                                  "raw": {name: value for name, (value, _) in raw.items()},
                                  "samples": harness.samples,
                                  "operations": harness.records}, indent=1))  # fmt: skip
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
