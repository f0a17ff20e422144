"""One benchmark process: a fresh interpreter that imports selfsim and runs
`selfsim.cli.main`.

run.py starts it with a JSON job on standard input and reads one JSON
object from its standard output. Modes:

- ``loop``: time ``import selfsim`` with the format kernel three times
  before it and three times after it and one cold ``setup_argv`` call, then
  run ``argv`` again and again until ``seconds`` have passed and at least
  ``min_ops`` calls were timed, with the job's reference kernel timed
  before the first call and after every call; report each call's time, the
  sha256 of its output, the kernel timings and the process's peak resident
  memory. An output whose digest was seen before is deleted, so the parent
  gates each distinct output once.
- ``cold``: run ``argv`` once with cold caches, optionally traced; a traced
  run writes its spans to ``spans_out``.

Nothing is imported from numpy or selfsim before the import is timed.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time


def _call(cli, argv):
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a crash of the program under test is a failed operation
        rc = f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start


# made before anything is timed, without numpy, so the format kernel can run
# before the import
_FLOATS = [0.1 + 1.6 * i / 14_999 for i in range(15_000)]


def _format_kernel():
    """Floats and ints formatted and joined, as the CLI writers do; pure
    Python, so it can be timed before numpy is loaded; ~12 ms."""
    start = time.perf_counter()
    ",".join([repr(x) for x in _FLOATS])
    ",".join(["%d" % i for i in range(15_000)])
    return time.perf_counter() - start


def _interp_kernel():
    """Small matrix products on one BLAS thread, then the format kernel; ~25 ms."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 200 * 200).reshape(200, 200)
    start = time.perf_counter()
    for _ in range(50):
        a @ a
    return time.perf_counter() - start + _format_kernel()


def _gemv_kernel():
    """Products of a 64 x 26 112 matrix (13 MB, past the core's L2) with a
    vector, the shape of the MA weights at n = 64; ~29 ms. The matrix is
    made untimed and freed when the call returns."""
    import numpy as np

    w = np.linspace(-1.0, 1.0, 64 * 26_112).reshape(64, 26_112)
    z = np.linspace(0.0, 1.0, 26_112)
    start = time.perf_counter()
    for _ in range(45):
        w @ z
    return time.perf_counter() - start


# A reference kernel times a fixed piece of work that stands for the
# machine's speed right now. Its speed swings with the machine's and with
# nothing else: it uses nothing from selfsim, so no change to the program
# moves it. Swings hit interpreter and compute work harder than work that
# streams memory, so each workload's command is timed against the kernel
# that does the same kind of work as its dominant layer. Of the kernels
# tried, these two tracked their workloads best; a plain integer loop
# tracked every workload worst. The import is timed against the format
# kernel, run before and after it.
REFERENCE_KERNELS = {"interp": _interp_kernel, "gemv": _gemv_kernel}


def _with_seed(argv, seed, out):
    return [*argv, "--seed", str(seed), "--out", out]


def _sha256(path):
    """Digest read in chunks, so hashing does not raise the peak memory."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except FileNotFoundError:
        return None
    return digest.hexdigest()


def main() -> None:
    job = json.load(sys.stdin)
    mode = job["mode"]
    seed = job["seed"]
    # the first call of each kernel warms it and is not used
    if mode == "loop":
        _format_kernel()
        before = [_format_kernel() for _ in range(3)]
    start = time.perf_counter()
    import selfsim  # noqa: F401

    result = {"import_s": time.perf_counter() - start}
    from selfsim import cli

    if mode == "loop":
        rc, seconds = _call(cli, _with_seed(job["setup_argv"], seed, job["setup_out"]))
        result.update(setup_rc=rc, setup_s=seconds)
        # the kernels follow the set-up call, so it stays the first call after the import
        result["import_kernel_s"] = statistics.mean(before + [_format_kernel() for _ in range(3)])
        kernel = REFERENCE_KERNELS[job["kernel"]]
        kernel()
        ops, seen, refs = [], set(), [kernel()]
        began = time.perf_counter()
        for k in range(job["max_ops"]):
            if k >= job["min_ops"] and time.perf_counter() - began >= job["seconds"]:
                break
            out = job["out"].format(k)
            rc, seconds = _call(cli, _with_seed(job["argv"], seed, out))
            refs.append(kernel())
            digest = _sha256(out)
            if digest is not None and digest in seen:
                os.remove(out)
            seen.add(digest)
            ops.append([k, rc, seconds, digest])
        result.update(ops=ops, refs=refs)
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif mode == "cold":
        tracer = None
        if job["trace"]:
            import layers

            tracer = layers.Tracer(job["run_id"])
            tracer.install()
        rc, seconds = _call(cli, _with_seed(job["argv"], seed, job["out"]))
        result.update(rc=rc, wall_s=seconds)
        if tracer is not None:
            tracer.dump(job["spans_out"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
