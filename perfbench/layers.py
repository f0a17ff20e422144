"""Span tracer for the selfsim package, installed from outside it.

`Tracer.install` wraps every public function, and the `__init__` and public
methods of every public class, of the modules in `MODULES`, and rebinds each
wrapped callable wherever a selfsim module holds a reference to it, so calls
made inside the package are traced too. Each call becomes one span
``[name, start, end, parent, attrs]`` held in memory; `Tracer.dump` writes
them out when the run ends.

`layer_metrics` turns a span list into the per-layer metrics of the
benchmark: self time (a span's duration minus that of its direct children)
summed per layer, plus counts taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("core", "covmodels", "samplers", "lamperti", "verify", "cli")

# Callable -> metric its self time is charged to. A callable not listed is
# charged to "<module>.other_s", except in cli, which is one layer.
SELF_TIME = {
    "core.RngStream.__init__": "core.stream_init_s",
    "core.RngStream.normals": "core.normals_s",
    "core.SamplePath.__init__": "core.path_s",
    "core.generate_batch": "core.batch_s",
    "covmodels.fgn_acf": "covmodels.acf_s",
    "covmodels.lamperti_acf_fbm": "covmodels.acf_s",
    "covmodels.lamperti_acf_sfbm": "covmodels.acf_s",
    "samplers.circulant_spectrum": "samplers.spectrum_s",
    "samplers.circulant_sample": "samplers.draw_s",
    "samplers.davies_harte_fbm": "samplers.fgn_path_s",
    "samplers.wood_chan_fbm": "samplers.fgn_path_s",
    "samplers.ma_truncated_fbm": "samplers.ma_s",
    # the MA normalising quadrature is part of the first call's weight build
    "samplers.normalizing_constant_CH": "samplers.ma_s",
    "lamperti.simulate_lamperti": "lamperti.map_s",
    "lamperti.grid_map": "lamperti.grid_map_s",
    "lamperti.marginal_variance_profile": "verify.stats_s",
    "verify.covariance_match": "verify.stats_s",
    "verify.empirical_covariance": "verify.stats_s",
    "verify.normality_check": "verify.stats_s",
    "verify.method_equivalence": "verify.stats_s",
    "verify.quantile_scaling_check": "verify.stats_s",
}

SELF_TIME_METRICS = sorted(
    set(SELF_TIME.values()) | {f"{m}.other_s" for m in MODULES if m != "cli"} | {"cli.self_s"}
)

# Counts taken at the span boundaries, with their units; each must repeat
# exactly from one traced run to the next.
COUNTS = {
    "core.streams": "count",
    "core.variates": "count",
    "covmodels.acf_calls": "count",
    "samplers.embedding_m": "count",
    "samplers.fft_used_ratio": "ratio",
    "samplers.clamped": "count",
    "samplers.ma_weight_mb": "MiB",
    "samplers.ma_gflop": "GFLOP",
}

ROOT = "cli.main"
ACF = {"covmodels.fgn_acf", "covmodels.lamperti_acf_fbm", "covmodels.lamperti_acf_sfbm"}

MiB = 2**20


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Attributes recorded on a span, computed from the call's arguments and result.
PROBES = {
    "core.RngStream.normals": lambda a, k, r: _arg(a, k, 1, "size"),
    "core.SamplePath.__init__": lambda a, k, r: [
        a[0].info.get("clamped_count", 0),
        a[0].info.get("embedding_size", 0),
    ],
    "samplers.circulant_sample": lambda a, k, r: [
        _arg(a, k, 1, "length"),
        _arg(a, k, 0, "spectrum").m,
    ],
    "samplers.ma_truncated_fbm": lambda a, k, r: r.values.size,
}


def _metric_of(name: str) -> str:
    module = name.split(".", 1)[0]
    if module == "cli":
        return "cli.self_s"
    return SELF_TIME.get(name, f"{module}.other_s")


def _is_public_callable(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    if inspect.isclass(obj):
        return not issubclass(obj, BaseException)
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    """Holds the spans of one run; `install` makes the package emit them."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public callables of `MODULES` and rebind every reference."""
        modules = {m: importlib.import_module(f"selfsim.{m}") for m in MODULES}
        replaced = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_public_callable(obj, module.__name__):
                    continue
                if not inspect.isclass(obj):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                    continue
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                        setattr(obj, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
        package = importlib.import_module("selfsim")
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer self times and counts of one traced command.

    Returns the metrics plus ``root_s`` (the `cli.main` span) and
    ``accounted_s`` (the sum of all self times, which must match it).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or roots[0][0] != ROOT:
        raise ValueError(f"expected one root span {ROOT}, got {[s[0] for s in roots]}")

    out = {metric: 0.0 for metric in SELF_TIME_METRICS}
    out.update({key: 0 for key in COUNTS})
    fft_kept = fft_size = ma_rows = ma_cols = ma_paths = 0
    for idx, (name, start, end, parent, attrs) in enumerate(spans):
        out[_metric_of(name)] += (end - start) - child_time[idx]
        if name == "core.RngStream.__init__":
            out["core.streams"] += 1
        elif name == "core.RngStream.normals":
            out["core.variates"] += attrs
            if parent >= 0 and spans[parent][0] == "samplers.ma_truncated_fbm":
                ma_cols = attrs
        elif name in ACF:
            out["covmodels.acf_calls"] += 1
        elif name == "core.SamplePath.__init__":
            out["samplers.clamped"] = max(out["samplers.clamped"], attrs[0])
            out["samplers.embedding_m"] = max(out["samplers.embedding_m"], attrs[1])
        elif name == "samplers.circulant_sample":
            fft_kept += attrs[0]
            fft_size += attrs[1]
        elif name == "samplers.ma_truncated_fbm":
            ma_rows = attrs
            ma_paths += 1

    out["samplers.fft_used_ratio"] = fft_kept / fft_size if fft_size else 0.0
    # computed from the weight matrix shape (rows x normals per path), not measured
    out["samplers.ma_weight_mb"] = ma_rows * ma_cols * 8 / MiB
    out["samplers.ma_gflop"] = 2.0 * ma_rows * ma_cols * ma_paths / 1e9
    out["root_s"] = roots[0][2] - roots[0][1]
    out["accounted_s"] = sum(out[m] for m in SELF_TIME_METRICS)
    return out
