"""Modified inverse Lamperti pipeline: simulate a stationary sequence with
the rescaled autocovariance, then map it back to a self-similar path on the
uniform grid, with deterministic error-bound diagnostics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, LinearSampler, ParameterError, RngStream, SamplePath
from .covmodels import _check_hurst, lamperti_acf_fbm, lamperti_acf_sfbm
from .samplers import _circulant_sampler, _dense_map, _ladder_cholesky

__all__ = [
    "LampertiGridMap",
    "grid_map",
    "lamperti_sampler",
    "simulate_lamperti",
    "error_bound_diagnostics",
]

# Snap map arguments this close to an integer before flooring, so log/exp
# roundoff cannot flip the index at exact dyadic points.
_SNAP_TOL = 1e-9

# The most distinct grid-map nodes drawn through their exact Gram factor (n <= 262);
# more take the circulant. 128 covers n = 256 (126 nodes), where the factor's build
# costs about 0.3 ms more than the circulant's and each path about 7 us less. The
# build grows as the cube of the node count (about 12 ms at 512 nodes, n = 1229,
# against under 1 ms for the circulant), which only commands of many paths repay.
_DENSE_NODES = 128


@dataclass(frozen=True)
class LampertiGridMap:
    """Floor indices g(j) and residuals theta(j) of the log-to-uniform map.

    The argument n * log(j) / log(n) is split as g(j) + theta(j) with
    g(j) integer and theta(j) in [0, 1); g(1) = 0 and g(n) = n.
    """

    n: int
    index: np.ndarray
    residual: np.ndarray


@functools.lru_cache(maxsize=64)
def grid_map(n: int) -> LampertiGridMap:
    if n < 2:
        raise ParameterError("grid map needs n >= 2")
    GridSpec(n)  # rejects a size larger than any array
    j = np.arange(1, n + 1, dtype=float)
    arg = n * np.log(j) / math.log(n)
    nearest = np.round(arg)
    arg = np.where(np.abs(arg - nearest) < _SNAP_TOL, nearest, arg)
    index = np.floor(arg).astype(int)
    residual = arg - index
    index.setflags(write=False)
    residual.setflags(write=False)
    return LampertiGridMap(n=n, index=index, residual=residual)


@functools.lru_cache(maxsize=64)
def lamperti_sampler(process: str, hurst: float, grid: GridSpec) -> LinearSampler:
    """The map of `simulate_lamperti`: a draw of the stationary sequence at the
    grid map's distinct nodes, gathered to the grid and scaled by t^H.

    Up to `_DENSE_NODES` distinct nodes (n <= 262) the draw is the exact Cholesky
    factor of their Gram, one normal per node and `info` {"jitter": ...}; above,
    it is the clamped circulant of lags 0..n, `info` {"clamped_mass", "embedding_size"}.
    """
    hurst = float(hurst)
    if process not in ("fbm", "sfbm"):
        raise ParameterError(f"lamperti method supports fbm and sfbm, not {process!r}")
    if grid.n < 2:
        raise ParameterError(f"lamperti method needs a grid of n >= 2 points, got n = {grid.n}")
    index, scale = grid_map(grid.n).index, grid.times() ** hurst
    acf = lamperti_acf_fbm if process == "fbm" else lamperti_acf_sfbm
    # The stationary sequence is read at the nodes g(j) in 0..n: the map sends
    # j = 1 to 0, so one extra lag of the autocovariance is needed. The map is
    # nondecreasing, so a node is new where it steps: 126 of 257 at n = 256.
    nodes = index[np.concatenate(([True], index[1:] != index[:-1]))]
    if len(nodes) <= _DENSE_NODES:
        # The exact Gram r(|S_a - S_b|) of the nodes, from lags 0..n alone, where
        # `lamperti_acf_fbm` is accurate (ROADMAP item 10). It is symmetric by
        # construction, so it skips `cholesky_factor`'s check; its jitter is 0.0
        # for every n up to the cutover, H = 0.999 included.
        row = acf(np.arange(grid.n + 1), grid.n, hurst)
        lower, jitter = _ladder_cholesky(row[np.abs(nodes[:, None] - nodes)])
        slot = np.searchsorted(nodes, index)  # each grid point's node, as a column of L z
        draw = _dense_map(lower, lambda y: scale * np.take(y, slot, axis=1))
        return LinearSampler(grid, "lamperti", process, hurst, len(nodes), draw, {"jitter": jitter})
    # Above the cutover the sequence at 0..n is one circulant draw. The rescaled
    # autocovariance falls with the lag (fbm, n = 256, H = 0.95: 1 at lag 0,
    # 0.721 at lag n, 0.313 at lag 4n), but `lamperti_acf_fbm` cancels past lag
    # n (0.0 at lag 8n), so a larger embedding built from it is more indefinite,
    # not less (ROADMAP item 10). The negative eigenvalues are clamped to zero at
    # the minimal embedding instead (the nonnegative-definite part of the
    # circulant), which raises Var U by the spectrum's `clamped_mass`. For fbm the
    # clamp fires from about H = 0.72 on: at n = 2048, H = 0.8, it zeroes 1901 of
    # 4096 eigenvalues. A clamped bin has weight zero and draws no normal, so k is
    # below m: 2195 of 4096 there. For sfbm at n = 32 768, H = 0.8, nothing clamps.
    finish = lambda y: scale * np.take(y, index, axis=1)
    return _circulant_sampler(grid, "lamperti", process, hurst, acf, grid.n + 1, finish)


def simulate_lamperti(
    process: str,
    hurst: float,
    grid: GridSpec,
    rng: RngStream,
) -> SamplePath:
    """Sample a self-similar path by rescaling a stationary sequence.

    The output is X(j/n) = (j/n)^H U(g(j)/n) for the stationary sequence U
    with the rescaled autocovariance, read at the grid map's nodes g(j).
    The joint law is approximate (the gather). Up to 128 distinct nodes
    (n <= 262) U is drawn at the nodes through the exact factor of their
    Gram, so every marginal matches the target law to rounding. Above, U(k/n),
    k = 0..n, is drawn by circulant embedding, and the marginals are exact
    only when no eigenvalue is clamped (``info["clamped_mass"] == 0``). For
    fbm with H above about 0.72 the clamp inflates Var U, and so every
    marginal variance, by a relative 6.922e-5 at H = 0.8 and 9.679e-4 at
    H = 0.95 (n = 2048).
    """
    return lamperti_sampler(process, hurst, grid)(rng)


def error_bound_diagnostics(n_list, hurst: float) -> dict:
    """Deterministic factors of the approximation error bound.

    For each n: a(n) = max_j |n^{H theta(j)/n} - 1| and
    b(n) = max_j |n^{-theta(j)/n} - 1|, both O(log(n)/n) by the mean value
    theorem. Reports the fitted constants sup_n a(n) n / log n (and the b
    analogue) and whether a, b decrease along increasing n. H must lie in
    (0, 1), and n_list must hold at least two strictly increasing sizes.
    `verify.error_bound_check` judges these factors and gives the verdict.
    """
    hurst = _check_hurst(hurst)
    sizes = [int(n) for n in n_list]
    if len(sizes) < 2 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ParameterError(f"need at least two strictly increasing grid sizes, got {sizes}")
    entries = []
    for n in sizes:
        gm = grid_map(n)
        theta = gm.residual
        log_n = math.log(n)
        a = float(np.max(np.abs(np.exp(hurst * theta / n * log_n) - 1.0)))
        b = float(np.max(np.abs(np.exp(-theta / n * log_n) - 1.0)))
        entries.append(
            {
                "n": n,
                "a": a,
                "b": b,
                "a_rate": a * n / log_n,
                "b_rate": b * n / log_n,
            }
        )
    a_seq = [e["a"] for e in entries]
    b_seq = [e["b"] for e in entries]
    return {
        "hurst": hurst,
        "entries": entries,
        "c1_fitted": max(e["a_rate"] for e in entries),
        "c2_fitted": max(e["b_rate"] for e in entries),
        "a_decreasing": all(x > y for x, y in zip(a_seq, a_seq[1:])),
        "b_decreasing": all(x > y for x, y in zip(b_seq, b_seq[1:])),
    }
