"""Modified inverse Lamperti pipeline: simulate a stationary sequence with
the rescaled autocovariance, then map it back to a self-similar path on the
uniform grid.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import GridSpec, LinearSampler, ParameterError, RngStream, SamplePath
from .covmodels import lamperti_acf
from .samplers import _circulant_sampler, _factor_sampler

__all__ = [
    "grid_map",
    "lamperti_sampler",
    "simulate_lamperti",
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


@functools.lru_cache(maxsize=64)
def grid_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The floor indices g(j) and residuals theta(j), j = 1..n, of the log-to-uniform
    map, as two read-only arrays: n * log(j) / log(n) is split as g(j) + theta(j) with
    g(j) integer and theta(j) in [0, 1); g(1) = 0 and g(n) = n.
    """
    if n < 2:
        raise ParameterError(f"lamperti method needs a grid of n >= 2 points, got n = {n}")
    GridSpec(n)  # rejects a size larger than any array
    j = np.arange(1, n + 1, dtype=float)
    arg = n * np.log(j) / math.log(n)
    nearest = np.round(arg)
    arg = np.where(np.abs(arg - nearest) < _SNAP_TOL, nearest, arg)
    index = np.floor(arg).astype(int)
    residual = arg - index
    index.setflags(write=False)
    residual.setflags(write=False)
    return index, residual


@functools.lru_cache(maxsize=64)
def lamperti_sampler(process: str, hurst: float, grid: GridSpec) -> LinearSampler:
    """Self-similar paths by rescaling a stationary sequence: X(j/n) = (j/n)^H U(g(j)/n)
    for the stationary sequence U with the autocovariance `lamperti_acf(process, ...)`,
    drawn at the grid map's distinct nodes g(j), gathered to the grid and scaled by t^H.

    The joint law is approximate (the gather). Up to `_DENSE_NODES` distinct nodes
    (n <= 262) U is drawn through the exact Cholesky factor of their Gram, one normal
    per node and `info` {"jitter": ...}, so every marginal matches the target law to
    rounding. Above, U(k/n), k = 0..n, is the clamped circulant of lags 0..n, `info`
    {"clamped_mass", "embedding_size"}, and the marginals are exact only when no
    eigenvalue is clamped (``info["clamped_mass"] == 0``).
    For fbm the clamp fires from about H = 0.72 on: at n = 2048, H = 0.8, it zeroes
    1901 of 4096 eigenvalues, and as a clamped bin draws no normal, k is 2195 of
    4096. It inflates Var U, and so every marginal variance, by a relative
    `clamped_mass` of 6.922e-5 at H = 0.8 and 9.679e-4 at H = 0.95 (n = 2048).
    For sfbm at n = 32 768, H = 0.8, nothing clamps.
    """
    hurst = float(hurst)
    index, scale = grid_map(grid.n)[0], grid.times() ** hurst
    # The stationary sequence is read at the nodes g(j) in 0..n: the map sends
    # j = 1 to 0, so one extra lag of the autocovariance is needed. The map is
    # nondecreasing, so a node is new where it steps: 126 of 257 at n = 256.
    row = lamperti_acf(process, np.arange(grid.n + 1), grid.n, hurst)
    nodes = index[np.concatenate(([True], index[1:] != index[:-1]))]
    if len(nodes) <= _DENSE_NODES:
        # The exact Gram r(|S_a - S_b|) of the nodes, from lags 0..n alone, where
        # `lamperti_acf` is accurate (ROADMAP item 10); its jitter is 0.0 for
        # every n up to the cutover, H = 0.999 included.
        slot = np.searchsorted(nodes, index)  # each grid point's node, as a column of L z
        return _factor_sampler(
            grid, "lamperti", process, hurst,
            row[np.abs(nodes[:, None] - nodes)], _gather(slot, scale),
        )
    # Above the cutover the sequence at 0..n is one circulant draw. The rescaled
    # autocovariance falls with the lag (fbm, n = 256, H = 0.95: 1 at lag 0,
    # 0.721 at lag n, 0.313 at lag 4n), but `lamperti_acf` cancels past lag n
    # (0.0 at lag 8n), so a larger embedding built from it is more indefinite,
    # not less (ROADMAP item 10). The negative eigenvalues are clamped to zero at
    # the minimal embedding instead (the nonnegative-definite part of the
    # circulant), which raises Var U by the spectrum's `clamped_mass`; the
    # docstring above gives its size.
    return _circulant_sampler(grid, "lamperti", process, hurst, row, _gather(index, scale))


def _gather(columns: np.ndarray, scale: np.ndarray):
    """y -> y[:, columns] * scale: the gather is a new array, scaled in place."""

    def finish(y):
        x = np.take(y, columns, axis=1)
        x *= scale
        return x

    return finish


def simulate_lamperti(
    process: str,
    hurst: float,
    grid: GridSpec,
    rng: RngStream,
) -> SamplePath:
    """One path of `lamperti_sampler`."""
    return lamperti_sampler(process, hurst, grid)(rng)

