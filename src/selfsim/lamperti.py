"""Modified inverse Lamperti pipeline: simulate a stationary sequence with
the rescaled autocovariance, then map it back to a self-similar path on the
uniform grid, with deterministic error-bound diagnostics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, LinearSampler, ParameterError, ReplicateBatch, RngStream, SamplePath
from .covmodels import _COVARIANCES, _check_hurst, lamperti_acf_fbm, lamperti_acf_sfbm
from .samplers import _circulant_sampler
from .verify import VerificationReport

__all__ = [
    "LampertiGridMap",
    "grid_map",
    "lamperti_sampler",
    "simulate_lamperti",
    "marginal_variance_profile",
    "error_bound_diagnostics",
]

# Snap map arguments this close to an integer before flooring, so log/exp
# roundoff cannot flip the index at exact dyadic points.
_SNAP_TOL = 1e-9


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
    """The map of `simulate_lamperti`: circulant draw, gather, t^H scaling."""
    hurst = float(hurst)
    if process not in ("fbm", "sfbm"):
        raise ParameterError(f"lamperti method supports fbm and sfbm, not {process!r}")
    index, scale = grid_map(grid.n).index, grid.times() ** hurst
    # The stationary sequence is sampled at indices 0..n: the map sends
    # j = 1 to index 0, so one extra lag of the autocovariance is needed.
    #
    # The rescaled autocovariance grows with the lag, so enlarging the
    # embedding only makes it more indefinite; the negative eigenvalues
    # are clamped to zero at the minimal embedding instead (the
    # nonnegative-definite part of the circulant). For fbm the clamp fires
    # from about H = 0.72 on and is not small: at n = 256 it zeroes 209 of
    # 512 eigenvalues at H = 0.8 and 249 at H = 0.95, which raises Var U by
    # the spectrum's `clamped_mass`, 2.298e-4 and 1.284e-3. For sfbm the relative
    # rise shrinks with n: 2.15e-3 at n = 16 and 2.53e-5 at n = 256 (H = 0.99).
    acf = lamperti_acf_fbm if process == "fbm" else lamperti_acf_sfbm
    finish = lambda y: scale * np.take(y, index, axis=1)
    return _circulant_sampler(grid, "lamperti", process, hurst, acf, grid.n + 1, finish)


def simulate_lamperti(
    process: str,
    hurst: float,
    grid: GridSpec,
    rng: RngStream,
) -> SamplePath:
    """Sample a self-similar path by rescaling a stationary sequence.

    The stationary sequence U(k/n), k = 0..n, is drawn by circulant
    embedding of the rescaled autocovariance; the output is
    X(j/n) = (j/n)^H U(g(j)/n). The joint law is approximate. Marginals
    match the target law exactly only when no eigenvalue of the embedding
    is clamped (``info["clamped_count"] == 0``). For fbm with H above about
    0.72 the clamp inflates Var U, and so every marginal variance, by a
    relative 2.298e-4 at H = 0.8 and 1.284e-3 at H = 0.95 (n = 256).
    """
    return lamperti_sampler(process, hurst, grid)(rng)


def marginal_variance_profile(
    batch: ReplicateBatch, process: str, hurst: float, tol_multiplier: float = 4.0
):
    """Empirical per-node variance against the exact marginal profile c(t, t) of the
    process's covariance (bm is fBm at H = 1/2).

    Returns a VerificationReport whose details carry one record per node
    with the estimate, target, and standard error Var * sqrt(2/M); a sample
    variance needs at least 2 replicates.
    """
    cov = _COVARIANCES.get("fbm" if process == "bm" else process)
    if cov is None:
        raise ParameterError(f"unknown process {process!r}")
    values = batch.values
    m, n = values.shape
    if m < 2:
        raise ParameterError(f"need at least 2 replicates for sample variances, got {m}")
    t = np.arange(1, n + 1, dtype=float) / n
    target = cov(t, t, hurst)
    estimate = values.var(axis=0, ddof=1)
    se = target * math.sqrt(2.0 / m)
    deviation = np.abs(estimate - target) / se
    details = [
        {
            "node": int(j + 1),
            "t": float(t[j]),
            "estimate": float(estimate[j]),
            "target": float(target[j]),
            "se": float(se[j]),
            "deviation_se": float(deviation[j]),
        }
        for j in range(n)
    ]
    worst = float(deviation.max())
    return VerificationReport(
        check="marginal-variance",
        method=batch.method,
        process=process,
        hurst=hurst,
        n=n,
        m_replicates=m,
        verdict=bool(worst <= tol_multiplier),
        worst_deviation=worst,
        tolerance=tol_multiplier,
        details=details,
    )


def error_bound_diagnostics(n_list, hurst: float) -> dict:
    """Deterministic factors of the approximation error bound.

    For each n: a(n) = max_j |n^{H theta(j)/n} - 1| and
    b(n) = max_j |n^{-theta(j)/n} - 1|, both O(log(n)/n) by the mean value
    theorem. Reports the fitted constants sup_n a(n) n / log n (and the b
    analogue) and whether a, b decrease along the list. H must lie in (0, 1).
    """
    hurst = _check_hurst(hurst)
    entries = []
    for n in n_list:
        n = int(n)
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
