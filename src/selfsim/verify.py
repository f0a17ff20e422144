"""Statistical verification harness: empirical moments against exact
covariance oracles, marginal normality, cross-method equivalence, and the
one-dimensional scaling-law check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ParameterError, ReplicateBatch
from .covmodels import CovarianceKernel

__all__ = [
    "VerificationReport",
    "empirical_covariance",
    "covariance_match",
    "normality_check",
    "method_equivalence",
    "quantile_scaling_check",
]

# Asymptotic 1% Kolmogorov-Smirnov critical value: D <= KS_CRIT / sqrt(M).
KS_CRIT_1PCT = 1.63

DEFAULT_TOL_MULTIPLIER = 4.0

# Full-grid covariance comparisons above this size use a stride-4 subgrid.
STRIDE_THRESHOLD = 64


@dataclass(frozen=True)
class VerificationReport:
    """Structured pass/fail result of one statistical check."""

    check: str
    method: str
    process: str
    hurst: float
    n: int
    m_replicates: int
    verdict: bool
    worst_deviation: float
    tolerance: float
    details: list = field(default_factory=list)

    @classmethod
    def of(cls, check, batch, verdict, worst, tolerance, details, **fields):
        """The report of `check` on `batch`: method, process, hurst, n and
        m_replicates are the batch's unless `fields` overrides them."""
        fields = {
            "method": batch.method,
            "process": batch.process,
            "hurst": batch.hurst,
            "n": batch.n,
            "m_replicates": batch.count,
            **fields,
        }
        return cls(
            check,
            verdict=verdict,
            worst_deviation=worst,
            tolerance=tolerance,
            details=details,
            **fields,
        )

    def to_dict(self) -> dict:
        # vars, not dataclasses.asdict, whose deep copy of a 256-node profile's
        # details costs milliseconds: the details list is shared, not copied
        return {**vars(self), "verdict": "pass" if self.verdict else "fail"}


def _sample_cov(values: np.ndarray) -> np.ndarray:
    centered = values - values.mean(axis=0)
    return centered.T @ centered / (values.shape[0] - 1)


def _cov_se(cov: np.ndarray, m: int) -> np.ndarray:
    # Gaussian fourth-moment formula with plug-in estimates:
    # Var(c_hat_jk) = (c_jj c_kk + c_jk^2) / M.
    diag = np.diag(cov)
    return np.sqrt((np.outer(diag, diag) + cov**2) / m)


def empirical_covariance(batch: ReplicateBatch, node_pairs):
    """Sample covariance and standard error at 1-based (j, k) node pairs."""
    if batch.count < 100:
        raise ParameterError("need at least 100 replicates for covariance estimates")
    values = batch.values
    cov = _sample_cov(values)
    se = _cov_se(cov, batch.count)
    idx = np.array([(j - 1, k - 1) for j, k in node_pairs])
    return cov[idx[:, 0], idx[:, 1]], se[idx[:, 0], idx[:, 1]]


def _grid_nodes(n: int, stride: int | None) -> np.ndarray:
    if stride is None:
        stride = 1 if n <= STRIDE_THRESHOLD else 4
    return np.arange(stride, n + 1, stride) - 1


def _band_verdict(deviation: np.ndarray, multiplier: float) -> tuple[bool, float]:
    worst = float(deviation.max())
    within = float(np.mean(deviation <= multiplier))
    return bool(within >= 0.95 and worst <= 2.0 * multiplier), worst


def _band_report(check, batch, deviation, multiplier, detail, **fields) -> VerificationReport:
    """The `_band_verdict` report; `detail` gains the fraction within `multiplier`."""
    verdict, worst = _band_verdict(deviation, multiplier)
    details = [{**detail, "fraction_within": float(np.mean(deviation <= multiplier))}]
    return VerificationReport.of(check, batch, verdict, worst, multiplier, details, **fields)


def covariance_match(
    batch: ReplicateBatch,
    kernel: CovarianceKernel,
    tol_multiplier: float = DEFAULT_TOL_MULTIPLIER,
    stride: int | None = None,
) -> VerificationReport:
    """Empirical covariance versus the exact kernel on a (strided) subgrid.

    Passes iff at least 95% of entries deviate by no more than
    tol_multiplier standard errors and none by more than twice that.
    """
    if batch.count < 100:
        raise ParameterError("need at least 100 replicates")
    n = batch.n
    nodes = _grid_nodes(n, stride)
    values = batch.values[:, nodes]
    cov = _sample_cov(values)
    se = _cov_se(cov, batch.count)
    times = (nodes + 1) / n
    target = kernel.gram(times)
    deviation = np.abs(cov - target) / se
    detail = {"nodes": [int(v + 1) for v in nodes]}
    return _band_report(
        "covariance-match",
        batch,
        deviation,
        tol_multiplier,
        detail,
        process=kernel.process,
        hurst=kernel.hurst,
    )


def ks_distance(sample: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of standardized data to the standard normal,
    whose CDF is Phi(z) = erfc(-z / sqrt 2) / 2."""
    z = np.sort((sample - sample.mean()) / sample.std(ddof=1))
    m = z.size
    cdf = 0.5 * np.array([math.erfc(v) for v in (-z / math.sqrt(2.0)).tolist()])
    upper = np.max(np.arange(1, m + 1) / m - cdf)
    lower = np.max(cdf - np.arange(0, m) / m)
    return float(max(upper, lower))


def normality_check(batch: ReplicateBatch, node: int) -> VerificationReport:
    """Marginal Gaussianity at a 1-based node, at the asymptotic 1% level."""
    if batch.count < 1000:
        raise ParameterError("need at least 1000 replicates for the KS check")
    values = batch.values[:, node - 1]
    distance = ks_distance(values)
    tolerance = KS_CRIT_1PCT / math.sqrt(batch.count)
    details = [{"node": int(node), "ks_distance": distance}]
    return VerificationReport.of(
        "normality", batch, bool(distance <= tolerance), distance, tolerance, details
    )


def method_equivalence(
    batch_a: ReplicateBatch,
    batch_b: ReplicateBatch,
    tol_multiplier: float = DEFAULT_TOL_MULTIPLIER,
    stride: int | None = None,
    diagonal_only: bool = False,
) -> VerificationReport:
    """Entrywise comparison of two methods' empirical covariances.

    Deviations are scaled by pooled standard errors; the pass rule matches
    covariance_match. With diagonal_only, only variances are compared (the
    right scope for methods that are exact in marginal law only).
    """
    if batch_a.n != batch_b.n:
        raise ParameterError("batches must share the same grid")
    if min(batch_a.count, batch_b.count) < 2:
        raise ParameterError("need at least 2 replicates in each batch for sample covariances")
    n = batch_a.n
    nodes = _grid_nodes(n, stride)
    cov_a = _sample_cov(batch_a.values[:, nodes])
    cov_b = _sample_cov(batch_b.values[:, nodes])
    se = np.sqrt(_cov_se(cov_a, batch_a.count) ** 2 + _cov_se(cov_b, batch_b.count) ** 2)
    deviation = np.abs(cov_a - cov_b) / se
    if diagonal_only:
        deviation = np.diag(deviation)
    detail = {"baseline": batch_b.method, "diagonal_only": bool(diagonal_only)}
    method = f"{batch_a.method} vs {batch_b.method}"
    return _band_report(
        "method-equivalence", batch_a, deviation, tol_multiplier, detail, method=method
    )


def quantile_scaling_check(
    batch: ReplicateBatch,
    scale: float,
    hurst: float,
    tol_multiplier: float = 4.0,
    quantiles: np.ndarray | None = None,
    n_bootstrap: int = 200,
    bootstrap_seed: int = 0,
) -> VerificationReport:
    """One-dimensional self-similarity: X(a)/a^H should match X(1) in law.

    Compares quantiles (5%..95%) of the rescaled node a*n against node n,
    with paired bootstrap standard errors of the quantile differences.
    """
    n = batch.n
    j = int(round(scale * n))
    if not (1 <= j <= n) or abs(scale * n - j) > 1e-9:
        raise ParameterError(f"scale {scale} does not land on a grid node of n={n}")
    if quantiles is None:
        quantiles = np.arange(0.05, 0.951, 0.05)
    values = batch.values
    x_scaled = values[:, j - 1] / scale**hurst
    x_ref = values[:, n - 1]
    q_scaled = np.quantile(x_scaled, quantiles)
    q_ref = np.quantile(x_ref, quantiles)
    diff = q_scaled - q_ref

    boot_rng = np.random.Generator(np.random.Philox(key=bootstrap_seed))
    m = batch.count
    boot_diffs = np.empty((n_bootstrap, quantiles.size))
    for b in range(n_bootstrap):
        idx = boot_rng.integers(0, m, size=m)
        boot_diffs[b] = np.quantile(x_scaled[idx], quantiles) - np.quantile(
            x_ref[idx], quantiles
        )
    se = boot_diffs.std(axis=0, ddof=1)
    deviation = np.abs(diff) / se
    worst = float(deviation.max())
    details = [
        {
            "scale": float(scale),
            "quantiles": [float(q) for q in quantiles],
            "difference": [float(d) for d in diff],
            "se": [float(s) for s in se],
        }
    ]
    verdict = bool(worst <= tol_multiplier)
    return VerificationReport.of(
        "quantile-scaling", batch, verdict, worst, tol_multiplier, details, hurst=hurst
    )
