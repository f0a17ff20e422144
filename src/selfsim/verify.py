"""Statistical verification harness: every check, each a function of a batch (or
two, or a list of grid sizes) with its rule fixed here. Covariance and marginal
variance against the law the batch names, marginal normality, cross-method
equivalence, the one-dimensional scaling law, and the error-bound verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import ParameterError, ReplicateBatch
from .covmodels import _covariance
from .lamperti import error_bound_diagnostics

__all__ = [
    "VerificationReport",
    "empirical_covariance",
    "covariance_match",
    "marginal_variance_profile",
    "normality_check",
    "method_equivalence",
    "quantile_scaling_check",
    "error_bound_check",
]

# The Kolmogorov-Smirnov rule D <= KS_CRIT_1PCT / sqrt(M): the asymptotic 1% point for a
# fully specified law. D of data standardized by their own mean and sd is smaller
# (Lilliefors): its 1% point is about 1.05 / sqrt(M), so exact data almost never fail.
KS_CRIT_1PCT = 1.63

# The tolerance of every standard-error check, in standard errors.
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
    def of(cls, check, batch, count, verdict, worst, tolerance, details, **fields):
        """The report of `check` on the `count` paths of `batch`'s law: method,
        process, hurst and n are the batch's unless `fields` overrides them."""
        fields = {
            "method": batch.method,
            "process": batch.process,
            "hurst": batch.hurst,
            "n": batch.n,
            **fields,
        }
        return cls(
            check,
            m_replicates=count,
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


def empirical_covariance(batch, node_pairs):
    """Sample covariance and standard error at 1-based (j, k) node pairs of a batch,
    or of the blocks of one law (`_blocks`), of at least 100 paths."""
    _, _, values = _columns(batch, lambda n: np.arange(1, n + 1), 100)
    cov = _sample_cov(values)
    se = _cov_se(cov, len(values))
    idx = np.array([(j - 1, k - 1) for j, k in node_pairs])
    return cov[idx[:, 0], idx[:, 1]], se[idx[:, 0], idx[:, 1]]


def _grid_nodes(n: int) -> np.ndarray:
    stride = 1 if n <= STRIDE_THRESHOLD else 4
    return np.arange(stride, n + 1, stride)


def _ks_nodes(n: int) -> list[int]:
    return sorted({max(1, n // 4), max(1, n // 2), n})


def _band_report(check, batch, count, deviation, detail, **fields) -> VerificationReport:
    """A pass iff at least 95% of `deviation` is within the tolerance and none of it
    beyond twice that; `detail` gains the fraction within."""
    tolerance = DEFAULT_TOL_MULTIPLIER
    worst = float(deviation.max())
    within = float(np.mean(deviation <= tolerance))
    verdict = bool(within >= 0.95 and worst <= 2.0 * tolerance)
    details = [{**detail, "fraction_within": within}]
    return VerificationReport.of(check, batch, count, verdict, worst, tolerance, details, **fields)


def _blocks(batch, minimum):
    """The blocks of `batch`, one at a time: a batch is one block, and an iterable such as
    `core.generate_blocks` yields the blocks of one law. A block of another (process,
    method, hurst, n) than the first is refused, and so are fewer than `minimum` paths in
    all, no block included: every check's path minimum, enforced after the last block."""
    first, m = None, 0
    for block in [batch] if isinstance(batch, ReplicateBatch) else batch:
        law = (block.process, block.method, block.hurst, block.n)
        first = first or law
        if law != first:
            raise ParameterError(
                f"a block of (process, method, hurst, n) = {law} in a check of {first}"
            )
        m += block.count
        yield block
    if m < minimum:
        raise ParameterError(f"need at least {minimum} replicates, got {m}")


def _columns(batch, nodes, minimum) -> tuple[ReplicateBatch, list | np.ndarray, np.ndarray]:
    """The first of the blocks of `batch` (`_blocks`, at least `minimum` paths), the
    1-based nodes(n), and the blocks' columns at them stacked in one
    (count, len(nodes(n))) array; no other block is kept."""
    first, parts = None, []
    for block in _blocks(batch, minimum):
        first = first or block
        parts.append(block.values[:, np.subtract(nodes(block.n), 1)])
    return first, nodes(first.n), np.concatenate(parts)


def _target(batch: ReplicateBatch, s, t):
    """c(s, t) of the law the batch names: its process's covariance at its H,
    bm being fBm at H = 1/2."""
    return _covariance("fbm" if batch.process == "bm" else batch.process)(s, t, batch.hurst)


def covariance_match(batch) -> VerificationReport:
    """Empirical covariance on a subgrid (stride 4 above `STRIDE_THRESHOLD` nodes)
    versus the exact covariance of the law the batch names (`_target`). A batch, or
    the blocks of one law (`_blocks`) of at least 100 paths, of which only the
    subgrid's columns are kept.

    Passes iff at least 95% of entries deviate by no more than
    `DEFAULT_TOL_MULTIPLIER` standard errors and none by more than twice that.
    """
    first, nodes, values = _columns(batch, _grid_nodes, 100)
    m = len(values)
    cov = _sample_cov(values)
    times = nodes / first.n
    deviation = np.abs(cov - _target(first, times[:, None], times[None, :])) / _cov_se(cov, m)
    return _band_report("covariance-match", first, m, deviation, {"nodes": nodes.tolist()})


def _node_moments(batch, minimum) -> tuple[ReplicateBatch, int, np.ndarray]:
    """The first of the blocks of `batch` (`_blocks`, at least `minimum` paths), their
    total row count and each node's sum of squared deviations M2, with no block kept.

    (count, mean, M2) is merged over row blocks of at most `core._BLOCK_NORMALS`
    floats by the pairwise update of Chan, Golub & LeVeque (Amer. Statist. 37:242,
    1983). A row block's M2 is `np.var`'s two-pass sum, so rows that fit in one
    row block keep `values.var(axis=0, ddof=1)`'s bits. The merged means are taken
    relative to the first row block's mean, each corrected by its block's sum of
    residuals, so a mean far from zero costs no accuracy.
    """
    first, m, m2 = None, 0, None
    for block in _blocks(batch, minimum):
        if first is None:
            first, shift = block, None
            rows = max(1, core._BLOCK_NORMALS // block.n)
            buf, mean, m2 = np.empty((rows, block.n)), np.zeros(block.n), np.zeros(block.n)
        for start in range(0, block.count, rows):
            chunk = block.values[start : start + rows]
            k = len(chunk)
            mean_k = chunk.sum(axis=0) / k
            if shift is None:
                shift = mean_k
            y = np.subtract(chunk, mean_k, out=buf[:k])
            delta = (mean_k - shift) + y.sum(axis=0) / k - mean
            y *= y
            mean += delta * (k / (m + k))
            m2 += y.sum(axis=0) + delta * delta * (m * k / (m + k))
            m += k
    return first, m, m2


def marginal_variance_profile(batch) -> VerificationReport:
    """Empirical per-node variance of a batch, or of the blocks of one law that an
    iterable such as `core.generate_blocks` yields, against the exact marginal
    profile c(t, t) of the law they name (`_target`).

    The variance merges the moments of row blocks (`_node_moments`), so blocks
    drawn one at a time are judged without their (count, n) batch. Returns a
    VerificationReport whose details carry one record per node with the
    estimate, target, and standard error Var * sqrt(2/M), M the total row count,
    at least 2 for a sample variance. Passes iff no node deviates by more than
    `DEFAULT_TOL_MULTIPLIER` standard errors.
    """
    first, m, m2 = _node_moments(batch, 2)
    t = first.grid.times()
    target = _target(first, t, t)
    estimate = m2 / (m - 1)
    se = target * math.sqrt(2.0 / m)
    deviation = np.abs(estimate - target) / se
    columns = zip(t.tolist(), estimate.tolist(), target.tolist(), se.tolist(), deviation.tolist())
    details = [
        {"node": j, "t": t_j, "estimate": e, "target": c, "se": s, "deviation_se": d}
        for j, (t_j, e, c, s, d) in enumerate(columns, start=1)
    ]
    worst = float(deviation.max())
    tolerance = DEFAULT_TOL_MULTIPLIER
    return VerificationReport.of(
        "marginal-variance", first, m, bool(worst <= tolerance), worst, tolerance, details
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


def normality_check(batch) -> VerificationReport:
    """Marginal Gaussianity at the 1-based nodes n/4, n/2 and n (each at least 1) of a batch,
    or of the blocks of one law (`_blocks`) of at least 1000 paths, of which only those
    columns are kept: one KS distance per node in the details, and a pass iff every node is
    within KS_CRIT_1PCT / sqrt(M), a bound well above the 1% point (KS_CRIT_1PCT)."""
    first, nodes, values = _columns(batch, _ks_nodes, 1000)
    m = len(values)
    details = [{"node": j, "ks_distance": ks_distance(x)} for j, x in zip(nodes, values.T)]
    worst = max(d["ks_distance"] for d in details)
    tolerance = KS_CRIT_1PCT / math.sqrt(m)
    return VerificationReport.of(
        "normality", first, m, bool(worst <= tolerance), worst, tolerance, details
    )


def method_equivalence(batch_a, batch_b) -> VerificationReport:
    """Entrywise comparison of two methods' empirical covariances.

    Each is a batch, or the blocks of one law (`_blocks`) of at least 2 paths, of which
    only the subgrid's columns are kept. Deviations are scaled by pooled standard errors;
    the subgrid and the pass rule match covariance_match. When either method is
    lamperti, only variances are compared: it is exact in marginal law only.
    """
    first_a, _, a = _columns(batch_a, _grid_nodes, 2)
    first_b, _, b = _columns(batch_b, _grid_nodes, 2)
    if first_a.n != first_b.n:
        raise ParameterError("batches must share the same grid")
    cov_a, cov_b = _sample_cov(a), _sample_cov(b)
    se = np.sqrt(_cov_se(cov_a, len(a)) ** 2 + _cov_se(cov_b, len(b)) ** 2)
    deviation = np.abs(cov_a - cov_b) / se
    diagonal_only = "lamperti" in (first_a.method, first_b.method)
    if diagonal_only:
        deviation = np.diag(deviation)
    detail = {"baseline": first_b.method, "diagonal_only": diagonal_only}
    method = f"{first_a.method} vs {first_b.method}"
    return _band_report("method-equivalence", first_a, len(a), deviation, detail, method=method)


def _scale_nodes(n: int) -> list[int]:
    if n % 2:
        raise ParameterError(f"the scale 1/2 lands on no grid node of odd n={n}")
    return [n // 2, n]


def quantile_scaling_check(batch) -> VerificationReport:
    """One-dimensional self-similarity at the batch's H and the scale a = 1/2:
    X(a)/a^H should match X(1) in law, so the grid size n must be even. A batch, or the
    blocks of one law (`_blocks`) of at least 100 paths (so that the 5% and 95%
    quantiles rest on five each), of which only the nodes n/2 and n are kept.

    Compares quantiles (5%..95%) of the rescaled node n/2 against node n, with
    paired bootstrap standard errors of the quantile differences (200 draws from
    Philox key 0). Passes iff no difference exceeds `DEFAULT_TOL_MULTIPLIER` of them.
    """
    first, _, values = _columns(batch, _scale_nodes, 100)
    quantiles = np.arange(0.05, 0.951, 0.05)
    x_scaled = values[:, 0] / 0.5**first.hurst
    x_ref = values[:, 1]
    diff = np.quantile(x_scaled, quantiles) - np.quantile(x_ref, quantiles)

    boot_rng = np.random.Generator(np.random.Philox(key=0))
    m = len(values)
    boot_diffs = np.empty((200, quantiles.size))
    for row in boot_diffs:
        idx = boot_rng.integers(0, m, size=m)
        row[:] = np.quantile(x_scaled[idx], quantiles) - np.quantile(x_ref[idx], quantiles)
    se = boot_diffs.std(axis=0, ddof=1)
    deviation = np.abs(diff) / se
    worst = float(deviation.max())
    details = [
        {
            "scale": 0.5,
            "quantiles": [float(q) for q in quantiles],
            "difference": [float(d) for d in diff],
            "se": [float(s) for s in se],
        }
    ]
    tolerance = DEFAULT_TOL_MULTIPLIER
    return VerificationReport.of(
        "quantile-scaling", first, m, bool(worst <= tolerance), worst, tolerance, details
    )


def error_bound_check(n_list, hurst: float) -> VerificationReport:
    """The verdict on the factors `lamperti.error_bound_diagnostics(n_list, hurst)`:
    a(n) and b(n) decrease along n_list, and a falls from the first size to the
    last at least as fast as log(n)/n, with 50% slack. The details are the factor
    records; worst_deviation and tolerance are both the fitted constant
    c1 = max a_rate.
    """
    entries = error_bound_diagnostics(n_list, hurst)
    first, last = entries[0], entries[-1]
    decreasing = all(x[key] > y[key] for key in ("a", "b") for x, y in zip(entries, entries[1:]))
    # a(2) = 0, so the rate is compared by multiplying, not dividing, by a
    expected_ratio = (np.log(last["n"]) / last["n"]) / (np.log(first["n"]) / first["n"])
    rate_ok = last["a"] < expected_ratio * 1.5 * first["a"]
    c1 = max(e["a_rate"] for e in entries)
    verdict = bool(decreasing and rate_ok)
    return VerificationReport(
        "error-bound", "lamperti", "any", hurst, last["n"], 0, verdict, c1, c1, entries
    )
