"""Exact covariance kernels and stationary autocovariance functions.

Covers fractional Brownian motion (fBm), sub-fractional Brownian motion
(sfBm), fractional Gaussian noise (fGn), and the stationary sequences obtained
from fBm/sfBm by the modified inverse Lamperti rescaling
U(k/n) = n^{-H(k/n-1)} X(n^{k/n-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ParameterError

__all__ = [
    "CovarianceKernel",
    "fbm_cov",
    "sfbm_cov",
    "fgn_acf",
    "lamperti_acf_fbm",
    "lamperti_acf_sfbm",
    "fbm_kernel",
    "sfbm_kernel",
    "make_kernel",
]


def _check_hurst(hurst: float) -> float:
    if not (0.0 < hurst < 1.0):
        raise ParameterError(f"Hurst parameter must lie in (0, 1), got {hurst}")
    return float(hurst)


def _npow(n: int, c: float) -> float:
    # n**c as exp(c * ln n); exponents are assembled in full precision by
    # callers, so cancellation-prone terms like n^{k/(2n)} - n^{-k/(2n)}
    # lose at most one ulp each.
    return math.exp(c * math.log(n))


def fbm_cov(s, t, hurst: float):
    """Covariance of fBm: (|t|^2H + |s|^2H - |t-s|^2H) / 2.

    s and t may be floats or numpy arrays that broadcast together.
    """
    h2 = 2.0 * _check_hurst(hurst)
    return 0.5 * (abs(t) ** h2 + abs(s) ** h2 - abs(t - s) ** h2)


def sfbm_cov(s, t, hurst: float):
    """Covariance of sfBm: t^2H + s^2H - ((t+s)^2H + |t-s|^2H) / 2.

    s and t may be floats or numpy arrays that broadcast together.
    """
    h2 = 2.0 * _check_hurst(hurst)
    return t**h2 + s**h2 - 0.5 * ((t + s) ** h2 + abs(t - s) ** h2)


def fgn_acf(k: int, n: int, hurst: float) -> float:
    """Autocovariance of the fBm increment sequence on the 1/n grid at lag k."""
    h2 = 2.0 * _check_hurst(hurst)
    k = abs(int(k))
    return 0.5 * (abs(k + 1) ** h2 + abs(k - 1) ** h2 - 2.0 * k**h2) / n**h2


def lamperti_acf_fbm(k: int, n: int, hurst: float) -> float:
    """Autocovariance at lag k of the inverse-Lamperti rescaling of fBm.

    rho(k) = ((n^{-Hk/n} + n^{Hk/n}) - (n^{k/(2n)} - n^{-k/(2n)})^{2H}) / 2,
    so rho(0) = 1 (the rescaled sequence has unit variance).
    """
    hurst = _check_hurst(hurst)
    k = abs(int(k))
    x = k / (2.0 * n)
    gap = _npow(n, x) - _npow(n, -x)
    return 0.5 * (_npow(n, -2.0 * hurst * x) + _npow(n, 2.0 * hurst * x) - gap ** (2.0 * hurst))


def lamperti_acf_sfbm(k: int, n: int, hurst: float) -> float:
    """Autocovariance at lag k of the inverse-Lamperti rescaling of sfBm.

    rho(0) = 2 - 2^{2H-1}, the variance of sfBm at t = 1.
    """
    hurst = _check_hurst(hurst)
    k = abs(int(k))
    x = k / (2.0 * n)
    lo, hi = _npow(n, -x), _npow(n, x)
    return (
        _npow(n, -2.0 * hurst * x)
        + _npow(n, 2.0 * hurst * x)
        - 0.5 * ((lo + hi) ** (2.0 * hurst) + (hi - lo) ** (2.0 * hurst))
    )


_COVARIANCES = {"fbm": fbm_cov, "sfbm": sfbm_cov}


@dataclass(frozen=True)
class CovarianceKernel:
    """A bivariate covariance c(s, t) of a named process: fbm or sfbm."""

    process: str
    hurst: float

    def gram(self, times: np.ndarray) -> np.ndarray:
        """Gram matrix on a vector of time points (vectorized)."""
        t = np.asarray(times, dtype=float)
        return _COVARIANCES[self.process](t[:, None], t[None, :], self.hurst)


def fbm_kernel(hurst: float) -> CovarianceKernel:
    return make_kernel("fbm", hurst)


def sfbm_kernel(hurst: float) -> CovarianceKernel:
    return make_kernel("sfbm", hurst)


def make_kernel(process: str, hurst: float) -> CovarianceKernel:
    if process not in _COVARIANCES:
        raise ParameterError(f"no covariance kernel for process {process!r}")
    return CovarianceKernel(process, _check_hurst(hurst))
