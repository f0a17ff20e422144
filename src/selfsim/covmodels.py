"""Exact covariance kernels and stationary autocovariance functions.

Covers fractional Brownian motion (fBm), sub-fractional Brownian motion
(sfBm), fractional Gaussian noise (fGn), and the stationary sequences obtained
from fBm/sfBm by the modified inverse Lamperti rescaling
U(k/n) = n^{-H(k/n-1)} X(n^{k/n-1}).
"""

from __future__ import annotations

import math

import numpy as np

from .core import ParameterError

__all__ = [
    "fbm_cov",
    "sfbm_cov",
    "fgn_acf",
    "lamperti_acf",
]


def _check_hurst(hurst: float) -> float:
    if not (0.0 < hurst < 1.0):
        raise ParameterError(f"Hurst parameter must lie in (0, 1), got {hurst}")
    return float(hurst)


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


def fgn_acf(k, n: int, hurst: float):
    """Autocovariance of the fBm increment sequence on the 1/n grid at lag k (int or array).

    For k >= 2 the second difference (k+1)^2H + (k-1)^2H - 2 k^2H is taken as
    k^2H (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))), which does not cancel k^2H.
    """
    h2 = 2.0 * _check_hurst(hurst)
    # numpy's scalar loops round unlike its array loops, so every ACF computes on a
    # 1-d array of lags and returns k's shape: a lag alone gets the bits of its row entry
    lag = np.abs(np.atleast_1d(k))
    far = np.maximum(lag, 2.0)
    tail = far**h2 * (np.expm1(h2 * np.log1p(1.0 / far)) + np.expm1(h2 * np.log1p(-1.0 / far)))
    near = (lag + 1.0) ** h2 + np.abs(lag - 1.0) ** h2 - 2.0 * lag**h2
    return (0.5 * np.where(lag < 2, near, tail) / n**h2).reshape(np.shape(k))[()]


def lamperti_acf(process: str, k, n: int, hurst: float):
    """Autocovariance at lag k (int or array) of the inverse-Lamperti rescaling
    of a process, fbm or sfbm: Cov(U(0), U(k/n)) = c(n^-x, n^x) with x = k / (2n),
    c the process's covariance.

    For fbm rho(k) = ((n^{-Hk/n} + n^{Hk/n}) - (n^{k/(2n)} - n^{-k/(2n)})^{2H}) / 2,
    so rho(0) = 1 (the rescaled sequence has unit variance); for sfbm
    rho(0) = 2 - 2^{2H-1}, the variance of sfBm at t = 1.
    """
    x = np.abs(np.atleast_1d(k)) * (math.log(n) / (2.0 * n))
    return _covariance(process)(np.exp(-x), np.exp(x), hurst).reshape(np.shape(k))[()]


_COVARIANCES = {"fbm": fbm_cov, "sfbm": sfbm_cov}


def _covariance(process: str):
    """The covariance c(s, t, hurst) of a named process: fbm or sfbm."""
    if process not in _COVARIANCES:
        raise ParameterError(f"unknown process {process!r}")
    return _COVARIANCES[process]
