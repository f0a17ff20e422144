"""Gaussian path samplers: Brownian cumulative sum, exact Cholesky,
Davies-Harte FFT, Wood-Chan circulant embedding, and the truncated
moving-average baseline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.linalg import lapack

from .core import GridSpec, LinearSampler, ParameterError, RngStream, SamplePath
from .covmodels import CovarianceKernel, _check_hurst, fgn_acf, make_kernel

__all__ = [
    "CirculantSpectrum",
    "CholeskyFactor",
    "EmbeddingError",
    "NotPositiveDefiniteError",
    "bm_sampler",
    "cholesky_sampler",
    "davies_harte_sampler",
    "wood_chan_sampler",
    "ma_sampler",
    "sample_bm",
    "cholesky_factor",
    "cholesky_sample",
    "circulant_spectrum",
    "circulant_sample",
    "davies_harte_fbm",
    "wood_chan_fbm",
    "ma_truncated_fbm",
    "normalizing_constant_CH",
]

# Roundoff eigenvalues down to -EIG_REL_TOL * max are clamped to zero;
# anything lower is treated as genuine indefiniteness and triggers doubling.
EIG_REL_TOL = 1e-9
MAX_DOUBLINGS = 6

# Jitter escalation (times max diagonal) before Cholesky gives up.
JITTER_LADDER = (0.0, 1e-14, 1e-12, 1e-10)

MA_DEFAULT_TRUNCATION = 50.0
MA_DEFAULT_SUBSTEPS = 8


class EmbeddingError(RuntimeError):
    """Circulant embedding stayed indefinite up to the size cap."""


class NotPositiveDefiniteError(RuntimeError):
    """Cholesky failed even after the jitter ladder."""

    def __init__(self, pivot: int, message: str) -> None:
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class CirculantSpectrum:
    """Nonnegative eigenvalues of the embedding circulant, plus repair info."""

    m: int
    eigenvalues: np.ndarray
    clamped_count: int
    doublings: int

    def __post_init__(self) -> None:
        eig = np.asarray(self.eigenvalues, dtype=float)
        eig.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)
        if eig.shape != (self.m,):
            raise ValueError("eigenvalue vector length must equal m")
        if eig.min(initial=0.0) < 0.0:
            raise ValueError("stored eigenvalues must be nonnegative")


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor with L L^T = gram + jitter * I."""

    n: int
    lower: np.ndarray
    jitter: float


def _rowwise(matrix: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """z -> matrix @ z one row at a time, so a path's bits do not depend on its block."""
    return lambda z: np.array([matrix @ row for row in z])


@functools.lru_cache(maxsize=64)
def bm_sampler(grid: GridSpec) -> LinearSampler:
    """Brownian motion as the cumulative sum of N(0, 1/n) white noise."""
    n = grid.n
    draw = lambda z: np.cumsum(z / math.sqrt(n), axis=1)
    return LinearSampler(grid, "bm-cumsum", "bm", 0.5, lambda: (n, draw, {}))


def sample_bm(grid: GridSpec, rng: RngStream) -> SamplePath:
    """Brownian motion as the cumulative sum of N(0, 1/n) white noise."""
    return bm_sampler(grid)(rng)


def cholesky_factor(gram: np.ndarray) -> CholeskyFactor:
    """Factor a symmetric Gram matrix, escalating diagonal jitter on failure."""
    gram = np.asarray(gram, dtype=float)
    n = gram.shape[0]
    if gram.shape != (n, n):
        raise ParameterError("gram must be square")
    if not np.allclose(gram, gram.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(gram).max())):
        raise ParameterError("gram must be symmetric")
    max_diag = float(np.diag(gram).max(initial=0.0))
    pivot = 0
    for level in JITTER_LADDER:
        jitter = level * max_diag
        target = gram if jitter == 0.0 else gram + jitter * np.eye(n)
        c, info = lapack.dpotrf(target, lower=1)
        if info == 0:
            return CholeskyFactor(n=n, lower=np.tril(c), jitter=jitter)
        pivot = int(info)
    raise NotPositiveDefiniteError(
        pivot,
        f"matrix is not positive definite: pivot {pivot} failed even with "
        f"jitter {JITTER_LADDER[-1]:g} * max diagonal",
    )


@functools.lru_cache(maxsize=64)
def _cached_factor(process: str, hurst: float, n: int) -> CholeskyFactor:
    kernel = make_kernel(process, hurst)
    return cholesky_factor(kernel.gram(GridSpec(n).times()))


@functools.lru_cache(maxsize=64)
def cholesky_sampler(kernel: CovarianceKernel, grid: GridSpec) -> LinearSampler:
    """Exact joint sampling of (X(1/n), ..., X(1)) via L z."""

    def plan():
        factor = _cached_factor(kernel.process, kernel.hurst, grid.n)
        return grid.n, _rowwise(factor.lower), {"jitter": factor.jitter}

    return LinearSampler(grid, "cholesky", kernel.process, kernel.hurst, plan)


def cholesky_sample(kernel: CovarianceKernel, grid: GridSpec, rng: RngStream) -> SamplePath:
    """Exact joint sampling of (X(1/n), ..., X(1)) via L z."""
    return cholesky_sampler(kernel, grid)(rng)


def circulant_spectrum(
    rho: Callable[[int], float],
    length: int,
    *,
    rel_tol: float = EIG_REL_TOL,
    max_doublings: int = MAX_DOUBLINGS,
    clamp_all: bool = False,
) -> CirculantSpectrum:
    """Embed the Toeplitz covariance of a length-`length` stationary sequence
    in a circulant and return its (repaired) eigenvalue vector.

    The first circulant row folds the lag function: c_j = rho(j) for
    j <= m/2 and c_j = rho(m - j) above; rho must extend past lag `length`
    by its formula, since doubling grows m.
    Eigenvalues below -rel_tol * max trigger doubling of m (unless
    `clamp_all`, which clamps every negative, as the fixed-size Davies-Harte
    variant does); residual negatives within tolerance are clamped to zero.
    """
    if length < 2:
        raise ParameterError("stationary sequence length must be >= 2")
    m_min = 2 * (length - 1)
    for doublings in range(max_doublings + 1):
        m = m_min << doublings
        half = m // 2
        lags = np.minimum(np.arange(m), m - np.arange(m))
        row = np.array([rho(int(k)) for k in range(half + 1)])
        eig = np.fft.fft(row[lags]).real
        eig_max = float(eig.max())
        floor = -rel_tol * eig_max
        if clamp_all or eig.min() >= floor:
            negative = eig < 0.0
            clamped = int(np.count_nonzero(negative))
            eig = np.where(negative, 0.0, eig)
            return CirculantSpectrum(
                m=m, eigenvalues=eig, clamped_count=clamped, doublings=doublings
            )
    raise EmbeddingError(
        f"circulant embedding still indefinite at m = {m} "
        f"(most negative eigenvalue {eig.min():.3e}, tolerance {floor:.3e})"
    )


def _circulant_plan(spectrum: CirculantSpectrum, length: int, finish=lambda y: y):
    """(k, draw, info) of `finish` applied to circulant draws of `length` values.

    Each row of m normals becomes a Hermitian-symmetric complex Gaussian
    vector, weighted by the square roots of the eigenvalues and passed
    through one FFT; the first `length` real coordinates have the
    (clamp-adjusted) target autocovariance.
    """
    m = spectrum.m
    half = m // 2
    if length > half + 1:
        raise ParameterError("requested length exceeds the embedding capacity")
    weights = np.sqrt(spectrum.eigenvalues / m)

    def draw(z):
        w = np.zeros(z.shape, dtype=complex)
        w[:, 0] = z[:, 0]
        w[:, half] = z[:, 1]
        if half > 1:
            a = z[:, 2 : half + 1]
            b = z[:, half + 1 : m]
            w[:, 1:half] = (a + 1j * b) / math.sqrt(2.0)
            w[:, half + 1 :] = np.conj(w[:, 1:half][:, ::-1])
        w *= weights
        return finish(np.fft.fft(w, axis=1).real[:, :length])

    return m, draw, {
        "clamped_count": spectrum.clamped_count,
        "doublings": spectrum.doublings,
        "embedding_size": m,
    }


def circulant_sample(spectrum: CirculantSpectrum, length: int, rng: RngStream) -> np.ndarray:
    """Draw a stationary Gaussian sequence of the given length (`_circulant_plan`)."""
    _, draw, _ = _circulant_plan(spectrum, length)
    return draw(rng.normals(spectrum.m)[None, :])[0]


@functools.lru_cache(maxsize=64)
def _fgn_spectrum(n: int, hurst: float, max_doublings: int, clamp_all: bool) -> CirculantSpectrum:
    return circulant_spectrum(
        lambda k: fgn_acf(k, n, hurst), n, max_doublings=max_doublings, clamp_all=clamp_all
    )


def _fgn_sampler(grid: GridSpec, hurst: float, method: str, doublings: int) -> LinearSampler:
    """fBm as the cumulative sum of circulant-embedded fGn; "davies-harte"
    clamps at the minimal embedding, the others double it up to `doublings` times."""
    hurst = float(hurst)
    davies = method == "davies-harte"

    def plan():
        if grid.n < 2:
            name = "Davies-Harte" if davies else "circulant embedding"
            raise ParameterError(f"{name} needs n >= 2")
        spectrum = _fgn_spectrum(grid.n, hurst, int(doublings), davies)
        return _circulant_plan(spectrum, grid.n, lambda y: np.cumsum(y, axis=1))

    return LinearSampler(grid, method, "fbm", hurst, plan)


@functools.lru_cache(maxsize=64)
def davies_harte_sampler(grid: GridSpec, hurst: float) -> LinearSampler:
    """The map of `davies_harte_fbm`."""
    return _fgn_sampler(grid, hurst, "davies-harte", 0)


@functools.lru_cache(maxsize=64)
def wood_chan_sampler(
    grid: GridSpec, hurst: float, max_doublings: int = MAX_DOUBLINGS
) -> LinearSampler:
    """The map of `wood_chan_fbm`."""
    return _fgn_sampler(grid, hurst, "circulant", max_doublings)


def davies_harte_fbm(grid: GridSpec, hurst: float, rng: RngStream) -> SamplePath:
    """fBm via FFT synthesis of fGn at the minimal embedding size.

    Negative eigenvalues are clamped to zero rather than repaired by
    enlarging the embedding; the clamped count is surfaced in the metadata.
    """
    return davies_harte_sampler(grid, hurst)(rng)


def wood_chan_fbm(
    grid: GridSpec, hurst: float, rng: RngStream, max_doublings: int = MAX_DOUBLINGS
) -> SamplePath:
    """fBm via circulant embedding with the size-doubling repair policy."""
    return wood_chan_sampler(grid, hurst, max_doublings)(rng)


@functools.lru_cache(maxsize=32)
def normalizing_constant_CH(hurst: float) -> float:
    """The moving-average normalization making Var(B^H(1)) = 1.

    C_H = (I + 1/(2H))^{-1/2} with
    I = integral over v > 0 of ((1+v)^{H-1/2} - v^{H-1/2})^2 dv.
    """
    hurst = _check_hurst(hurst)
    if hurst == 0.5:
        return 1.0
    f = lambda v: ((1.0 + v) ** (hurst - 0.5) - v ** (hurst - 0.5)) ** 2
    head, err1 = integrate.quad(f, 0.0, 1.0, limit=400, epsabs=1e-12, epsrel=1e-11)
    tail, err2 = integrate.quad(f, 1.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-11)
    total = head + tail
    if err1 + err2 > 1e-6 * max(1.0, total):
        raise ArithmeticError(
            f"normalization quadrature did not converge (error {err1 + err2:.3e})"
        )
    return (total + 0.5 / hurst) ** -0.5


@functools.lru_cache(maxsize=16)
def _ma_weights(n: int, hurst: float, truncation: float, substeps: int) -> np.ndarray:
    """Linear map from the white-noise vector to (X(1/n), ..., X(1)).

    Left-point Riemann rule with step 1/(substeps*n) on [-truncation, 1).
    """
    step = 1.0 / (substeps * n)
    n_neg = int(round(truncation * substeps * n))
    u = np.arange(-n_neg, substeps * n, dtype=float) * step
    t = (np.arange(1, n + 1, dtype=float) / n)[:, None]
    uu = u[None, :]
    with np.errstate(invalid="ignore"):
        forward = np.where(uu < t - step / 2, (t - uu) ** (hurst - 0.5), 0.0)
        backward = np.where(uu < 0.0, np.abs(uu) ** (hurst - 0.5), 0.0)
    kernel = np.nan_to_num(forward) - backward
    return normalizing_constant_CH(hurst) * math.sqrt(step) * kernel


def ma_sampler(
    grid: GridSpec,
    hurst: float,
    truncation: float = MA_DEFAULT_TRUNCATION,
    substeps: int = MA_DEFAULT_SUBSTEPS,
) -> LinearSampler:
    """The map x = W z of `ma_truncated_fbm`."""

    def plan():
        checked = _check_hurst(hurst)
        if truncation < 1.0:
            raise ParameterError("truncation horizon must be >= 1")
        if substeps < 1:
            raise ParameterError("substeps must be >= 1")
        weights = _ma_weights(grid.n, checked, float(truncation), int(substeps))
        info = {"truncation": float(truncation), "substeps": int(substeps)}
        return weights.shape[1], _rowwise(weights), info

    return LinearSampler(grid, "ma-truncated", "fbm", float(hurst), plan)


def ma_truncated_fbm(
    grid: GridSpec,
    hurst: float,
    rng: RngStream,
    truncation: float = MA_DEFAULT_TRUNCATION,
    substeps: int = MA_DEFAULT_SUBSTEPS,
) -> SamplePath:
    """fBm baseline from the truncated moving-average integral.

    Truncating the integral at -truncation biases the covariance (most
    visibly for H > 1/2, where the discarded tail decays slowly); this
    sampler exists to make that bias measurable, not to be exact.

    The draw has exactly the covariance W W^T of its weight matrix W, up
    to the Riemann rule. With T = truncation, it lacks
    C_H^2 * integral over v > T of ((s+v)^{H-1/2} - v^{H-1/2}) *
    ((t+v)^{H-1/2} - v^{H-1/2}) dv at (s, t). For large T this is about
    C_H^2 (H-1/2)^2 s t T^{2H-2} / (2-2H). At H = 0.8, T = 50 the
    approximation gives 0.0491 of Var X(1) = 1, against 0.0489 exactly;
    at T = 2 the exact loss is 0.163.
    """
    return ma_sampler(grid, hurst, truncation, substeps)(rng)
