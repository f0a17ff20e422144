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
_GEMM_ROWS = 16  # height of every GEMM of a dense map x = A z (`_dense_map`)


def _in_range(name: str, cast, low: float, value):
    """cast(value) if finite and >= low; CLI casts use it too: a ParameterError is a ValueError."""
    value = cast(value)
    if not low <= value < math.inf:
        raise ParameterError(f"{name} must be finite and >= {low}, got {value}")
    return value


_check_doublings = functools.partial(_in_range, "max_doublings", int, 0)
_check_truncation = functools.partial(_in_range, "truncation horizon", float, 1.0)
_check_substeps = functools.partial(_in_range, "substeps", int, 1)


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


def _dense_map(matrix: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """z -> z @ matrix.T as GEMMs of exactly _GEMM_ROWS rows, zero-padded.

    OpenBLAS picks its kernel by the product's shape, so a row's bits change
    with the height of its GEMM, but not with its position or neighbours at
    one height (a BLAS property, not a numpy guarantee, that the tests pin).
    """

    def draw(z):
        rows = len(z)
        if rows % _GEMM_ROWS:
            z = np.concatenate([z, np.zeros((-rows % _GEMM_ROWS, z.shape[1]))])
        return np.concatenate([b @ matrix.T for b in np.split(z, len(z) // _GEMM_ROWS)])[:rows]

    draw.gemm_rows = _GEMM_ROWS
    return draw


@functools.lru_cache(maxsize=64)
def bm_sampler(grid: GridSpec) -> LinearSampler:
    """Brownian motion as the cumulative sum of N(0, 1/n) white noise."""
    n = grid.n
    draw = lambda z: np.cumsum(z / math.sqrt(n), axis=1)
    return LinearSampler(grid, "bm-cumsum", "bm", 0.5, n, draw, {})


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
def cholesky_sampler(kernel: CovarianceKernel, grid: GridSpec) -> LinearSampler:
    """Exact joint sampling of (X(1/n), ..., X(1)) via L z."""
    # make_kernel validates a kernel built directly from CovarianceKernel
    factor = cholesky_factor(make_kernel(kernel.process, kernel.hurst).gram(grid.times()))
    draw, info = _dense_map(factor.lower), {"jitter": factor.jitter}
    return LinearSampler(grid, "cholesky", kernel.process, kernel.hurst, grid.n, draw, info)


def cholesky_sample(kernel: CovarianceKernel, grid: GridSpec, rng: RngStream) -> SamplePath:
    """Exact joint sampling of (X(1/n), ..., X(1)) via L z."""
    return cholesky_sampler(kernel, grid)(rng)


def circulant_spectrum(
    rho: Callable[[int], float],
    length: int,
    *,
    max_doublings: int | None = MAX_DOUBLINGS,
) -> CirculantSpectrum:
    """Embed the Toeplitz covariance of a length-`length` stationary sequence
    in a circulant and return its (repaired) eigenvalue vector.

    The first circulant row folds the lag function: c_j = rho(j) for
    j <= m/2 and c_j = rho(m - j) above; rho must extend past lag `length`
    by its formula, since doubling grows m.
    With `max_doublings=None` every negative eigenvalue is clamped to zero at
    the minimal m, as the fixed-size Davies-Harte variant does. With an int,
    eigenvalues below -EIG_REL_TOL * max double m, up to that many times, and
    then raise EmbeddingError; residual negatives within tolerance are clamped.
    """
    if length < 2:
        raise ParameterError("stationary sequence length must be >= 2")
    cap = 0 if max_doublings is None else _check_doublings(max_doublings)
    m_min = 2 * (length - 1)
    for doublings in range(cap + 1):
        m = m_min << doublings
        half = m // 2
        lags = np.minimum(np.arange(m), m - np.arange(m))
        row = np.array([rho(int(k)) for k in range(half + 1)])
        eig = np.fft.fft(row[lags]).real
        eig_max = float(eig.max())
        floor = -EIG_REL_TOL * eig_max
        if max_doublings is None or eig.min() >= floor:
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


def _circulant_draw(spectrum: CirculantSpectrum, length: int, finish=lambda y: y):
    """The map of (rows, m) normals to `finish` of (rows, length) circulant draws.

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

    return draw


def circulant_sample(spectrum: CirculantSpectrum, length: int, rng: RngStream) -> np.ndarray:
    """Draw a stationary Gaussian sequence of the given length (`_circulant_draw`)."""
    return _circulant_draw(spectrum, length)(rng.normals(spectrum.m)[None, :])[0]


def _circulant_sampler(grid, method, process, hurst, acf, length, finish, max_doublings):
    """`finish` of `length` circulant draws of the lag function k -> acf(k, grid.n, hurst),
    whose spectrum `circulant_spectrum` repairs by `max_doublings`."""
    hurst = float(hurst)
    rho = lambda k: acf(k, grid.n, hurst)
    spectrum = circulant_spectrum(rho, length, max_doublings=max_doublings)
    draw = _circulant_draw(spectrum, length, finish)
    info = {
        "clamped_count": spectrum.clamped_count,
        "doublings": spectrum.doublings,
        "embedding_size": spectrum.m,
    }
    return LinearSampler(grid, method, process, hurst, spectrum.m, draw, info)


_cumsum = functools.partial(np.cumsum, axis=1)  # fGn rows to fBm rows


@functools.lru_cache(maxsize=64)
def davies_harte_sampler(grid: GridSpec, hurst: float) -> LinearSampler:
    """The map of `davies_harte_fbm`: summed fGn, clamped at the minimal embedding."""
    return _circulant_sampler(grid, "davies-harte", "fbm", hurst, fgn_acf, grid.n, _cumsum, None)


@functools.lru_cache(maxsize=64)
def wood_chan_sampler(
    grid: GridSpec, hurst: float, max_doublings: int = MAX_DOUBLINGS
) -> LinearSampler:
    """The map of `wood_chan_fbm`: summed fGn, the embedding doubled up to `max_doublings` times."""
    return _circulant_sampler(
        grid, "circulant", "fbm", hurst, fgn_acf, grid.n, _cumsum, max_doublings
    )


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


def normalizing_constant_CH(hurst: float) -> float:
    """The moving-average normalization making Var(B^H(1)) = 1.

    C_H = (I + 1/(2H))^{-1/2}, I = integral over v > 0 of ((1+v)^{H-1/2} - v^{H-1/2})^2 dv;
    in closed form, C_H = sqrt(Gamma(2H+1) sin(pi H)) / Gamma(H+1/2).
    """
    h = _check_hurst(hurst)
    return math.sqrt(math.gamma(2.0 * h + 1.0) * math.sin(math.pi * h)) / math.gamma(h + 0.5)


def _ma_weights(n: int, hurst: float, truncation: float, substeps: int) -> np.ndarray:
    """The (n, k) Riemann weights W: (X(1/n), ..., X(1)) = W z for k white noises.

    Left-point rule with step 1/(substeps*n) on [-truncation, 1). Not cached:
    `ma_sampler` keeps only the n x n factor of W W^T, so W is freed after it.
    """
    step = 1.0 / (substeps * n)
    n_neg = int(round(truncation * substeps * n))
    u = np.arange(-n_neg, substeps * n, dtype=float) * step
    t = (np.arange(1, n + 1, dtype=float) / n)[:, None]
    # built in place; from u = t on the powers are infinite or NaN, and the mask zeroes them
    weights = t - u
    with np.errstate(divide="ignore", invalid="ignore"):
        weights **= hurst - 0.5
    weights[u >= t - step / 2] = 0.0
    weights[:, :n_neg] -= (-u[:n_neg]) ** (hurst - 0.5)
    weights *= normalizing_constant_CH(hurst) * math.sqrt(step)
    return weights


@functools.lru_cache(maxsize=64)
def ma_sampler(
    grid: GridSpec,
    hurst: float,
    truncation: float = MA_DEFAULT_TRUNCATION,
    substeps: int = MA_DEFAULT_SUBSTEPS,
) -> LinearSampler:
    """The law N(0, W W^T) of `ma_truncated_fbm`, drawn as L z from n normals per path:
    W has rank <= n, and L is its Gram's n x n factor (`cholesky_factor`, jitter in `info`).
    The build's W W^T costs n^2 k / 2 multiply-adds, n / 2 paths' worth of W z."""
    hurst = _check_hurst(hurst)
    truncation, substeps = _check_truncation(truncation), _check_substeps(substeps)
    weights = _ma_weights(grid.n, hurst, truncation, substeps)
    factor = cholesky_factor(weights @ weights.T)
    info = {"truncation": truncation, "substeps": substeps, "jitter": factor.jitter}
    return LinearSampler(grid, "ma-truncated", "fbm", hurst, grid.n, _dense_map(factor.lower), info)


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

    The draw is L z with L L^T = W W^T, the covariance of the Riemann-rule
    weight matrix W, from n normals per path. With T = truncation, it lacks
    C_H^2 * integral over v > T of ((s+v)^{H-1/2} - v^{H-1/2}) *
    ((t+v)^{H-1/2} - v^{H-1/2}) dv at (s, t). For large T this is about
    C_H^2 (H-1/2)^2 s t T^{2H-2} / (2-2H). At H = 0.8, T = 50 the
    approximation gives 0.0491 of Var X(1) = 1, against 0.0489 exactly;
    at T = 2 the exact loss is 0.163.
    """
    return ma_sampler(grid, hurst, truncation, substeps)(rng)
