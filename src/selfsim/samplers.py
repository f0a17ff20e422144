"""Gaussian path samplers: Brownian cumulative sum, exact Cholesky,
Davies-Harte FFT (the circulant embedding, clamped at its minimal size),
and the truncated moving-average baseline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .core import _MAX_GRID, GridSpec, LinearSampler, ParameterError, RngStream, SamplePath
from .covmodels import _check_hurst, _covariance, fgn_acf

__all__ = [
    "CirculantSpectrum",
    "NotPositiveDefiniteError",
    "bm_sampler",
    "cholesky_sampler",
    "davies_harte_sampler",
    "ma_sampler",
    "cholesky_factor",
    "circulant_spectrum",
    "davies_harte_fbm",
    "ma_truncated_fbm",
    "normalizing_constant_CH",
]

# Jitter escalation (times max diagonal) before Cholesky gives up.
JITTER_LADDER = (0.0, 1e-14, 1e-12, 1e-10)

MA_DEFAULT_TRUNCATION = 50.0
MA_DEFAULT_SUBSTEPS = 8
_GEMM_ROWS = 16  # height of every GEMM of a dense map x = L z (`_factor_sampler`)


def _in_range(name: str, cast, low: float, value):
    """cast(value) if finite and >= low; CLI casts use it too: a ParameterError is a ValueError."""
    value = cast(value)
    if not low <= value < math.inf:
        raise ParameterError(f"{name} must be finite and >= {low}, got {value}")
    return value


_check_truncation = functools.partial(_in_range, "truncation horizon", float, 1.0)
_check_substeps = functools.partial(_in_range, "substeps", int, 1)


class NotPositiveDefiniteError(RuntimeError):
    """Cholesky failed even after the jitter ladder."""

    def __init__(self, pivot: int, message: str) -> None:
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class CirculantSpectrum:
    """Bins 0 .. m/2 of the embedding circulant's spectrum, clamped to be
    nonnegative, and the clamp's size; m = 2 (len(eigenvalues) - 1).

    The circulant's bins m/2 + 1 .. m - 1 mirror bins m/2 - 1 .. 1, so
    `clamped_mass` counts bins 0 .. m/2 with multiplicity 1, 2, ..., 2, 1: it
    describes the m-bin circulant that the draw follows. It is the sum of the
    clamped eigenvalues' magnitudes over m: clamping adds irfft(|negative part|)
    to the implied autocovariance, so this is that error's exact max norm,
    reached at lag 0.
    """

    eigenvalues: np.ndarray
    clamped_mass: float

    def __post_init__(self) -> None:
        eig = np.asarray(self.eigenvalues, dtype=float)
        eig.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)
        if eig.ndim != 1 or len(eig) < 2:
            raise ValueError("a half spectrum needs a vector of at least two eigenvalues")
        if eig.min() < 0.0:
            raise ValueError("stored eigenvalues must be nonnegative")

    @property
    def m(self) -> int:
        return 2 * (len(self.eigenvalues) - 1)


@functools.lru_cache(maxsize=64)
def bm_sampler(grid: GridSpec) -> LinearSampler:
    """Brownian motion as the cumulative sum of N(0, 1/n) white noise."""
    n = grid.n
    draw = lambda z: np.cumsum(z / math.sqrt(n), axis=1)
    return LinearSampler(grid, "bm-cumsum", "bm", 0.5, n, draw, {})


def _failing_pivot(target: np.ndarray) -> int:
    """LAPACK's 1-based pivot of a failed factorization: the order of the smallest
    leading block target[:k, :k] that is not positive definite, found by bisection."""
    low, high = 0, len(target)  # target[:low, :low] factors, target[:high, :high] does not
    while high - low > 1:
        mid = (low + high) // 2
        try:
            np.linalg.cholesky(target[:mid, :mid])
            low = mid
        except np.linalg.LinAlgError:
            high = mid
    return high


def cholesky_factor(gram: np.ndarray) -> tuple[np.ndarray, float]:
    """Factor a symmetric Gram matrix with `np.linalg.cholesky` (LAPACK potrf, lower
    triangle), escalating diagonal jitter through `JITTER_LADDER` on failure.
    Returns (L, jitter) with L L^T = gram + jitter * I.

    If every level fails, `NotPositiveDefiniteError.pivot` is LAPACK's pivot at the
    last level; it is searched for only on that error path.
    """
    gram = np.asarray(gram, dtype=float)
    n = gram.shape[0]
    if gram.shape != (n, n):
        raise ParameterError("gram must be square")
    if not np.allclose(gram, gram.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(gram).max())):
        raise ParameterError("gram must be symmetric")
    return _ladder_cholesky(gram)


def _ladder_cholesky(gram: np.ndarray) -> tuple[np.ndarray, float]:
    """`cholesky_factor` of a square float Gram without its checks: the jitter ladder
    alone, for a Gram a builder makes (`_factor_sampler`)."""
    n = len(gram)
    max_diag = float(np.diag(gram).max(initial=0.0))
    for level in JITTER_LADDER:
        jitter = level * max_diag
        target = gram if jitter == 0.0 else gram + jitter * np.eye(n)
        try:
            return np.linalg.cholesky(target), jitter
        except np.linalg.LinAlgError:
            pass
    pivot = _failing_pivot(target)
    raise NotPositiveDefiniteError(
        pivot,
        f"matrix is not positive definite: pivot {pivot} failed even with "
        f"jitter {JITTER_LADDER[-1]:g} * max diagonal",
    )


def _factor_sampler(grid, method, process, hurst, gram, finish=None, **info) -> LinearSampler:
    """x = L z, or `finish` of it, for the Cholesky factor L L^T = gram + jitter I
    (`_ladder_cholesky`; `info` gains "jitter"): one normal per row of `gram`.

    No symmetry check: a builder makes its own Gram, and LAPACK potrf reads only
    its lower triangle. Each block of normals is one stacked matmul, which calls
    the BLAS once per GEMM of exactly _GEMM_ROWS rows, zero-padded. OpenBLAS picks
    its kernel by the product's shape, so a row's bits change with the height of
    its GEMM, but not with its position or neighbours at one height (a BLAS
    property, not a numpy guarantee, that the tests pin). The operand is L^T
    copied once to C order: OpenBLAS multiplies that about 20 % faster than the
    transposed view of a C-ordered matrix, and its first call is cheaper.
    """
    lower, jitter = _ladder_cholesky(gram)
    del gram  # each builder passes its Gram alone, so it is freed before L^T is copied
    operand = np.ascontiguousarray(lower.T)

    def draw(z):
        rows, k = z.shape
        if rows % _GEMM_ROWS:
            z = np.concatenate([z, np.zeros((-rows % _GEMM_ROWS, k))])
        y = (z.reshape(-1, _GEMM_ROWS, k) @ operand).reshape(len(z), -1)[:rows]
        return y if finish is None else finish(y)

    draw.gemm_rows = _GEMM_ROWS
    return LinearSampler(grid, method, process, hurst, len(lower), draw, {**info, "jitter": jitter})


@functools.lru_cache(maxsize=64)
def cholesky_sampler(process: str, hurst: float, grid: GridSpec) -> LinearSampler:
    """Exact joint sampling of (X(1/n), ..., X(1)) of fbm or sfbm as L z, with L L^T
    the Gram c(t_i, t_j) of the process's covariance (`_factor_sampler`, jitter in `info`)."""
    cov, hurst, t = _covariance(process), _check_hurst(hurst), grid.times()
    return _factor_sampler(grid, "cholesky", process, hurst, cov(t[:, None], t[None, :], hurst))


def circulant_spectrum(row) -> CirculantSpectrum:
    """Embed the Toeplitz covariance of a stationary sequence, whose lags
    0 .. length - 1 are `row`, in the minimal circulant, m = 2 (length - 1),
    and clamp its negative eigenvalues to zero.

    The first circulant row folds the lags: c_j = row[j] for j <= m/2 and
    c_j = row[m - j] above. It is real and symmetric, so one real FFT of it
    gives the m/2 + 1 eigenvalues of bins 0 .. m/2, the ones the draw reads.
    """
    row = np.asarray(row, dtype=float)
    if row.ndim != 1 or len(row) < 2:
        raise ParameterError("stationary sequence length must be >= 2")
    m = 2 * (len(row) - 1)
    eig = rfft(np.concatenate([row, row[-2:0:-1]])).real
    negative = eig < 0.0
    multiplicity = np.full(len(eig), 2)  # bins 1 .. m/2 - 1 stand for their mirrors too
    multiplicity[[0, -1]] = 1
    return CirculantSpectrum(
        eigenvalues=np.where(negative, 0.0, eig),
        clamped_mass=float(np.abs(eig[negative]) @ multiplicity[negative] / m),
    )


def _circulant_draw(spectrum: CirculantSpectrum, finish=None):
    """(k, draw): the map of (rows, k) normals to (rows, m) real circulant draws,
    whose columns 0 .. m/2 have the (clamp-adjusted) target autocovariance; the
    draw returns those columns, or `finish` of all m.

    The m slots of half of a Hermitian vector, the spectrum's bins 0 .. m/2,
    are, in order: the real bins 0 and m/2, the real parts of bins 1 .. m/2 - 1,
    then their imaginary parts. Each bin is weighted by the square root of its
    eigenvalue over m, times 1/sqrt(2) inside. A slot of zero weight (a clamped
    bin) is dead: it draws no normal, so k is the number of live slots. A row's
    k normals are scattered into the live slots in order, and the spectrum is
    weighted in place, one product per slot. The whole vector's FFT is real: one
    unscaled real inverse FFT of the conjugate half (`irfft`, norm="forward").
    """
    m = spectrum.m
    half = m // 2
    if finish is None:
        finish = lambda y: y[:, : half + 1]
    # the weight of each float of the spectrum's view, re j at 2j and im j at 2j + 1;
    # an imaginary weight is 0.0 - w, so a dead bin's is +0.0, not -0.0
    weights = np.zeros((half + 1, 2))
    weights[:, 0] = np.sqrt(spectrum.eigenvalues / m)
    weights[1:half, 0] /= math.sqrt(2.0)
    np.subtract(0.0, weights[1:half, 0], out=weights[1:half, 1])
    weights = weights.ravel()
    # each slot's column in that view, in slot order; only the live slots are kept
    columns = np.concatenate([[0, 2 * half], np.arange(2, 2 * half, 2), np.arange(3, 2 * half, 2)])
    columns = columns[(weights != 0.0)[columns]]

    def draw(z):
        spec = np.zeros((len(z), half + 1), dtype=complex)
        flat = spec.view(float)
        flat[:, columns] = z
        flat *= weights  # in place: each live float becomes z times its weight, the rest stay 0
        return finish(irfft(spec, n=m, axis=1, norm="forward"))

    return len(columns), draw


def _circulant_sampler(grid, method, process, hurst, row, finish):
    """`finish` of the circulant draws whose columns 0 .. len(row) - 1 have the
    autocovariance `row` at lags 0 .. len(row) - 1 (`_circulant_draw`)."""
    spectrum = circulant_spectrum(row)
    k, draw = _circulant_draw(spectrum, finish)
    info = {"clamped_mass": spectrum.clamped_mass, "embedding_size": spectrum.m}
    return LinearSampler(grid, method, process, hurst, k, draw, info)


@functools.lru_cache(maxsize=64)
def davies_harte_sampler(grid: GridSpec, hurst: float) -> LinearSampler:
    """fBm as summed fGn, drawn by FFT synthesis at the minimal embedding size.

    The minimal embedding of fGn is nonnegative definite for every H
    (Craigmile 2003), so in exact arithmetic nothing is clamped; a roundoff
    negative would be clamped to zero, its size in `info["clamped_mass"]`.
    """
    n, hurst = grid.n, _check_hurst(hurst)
    cumsum = lambda y: np.cumsum(y[:, :n], axis=1)  # fGn rows to fBm rows
    # n = 1 takes two lags: m = 2, whose eigenvalues 1 +- rho(1) are positive
    row = fgn_acf(np.arange(max(n, 2)), n, hurst)
    return _circulant_sampler(grid, "davies-harte", "fbm", hurst, row, cumsum)


def davies_harte_fbm(grid: GridSpec, hurst: float, rng: RngStream) -> SamplePath:
    """One path of `davies_harte_sampler`."""
    return davies_harte_sampler(grid, hurst)(rng)


def normalizing_constant_CH(hurst: float) -> float:
    """The moving-average normalization making Var(B^H(1)) = 1.

    C_H = (I + 1/(2H))^{-1/2}, I = integral over v > 0 of ((1+v)^{H-1/2} - v^{H-1/2})^2 dv;
    in closed form, C_H = sqrt(Gamma(2H+1) sin(pi H)) / Gamma(H+1/2).
    """
    h = _check_hurst(hurst)
    return math.sqrt(math.gamma(2.0 * h + 1.0) * math.sin(math.pi * h)) / math.gamma(h + 0.5)


def _ma_powers(n: int, hurst: float, truncation: float, substeps: int):
    """g(x) = (x * step)^(H - 1/2) at the integer lags x = 0 .. k, with g(0) = 0, for the
    Riemann rule with step = 1/(substeps*n) on [-truncation, 1): k = N + substeps*n noises,
    N = round(truncation*substeps*n) of them before 0. Returns (g, N, step)."""
    # about (T + 1) s n noises, checked before any float of them can overflow
    if substeps * n >= _MAX_GRID or (truncation + 1.0) * substeps * n >= _MAX_GRID:
        raise ParameterError(
            f"truncation {truncation} at {substeps} substeps needs more noises than an array holds"
        )
    step = 1.0 / (substeps * n)
    n_neg = int(round(truncation * substeps * n))
    powers = np.zeros(n_neg + substeps * n + 1)
    powers[1:] = (np.arange(1, len(powers), dtype=float) * step) ** (hurst - 0.5)
    return powers, n_neg, step


def _ma_weights(n: int, hurst: float, truncation: float, substeps: int) -> np.ndarray:
    """The (n, k) Riemann weights W: (X(1/n), ..., X(1)) = W z for k white noises.

    Left-point rule with step 1/(substeps*n) on [-truncation, 1): with s = substeps and
    g from `_ma_powers`, W[i, j] = C_H sqrt(step) (g(i s - j) - g(-j)) for the noise
    at j * step, j = -N .. s n - 1. Row i is a window of the reversed powers, minus
    the window of row 0 (the negative-side row). O(n k) memory: the definition the
    tests compare `_ma_gram` against; `ma_sampler` never builds it.
    """
    powers, n_neg, step = _ma_powers(n, hurst, truncation, substeps)
    k = len(powers) - 1
    reversed_powers = np.concatenate([powers[::-1], np.zeros(substeps * n)])
    rows = np.lib.stride_tricks.sliding_window_view(reversed_powers, k)[::substeps]
    weights = rows[n - 1 :: -1] - rows[n]
    weights *= normalizing_constant_CH(hurst) * math.sqrt(step)
    return weights


def _diagonal_cumsum(b: np.ndarray) -> np.ndarray:
    """b[i, j] += b[i-1, j-1] down every diagonal, in place: each diagonal's prefix sums."""
    for i in range(1, len(b)):
        b[i, 1:] += b[i - 1, :-1]
    return b


def _ma_gram(n: int, hurst: float, truncation: float, substeps: int) -> np.ndarray:
    """W W^T of `_ma_weights` from lag sums, in O(n k) time and O(n^2 + k) memory, without W.

    With s = substeps, g from `_ma_powers` and e(x) = g(x + s) - g(x), which has one
    sign for x >= 1, entry (i, l) is C_H^2 step times the sum of two parts:
    - the noises from 0 on give sum_{x=1}^{min(i,l) s} g(x) g(x + |i-l| s): down each
      diagonal, the prefix sums of the Gram of g's blocks of s;
    - the noises before 0 give row i as g(i s + y) - g(y) = sum_{r<i} e(r s + y), so
      their part is the 2-D prefix sum of M[r, r'] = sum_{y=1}^{N} e(r s + y) e(r' s + y).
      Each such window splits at (n-1) s and N (N >= s n, as T >= 1) into a head
      suffix and a tail prefix, both diagonal sums of Grams of e's blocks of s,
      and one middle dot per lag.
    Every sum adds terms of one sign, so nothing cancels.
    """
    powers, n_neg, step = _ma_powers(n, hurst, truncation, substeps)
    s, e = substeps, powers[substeps:] - powers[:-substeps]
    blocks = powers[1 : n * s + 1].reshape(n, s)
    positive = _diagonal_cumsum(blocks @ blocks.T)
    head = e[1 : (2 * n - 1) * s + 1].reshape(2 * n - 1, s)
    head = head[: n - 1] @ head.T
    _diagonal_cumsum(head[::-1, ::-1])  # suffix sums, from each diagonal's lower end
    tail = e[n_neg + 1 : n_neg + 1 + (n - 1) * s].reshape(n - 1, s)
    mid = (n - 1) * s + 1
    middle = [np.dot(e[mid : n_neg + 1], e[mid + d * s : n_neg + 1 + d * s]) for d in range(n)]
    middle = np.concatenate([middle[:0:-1], middle])  # lags n-1 .. 1, 0, 1 .. n-1
    m = np.zeros((n, n))
    m[: n - 1] = np.triu(head[:, :n])
    m += np.triu(m, 1).T
    m[1:, 1:] += _diagonal_cumsum(tail @ tail.T)
    m += np.lib.stride_tricks.sliding_window_view(middle, n)[::-1]  # Toeplitz of the lags
    gram = m.cumsum(0).cumsum(1)
    gram += positive
    gram *= normalizing_constant_CH(hurst) ** 2 * step
    return gram


@functools.lru_cache(maxsize=64)
def ma_sampler(
    grid: GridSpec,
    hurst: float,
    truncation: float = MA_DEFAULT_TRUNCATION,
    substeps: int = MA_DEFAULT_SUBSTEPS,
) -> LinearSampler:
    """fBm baseline from the truncated moving-average integral: the law N(0, W W^T)
    of its Riemann-rule weights W (`_ma_weights`), drawn as L z from n normals per path.

    Truncating the integral at -truncation biases the covariance (most
    visibly for H > 1/2, where the discarded tail decays slowly); this
    sampler exists to make that bias measurable, not to be exact.

    W has rank <= n, and L is its Gram's n x n factor (`_factor_sampler`, jitter in
    `info`). W W^T is built from lag sums (`_ma_gram`) in O(n k) time and O(n^2 + k)
    memory, without W's (n, k) array, k = (T + 1) * substeps * n. With T = truncation,
    it lacks C_H^2 * integral over v > T of ((s+v)^{H-1/2} - v^{H-1/2}) *
    ((t+v)^{H-1/2} - v^{H-1/2}) dv at (s, t). For large T this is about
    C_H^2 (H-1/2)^2 s t T^{2H-2} / (2-2H). At H = 0.8, T = 50 the
    approximation gives 0.0491 of Var X(1) = 1, against 0.0489 exactly;
    at T = 2 the exact loss is 0.163.
    """
    hurst = _check_hurst(hurst)
    truncation, substeps = _check_truncation(truncation), _check_substeps(substeps)
    return _factor_sampler(
        grid, "ma-truncated", "fbm", hurst, _ma_gram(grid.n, hurst, truncation, substeps),
        truncation=truncation, substeps=substeps,
    )


def ma_truncated_fbm(
    grid: GridSpec,
    hurst: float,
    rng: RngStream,
    truncation: float = MA_DEFAULT_TRUNCATION,
    substeps: int = MA_DEFAULT_SUBSTEPS,
) -> SamplePath:
    """One path of `ma_sampler`."""
    return ma_sampler(grid, hurst, truncation, substeps)(rng)
