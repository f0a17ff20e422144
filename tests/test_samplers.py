"""Sampler tests: Monte Carlo moments against exact kernels, the circulant
clamp and its bound, and Cholesky jitter handling."""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from selfsim.core import GridSpec, ParameterError, RngStream, generate_batch
from selfsim.covmodels import _covariance, fgn_acf, lamperti_acf
from selfsim.lamperti import grid_map, lamperti_sampler
from selfsim.samplers import (
    JITTER_LADDER,
    NotPositiveDefiniteError,
    _circulant_sampler,
    _ladder_cholesky,
    _ma_gram,
    bm_sampler,
    cholesky_sampler,
    circulant_spectrum,
    davies_harte_fbm,
    davies_harte_sampler,
    ma_sampler,
    ma_truncated_fbm,
    normalizing_constant_CH,
)


def batch_values(sampler, count, seed):
    return generate_batch(sampler, count, seed).values


def lamperti_circulant(hurst, n):
    """Lamperti fBm through the circulant of lags 0 .. n at any n >= 2: the route its
    sampler takes above the dense cutover (n >= 263), gathered and scaled by t^H."""
    grid = GridSpec(n)
    (index, _), scale = grid_map(n), grid.times() ** hurst
    finish = lambda y: scale * np.take(y, index, axis=1)
    row = lamperti_acf("fbm", np.arange(n + 1), n, hurst)
    return _circulant_sampler(grid, "lamperti", "fbm", hurst, row, finish)


def circulant(row):
    """The raw circulant map of `row`: its stationary sequences, columns 0 .. len(row) - 1."""
    return _circulant_sampler(GridSpec(len(row)), "circulant", "fbm", 0.5, row)


def circulant_rows(row, count, seed, stream_ids=None):
    """Stationary sequences of `row`'s circulant, from k normals each: one batch, row i
    from stream (seed, stream_ids[i])."""
    return generate_batch(circulant(row), count, seed, stream_ids).values


class TestSampleBm:
    def test_terminal_variance_and_midpoint_covariance(self):
        grid = GridSpec(16)
        values = batch_values(bm_sampler(grid), 100_000, 2024)
        assert values[:, -1].var(ddof=1) == pytest.approx(1.0, abs=0.02)
        cov = np.cov(values[:, 7], values[:, -1])[0, 1]
        assert cov == pytest.approx(0.5, abs=0.02)

    def test_degenerate_single_node(self):
        grid = GridSpec(1)
        path = bm_sampler(grid)(RngStream(5, 0))
        assert path.values.shape == (1,)
        values = batch_values(bm_sampler(grid), 20_000, 6)
        assert values[:, 0].var(ddof=1) == pytest.approx(1.0, abs=0.05)

    def test_deterministic(self):
        grid = GridSpec(64)
        a = bm_sampler(grid)(RngStream(1, 2)).values
        b = bm_sampler(grid)(RngStream(1, 2)).values
        assert np.array_equal(a, b)


class TestCholeskyFactor:
    def test_identity(self):
        lower, jitter = _ladder_cholesky(np.eye(5))
        assert jitter == 0.0
        assert np.allclose(lower, np.eye(5))

    def test_reconstructs_fbm_gram(self):
        times = np.array([0.25, 0.5, 0.75, 1.0])
        gram = _covariance("fbm")(times[:, None], times[None, :], 0.5)
        lower, _ = _ladder_cholesky(gram)
        rebuilt = lower @ lower.T
        assert rebuilt[3, 3] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rebuilt - gram)) <= 1e-8 * np.diag(gram).max()

    def test_tiny_negative_eigenvalue_repaired(self):
        # rank-deficient matrix pushed slightly indefinite
        v = np.array([1.0, 1.0, 1.0])
        gram = np.outer(v, v) + np.diag([0.5, 0.5, -1e-14])
        _, jitter = _ladder_cholesky(gram)
        assert jitter <= 1e-12 * np.diag(gram).max()

    def test_indefinite_fails_with_pivot(self):
        gram = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            _ladder_cholesky(gram)
        assert err.value.pivot == 2

    @staticmethod
    def indefinite_at(n, pivot):
        """A random positive definite matrix, with its diagonal entry at `pivot`
        (1-based) lowered so that the Schur complement there is -1."""
        b = np.random.Generator(np.random.Philox(key=n + pivot)).standard_normal((n, n))
        gram = b @ b.T / n + np.eye(n)
        head = gram[: pivot - 1, : pivot - 1]
        column = gram[: pivot - 1, pivot - 1]
        gram[pivot - 1, pivot - 1] = column @ np.linalg.solve(head, column) - 1.0
        return gram

    # the pivot first, mid-way and last; at n = 300, which LAPACK factors in
    # blocks, also on both sides of block edges (64, n/4, 256)
    PIVOT_CASES = [(3, 1), (3, 2), (3, 3), (50, 1), (50, 26), (50, 50)]
    PIVOT_CASES += [(300, p) for p in (1, 2, 64, 65, 75, 76, 150, 151, 256, 257, 300)]

    @pytest.mark.parametrize("n, pivot", PIVOT_CASES)
    def test_pivot_matches_lapack_dpotrf(self, n, pivot):
        gram = self.indefinite_at(n, pivot)
        with pytest.raises(NotPositiveDefiniteError) as err:
            _ladder_cholesky(gram)
        target = gram + JITTER_LADDER[-1] * np.diag(gram).max() * np.eye(n)
        assert err.value.pivot == lapack.dpotrf(target, lower=1)[1] == pivot

    @pytest.mark.parametrize("n", [2, 16, 100, 512])
    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("process", ["fbm", "sfbm"])
    def test_factor_matches_lapack_dpotrf(self, process, hurst, n):
        # Both are backward stable: L L^T within 2e-15 of max|G|. Their L differ by
        # up to about eps * cond(G), so the 1e-11 gate on L holds to H = 0.9; fBm at
        # n = 512 differs by 2.3e-11 at H = 0.95 and 6.0e-11 at H = 0.99.
        times = GridSpec(n).times()
        gram = _covariance(process)(times[:, None], times[None, :], hurst)
        lower, jitter = _ladder_cholesky(gram)
        target = gram + jitter * np.eye(n)
        c, info = lapack.dpotrf(target, lower=1)
        assert info == 0
        assert np.array_equal(lower, np.tril(lower))
        residual = np.abs(lower @ lower.T - target).max()
        assert residual <= 2e-15 * np.abs(target).max()
        if hurst <= 0.9:
            assert np.abs(lower - np.tril(c)).max() <= 1e-11


class TestBuilderGrams:
    """Every dense builder hands its own Gram to `_factor_sampler`, which factors it
    with `_ladder_cholesky` and no symmetry check: LAPACK potrf reads only the lower
    triangle, so the strict upper one cannot move a bit of L."""

    @staticmethod
    def gram(kind, n):
        if kind == "ma":
            return _ma_gram(n, 0.7, 50.0, 8)
        t = GridSpec(n).times()
        return _covariance(kind)(t[:, None], t[None, :], 0.7)

    @pytest.mark.parametrize("kind, n", [("fbm", 64), ("fbm", 257), ("ma", 64)])
    def test_upper_triangle_is_never_read(self, kind, n):
        gram = self.gram(kind, n)
        lower, jitter = _ladder_cholesky(gram)
        scribbled = gram.copy()
        scribbled[np.triu_indices(len(gram), 1)] = 123.0
        other, other_jitter = _ladder_cholesky(scribbled)
        assert other_jitter == jitter
        assert np.array_equal(other.view(np.uint64), lower.view(np.uint64))

    def test_builders_factor_without_jitter(self):
        grid = GridSpec(256)
        assert cholesky_sampler("fbm", 0.7, grid).info == {"jitter": 0.0}
        assert ma_sampler(grid, 0.7).info["jitter"] == 0.0
        assert lamperti_sampler("fbm", 0.8, grid).info == {"jitter": 0.0}


class TestCholeskySample:
    def test_covariance_matches_kernel(self):
        grid = GridSpec(16)
        values = batch_values(cholesky_sampler("fbm", 0.7, grid), 50_000, 31)
        emp = np.cov(values, rowvar=False)
        t = grid.times()
        target = _covariance("fbm")(t[:, None], t[None, :], 0.7)
        m = values.shape[0]
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
        assert np.max(np.abs(emp - target) / se) <= 5.0

    def test_brownian_reduction_increment_variance(self):
        grid = GridSpec(32)
        values = batch_values(cholesky_sampler("fbm", 0.5, grid), 20_000, 32)
        incr = np.diff(np.hstack([np.zeros((values.shape[0], 1)), values]), axis=1)
        assert incr.var(ddof=1) == pytest.approx(1 / 32, rel=0.05)

    def test_kernel_built_directly_is_validated(self):
        for process, hurst in (("bm", 0.5), ("fbm", 1.5)):
            with pytest.raises(ParameterError):
                cholesky_sampler(process, hurst, GridSpec(4))(RngStream(0, 0))

    def test_sfbm_terminal_variance(self):
        grid = GridSpec(16)
        values = batch_values(cholesky_sampler("sfbm", 0.7, grid), 20_000, 33)
        target = 2.0 - 2.0**0.4
        assert values[:, -1].var(ddof=1) == pytest.approx(target, rel=0.05)

    def test_deterministic(self):
        grid = GridSpec(16)
        a = cholesky_sampler("fbm", 0.3, grid)(RngStream(4, 4)).values
        b = cholesky_sampler("fbm", 0.3, grid)(RngStream(4, 4)).values
        assert np.array_equal(a, b)


def white_noise_row(n):
    return np.eye(1, n)[0]


def mirrored(half):
    """The m-bin spectrum whose bins 0 .. m/2 are `half`: bin m - j mirrors bin j."""
    return np.concatenate([half, half[-2:0:-1]])


class TestCirculantSpectrum:
    @pytest.mark.parametrize("row", [np.ones(1), np.ones((2, 2))], ids=["one-lag", "2-d"])
    def test_malformed_row_rejected(self, row):
        with pytest.raises(ParameterError, match="length must be >= 2"):
            circulant_spectrum(row)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_row_rejected(self, bad):
        # a NaN eigenvalue fails `< 0.0`, so it would pass the clamp with a mass of 0.0
        with pytest.raises(ParameterError, match="must be finite"):
            circulant_spectrum([bad, 1.0, 0.5])

    def test_eigenvalues_are_read_only(self):
        eigenvalues, _ = circulant_spectrum(white_noise_row(16))
        with pytest.raises(ValueError, match="read-only"):
            eigenvalues[0] = 1.0

    def test_white_noise_eigenvalues_all_one(self):
        eigenvalues, clamped_mass = circulant_spectrum(white_noise_row(16))
        assert clamped_mass == 0.0
        assert np.allclose(eigenvalues, 1.0)

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_fgn_embedding_nonnegative_at_minimal_size(self, hurst):
        n = 256
        eigenvalues, clamped_mass = circulant_spectrum(fgn_acf(np.arange(n), n, hurst))
        assert eigenvalues.all() and clamped_mass == 0.0
        assert len(eigenvalues) == n

    CLAMP_CASES = {
        # (first row of the stationary covariance, live slots k = m - clamped)
        "lamperti-fbm-0.8": (lamperti_acf("fbm", np.arange(257), 256, 0.8), 512 - 209),
        "squared-exponential": (np.exp(-((np.arange(32) / 8) ** 2)), 62 - 20),
        "fgn-0.7": (fgn_acf(np.arange(256), 256, 0.7), 510),
    }

    @staticmethod
    def check_implied_acf(row):
        # clamping adds irfft(|negative part|) to the implied ACF: its max is at lag 0
        eigenvalues, clamped_mass = circulant_spectrum(row)
        m = 2 * (len(row) - 1)
        folded = row[np.minimum(np.arange(m), m - np.arange(m))]
        error = np.abs(np.fft.irfft(eigenvalues, n=m) - folded)
        tol = 1e-14 * row[0]
        assert eigenvalues.shape == (m // 2 + 1,) and eigenvalues.min() >= 0.0
        # the clamp figures are those of the m-bin circulant the half spectrum stands for
        negative = mirrored(np.fft.rfft(folded).real)
        negative = negative[negative < 0.0]
        assert clamped_mass == pytest.approx(np.abs(negative).sum() / m, rel=1e-12, abs=0.0)
        assert (clamped_mass > 0.0) == (len(negative) > 0)
        assert abs(error[0] - clamped_mass) <= tol
        assert error.max() <= error[0] + tol
        return clamped_mass

    @pytest.mark.parametrize("row, live", CLAMP_CASES.values(), ids=CLAMP_CASES)
    def test_clamped_mass_is_the_implied_acf_error(self, row, live):
        self.check_implied_acf(row)
        assert circulant(row).k == live

    @pytest.mark.parametrize(
        "acf",
        [functools.partial(lamperti_acf, "fbm"), functools.partial(lamperti_acf, "sfbm"), fgn_acf],
        ids=["lamperti_acf_fbm", "lamperti_acf_sfbm", "fgn_acf"],
    )
    def test_clamped_mass_is_the_implied_acf_error_sweep(self, acf):
        # the Lamperti sequence has n + 1 lags (indices 0..n), fGn n; fGn clamps nothing
        length = lambda n: n if acf is fgn_acf else n + 1
        for n in (16, 64, 256, 1024, 4096, 32768):
            for hurst in (0.05, 0.3, 0.5, 0.72, 0.8, 0.95, 0.99):
                clamped_mass = self.check_implied_acf(acf(np.arange(length(n)), n, hurst))
                assert acf is not fgn_acf or clamped_mass == 0.0

    @pytest.mark.parametrize("hurst", [0.3, 0.8])
    def test_sampler_info_carries_clamped_mass(self, hurst):
        # lamperti takes the circulant above its dense cutover only: n = 2048 here
        lamperti = circulant_spectrum(lamperti_acf("fbm", np.arange(2049), 2048, hurst))
        fgn = circulant_spectrum(fgn_acf(np.arange(256), 256, hurst))
        for sampler, (eigenvalues, clamped_mass) in [
            (lamperti_sampler("fbm", hurst, GridSpec(2048)), lamperti),
            (davies_harte_sampler(GridSpec(256), hurst), fgn),
        ]:
            assert sampler.info == {
                "clamped_mass": clamped_mass,
                "embedding_size": 2 * (len(eigenvalues) - 1),
            }


class TestCirculantSample:
    def test_empirical_acf_matches_input(self):
        n, hurst, m_rep = 64, 0.8, 100_000
        acf = lambda k: fgn_acf(k, n, hurst)
        rows = circulant_rows(acf(np.arange(n)), m_rep, 77)
        for lag in range(5):
            emp = np.mean(rows[:, 0] * rows[:, lag])
            target = acf(lag)
            se = np.sqrt((acf(0) ** 2 + target**2) / m_rep)
            assert abs(emp - target) <= 4 * se

    def test_white_noise_lag_one_correlation(self):
        n = 32
        rows = circulant_rows(white_noise_row(n), 20_000, 5)
        corr = np.mean(rows[:, 0] * rows[:, 1])
        assert abs(corr) <= 4 / np.sqrt(rows.shape[0])


def _full_hermitian_draw(eigenvalues):
    """The circulant draw before the half-spectrum form, kept as a reference: a full
    (rows, m) Hermitian vector, weighted by all m `eigenvalues`, through one complex
    FFT, its real part, columns 0 .. m/2."""
    m = len(eigenvalues)
    half = m // 2
    weights = np.sqrt(eigenvalues / m)

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
        return np.fft.fft(w, axis=1).real[:, : half + 1]

    return draw


# stationary rows: fGn has n lags, the Lamperti sequence n + 1
CIRCULANT_ROWS = {
    **{f"fgn-{n}-{h}": fgn_acf(np.arange(n), n, h) for n in (2, 3, 16, 256, 1024) for h in (0.3, 0.8)},
    **{f"lamperti-fbm-256-{h}": lamperti_acf("fbm", np.arange(257), 256, h) for h in (0.3, 0.8)},
    **{
        f"lamperti-sfbm-{n}-{h}": lamperti_acf("sfbm", np.arange(n + 1), n, h)
        for n, h in ((64, 0.99), (256, 0.8))
    },
}


def _m_slot_draw(eigenvalues):
    """The half-spectrum draw from all m slots, dead ones included, kept as a reference
    (the library's draw multiplied slot by slot before it scattered the live ones):
    rows of m normals, z[0] and z[1] the real bins 0 and m/2, z[2 : m/2 + 1] the real
    and z[m/2 + 1 :] the imaginary parts of bins 1 .. m/2 - 1; columns 0 .. m/2."""
    half = len(eigenvalues) - 1
    m = 2 * half
    weights = np.sqrt(eigenvalues / m)
    weights[1:half] /= math.sqrt(2.0)
    conj_weights = -weights[1:half]

    def draw(z):
        spec = np.zeros((len(z), half + 1), dtype=complex)
        spec.real[:, 0] = z[:, 0] * weights[0]
        spec.real[:, half] = z[:, 1] * weights[half]
        np.multiply(z[:, 2 : half + 1], weights[1:half], out=spec.real[:, 1:half])
        np.multiply(z[:, half + 1 :], conj_weights, out=spec.imag[:, 1:half])
        return np.fft.irfft(spec, n=m, axis=1, norm="forward")[:, : half + 1]

    return draw


def _live_slots(eigenvalues):
    """The slots, in `_m_slot_draw`'s order, whose weight is not zero."""
    half = len(eigenvalues) - 1
    bins = np.concatenate([[0, half], np.arange(1, half), np.arange(1, half)])
    return np.flatnonzero(eigenvalues[bins])


def _expand(eigenvalues, z):
    """Rows of k live normals as rows of m slots, with zeros in the dead slots."""
    full = np.zeros((len(z), 2 * (len(eigenvalues) - 1)))
    full[:, _live_slots(eigenvalues)] = z
    return full


class TestCirculantMap:
    """The circulant draw as a linear map x = z A of k normals, checked exactly."""

    @pytest.mark.parametrize("row", CIRCULANT_ROWS.values(), ids=CIRCULANT_ROWS)
    def test_implied_covariance_is_the_clamped_acf(self, row):
        # the rows of A are the draws of the unit vectors; A^T A is the map's covariance
        eigenvalues, _ = circulant_spectrum(row)
        sampler = circulant(row)
        k, draw = sampler.k, sampler.draw
        a, length = draw(np.eye(k)), len(row)
        implied = np.fft.irfft(eigenvalues, n=2 * (length - 1))[:length]
        lags = np.abs(np.subtract.outer(np.arange(length), np.arange(length)))
        assert a.shape == (k, length)
        assert np.abs(a.T @ a - implied[lags]).max() <= 1e-14 * row[0]

    @pytest.mark.parametrize("row", CIRCULANT_ROWS.values(), ids=CIRCULANT_ROWS)
    def test_matches_full_hermitian_draw(self, row):
        eigenvalues, _ = circulant_spectrum(row)
        sampler = circulant(row)
        k, draw = sampler.k, sampler.draw
        z = np.random.default_rng(15).standard_normal((9, k))
        new = draw(z)
        old = _full_hermitian_draw(mirrored(eigenvalues))(_expand(eigenvalues, z))
        scale = np.abs(old).max(axis=1, keepdims=True)
        assert np.all(np.abs(new - old) <= 1e-13 * scale)

    @pytest.mark.parametrize("row", CIRCULANT_ROWS.values(), ids=CIRCULANT_ROWS)
    def test_live_rows_are_the_m_slot_map_rows(self, row):
        # dropping the dead slots drops exactly the zero rows of the m-slot map, and
        # the scatter of the live slots has the m-slot multiply's bits on any normals
        eigenvalues, _ = circulant_spectrum(row)
        sampler = circulant(row)
        k, draw = sampler.k, sampler.draw
        m = 2 * (len(row) - 1)
        full = _m_slot_draw(eigenvalues)(np.eye(m))
        live = _live_slots(eigenvalues)
        dead = np.setdiff1d(np.arange(m), live)
        assert k == len(live)
        assert np.array_equal(draw(np.eye(k)).view(np.uint64), full[live].view(np.uint64))
        assert np.all(full[dead] == 0.0)
        z = np.random.default_rng(16).standard_normal((9, k))
        reference = _m_slot_draw(eigenvalues)(_expand(eigenvalues, z))
        assert np.array_equal(draw(z).view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("row", CIRCULANT_ROWS.values(), ids=CIRCULANT_ROWS)
    def test_draws_m_normals_unless_a_weight_is_zero(self, row):
        eigenvalues, _ = circulant_spectrum(row)
        k = circulant(row).k
        assert (k == 2 * (len(row) - 1)) == bool(eigenvalues.all())

    @pytest.mark.parametrize("hurst, k", [(0.3, 512), (0.7, 512), (0.8, 303), (0.95, 263)])
    def test_lamperti_fbm_live_slot_count(self, hurst, k):
        # the live slots of lamperti fBm's circulant at n = 256; below the cutover
        # its sampler draws one normal per distinct grid-map node, 126 here
        row = lamperti_acf("fbm", np.arange(257), 256, hurst)
        assert circulant(row).k == k and circulant(row).info["embedding_size"] == 512
        assert lamperti_sampler("fbm", hurst, GridSpec(256)).k == 126

    @pytest.mark.parametrize("n", [263, 2048])
    def test_lamperti_sampler_above_the_cutover_is_lamperti_circulant(self, n):
        sampler, circulant = lamperti_sampler("fbm", 0.8, GridSpec(n)), lamperti_circulant(0.8, n)
        z = np.random.default_rng(n).standard_normal((3, sampler.k))
        assert sampler.k == circulant.k and sampler.info == circulant.info
        assert np.array_equal(sampler.draw(z).view(np.uint64), circulant.draw(z).view(np.uint64))


class TestDaviesHarte:
    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.8, 0.99])
    def test_one_point_is_exactly_standard_normal(self, hurst):
        # n = 1 embeds two fGn lags in m = 2: eigenvalues 1 +- rho(1), |rho(1)| < 1/2
        sampler = davies_harte_sampler(GridSpec(1), hurst)
        a = sampler.draw(np.eye(sampler.k))
        assert sampler.k == 2 and sampler.info == {"clamped_mass": 0.0, "embedding_size": 2}
        assert a.shape == (2, 1) and abs((a.T @ a)[0, 0] - 1.0) <= 2.3e-16

    def test_midpoint_covariance(self):
        grid = GridSpec(64)
        values = batch_values(davies_harte_sampler(grid, 0.7), 100_000, 8)
        emp = np.cov(values[:, 31], values[:, -1])[0, 1]
        from selfsim.covmodels import fbm_cov

        target = fbm_cov(0.5, 1.0, 0.7)
        se = np.sqrt((fbm_cov(0.5, 0.5, 0.7) * 1.0 + target**2) / values.shape[0])
        assert abs(emp - target) <= 4 * se

    def test_brownian_reduction(self):
        grid = GridSpec(64)
        values = batch_values(davies_harte_sampler(grid, 0.5), 20_000, 9)
        incr = np.diff(np.hstack([np.zeros((values.shape[0], 1)), values]), axis=1)
        assert incr.var(ddof=1) == pytest.approx(1 / 64, rel=0.05)

    def test_cumulative_sum_consistency(self):
        grid = GridSpec(32)
        rng = RngStream(10, 3)
        path = davies_harte_fbm(grid, 0.6, rng)
        fgn = circulant_rows(fgn_acf(np.arange(32), 32, 0.6), 1, 10, [3])[0]
        assert np.array_equal(path.values, np.cumsum(fgn))


class TestMovingAverage:
    @pytest.mark.parametrize("truncation", [0.5, float("nan"), float("inf")])
    def test_truncation_outside_range_rejected(self, truncation):
        with pytest.raises(ParameterError):
            ma_truncated_fbm(GridSpec(8), 0.7, RngStream(0, 0), truncation=truncation)

    def test_normalizing_constant_at_half(self):
        assert normalizing_constant_CH(0.5) == 1.0

    def test_normalizing_constant_self_convergence(self):
        # independent high-precision reference for the same integral
        import mpmath

        for hurst in (0.2, 0.7):
            f = lambda v: ((1 + v) ** (hurst - 0.5) - v ** (hurst - 0.5)) ** 2
            integral = float(mpmath.quad(f, [0, 1, mpmath.inf]))
            ref = (integral + 1 / (2 * hurst)) ** -0.5
            assert normalizing_constant_CH(hurst) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("hurst", [0.85, 0.9, 0.95, 0.99])
    def test_normalizing_constant_high_hurst(self, hurst):
        # the equivalent form sqrt(2H Gamma(3/2-H) / (Gamma(H+1/2) Gamma(2-2H))),
        # in high precision; the integral's slow tail defeats quadrature here
        import mpmath

        h = mpmath.mpf(hurst)
        gammas = mpmath.gamma(1.5 - h) / (mpmath.gamma(h + 0.5) * mpmath.gamma(2 - 2 * h))
        ref = float(mpmath.sqrt(2 * h * gammas))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalizing_constant_CH(hurst) == pytest.approx(ref, rel=1e-13)
            path = ma_truncated_fbm(GridSpec(2), hurst, RngStream(0), truncation=2.0)
        assert np.all(np.isfinite(path.values))

    def test_weights_below_half_raise_no_warning(self):
        # for H < 1/2 the kernel's powers are infinite at u = t and u = 0,
        # where they are masked; that must not print RuntimeWarnings
        from selfsim.samplers import MA_DEFAULT_SUBSTEPS, MA_DEFAULT_TRUNCATION, _ma_weights

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, hurst in ((2, 0.3), (16, 0.1)):
                weights = _ma_weights(n, hurst, MA_DEFAULT_TRUNCATION, MA_DEFAULT_SUBSTEPS)
                assert np.all(np.isfinite(weights))

    def test_variance_roundtrip_with_long_horizon(self):
        # deterministic reconstruction of Var(B^H(1)) from the discretized
        # kernel with the normalization applied
        from selfsim.samplers import _ma_weights

        weights = _ma_weights(16, 0.7, 1000.0, 8)
        var = float(weights[-1] @ weights[-1])
        assert var == pytest.approx(1.0, abs=1e-2)

    def test_brownian_reduction(self):
        grid = GridSpec(32)
        values = batch_values(ma_sampler(grid, 0.5, truncation=2.0, substeps=4), 20_000, 21)
        assert values[:, -1].var(ddof=1) == pytest.approx(1.0, rel=0.05)

    def test_terminal_variance_normalized(self):
        grid = GridSpec(32)
        values = batch_values(ma_sampler(grid, 0.7, truncation=50.0, substeps=8), 20_000, 22)
        assert values[:, -1].var(ddof=1) == pytest.approx(1.0, abs=0.05)

    def test_truncation_bias_on_increment_covariance(self):
        # tight truncation shifts the long-lag increment covariance hard; a
        # wide horizon shrinks the shift a lot but a small residual bias
        # remains at this lag (H = 0.8, lag n/2, roughly -8% at T=50 vs
        # -26% at T=2)
        n, hurst, m_rep, lag = 64, 0.8, 20_000, 32
        grid = GridSpec(n)
        target = fgn_acf(lag, n, hurst)

        def lag_cov(truncation, seed):
            values = batch_values(ma_sampler(grid, hurst, truncation=truncation), m_rep, seed)
            incr = np.diff(np.hstack([np.zeros((m_rep, 1)), values]), axis=1)
            # average products within each path first; replicates are the
            # independent unit for the standard error
            prod = (incr[:, :-lag] * incr[:, lag:]).mean(axis=1)
            return prod.mean(), prod.std(ddof=1) / np.sqrt(m_rep)

        est_tight, se_tight = lag_cov(2.0, 23)
        est_wide, _ = lag_cov(50.0, 24)
        assert abs(est_tight - target) > 4 * se_tight
        assert abs(est_wide - target) < abs(est_tight - target) / 2
        assert abs(est_wide - target) <= 0.10 * target

    def test_factor_reproduces_weight_gram(self):
        # deterministic exactness: the map is the n x n factor L of W W^T, so
        # the draw has W's law from n normals; no jitter fires on this sweep.
        from selfsim.samplers import MA_DEFAULT_SUBSTEPS, _ma_weights

        for n in (2, 16, 64, 128):
            eye = np.eye(n)
            for truncation in (1.0, 2.0, 50.0):
                for hurst in (0.05, 0.1, 0.3, 0.5, 0.7, 0.8, 0.95, 0.99):
                    case = (n, hurst, truncation)
                    sampler = ma_sampler(GridSpec(n), hurst, truncation=truncation)
                    k, draw, info = sampler.k, sampler.draw, sampler.info
                    lower = draw(eye).T  # the rows of I L^T, exactly
                    weights = _ma_weights(n, hurst, truncation, MA_DEFAULT_SUBSTEPS)
                    gram = weights @ weights.T
                    assert k == n and info["jitter"] == 0.0, case
                    error = np.abs(lower @ lower.T - gram).max()
                    assert error <= 1e-14 * np.abs(gram).max(), case

    def test_lag_sum_gram_matches_weight_gram_at_edge_shapes(self):
        # one row, and N = round(T s n) not a multiple of s (T = 1.3, 7.7 at odd n or s = 3)
        from selfsim.samplers import _ma_gram, _ma_weights

        for n in (1, 3, 37, 100):
            for substeps in (1, 3, 8):
                for truncation in (1.3, 7.7, 50.0):
                    for hurst in (0.05, 0.1, 0.3, 0.5, 0.7, 0.8, 0.95, 0.99):
                        case = (n, substeps, truncation, hurst)
                        weights = _ma_weights(n, hurst, truncation, substeps)
                        gram = weights @ weights.T
                        error = np.abs(_ma_gram(n, hurst, truncation, substeps) - gram).max()
                        assert error <= 1e-14 * np.abs(gram).max(), case

    def test_build_allocates_no_weight_matrix(self):
        # at n = 512, T = 50 the (n, k) W alone would be 855 MB
        import tracemalloc

        tracemalloc.start()
        try:
            ma_sampler.__wrapped__(GridSpec(512), 0.7)  # uncached: a fresh build
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    @staticmethod
    def _time_difference_weights(n, hurst, truncation, substeps):
        """The weights as first written, from the time differences t - u."""
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

    def test_weights_equal_the_time_difference_form_bit_for_bit(self):
        # t - u is exact when n * substeps is a power of two, so the integer lags change no bit
        from selfsim.samplers import _ma_weights

        for n in (16, 64, 128):
            for truncation in (1.0, 2.0, 50.0):
                for hurst in (0.05, 0.3, 0.5, 0.8, 0.99):
                    got = _ma_weights(n, hurst, truncation, 8)
                    want = self._time_difference_weights(n, hurst, truncation, 8)
                    assert np.array_equal(got, want), (n, truncation, hurst)


def _public_sampler(method, process, hurst, grid):
    """The per-path public sampler of a METHOD_TABLE pair, with the CLI defaults."""
    from selfsim.lamperti import simulate_lamperti

    return {
        "bm-cumsum": lambda rng: bm_sampler(grid)(rng),
        "cholesky": lambda rng: cholesky_sampler(process, hurst, grid)(rng),
        "davies-harte": lambda rng: davies_harte_fbm(grid, hurst, rng),
        "ma-truncated": lambda rng: ma_truncated_fbm(grid, hurst, rng),
        "lamperti": lambda rng: simulate_lamperti(process, hurst, grid, rng),
    }[method]


def _table_pairs():
    from selfsim.cli import METHOD_TABLE

    return [(m, p) for m, (processes, _) in METHOD_TABLE.items() for p in processes]


class TestLinearSamplers:
    """generate_batch of each METHOD_TABLE sampler equals its public per-path sampler."""

    SEED = -3  # masked to 2**64 - 3, as RngStream does

    @staticmethod
    def _pair(method, process):
        import argparse

        from selfsim.cli import _build_sampler, _options

        hurst = 0.5 if process == "bm" else 0.7
        n = 64
        o = _options(argparse.Namespace(process=process, hurst=hurst), {})
        sampler = _build_sampler(o, method, n)
        return sampler, _public_sampler(method, process, hurst, GridSpec(n))

    def _assert_same(self, batch, public, stream_ids):
        assert batch.values.shape == (len(stream_ids), batch.n)
        rows = zip(batch.values, batch.stream_ids, stream_ids, strict=True)
        for row, batch_stream_id, stream_id in rows:
            expected = public(RngStream(self.SEED, stream_id))
            assert np.array_equal(row.view(np.uint64), expected.values.view(np.uint64))
            for field in ("method", "process", "hurst", "seed", "info"):
                assert getattr(batch, field) == getattr(expected, field), field
            assert batch_stream_id == expected.stream_id

    @pytest.mark.parametrize("method, process", _table_pairs())
    def test_batch_counts_around_block_size(self, method, process):
        sampler, public = self._pair(method, process)
        rows = sampler._block_rows  # the height of generate_batch's blocks of normals
        for count in sorted({1, max(1, rows - 1), rows, rows + 1, 2 * rows + 1}):
            batch = generate_batch(sampler, count, self.SEED)
            self._assert_same(batch, public, range(count))

    @pytest.mark.parametrize("method, process", _table_pairs())
    def test_batch_stream_ids(self, method, process):
        sampler, public = self._pair(method, process)
        ids = [7, 0, 7, 2**64 + 1]
        batch = generate_batch(sampler, len(ids), self.SEED, stream_ids=ids)
        self._assert_same(batch, public, [7, 0, 7, 1])

    def test_builders_are_reused(self):
        from selfsim.lamperti import lamperti_sampler

        builds = {
            "bm-cumsum": lambda: bm_sampler(GridSpec(16)),
            "cholesky": lambda: cholesky_sampler("fbm", 0.7, GridSpec(16)),
            "davies-harte": lambda: davies_harte_sampler(GridSpec(16), 0.7),
            "ma-truncated": lambda: ma_sampler(GridSpec(16), 0.7),
            "lamperti": lambda: lamperti_sampler("sfbm", 0.7, GridSpec(16)),
        }
        for method, build in builds.items():
            sampler = build()
            assert build() is sampler and sampler.method == method


class TestDenseMapRows:
    """Each row of a dense map's batch has the bits of its per-path call.

    OpenBLAS picks its GEMM kernel by the product's shape, so these shapes
    fail if `_factor_sampler` multiplies a whole block in one GEMM of variable
    height. That rows of a fixed-height GEMM do not depend on their position
    or neighbours is a property of the BLAS, not a numpy guarantee.
    """

    SEED = 31

    @staticmethod
    def _stream_ids(count):
        # out of order, and repeated in the larger batches
        return [2**63 + 5] + [(7 * i) % (count // 2 + 1) for i in range(count - 1, 0, -1)]

    SAMPLERS = {
        **{
            f"ma-{n}-T{t:g}": ma_sampler(GridSpec(n), 0.7, truncation=t)
            for n, t in ((2, 2.0), (16, 1.0), (32, 2.0), (64, 50.0))
        },
        **{
            f"chol-{n}": cholesky_sampler("fbm", 0.7, GridSpec(n)) for n in (32, 64, 256)
        },
        # verify-lamperti's shape: 128-row blocks of 126 normals, with a gather
        "lamperti-fbm-256": lamperti_sampler("fbm", 0.8, GridSpec(256)),
    }

    @pytest.mark.parametrize("sampler", SAMPLERS.values(), ids=SAMPLERS.keys())
    # 400 is verify-ma's batch, 1024 four full blocks of ma-64-T50
    @pytest.mark.parametrize("count", [1, 15, 16, 17, 33, 400, 1024])
    def test_rows_equal_per_path_calls(self, sampler, count):
        ids = self._stream_ids(count)
        batch = generate_batch(sampler, count, self.SEED, stream_ids=ids)
        for row, stream_id in zip(batch.values, ids, strict=True):
            expected = sampler(RngStream(self.SEED, stream_id)).values
            assert np.array_equal(row.view(np.uint64), expected.view(np.uint64)), stream_id


class TestCirculantMapRows:
    """Each row of a circulant map's batch has the bits of its per-path call, at
    davies-harte n = 1024 (8-row blocks, the benchmark's shape), lamperti fBm's
    sampler at n = 2048, H = 0.8, above its dense cutover (7-row blocks of its 2195
    live normals), and `lamperti_circulant` at n = 256, H = 0.8 (54-row blocks of
    its 303 live normals).

    `irfft` over axis 1 runs numpy's pocketfft once per row, so a row's bits do not
    depend on its position or neighbours. That is a property of numpy's per-row
    loop, not a documented guarantee, and these shapes pin it.
    """

    SEED = 37
    SAMPLERS = {
        "davies-harte-1024": davies_harte_sampler(GridSpec(1024), 0.7),
        "lamperti-fbm-256": lamperti_circulant(0.8, 256),
        "lamperti-fbm-2048": lamperti_sampler("fbm", 0.8, GridSpec(2048)),
    }

    @pytest.mark.parametrize("sampler", SAMPLERS.values(), ids=SAMPLERS.keys())
    @pytest.mark.parametrize("count", [1, 8, 9, 37, 54, 55, 128, 129, 216, 217])
    def test_rows_equal_per_path_calls(self, sampler, count):
        ids = TestDenseMapRows._stream_ids(count)
        batch = generate_batch(sampler, count, self.SEED, stream_ids=ids)
        for row, stream_id in zip(batch.values, ids, strict=True):
            expected = sampler(RngStream(self.SEED, stream_id)).values
            assert np.array_equal(row.view(np.uint64), expected.view(np.uint64)), stream_id
