"""Sampler tests: Monte Carlo moments against exact kernels, embedding
repair behavior, and Cholesky jitter handling."""

import numpy as np
import pytest

from selfsim.core import GridSpec, RngStream, generate_batch
from selfsim.covmodels import fbm_kernel, fgn_acf, sfbm_kernel
from selfsim.samplers import (
    EmbeddingError,
    NotPositiveDefiniteError,
    bm_sampler,
    cholesky_factor,
    cholesky_sample,
    cholesky_sampler,
    circulant_sample,
    circulant_spectrum,
    davies_harte_fbm,
    davies_harte_sampler,
    ma_truncated_fbm,
    normalizing_constant_CH,
    sample_bm,
    wood_chan_fbm,
    wood_chan_sampler,
)


def batch_values(sampler, count, seed):
    return generate_batch(sampler, count, seed).values_matrix()


class TestSampleBm:
    def test_terminal_variance_and_midpoint_covariance(self):
        grid = GridSpec(16)
        values = batch_values(lambda r: sample_bm(grid, r), 100_000, 2024)
        assert values[:, -1].var(ddof=1) == pytest.approx(1.0, abs=0.02)
        cov = np.cov(values[:, 7], values[:, -1])[0, 1]
        assert cov == pytest.approx(0.5, abs=0.02)

    def test_degenerate_single_node(self):
        grid = GridSpec(1)
        path = sample_bm(grid, RngStream(5, 0))
        assert path.values.shape == (1,)
        values = batch_values(lambda r: sample_bm(grid, r), 20_000, 6)
        assert values[:, 0].var(ddof=1) == pytest.approx(1.0, abs=0.05)

    def test_deterministic(self):
        grid = GridSpec(64)
        a = sample_bm(grid, RngStream(1, 2)).values
        b = sample_bm(grid, RngStream(1, 2)).values
        assert np.array_equal(a, b)


class TestCholeskyFactor:
    def test_identity(self):
        factor = cholesky_factor(np.eye(5))
        assert factor.jitter == 0.0
        assert np.allclose(factor.lower, np.eye(5))

    def test_reconstructs_fbm_gram(self):
        times = np.array([0.25, 0.5, 0.75, 1.0])
        gram = fbm_kernel(0.5).gram(times)
        factor = cholesky_factor(gram)
        rebuilt = factor.lower @ factor.lower.T
        assert rebuilt[3, 3] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rebuilt - gram)) <= 1e-8 * np.diag(gram).max()

    def test_tiny_negative_eigenvalue_repaired(self):
        # rank-deficient matrix pushed slightly indefinite
        v = np.array([1.0, 1.0, 1.0])
        gram = np.outer(v, v) + np.diag([0.5, 0.5, -1e-14])
        factor = cholesky_factor(gram)
        assert factor.jitter <= 1e-12 * np.diag(gram).max()

    def test_indefinite_fails_with_pivot(self):
        gram = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_factor(gram)
        assert err.value.pivot == 2


class TestCholeskySample:
    def test_covariance_matches_kernel(self):
        grid = GridSpec(16)
        kernel = fbm_kernel(0.7)
        values = batch_values(lambda r: cholesky_sample(kernel, grid, r), 50_000, 31)
        emp = np.cov(values, rowvar=False)
        target = kernel.gram(grid.times())
        m = values.shape[0]
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
        assert np.max(np.abs(emp - target) / se) <= 5.0

    def test_brownian_reduction_increment_variance(self):
        grid = GridSpec(32)
        kernel = fbm_kernel(0.5)
        values = batch_values(lambda r: cholesky_sample(kernel, grid, r), 20_000, 32)
        incr = np.diff(np.hstack([np.zeros((values.shape[0], 1)), values]), axis=1)
        assert incr.var(ddof=1) == pytest.approx(1 / 32, rel=0.05)

    def test_sfbm_terminal_variance(self):
        grid = GridSpec(16)
        kernel = sfbm_kernel(0.7)
        values = batch_values(lambda r: cholesky_sample(kernel, grid, r), 20_000, 33)
        target = 2.0 - 2.0**0.4
        assert values[:, -1].var(ddof=1) == pytest.approx(target, rel=0.05)

    def test_deterministic(self):
        grid = GridSpec(16)
        kernel = fbm_kernel(0.3)
        a = cholesky_sample(kernel, grid, RngStream(4, 4)).values
        b = cholesky_sample(kernel, grid, RngStream(4, 4)).values
        assert np.array_equal(a, b)


def white_noise_acf(n):
    return lambda k: 1.0 if k == 0 else 0.0


class TestCirculantSpectrum:
    def test_white_noise_eigenvalues_all_one(self):
        spec = circulant_spectrum(white_noise_acf(16), 16)
        assert spec.clamped_count == 0
        assert spec.doublings == 0
        assert np.allclose(spec.eigenvalues, 1.0)

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_fgn_embedding_nonnegative_at_minimal_size(self, hurst):
        n = 256
        spec = circulant_spectrum(lambda k: fgn_acf(k, n, hurst), n)
        assert spec.doublings == 0
        assert spec.clamped_count == 0
        assert spec.m == 2 * (n - 1)

    def test_squared_exponential_needs_doubling(self):
        n = 32
        acf = lambda k: float(np.exp(-((k / 8) ** 2)))
        spec = circulant_spectrum(acf, n)
        assert spec.doublings >= 1
        assert spec.eigenvalues.min() >= 0.0

    def test_truncated_acf_raises_after_cap(self):
        n = 64
        acf = lambda k: fgn_acf(k, n, 0.9) if k <= 16 else 0.0
        with pytest.raises(EmbeddingError):
            circulant_spectrum(acf, n)


class TestCirculantSample:
    def test_empirical_acf_matches_input(self):
        n, hurst, m_rep = 64, 0.8, 100_000
        acf = lambda k: fgn_acf(k, n, hurst)
        spec = circulant_spectrum(acf, n)

        def one(rng):
            return circulant_sample(spec, n, rng)

        rows = np.stack([one(RngStream(77, i)) for i in range(m_rep)])
        for lag in range(5):
            emp = np.mean(rows[:, 0] * rows[:, lag])
            target = acf(lag)
            se = np.sqrt((acf(0) ** 2 + target**2) / m_rep)
            assert abs(emp - target) <= 4 * se

    def test_white_noise_lag_one_correlation(self):
        n = 32
        spec = circulant_spectrum(white_noise_acf(n), n)
        rows = np.stack([circulant_sample(spec, n, RngStream(5, i)) for i in range(20_000)])
        corr = np.mean(rows[:, 0] * rows[:, 1])
        assert abs(corr) <= 4 / np.sqrt(rows.shape[0])


class TestDaviesHarte:
    def test_midpoint_covariance(self):
        grid = GridSpec(64)
        values = batch_values(lambda r: davies_harte_fbm(grid, 0.7, r), 100_000, 8)
        emp = np.cov(values[:, 31], values[:, -1])[0, 1]
        from selfsim.covmodels import fbm_cov

        target = fbm_cov(0.5, 1.0, 0.7)
        se = np.sqrt((fbm_cov(0.5, 0.5, 0.7) * 1.0 + target**2) / values.shape[0])
        assert abs(emp - target) <= 4 * se

    def test_brownian_reduction(self):
        grid = GridSpec(64)
        values = batch_values(lambda r: davies_harte_fbm(grid, 0.5, r), 20_000, 9)
        incr = np.diff(np.hstack([np.zeros((values.shape[0], 1)), values]), axis=1)
        assert incr.var(ddof=1) == pytest.approx(1 / 64, rel=0.05)

    def test_cumulative_sum_consistency(self):
        grid = GridSpec(32)
        rng = RngStream(10, 3)
        path = davies_harte_fbm(grid, 0.6, rng)
        from selfsim.samplers import _fgn_spectrum

        fgn = circulant_sample(_fgn_spectrum(32, 0.6, 0, True), 32, RngStream(10, 3))
        assert np.array_equal(path.values, np.cumsum(fgn))

    def test_wood_chan_matches_target_covariance(self):
        grid = GridSpec(32)
        values = batch_values(lambda r: wood_chan_fbm(grid, 0.8, r), 50_000, 12)
        assert values[:, -1].var(ddof=1) == pytest.approx(1.0, rel=0.05)


class TestMovingAverage:
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

    def test_variance_roundtrip_with_long_horizon(self):
        # deterministic reconstruction of Var(B^H(1)) from the discretized
        # kernel with the normalization applied
        from selfsim.samplers import _ma_weights

        weights = _ma_weights(16, 0.7, 1000.0, 8)
        var = float(weights[-1] @ weights[-1])
        assert var == pytest.approx(1.0, abs=1e-2)

    def test_brownian_reduction(self):
        grid = GridSpec(32)
        values = batch_values(
            lambda r: ma_truncated_fbm(grid, 0.5, r, truncation=2.0, substeps=4),
            20_000,
            21,
        )
        assert values[:, -1].var(ddof=1) == pytest.approx(1.0, rel=0.05)

    def test_terminal_variance_normalized(self):
        grid = GridSpec(32)
        values = batch_values(
            lambda r: ma_truncated_fbm(grid, 0.7, r, truncation=50.0, substeps=8),
            20_000,
            22,
        )
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
            values = batch_values(
                lambda r: ma_truncated_fbm(grid, hurst, r, truncation=truncation),
                m_rep,
                seed,
            )
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


def _public_sampler(method, process, hurst, grid):
    """The per-path public sampler of a METHOD_TABLE pair, with the CLI defaults."""
    from selfsim.covmodels import make_kernel
    from selfsim.lamperti import simulate_lamperti

    return {
        "bm-cumsum": lambda rng: sample_bm(grid, rng),
        "cholesky": lambda rng: cholesky_sample(make_kernel(process, hurst), grid, rng),
        "davies-harte": lambda rng: davies_harte_fbm(grid, hurst, rng),
        "circulant": lambda rng: wood_chan_fbm(grid, hurst, rng),
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

        from selfsim.cli import _build_sampler

        hurst = 0.5 if process == "bm" else 0.7
        n = 8 if method == "ma-truncated" else 64
        sampler = _build_sampler(argparse.Namespace(), process, method, hurst, n)
        return sampler, _public_sampler(method, process, hurst, GridSpec(n))

    def _assert_same(self, batch, public, stream_ids):
        infos = set()
        for path, stream_id in zip(batch.paths, stream_ids, strict=True):
            expected = public(RngStream(self.SEED, stream_id))
            assert np.array_equal(path.values.view(np.uint64), expected.values.view(np.uint64))
            for field in ("method", "process", "hurst", "seed", "stream_id", "info"):
                assert getattr(path, field) == getattr(expected, field), field
            infos.add(id(path.info))
        assert len(infos) == len(batch.paths)

    @pytest.mark.parametrize("method, process", _table_pairs())
    def test_batch_counts_around_block_size(self, method, process):
        sampler, public = self._pair(method, process)
        rows = max(1, 2**16 // sampler.plan()[0])
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
            "cholesky": lambda: cholesky_sampler(fbm_kernel(0.7), GridSpec(16)),
            "davies-harte": lambda: davies_harte_sampler(GridSpec(16), 0.7),
            "circulant": lambda: wood_chan_sampler(GridSpec(16), 0.7),
            "lamperti": lambda: lamperti_sampler("sfbm", 0.7, GridSpec(16)),
        }
        for method, build in builds.items():
            sampler = build()
            assert build() is sampler and sampler.method == method
