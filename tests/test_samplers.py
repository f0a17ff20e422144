"""Sampler tests: Monte Carlo moments against exact kernels, embedding
repair behavior, and Cholesky jitter handling."""

import warnings

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
    ma_sampler,
    ma_truncated_fbm,
    normalizing_constant_CH,
    sample_bm,
    wood_chan_fbm,
    wood_chan_sampler,
)


def batch_values(sampler, count, seed):
    return generate_batch(sampler, count, seed).values


class TestSampleBm:
    def test_terminal_variance_and_midpoint_covariance(self):
        grid = GridSpec(16)
        values = batch_values(bm_sampler(grid), 100_000, 2024)
        assert values[:, -1].var(ddof=1) == pytest.approx(1.0, abs=0.02)
        cov = np.cov(values[:, 7], values[:, -1])[0, 1]
        assert cov == pytest.approx(0.5, abs=0.02)

    def test_degenerate_single_node(self):
        grid = GridSpec(1)
        path = sample_bm(grid, RngStream(5, 0))
        assert path.values.shape == (1,)
        values = batch_values(bm_sampler(grid), 20_000, 6)
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
        values = batch_values(cholesky_sampler(kernel, grid), 50_000, 31)
        emp = np.cov(values, rowvar=False)
        target = kernel.gram(grid.times())
        m = values.shape[0]
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
        assert np.max(np.abs(emp - target) / se) <= 5.0

    def test_brownian_reduction_increment_variance(self):
        grid = GridSpec(32)
        kernel = fbm_kernel(0.5)
        values = batch_values(cholesky_sampler(kernel, grid), 20_000, 32)
        incr = np.diff(np.hstack([np.zeros((values.shape[0], 1)), values]), axis=1)
        assert incr.var(ddof=1) == pytest.approx(1 / 32, rel=0.05)

    def test_kernel_built_directly_is_validated(self):
        from selfsim.core import ParameterError
        from selfsim.covmodels import CovarianceKernel

        for kernel in (CovarianceKernel("bm", 0.5), CovarianceKernel("fbm", 1.5)):
            with pytest.raises(ParameterError):
                cholesky_sample(kernel, GridSpec(4), RngStream(0, 0))

    def test_sfbm_terminal_variance(self):
        grid = GridSpec(16)
        kernel = sfbm_kernel(0.7)
        values = batch_values(cholesky_sampler(kernel, grid), 20_000, 33)
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

    def test_negative_doubling_cap_rejected(self):
        from selfsim.core import ParameterError

        with pytest.raises(ParameterError):
            circulant_spectrum(white_noise_acf(16), 16, max_doublings=-1)


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
        spectrum = circulant_spectrum(
            lambda k: fgn_acf(k, 32, 0.6), 32, max_doublings=None
        )
        fgn = circulant_sample(spectrum, 32, RngStream(10, 3))
        assert np.array_equal(path.values, np.cumsum(fgn))

    def test_wood_chan_matches_target_covariance(self):
        grid = GridSpec(32)
        values = batch_values(wood_chan_sampler(grid, 0.8), 50_000, 12)
        assert values[:, -1].var(ddof=1) == pytest.approx(1.0, rel=0.05)


class TestMovingAverage:
    @pytest.mark.parametrize("truncation", [0.5, float("nan"), float("inf")])
    def test_truncation_outside_range_rejected(self, truncation):
        from selfsim.core import ParameterError

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
            "cholesky": lambda: cholesky_sampler(fbm_kernel(0.7), GridSpec(16)),
            "davies-harte": lambda: davies_harte_sampler(GridSpec(16), 0.7),
            "circulant": lambda: wood_chan_sampler(GridSpec(16), 0.7),
            "ma-truncated": lambda: ma_sampler(GridSpec(16), 0.7),
            "lamperti": lambda: lamperti_sampler("sfbm", 0.7, GridSpec(16)),
        }
        for method, build in builds.items():
            sampler = build()
            assert build() is sampler and sampler.method == method


class TestDenseMapRows:
    """Each row of a dense map's batch has the bits of its per-path call.

    OpenBLAS picks its GEMM kernel by the product's shape, so these shapes
    fail if `_dense_map` multiplies a whole block in one GEMM of variable
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
        **{f"chol-{n}": cholesky_sampler(fbm_kernel(0.7), GridSpec(n)) for n in (32, 64, 256)},
    }

    @pytest.mark.parametrize("sampler", SAMPLERS.values(), ids=SAMPLERS.keys())
    @pytest.mark.parametrize("count", [1, 15, 16, 17, 33])
    def test_rows_equal_per_path_calls(self, sampler, count):
        ids = self._stream_ids(count)
        batch = generate_batch(sampler, count, self.SEED, stream_ids=ids)
        for row, stream_id in zip(batch.values, ids, strict=True):
            expected = sampler(RngStream(self.SEED, stream_id)).values
            assert np.array_equal(row.view(np.uint64), expected.view(np.uint64)), stream_id
