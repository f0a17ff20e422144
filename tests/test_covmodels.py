"""Covariance kernels and stationary autocovariances against independent
brute-force oracles."""

import math

import numpy as np
import pytest

from selfsim.core import ParameterError
from selfsim.covmodels import (
    fbm_cov,
    fbm_kernel,
    fgn_acf,
    lamperti_acf_fbm,
    lamperti_acf_sfbm,
    sfbm_cov,
    sfbm_kernel,
)

HURSTS = (0.1, 0.3, 0.5, 0.7, 0.9)


def lamperti_cov_oracle(cov, k, n, hurst):
    """Covariance of the rescaled sequence computed straight from the kernel:
    Cov(a1 X(t1), a2 X(t2)) with ai, ti from the log-to-uniform change of
    variables. Independent of the closed-form lag formulas under test."""
    t1 = n ** (1 / n - 1)
    t2 = n ** ((k + 1) / n - 1)
    a1 = n ** (-hurst * (1 / n - 1))
    a2 = n ** (-hurst * ((k + 1) / n - 1))
    return a1 * a2 * cov(t1, t2, hurst)


class TestFbmCov:
    @pytest.mark.parametrize("hurst", HURSTS)
    def test_unit_variance_at_one(self, hurst):
        assert fbm_cov(1.0, 1.0, hurst) == pytest.approx(1.0)

    def test_brownian_reduction_is_min(self):
        assert fbm_cov(1.0, 2.0, 0.5) == pytest.approx(1.0)
        for s, t in [(0.2, 0.9), (0.5, 0.5), (1.3, 0.4)]:
            assert fbm_cov(s, t, 0.5) == pytest.approx(min(s, t), abs=1e-14)

    def test_direct_value(self):
        assert fbm_cov(1.0, 2.0, 0.75) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_symmetry_and_zero_at_origin(self):
        for hurst in HURSTS:
            assert fbm_cov(0.3, 0.8, hurst) == pytest.approx(fbm_cov(0.8, 0.3, hurst))
            assert fbm_cov(0.0, 0.8, hurst) == 0.0

    def test_hurst_domain(self):
        with pytest.raises(ParameterError):
            fbm_cov(1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            fbm_cov(1.0, 1.0, 0.0)


class TestSfbmCov:
    @pytest.mark.parametrize("hurst", HURSTS)
    def test_zero_at_origin(self, hurst):
        assert sfbm_cov(0.0, 0.7, hurst) == 0.0

    def test_value_at_one_one_half(self):
        assert sfbm_cov(1.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_diagonal_closed_form(self):
        t, hurst = 0.5, 0.7
        expected = (2.0 - 2.0 ** (2 * hurst - 1)) * t ** (2 * hurst)
        assert sfbm_cov(t, t, hurst) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("make", [fbm_kernel, sfbm_kernel])
class TestKernelGram:
    def test_positive_semidefinite_on_random_grids(self, make):
        rng = np.random.Generator(np.random.Philox(key=11))
        for hurst in HURSTS:
            kernel = make(hurst)
            for _ in range(5):
                times = np.sort(rng.uniform(0.01, 2.0, size=rng.integers(3, 17)))
                gram = kernel.gram(times)
                assert np.allclose(gram, gram.T)
                assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_gram_matches_scalar_evaluate(self, make):
        kernel = make(0.7)
        times = np.array([0.1, 0.4, 1.0])
        gram = kernel.gram(times)
        for i, s in enumerate(times):
            for j, t in enumerate(times):
                scalar = {"fbm": fbm_cov, "sfbm": sfbm_cov}[kernel.process](s, t, 0.7)
                assert gram[i, j] == pytest.approx(scalar, abs=1e-14)


class TestFgnAcf:
    @pytest.mark.parametrize("hurst", HURSTS)
    def test_lag_zero_is_increment_variance(self, hurst):
        n = 32
        assert fgn_acf(0, n, hurst) == pytest.approx(n ** (-2 * hurst), rel=1e-13)

    def test_brownian_increments_uncorrelated(self):
        for k in range(1, 10):
            assert fgn_acf(k, 16, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_direct_value(self):
        expected = (2**1.5 - 2) / (2 * 4**1.5)
        assert fgn_acf(1, 4, 0.75) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("hurst", HURSTS)
    @pytest.mark.parametrize("n", [8, 64])
    def test_consistent_with_kernel_differences(self, n, hurst):
        # gamma(k) = Cov(B(k+1 / n) - B(k/n), B(1/n)) from the kernel
        for k in range(n + 1):
            oracle = fbm_cov((k + 1) / n, 1 / n, hurst) - fbm_cov(k / n, 1 / n, hurst)
            assert fgn_acf(k, n, hurst) == pytest.approx(oracle, abs=1e-12)


class TestLampertiAcf:
    def test_fbm_unit_variance(self):
        for n in (8, 64, 256):
            for hurst in HURSTS:
                assert lamperti_acf_fbm(0, n, hurst) == pytest.approx(1.0, abs=1e-14)

    def test_fbm_half_closed_form(self):
        n, k = 8, 3
        assert lamperti_acf_fbm(k, n, 0.5) == pytest.approx(
            n ** (-k / (2 * n)), abs=1e-14
        )

    def test_sfbm_lag_zero(self):
        for hurst in HURSTS:
            assert lamperti_acf_sfbm(0, 16, hurst) == pytest.approx(
                2.0 - 2.0 ** (2 * hurst - 1), abs=1e-14
            )
        assert lamperti_acf_sfbm(0, 16, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_fbm_brute_force_single(self):
        assert lamperti_acf_fbm(2, 8, 0.7) == pytest.approx(
            lamperti_cov_oracle(fbm_cov, 2, 8, 0.7), abs=1e-12
        )

    def test_sfbm_brute_force_single(self):
        assert lamperti_acf_sfbm(2, 8, 0.7) == pytest.approx(
            lamperti_cov_oracle(sfbm_cov, 2, 8, 0.7), abs=1e-12
        )

    @pytest.mark.parametrize("hurst", HURSTS)
    @pytest.mark.parametrize("n", [8, 64])
    def test_brute_force_lattice(self, n, hurst):
        for k in range(n + 1):
            assert lamperti_acf_fbm(k, n, hurst) == pytest.approx(
                lamperti_cov_oracle(fbm_cov, k, n, hurst), abs=1e-10
            )
            assert lamperti_acf_sfbm(k, n, hurst) == pytest.approx(
                lamperti_cov_oracle(sfbm_cov, k, n, hurst), abs=1e-10
            )

    @pytest.mark.parametrize("hurst", HURSTS)
    def test_bounded_by_lag_zero(self, hurst):
        n = 64
        r0f = lamperti_acf_fbm(0, n, hurst)
        r0s = lamperti_acf_sfbm(0, n, hurst)
        for k in range(1, n + 1):
            assert abs(lamperti_acf_fbm(k, n, hurst)) <= r0f + 1e-12
            assert abs(lamperti_acf_sfbm(k, n, hurst)) <= r0s + 1e-12
