"""Covariance kernels and stationary autocovariances against independent
brute-force oracles."""

import math

import mpmath
import numpy as np
import pytest

from selfsim.core import ParameterError
from selfsim.covmodels import (
    fbm_cov,
    fgn_acf,
    lamperti_acf_fbm,
    _covariance,
    lamperti_acf_sfbm,
    sfbm_cov,
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


@pytest.mark.parametrize("process", ["fbm", "sfbm"], ids=lambda p: f"{p}_kernel")
class TestKernelGram:
    def test_positive_semidefinite_on_random_grids(self, process):
        rng = np.random.Generator(np.random.Philox(key=11))
        for hurst in HURSTS:
            for _ in range(5):
                times = np.sort(rng.uniform(0.01, 2.0, size=rng.integers(3, 17)))
                gram = _covariance(process)(times[:, None], times[None, :], hurst)
                assert np.allclose(gram, gram.T)
                assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_gram_matches_scalar_evaluate(self, process):
        times = np.array([0.1, 0.4, 1.0])
        gram = _covariance(process)(times[:, None], times[None, :], 0.7)
        for i, s in enumerate(times):
            for j, t in enumerate(times):
                scalar = {"fbm": fbm_cov, "sfbm": sfbm_cov}[process](s, t, 0.7)
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


ACFS = {"fgn": fgn_acf, "lamperti-fbm": lamperti_acf_fbm, "lamperti-sfbm": lamperti_acf_sfbm}


@pytest.mark.parametrize("acf", ACFS.values(), ids=ACFS)
@pytest.mark.parametrize("n, hurst", [(16, 0.05), (257, 0.3), (4096, 0.7), (1000, 0.99)])
def test_scalar_lag_gives_the_array_bits(acf, n, hurst):
    # numpy takes other loops for scalar operands than for arrays; a lag
    # computed alone must still give the bits of its entry in the row
    lags = np.arange(n + 1)
    row = acf(lags, n, hurst)
    assert row.shape == lags.shape and acf(lags[None, :], n, hurst).shape == (1, n + 1)
    alone = np.array([acf(k, n, hurst) for k in range(n + 1)])
    assert np.array_equal(alone.view(np.uint64), row.view(np.uint64))


def mp_fgn_acf(k, n, hurst):
    h2, k = 2 * mpmath.mpf(hurst), mpmath.mpf(k)
    return ((k + 1) ** h2 + abs(k - 1) ** h2 - 2 * k**h2) / (2 * mpmath.mpf(n) ** h2)


def mp_lamperti_acf(cov, k, n, hurst):
    # c(n^-x, n^x), x = k / (2n), with the covariance written out in mpmath
    x = mpmath.mpf(k) / (2 * n)
    lo, hi, h2 = mpmath.mpf(n) ** -x, mpmath.mpf(n) ** x, 2 * mpmath.mpf(hurst)
    if cov == "fbm":
        return (hi**h2 + lo**h2 - (hi - lo) ** h2) / 2
    return hi**h2 + lo**h2 - ((hi + lo) ** h2 + (hi - lo) ** h2) / 2


def acf_errors_against_mpmath(acf, oracle):
    """Worst |acf - oracle| over n, H and lags, as a fraction of oracle(0) and
    relative to oracle(k). The lags are 0..7, 40 log-spaced ones and the last 8."""
    worst_of_zero = worst_relative = 0.0
    with mpmath.workdps(40):
        for n in (16, 256, 4096, 32768):
            lags = np.unique(np.r_[np.arange(8), np.geomspace(8, n, 40).round(), n - np.arange(8)])
            lags = lags.astype(int).tolist()
            for hurst in (0.05, 0.3, 0.8, 0.99):
                values = acf(np.array(lags), n, hurst)
                exact = [oracle(k, n, hurst) for k in lags]
                for value, ref in zip(values.tolist(), exact):
                    error = abs(mpmath.mpf(value) - ref)
                    worst_of_zero = max(worst_of_zero, float(error / oracle(0, n, hurst)))
                    worst_relative = max(worst_relative, float(error / abs(ref)))
    return worst_of_zero, worst_relative


def test_fgn_acf_against_mpmath():
    # the direct second difference cancels k^2H and lost 1.4e-7 of rho(0) here
    # (3.1e-6 relative); the expm1/log1p form measured 3.6e-12 and 2.9e-11
    of_zero, relative = acf_errors_against_mpmath(fgn_acf, mp_fgn_acf)
    assert of_zero <= 5e-12 and relative <= 5e-11


@pytest.mark.parametrize("process", ["fbm", "sfbm"])
def test_lamperti_acf_against_mpmath(process):
    # measured 3.2e-12 (fbm) and 2.0e-10 (sfbm) of rho(0), at n = 32768, H = 0.99,
    # where sfbm's rho(0) is 0.028 and its terms are about 3e4; the per-lag
    # scalar formulas this replaced lost 2.3e-11 and 1.8e-9
    acf = ACFS[f"lamperti-{process}"]
    of_zero, _ = acf_errors_against_mpmath(acf, lambda k, n, h: mp_lamperti_acf(process, k, n, h))
    assert of_zero <= {"fbm": 5e-12, "sfbm": 3e-10}[process]
