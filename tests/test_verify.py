"""Verification harness: estimator correctness, pass/fail logic, and
negative controls."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from selfsim.core import (
    GridSpec,
    ParameterError,
    ReplicateBatch,
    RngStream,
    generate_batch,
)
from selfsim.covmodels import fbm_cov
from selfsim.samplers import bm_sampler, cholesky_sampler, davies_harte_sampler
from selfsim.verify import (
    VerificationReport,
    covariance_match,
    empirical_covariance,
    ks_distance,
    marginal_variance_profile,
    method_equivalence,
    normality_check,
    quantile_scaling_check,
)


def synthetic_batch(values, method="cholesky", process="fbm", hurst=0.5):
    m, n = values.shape
    return ReplicateBatch(GridSpec(n), values, method, process, hurst, 0, tuple(range(m)))


# Each check on a batch, and the report fields it takes from elsewhere than the batch.
CHECKS = {
    "covariance-match": (covariance_match, {}),
    "normality": (lambda batch: normality_check(batch, 8), {}),
    "method-equivalence": (
        lambda batch: method_equivalence(
            batch, synthetic_batch(batch.values[::-1], method="davies-harte")
        ),
        {"method": "cholesky vs davies-harte"},
    ),
    "quantile-scaling": (lambda batch: quantile_scaling_check(batch, 0.5), {}),
    "marginal-variance": (marginal_variance_profile, {}),
}


@pytest.mark.parametrize("check", CHECKS)
def test_report_fields_come_from_the_batch(check):
    make, overrides = CHECKS[check]
    values = np.random.Generator(np.random.Philox(key=5)).standard_normal((1_000, 8))
    batch = synthetic_batch(values, process="sfbm", hurst=0.3)
    report = make(batch)
    payload = report.to_dict()
    assert list(payload) == [f.name for f in dataclasses.fields(VerificationReport)]
    assert payload["check"] == check
    assert payload["verdict"] == ("pass" if report.verdict else "fail")
    assert payload["details"] is report.details  # shared, not copied
    fields = {"method": "cholesky", "process": "sfbm", "hurst": 0.3, "n": 8, "m_replicates": 1_000}
    for key, value in {**fields, **overrides}.items():
        assert payload[key] == value, key


class TestEmpiricalCovariance:
    def test_exact_sampler_vs_kernel(self):
        grid = GridSpec(16)
        batch = generate_batch(cholesky_sampler("fbm", 0.7, grid), 50_000, 60)
        est, se = empirical_covariance(batch, [(8, 16)])
        target = fbm_cov(0.5, 1.0, 0.7)
        assert abs(est[0] - target) <= 4 * se[0]

    def test_iid_normals_uncorrelated(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        values = rng.standard_normal((10_000, 2))
        batch = synthetic_batch(values)
        est, se = empirical_covariance(batch, [(1, 2)])
        assert abs(est[0]) <= 4 / np.sqrt(10_000)

    def test_constant_zero_batch(self):
        batch = synthetic_batch(np.zeros((500, 4)))
        est, _ = empirical_covariance(batch, [(1, 4), (2, 2)])
        assert np.all(est == 0.0)

    def test_requires_minimum_replicates(self):
        batch = synthetic_batch(np.zeros((99, 4)))
        with pytest.raises(ParameterError):
            empirical_covariance(batch, [(1, 1)])


class TestCovarianceMatch:
    def test_exact_sampler_passes(self):
        grid = GridSpec(32)
        batch = generate_batch(cholesky_sampler("fbm", 0.6, grid), 20_000, 61)
        assert covariance_match(batch).verdict

    def test_wrong_kernel_fails(self):
        # negative control: paths with H=0.8 against the H=0.5 law
        grid = GridSpec(32)
        batch = generate_batch(davies_harte_sampler(grid, 0.8), 20_000, 62)
        assert not covariance_match(dataclasses.replace(batch, hurst=0.5)).verdict

    def test_stride_defaults(self):
        grid = GridSpec(128)
        batch = generate_batch(cholesky_sampler("fbm", 0.5, grid), 5_000, 63)
        report = covariance_match(batch)
        assert len(report.details[0]["nodes"]) == 32  # stride 4 above n=64

    def test_report_roundtrip(self):
        grid = GridSpec(16)
        batch = generate_batch(cholesky_sampler("fbm", 0.5, grid), 1_000, 64)
        report = covariance_match(batch)
        payload = report.to_dict()
        for key in (
            "check",
            "method",
            "process",
            "hurst",
            "n",
            "m_replicates",
            "verdict",
            "worst_deviation",
            "tolerance",
            "details",
        ):
            assert key in payload
        assert payload["verdict"] in ("pass", "fail")


class TestNormality:
    def test_gaussian_passes(self):
        grid = GridSpec(16)
        batch = generate_batch(bm_sampler(grid), 10_000, 65)
        assert normality_check(batch, 16).verdict

    def test_uniform_noise_fails(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        values = rng.uniform(-1, 1, size=(10_000, 4))
        assert not normality_check(synthetic_batch(values), 4).verdict

    def test_ks_distance_of_normal_sample_is_small(self):
        rng = np.random.Generator(np.random.Philox(key=10))
        assert ks_distance(rng.standard_normal(50_000)) <= 1.63 / np.sqrt(50_000)

    @pytest.mark.parametrize("m", [1000, 50_000])
    def test_ks_distance_matches_scipy_kstest(self, m):
        x = 3.0 + 2.0 * np.random.Generator(np.random.Philox(key=m)).standard_normal(m)
        expected = stats.kstest((x - x.mean()) / x.std(ddof=1), "norm").statistic
        assert abs(ks_distance(x) - expected) <= 1e-14

    def test_requires_minimum_replicates(self):
        batch = synthetic_batch(np.zeros((500, 4)))
        with pytest.raises(ParameterError):
            normality_check(batch, 1)


class TestMethodEquivalence:
    def test_same_law_passes(self):
        grid = GridSpec(32)
        a = generate_batch(davies_harte_sampler(grid, 0.7), 20_000, 66)
        b = generate_batch(cholesky_sampler("fbm", 0.7, grid), 20_000, 67)
        assert method_equivalence(a, b).verdict

    def test_different_hurst_fails(self):
        grid = GridSpec(32)
        a = generate_batch(davies_harte_sampler(grid, 0.8), 20_000, 68)
        b = generate_batch(davies_harte_sampler(grid, 0.5), 20_000, 69)
        assert not method_equivalence(a, b).verdict

    def test_mismatched_grids_rejected(self):
        a = synthetic_batch(np.zeros((200, 4)) + np.arange(4))
        b = synthetic_batch(np.zeros((200, 8)) + np.arange(8))
        with pytest.raises(ParameterError):
            method_equivalence(a, b)

    def test_fewer_than_two_paths_rejected(self):
        one, two = synthetic_batch(np.zeros((1, 4))), synthetic_batch(np.ones((2, 4)))
        for a, b in ((one, two), (two, one)):
            with pytest.raises(ParameterError):
                method_equivalence(a, b)

    @pytest.mark.parametrize(
        "method_a, method_b, diagonal_only",
        [
            ("lamperti", "cholesky", True),
            ("cholesky", "lamperti", True),
            ("davies-harte", "cholesky", False),
        ],
    )
    def test_lamperti_is_judged_on_variances_alone(self, method_a, method_b, diagonal_only):
        # the same variances, independent against identical columns: only the
        # covariances differ, which a check of lamperti (exact in marginal law
        # only) does not judge
        rng = np.random.Generator(np.random.Philox(key=13))
        independent = rng.standard_normal((2_000, 4))
        identical = np.repeat(rng.standard_normal((2_000, 1)), 4, axis=1)
        a = synthetic_batch(independent, method=method_a)
        report = method_equivalence(a, synthetic_batch(identical, method=method_b))
        assert report.details[0]["diagonal_only"] is diagonal_only
        assert report.verdict is diagonal_only

    def test_rerun_identical(self):
        grid = GridSpec(16)
        a = generate_batch(davies_harte_sampler(grid, 0.6), 2_000, 70)
        b = generate_batch(davies_harte_sampler(grid, 0.6), 2_000, 71)
        r1 = method_equivalence(a, b).to_dict()
        r2 = method_equivalence(a, b).to_dict()
        assert r1 == r2


class TestQuantileScaling:
    def test_self_similar_sampler_passes(self):
        grid = GridSpec(64)
        batch = generate_batch(cholesky_sampler("fbm", 0.7, grid), 20_000, 72)
        assert quantile_scaling_check(batch, 0.5).verdict

    def test_wrong_exponent_fails(self):
        # scaling by the wrong index breaks the quantile match: H = 0.7 paths at H = 0.2
        grid = GridSpec(64)
        batch = generate_batch(cholesky_sampler("fbm", 0.7, grid), 20_000, 73)
        assert not quantile_scaling_check(dataclasses.replace(batch, hurst=0.2), 0.5).verdict

    def test_off_grid_scale_rejected(self):
        batch = synthetic_batch(np.random.default_rng(0).standard_normal((200, 10)))
        with pytest.raises(ParameterError):
            quantile_scaling_check(batch, 1 / 3)


class TestSeCalibration:
    def test_four_se_rule_rejection_rate_on_iid_gaussians(self):
        # the 4-SE band should almost never reject exact data
        rng = np.random.Generator(np.random.Philox(key=12))
        rejections = 0
        trials = 200
        for _ in range(trials):
            values = rng.standard_normal((2_000, 4))
            batch = synthetic_batch(values)
            est, se = empirical_covariance(batch, [(1, 2), (3, 4)])
            rejections += int(np.any(np.abs(est) > 4 * se))
        assert rejections / trials <= 0.01
