"""Verification harness: estimator correctness, pass/fail logic, and
negative controls."""

import dataclasses
import inspect

import numpy as np
import pytest
from scipy import stats

from selfsim.core import (
    GridSpec,
    ParameterError,
    ReplicateBatch,
    RngStream,
    generate_batch,
    generate_blocks,
)
from selfsim.covmodels import fbm_cov
from selfsim.samplers import bm_sampler, cholesky_sampler, davies_harte_sampler
from selfsim import verify
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
    "normality": (normality_check, {}),
    "method-equivalence": (
        lambda batch: method_equivalence(
            batch, synthetic_batch(batch.values[::-1], method="davies-harte")
        ),
        {"method": "cholesky vs davies-harte"},
    ),
    "quantile-scaling": (quantile_scaling_check, {}),
    "marginal-variance": (marginal_variance_profile, {}),
}


def test_checks_take_their_data_alone():
    # a check's rule and tolerance are fixed in the module: no node, scale,
    # tolerance or stride parameter, so a knob cannot come back unnoticed
    checks = {
        name: list(inspect.signature(getattr(verify, name)).parameters)
        for name in verify.__all__
        if inspect.signature(getattr(verify, name)).return_annotation == "VerificationReport"
    }
    assert checks == {
        "covariance_match": ["batch"],
        "marginal_variance_profile": ["batch"],
        "normality_check": ["batch"],
        "method_equivalence": ["batch_a", "batch_b"],
        "quantile_scaling_check": ["batch"],
        "error_bound_check": ["n_list", "hurst"],
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


# Each check on a run `a` of paths (method_equivalence's other run `b`), and its path minimum.
MINIMA = {
    "covariance-match": (lambda a, b: covariance_match(a), 100),
    "marginal-variance": (lambda a, b: marginal_variance_profile(a), 2),
    "normality": (lambda a, b: normality_check(a), 1000),
    "method-equivalence-a": (method_equivalence, 2),
    "method-equivalence-b": (lambda a, b: method_equivalence(b, a), 2),
    "quantile-scaling": (lambda a, b: quantile_scaling_check(a), 100),
    "empirical-covariance": (lambda a, b: empirical_covariance(a, [(1, 2)]), 100),
}


@pytest.mark.parametrize("check", MINIMA)
def test_each_check_takes_at_least_its_minimum(check):
    # no block, or one path too few, is a usage error naming the minimum, whether
    # it comes as a batch or as blocks of at most 7 paths; the minimum itself is not
    call, minimum = MINIMA[check]
    sampler = in_one_block(davies_harte_sampler(GridSpec(8), 0.7), 7)
    other = generate_batch(sampler, minimum, 2)
    short = [[], generate_blocks(sampler, minimum - 1, 1), generate_batch(sampler, minimum - 1, 1)]
    for run in short:
        with pytest.raises(ParameterError, match=f"at least {minimum} replicates"):
            call(run, other)
    call(generate_blocks(sampler, minimum, 1), other)
    call(generate_batch(sampler, minimum, 1), other)


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
        report = normality_check(batch)
        assert report.verdict
        assert [d["node"] for d in report.details] == [4, 8, 16]

    def test_uniform_noise_fails(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        values = rng.uniform(-1, 1, size=(10_000, 4))
        assert not normality_check(synthetic_batch(values)).verdict

    def test_ks_distance_of_normal_sample_is_small(self):
        rng = np.random.Generator(np.random.Philox(key=10))
        assert ks_distance(rng.standard_normal(50_000)) <= 1.63 / np.sqrt(50_000)

    @pytest.mark.parametrize("m", [1000, 50_000])
    def test_ks_distance_matches_scipy_kstest(self, m):
        x = 3.0 + 2.0 * np.random.Generator(np.random.Philox(key=m)).standard_normal(m)
        expected = stats.kstest((x - x.mean()) / x.std(ddof=1), "norm").statistic
        assert abs(ks_distance(x) - expected) <= 1e-14


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
        assert quantile_scaling_check(batch).verdict

    def test_wrong_exponent_fails(self):
        # scaling by the wrong index breaks the quantile match: H = 0.7 paths at H = 0.2
        grid = GridSpec(64)
        batch = generate_batch(cholesky_sampler("fbm", 0.7, grid), 20_000, 73)
        assert not quantile_scaling_check(dataclasses.replace(batch, hurst=0.2)).verdict

    def test_three_blocks_and_their_batch_give_one_report(self):
        # 334-row blocks: 1 000 paths come in three, and only nodes n/2 and n are kept
        sampler = in_one_block(cholesky_sampler("fbm", 0.7, GridSpec(64)), 334)
        blocks = list(generate_blocks(sampler, 1_000, 74))
        assert [block.count for block in blocks] == [334, 334, 332]
        streamed = quantile_scaling_check(iter(blocks)).to_dict()
        assert streamed == quantile_scaling_check(generate_batch(sampler, 1_000, 74)).to_dict()
        assert streamed["m_replicates"] == 1_000

    def test_off_grid_scale_rejected(self):
        # the scale 1/2 of an odd grid falls between two nodes
        batch = synthetic_batch(np.random.default_rng(0).standard_normal((200, 9)))
        with pytest.raises(ParameterError):
            quantile_scaling_check(batch)


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


def in_one_block(sampler, rows):
    """`sampler` drawn in blocks of `rows` rows: its own map, with a GEMM height of
    `rows`, so `generate_blocks` yields `rows` paths a block."""
    def draw(z):
        return sampler.draw(z)

    draw.gemm_rows = rows
    return dataclasses.replace(sampler, draw=draw)


# The checks that keep only some columns of their blocks, each on its runs of 1 000 paths.
COLUMN_CHECKS = {
    "covariance-match": lambda a, b: covariance_match(a),
    "normality": lambda a, b: normality_check(a),
    "method-equivalence": method_equivalence,
    "quantile-scaling": lambda a, b: quantile_scaling_check(a),
}


class TestBlocks:
    """covariance_match, normality_check, method_equivalence and
    quantile_scaling_check take the blocks of `generate_blocks` one at a time, and
    stack only their nodes' columns."""

    @staticmethod
    def samplers(n, hurst=0.7):
        grid = GridSpec(n)
        return davies_harte_sampler(grid, hurst), cholesky_sampler("fbm", hurst, grid)

    # n = 32 compares every node, n = 128 a stride-4 subgrid (STRIDE_THRESHOLD = 64)
    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("blocks", ["one", "several"])
    @pytest.mark.parametrize("check", COLUMN_CHECKS)
    def test_blocks_and_batch_give_one_report(self, check, blocks, n):
        count = 1_000
        samplers = self.samplers(n)
        if blocks == "one":
            samplers = [in_one_block(s, count) for s in samplers]
        runs = [list(generate_blocks(s, count, 40 + i)) for i, s in enumerate(samplers)]
        assert {len(run) == 1 for run in runs} == {blocks == "one"}
        batches = [generate_batch(s, count, 40 + i) for i, s in enumerate(samplers)]
        streamed = COLUMN_CHECKS[check](*(iter(run) for run in runs)).to_dict()
        assert streamed == COLUMN_CHECKS[check](*batches).to_dict()
        assert streamed["m_replicates"] == count

    @pytest.mark.parametrize(
        "other",
        [
            lambda: cholesky_sampler("sfbm", 0.7, GridSpec(32)),
            lambda: davies_harte_sampler(GridSpec(32), 0.6),
            lambda: davies_harte_sampler(GridSpec(16), 0.7),
            lambda: cholesky_sampler("fbm", 0.7, GridSpec(32)),
        ],
        ids=["process", "hurst", "grid", "method"],
    )
    @pytest.mark.parametrize("check", COLUMN_CHECKS)
    def test_blocks_of_mixed_laws_rejected(self, check, other):
        first = generate_batch(davies_harte_sampler(GridSpec(32), 0.7), 10, 1)
        mixed = [first, generate_batch(other(), 10, 2)]
        with pytest.raises(ParameterError, match="a block of"):
            COLUMN_CHECKS[check](mixed, first)
        if check == "method-equivalence":
            with pytest.raises(ParameterError, match="a block of"):
                method_equivalence(first, mixed)
