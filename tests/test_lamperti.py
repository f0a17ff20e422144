"""Inverse-Lamperti pipeline: grid map exactness, marginal law, and
deterministic error-bound factors."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from selfsim.core import (
    _BLOCK_NORMALS,
    GridSpec,
    ParameterError,
    RngStream,
    generate_batch,
)
from selfsim.covmodels import _COVARIANCES, lamperti_acf_fbm, lamperti_acf_sfbm
from selfsim.lamperti import (
    _DENSE_NODES,
    error_bound_diagnostics,
    grid_map,
    lamperti_sampler,
    simulate_lamperti,
)
from selfsim.verify import _node_variance, marginal_variance_profile


class TestGridMap:
    def test_endpoints(self):
        for n in (2, 7, 64, 1000):
            gm = grid_map(n)
            assert gm.index[0] == 0 and gm.residual[0] == 0.0  # j = 1
            assert gm.index[-1] == n and gm.residual[-1] == 0.0  # j = n

    def test_dyadic_exact_case(self):
        gm = grid_map(4)
        assert gm.index[1] == 2  # j = 2: argument is exactly 2
        assert gm.residual[1] == 0.0

    def test_index_monotone_and_in_range(self):
        for n in (8, 100, 256):
            gm = grid_map(n)
            assert np.all(np.diff(gm.index) >= 0)
            assert gm.index.min() >= 0 and gm.index.max() == n
            assert np.all(gm.residual >= 0.0) and np.all(gm.residual < 1.0)

    def test_exp_grid_consistency(self):
        # n^{g/n - 1} * n^{theta/n} must reconstruct j/n
        for n in (8, 64, 256, 1024):
            gm = grid_map(n)
            j = np.arange(1, n + 1)
            rebuilt = n ** ((gm.index + gm.residual) / n - 1.0)
            assert np.max(np.abs(rebuilt - j / n) / (j / n)) <= 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError):
            grid_map(1)


class TestSimulateLamperti:
    def test_deterministic(self):
        grid = GridSpec(64)
        a = simulate_lamperti("fbm", 0.7, grid, RngStream(3, 1)).values
        b = simulate_lamperti("fbm", 0.7, grid, RngStream(3, 1)).values
        assert np.array_equal(a, b)

    def test_rejects_unknown_process(self):
        with pytest.raises(ParameterError):
            simulate_lamperti("bm", 0.5, GridSpec(8), RngStream(0, 0))

    def test_fbm_terminal_variance(self):
        grid = GridSpec(128)
        batch = generate_batch(lamperti_sampler("fbm", 0.7, grid), 20_000, 50)
        var = batch.values[:, -1].var(ddof=1)
        assert abs(var - 1.0) <= 4 * math.sqrt(2 / 20_000)

    def test_sfbm_terminal_variance(self):
        grid = GridSpec(128)
        batch = generate_batch(lamperti_sampler("sfbm", 0.7, grid), 20_000, 51)
        target = 2.0 - 2.0**0.4
        var = batch.values[:, -1].var(ddof=1)
        assert abs(var - target) <= 4 * target * math.sqrt(2 / 20_000)

    def test_marginal_scaling_uses_grid_value(self):
        # X(j/n) must equal (j/n)^H times a stationary value: the path at a
        # dyadic node j with theta = 0 has variance (j/n)^{2H} exactly in law
        grid = GridSpec(256)
        batch = generate_batch(lamperti_sampler("fbm", 0.2, grid), 20_000, 52)
        report = marginal_variance_profile(batch)
        assert report.verdict


def implied_covariance(sampler):
    """A^T A of the sampler's map x = z A: the covariance of its paths, exactly."""
    a = sampler.draw(np.eye(sampler.k))
    return a.T @ a


class TestDenseRoute:
    """Up to `_DENSE_NODES` distinct grid-map nodes (n <= 262), the stationary stage is
    the exact factor of the nodes' Gram: one normal per node, nothing clamped."""

    ACF = {"fbm": lamperti_acf_fbm, "sfbm": lamperti_acf_sfbm}

    @pytest.mark.parametrize("process", ["fbm", "sfbm"])
    def test_implied_covariance_is_the_gathered_lamperti_law(self, process):
        # s_i s_j r(|g(i) - g(j)|) with s = t^H, the law the paper's gather defines
        for n in [*range(2, 40), 64, 100, 128, 256, 262]:
            index, t = grid_map(n).index, GridSpec(n).times()
            for hurst in (0.01, 0.3, 0.5, 0.8, 0.95, 0.999):
                sampler = lamperti_sampler(process, hurst, GridSpec(n))
                row = self.ACF[process](np.arange(n + 1), n, hurst)
                target = np.outer(t**hurst, t**hurst) * row[np.abs(index[:, None] - index)]
                error = np.abs(implied_covariance(sampler) - target).max()
                assert error <= 2e-15 * np.abs(target).max(), (n, hurst)
                assert sampler.k == len(np.unique(index))

    @pytest.mark.parametrize("process", ["fbm", "sfbm"])
    def test_no_jitter_up_to_the_cutover(self, process):
        for n in (2, 3, 17, 100, 200, 256, 261, 262):
            for hurst in (0.01, 0.5, 0.95, 0.999):
                assert lamperti_sampler(process, hurst, GridSpec(n)).info == {"jitter": 0.0}

    @pytest.mark.parametrize("process", ["fbm", "sfbm"])
    def test_route_boundary(self, process):
        dense = lamperti_sampler(process, 0.8, GridSpec(262))
        assert len(np.unique(grid_map(262).index)) == _DENSE_NODES == dense.k
        assert dense.info == {"jitter": 0.0}
        circulant = lamperti_sampler(process, 0.8, GridSpec(263))
        assert len(np.unique(grid_map(263).index)) == _DENSE_NODES + 1
        assert set(circulant.info) == {"clamped_mass", "embedding_size"}
        assert circulant.info["embedding_size"] == 526 and circulant.k > _DENSE_NODES

    @pytest.mark.parametrize("process", ["fbm", "sfbm"])
    @pytest.mark.parametrize("hurst", [0.3, 0.8, 0.95])
    def test_marginals_are_exact(self, process, hurst):
        # the circulant's clamp raised Var U by `clamped_mass` (2.298e-4 at fBm
        # n = 256, H = 0.8); below the cutover the variance is t^{2H} rho(0)
        grid = GridSpec(256)
        target = _COVARIANCES[process](grid.times(), grid.times(), hurst)
        variance = np.diag(implied_covariance(lamperti_sampler(process, hurst, grid)))
        assert np.abs(variance - target).max() <= 1e-14 * target.max()


class TestVarianceProfile:
    def test_brownian_midpoint(self):
        grid = GridSpec(64)
        batch = generate_batch(lamperti_sampler("fbm", 0.5, grid), 20_000, 53)
        report = marginal_variance_profile(batch)
        mid = report.details[31]
        assert mid["target"] == pytest.approx(0.5)
        assert mid["deviation_se"] <= 4.0

    @staticmethod
    def targets(process, hurst):
        """The report's target at t = 1/4, 1/2, 3/4, 1."""
        from selfsim.core import ReplicateBatch

        batch = ReplicateBatch(GridSpec(4), np.zeros((2, 4)), "lamperti", process, hurst, 0, (0, 1))
        return [d["target"] for d in marginal_variance_profile(batch).details]

    def test_theoretical_profile_values(self):
        assert self.targets("fbm", 0.2)[0] == pytest.approx(0.25**0.4)
        assert self.targets("sfbm", 0.8)[3] == pytest.approx(2 - 2**0.6)
        # bm is fBm at H = 1/2: Var X(t) = t
        assert self.targets("bm", 0.5) == [0.25, 0.5, 0.75, 1.0]

    def test_unknown_process_rejected(self):
        with pytest.raises(ParameterError, match="unknown process"):
            self.targets("nope", 0.5)

    def test_constant_zero_batch_fails(self):
        # negative control: degenerate paths violate the variance profile
        from selfsim.core import ReplicateBatch

        batch = ReplicateBatch(
            GridSpec(8), np.zeros((200, 8)), "lamperti", "fbm", 0.5, 0, tuple(range(200))
        )
        assert not marginal_variance_profile(batch).verdict


class TestNodeVariance:
    """The row-blocked variance has the bits of values.var(axis=0, ddof=1)."""

    @staticmethod
    def cases():
        for n in (2, 3, 256, 32_768):
            rows = max(1, _BLOCK_NORMALS // n)
            counts = {2, 3, rows - 1, rows, rows + 1, 4_000}
            # 4 000 rows of 32 768 would be a 1 GB array
            yield from ((n, m) for m in sorted(counts) if m >= 2 and m * n <= 2**21)

    @pytest.mark.parametrize("n, m", list(cases()))
    def test_bits_match_numpy_var(self, n, m):
        values = np.random.default_rng(n + m).standard_normal((m, n)) * 3.0 + 1.7
        expected = values.var(axis=0, ddof=1)
        assert np.array_equal(_node_variance(values).view(np.uint64), expected.view(np.uint64))

    def test_single_column_is_numpy_var(self):
        # numpy sums one column pairwise, which row blocks would not reproduce
        values = np.random.default_rng(1).standard_normal((4_000, 1)) + 1.7
        expected = values.var(axis=0, ddof=1)
        assert np.array_equal(_node_variance(values).view(np.uint64), expected.view(np.uint64))


class TestVerifyMemory:
    """A marginals run holds one (count, n) array: the statistics and the batch
    check take no temporary of its size (4 000 lamperti paths of 256 points)."""

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def batch(self):
        return generate_batch(lamperti_sampler("fbm", 0.8, GridSpec(256)), 4_000, 61)

    def test_variance_profile_peak(self, batch):
        _, peak = self.traced_peak(lambda: marginal_variance_profile(batch))
        assert peak < batch.values.nbytes / 4

    def test_batch_check_peak(self, batch):
        _, peak = self.traced_peak(lambda: dataclasses.replace(batch))  # a fresh __post_init__
        assert peak < batch.values.nbytes / 100

    def test_generate_batch_peak(self, batch):
        sampler = lamperti_sampler("fbm", 0.8, GridSpec(256))
        result, peak = self.traced_peak(lambda: generate_batch(sampler, 4_000, 61))
        assert peak - result.values.nbytes < batch.values.nbytes / 4


class TestErrorBoundDiagnostics:
    def test_rate_bounded_and_decreasing(self):
        ladder = [2**8, 2**10, 2**12, 2**14]
        diag = error_bound_diagnostics(ladder, 0.5)
        assert diag["a_decreasing"] and diag["b_decreasing"]
        for entry in diag["entries"]:
            assert entry["a_rate"] <= diag["c1_fitted"] + 1e-15
            assert entry["b_rate"] <= diag["c2_fitted"] + 1e-15
        # mean-value-theorem shape: constants stay of order H and 1
        assert diag["c1_fitted"] <= 1.0
        assert diag["c2_fitted"] <= 2.0

    def test_rate_confirmation_with_slack(self):
        diag = error_bound_diagnostics([2**8, 2**14], 0.5)
        a8, a14 = diag["entries"][0]["a"], diag["entries"][1]["a"]
        expected = (math.log(2**14) / 2**14) / (math.log(2**8) / 2**8)
        assert a14 / a8 < expected * 1.5

    @pytest.mark.parametrize("hurst", [0.0, 1.0, 1.5, -0.3, float("nan")])
    def test_rejects_hurst_outside_unit_interval(self, hurst):
        with pytest.raises(ParameterError):
            error_bound_diagnostics([16, 64], hurst)

    @pytest.mark.parametrize("sizes", [[4, 2], [8, 16, 4], [2, 2, 4], [256], []])
    def test_rejects_sizes_not_strictly_increasing(self, sizes):
        # a_decreasing and b_decreasing read the list in order: a(2) = 0 < a(4), so
        # [4, 2] would report both True
        with pytest.raises(ParameterError, match="strictly increasing"):
            error_bound_diagnostics(sizes, 0.7)

    def test_dyadic_nodes_contribute_zero(self):
        n = 16
        gm = grid_map(n)
        exact = gm.residual == 0.0
        assert exact.any()
        assert np.all(np.abs(n ** (0.5 * gm.residual[exact] / n) - 1.0) == 0.0)
