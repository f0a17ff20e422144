"""Inverse-Lamperti pipeline: grid map exactness, marginal law, and
deterministic error-bound factors."""

import math

import numpy as np
import pytest

from selfsim.core import GridSpec, ParameterError, RngStream, generate_batch
from selfsim.lamperti import (
    error_bound_diagnostics,
    grid_map,
    lamperti_sampler,
    marginal_variance_profile,
    simulate_lamperti,
)


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
        report = marginal_variance_profile(batch, "fbm", 0.2)
        assert report.verdict


class TestVarianceProfile:
    def test_brownian_midpoint(self):
        grid = GridSpec(64)
        batch = generate_batch(lamperti_sampler("fbm", 0.5, grid), 20_000, 53)
        report = marginal_variance_profile(batch, "fbm", 0.5)
        mid = report.details[31]
        assert mid["target"] == pytest.approx(0.5)
        assert mid["deviation_se"] <= 4.0

    @staticmethod
    def targets(process, hurst):
        """The report's target at t = 1/4, 1/2, 3/4, 1."""
        from selfsim.core import ReplicateBatch

        batch = ReplicateBatch(GridSpec(4), np.zeros((2, 4)), "lamperti", process, hurst, 0, (0, 1))
        return [d["target"] for d in marginal_variance_profile(batch, process, hurst).details]

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
        assert not marginal_variance_profile(batch, "fbm", 0.5).verdict


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

    def test_dyadic_nodes_contribute_zero(self):
        n = 16
        gm = grid_map(n)
        exact = gm.residual == 0.0
        assert exact.any()
        assert np.all(np.abs(n ** (0.5 * gm.residual[exact] / n) - 1.0) == 0.0)
