"""Inverse-Lamperti pipeline: grid map exactness, marginal law, and
deterministic error-bound factors."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from selfsim import cli
from selfsim.core import (
    _BLOCK_NORMALS,
    GridSpec,
    ParameterError,
    ReplicateBatch,
    RngStream,
    generate_batch,
    generate_blocks,
)
from selfsim.covmodels import _COVARIANCES, lamperti_acf
from selfsim.lamperti import (
    _DENSE_NODES,
    error_bound_diagnostics,
    grid_map,
    lamperti_sampler,
    simulate_lamperti,
)
from selfsim.samplers import cholesky_sampler
from selfsim.verify import _node_moments, error_bound_check, marginal_variance_profile


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
        with pytest.raises(ParameterError, match="unknown process"):
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

    @pytest.mark.parametrize("process", ["fbm", "sfbm"])
    def test_implied_covariance_is_the_gathered_lamperti_law(self, process):
        # s_i s_j r(|g(i) - g(j)|) with s = t^H, the law the paper's gather defines
        for n in [*range(2, 40), 64, 100, 128, 256, 262]:
            index, t = grid_map(n).index, GridSpec(n).times()
            for hurst in (0.01, 0.3, 0.5, 0.8, 0.95, 0.999):
                sampler = lamperti_sampler(process, hurst, GridSpec(n))
                row = lamperti_acf(process, np.arange(n + 1), n, hurst)
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


@pytest.mark.parametrize("n, route", [(256, "jitter"), (300, "embedding_size")])
@pytest.mark.parametrize("rows", [5, 16])
def test_draw_leaves_its_block_and_returns_a_new_array(n, route, rows):
    # the gathered path is scaled in place: it must be the draw's own new array, never
    # the caller's block, a view of it or anything the cached sampler keeps
    sampler = lamperti_sampler("fbm", 0.8, GridSpec(n))
    assert route in sampler.info
    z = np.random.default_rng(7).standard_normal((rows, sampler.k))
    block = z.copy()
    first, second = sampler.draw(z), sampler.draw(z)
    assert np.array_equal(z, block)
    assert first.shape == (rows, n) and np.array_equal(first, second)
    assert not np.shares_memory(first, z) and not np.shares_memory(first, second)
    first[:] = np.nan
    assert np.array_equal(sampler.draw(z), second)


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


class TestBlocks:
    """The marginals check takes the blocks of `generate_blocks` one at a time."""

    @pytest.mark.parametrize("process, hurst", [("fbm", 0.8), ("sfbm", 0.3)])
    def test_blocks_and_batch_give_one_report(self, process, hurst):
        sampler = lamperti_sampler(process, hurst, GridSpec(64))
        whole = marginal_variance_profile(generate_batch(sampler, 3_000, 17))
        streamed = marginal_variance_profile(generate_blocks(sampler, 3_000, 17))
        assert (streamed.verdict, streamed.m_replicates) == (whole.verdict, 3_000)
        assert streamed.to_dict().keys() == whole.to_dict().keys()
        for a, b in zip(streamed.details, whole.details):
            assert a["estimate"] == pytest.approx(b["estimate"], rel=1e-13)
            assert (a["node"], a["target"], a["se"]) == (b["node"], b["target"], b["se"])

    @pytest.mark.parametrize(
        "other",
        [
            lambda: lamperti_sampler("sfbm", 0.8, GridSpec(64)),
            lambda: lamperti_sampler("fbm", 0.7, GridSpec(64)),
            lambda: lamperti_sampler("fbm", 0.8, GridSpec(32)),
            lambda: cholesky_sampler("fbm", 0.8, GridSpec(64)),
        ],
        ids=["process", "hurst", "grid", "method"],
    )
    def test_blocks_of_mixed_laws_rejected(self, other):
        first = generate_batch(lamperti_sampler("fbm", 0.8, GridSpec(64)), 10, 1)
        with pytest.raises(ParameterError, match="a block of"):
            marginal_variance_profile([first, generate_batch(other(), 10, 2)])

    @pytest.mark.parametrize("blocks", [[], "one row"], ids=["none", "one-row"])
    def test_fewer_than_two_rows_rejected(self, blocks):
        if blocks:
            blocks = generate_blocks(lamperti_sampler("fbm", 0.8, GridSpec(64)), 1, 1)
        with pytest.raises(ParameterError, match="at least 2 replicates"):
            marginal_variance_profile(blocks)


def exact_variance(values: np.ndarray) -> np.ndarray:
    """Each column's sample variance by a corrected two-pass sum in `math.fsum`:
    sum (x - mu)^2 - (sum (x - mu))^2 / m, so the rounding of mu cancels."""
    m = values.shape[0]
    out = []
    for column in values.T.tolist():
        mu = math.fsum(column) / m
        residuals = [x - mu for x in column]
        m2 = math.fsum(r * r for r in residuals) - math.fsum(residuals) ** 2 / m
        out.append(m2 / (m - 1))
    return np.array(out)


def merged_variance(values: np.ndarray) -> np.ndarray:
    """Each column's sample variance from the merged moments of `_node_moments`."""
    m, n = values.shape
    batch = ReplicateBatch(GridSpec(n), values, "x", "bm", 0.5, 0, tuple(range(m)))
    _, count, m2 = _node_moments([batch], 2)
    return m2 / (count - 1)


class TestNodeVariance:
    """Rows that fit in one row block keep the bits of values.var(axis=0, ddof=1):
    a row block's M2 is numpy's own two-pass sum, and nothing is merged into it."""

    @staticmethod
    def cases():
        for n in (2, 3, 256, 32_768):
            rows = max(1, _BLOCK_NORMALS // n)
            counts = {2, 3, rows - 1, rows, rows + 1, 4_000}
            # more rows than one row block merge, which TestNodeMoments covers
            yield from ((n, m) for m in sorted(counts) if 2 <= m <= rows)

    @pytest.mark.parametrize("n, m", list(cases()))
    def test_bits_match_numpy_var(self, n, m):
        values = np.random.default_rng(n + m).standard_normal((m, n)) * 3.0 + 1.7
        expected = values.var(axis=0, ddof=1)
        assert np.array_equal(merged_variance(values).view(np.uint64), expected.view(np.uint64))

    def test_single_column_is_numpy_var(self):
        # numpy sums one column pairwise, and so does a row block's sum down axis 0
        values = np.random.default_rng(1).standard_normal((4_000, 1)) + 1.7
        expected = values.var(axis=0, ddof=1)
        assert np.array_equal(merged_variance(values).view(np.uint64), expected.view(np.uint64))


class TestNodeMoments:
    """The merged moments give each node's sample variance to rounding level."""

    @staticmethod
    def cases():
        for n in (1, 2, 3, 256, 32_768):
            rows = max(1, _BLOCK_NORMALS // n)
            counts = {2, 3, rows - 1, rows, rows + 1, 4_000}
            # 4 000 rows of 32 768 would be a 1 GB array
            yield from ((n, m) for m in sorted(counts) if m >= 2 and m * n <= 2**21)

    # offset 1e4 at unit scale is a condition number of 1e8: without the shift by
    # the first row block's mean, the same merge errs by up to 5e-10 there
    @pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (1.7, 3.0), (1e4, 1.0)])
    @pytest.mark.parametrize("n, m", list(cases()))
    def test_variance_matches_exact_sum(self, n, m, offset, scale):
        values = np.random.default_rng(n + m).standard_normal((m, n)) * scale + offset
        batch = ReplicateBatch(GridSpec(n), values, "x", "bm", 0.5, 0, tuple(range(m)))
        first, count, m2 = _node_moments([batch], 2)
        exact = exact_variance(values)
        # a row block of k rows is summed row by row: a random walk of k roundings,
        # plus a few for the shift, the mean and the merge (observed: at most
        # 5.8e-15, at n = 3 with 5 461-row blocks; 7.9e-16 at n = 256)
        k = min(m, max(1, _BLOCK_NORMALS // n))
        bound = (4 * math.sqrt(k) + 16) * 2.0**-53
        assert (first, count) == (batch, m)
        assert np.max(np.abs(m2 / (m - 1) - exact) / exact) <= bound


class TestVerifyMemory:
    """A marginals run holds one block at a time: the statistics take no temporary
    of a batch's size, the batch check none of its size either, and the command's
    peak does not grow with --paths (lamperti paths of 256 points)."""

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

    def test_marginals_command_peak(self, tmp_path):
        # 40 000 paths are an 81.9 MB batch; the command holds a block of it
        paths, n = 40_000, 256
        argv = (
            "verify --suite marginals --process fbm --method lamperti --hurst 0.8 "
            f"--n {n} --paths {paths} --out {tmp_path / 'report.json'}"
        ).split()
        code, peak = self.traced_peak(lambda: cli.main(argv))
        assert code in (0, 1)
        assert peak < paths * n * 8 / 16


class TestErrorBoundDiagnostics:
    def test_rate_bounded_and_decreasing(self):
        ladder = [2**8, 2**10, 2**12, 2**14]
        entries = error_bound_diagnostics(ladder, 0.5)
        for key in ("a", "b"):
            assert all(x[key] > y[key] for x, y in zip(entries, entries[1:]))
        c1 = max(entry["a_rate"] for entry in entries)
        c2 = max(entry["b_rate"] for entry in entries)
        for entry in entries:
            assert entry["a_rate"] <= c1 + 1e-15
            assert entry["b_rate"] <= c2 + 1e-15
        # mean-value-theorem shape: constants stay of order H and 1
        assert c1 <= 1.0
        assert c2 <= 2.0

    def test_rate_confirmation_with_slack(self):
        entries = error_bound_diagnostics([2**8, 2**14], 0.5)
        a8, a14 = entries[0]["a"], entries[1]["a"]
        expected = (math.log(2**14) / 2**14) / (math.log(2**8) / 2**8)
        assert a14 / a8 < expected * 1.5

    @pytest.mark.parametrize("ladder", [[2**8, 2**10, 2**12, 2**14], [2, 8]])
    def test_check_details_are_the_factor_records(self, ladder):
        # the factors alone: the verdict and c1 are `error_bound_check`'s
        entries = error_bound_diagnostics(ladder, 0.7)
        assert all(set(entry) == {"n", "a", "b", "a_rate", "b_rate"} for entry in entries)
        report = error_bound_check(ladder, 0.7)
        assert report.details == entries
        assert report.verdict == (ladder != [2, 8])  # a(2) = 0: a cannot fall from 2 to 8
        assert report.worst_deviation == max(entry["a_rate"] for entry in entries)

    @pytest.mark.parametrize("hurst", [0.0, 1.0, 1.5, -0.3, float("nan")])
    def test_rejects_hurst_outside_unit_interval(self, hurst):
        with pytest.raises(ParameterError):
            error_bound_diagnostics([16, 64], hurst)

    @pytest.mark.parametrize("sizes", [[4, 2], [8, 16, 4], [2, 2, 4], [256], []])
    def test_rejects_sizes_not_strictly_increasing(self, sizes):
        # `error_bound_check` reads the factors in list order: a(2) = 0 < a(4), so
        # [4, 2] would read as a and b decreasing
        with pytest.raises(ParameterError, match="strictly increasing"):
            error_bound_diagnostics(sizes, 0.7)

    def test_dyadic_nodes_contribute_zero(self):
        n = 16
        gm = grid_map(n)
        exact = gm.residual == 0.0
        assert exact.any()
        assert np.all(np.abs(n ** (0.5 * gm.residual[exact] / n) - 1.0) == 0.0)
