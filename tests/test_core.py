"""Tests for grids, RNG streams, and batch plumbing."""

import numpy as np
import pytest

from selfsim.core import (
    GridSpec,
    LinearSampler,
    ParameterError,
    RngStream,
    SamplePath,
    generate_batch,
)
from selfsim.samplers import sample_bm


class TestGridSpec:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ParameterError):
            GridSpec(0)

    def test_times_are_exact(self):
        grid = GridSpec(7)
        t = grid.times()
        assert t[-1] == 1.0
        assert np.all(np.diff(t) > 0)
        assert t[2] == 3 / 7


class TestRngStream:
    def test_same_stream_is_bit_identical(self):
        a = RngStream(123, 5).normals(1000)
        b = RngStream(123, 5).normals(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).normals(100)
        b = RngStream(123, 1).normals(100)
        assert not np.array_equal(a, b)


class TestSamplePath:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SamplePath(
                grid=GridSpec(4),
                values=np.zeros(3),
                method="bm-cumsum",
                process="bm",
                hurst=0.5,
                seed=0,
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SamplePath(
                grid=GridSpec(2),
                values=np.array([0.0, np.inf]),
                method="bm-cumsum",
                process="bm",
                hurst=0.5,
                seed=0,
            )


class TestGenerateBatch:
    def test_order_independence(self):
        grid = GridSpec(16)
        sampler = lambda rng: sample_bm(grid, rng)
        forward = generate_batch(sampler, 8, 99)
        backward = generate_batch(sampler, 8, 99, stream_ids=range(7, -1, -1))
        by_id = {p.stream_id: p.values for p in backward.paths}
        for path in forward.paths:
            assert np.array_equal(path.values, by_id[path.stream_id])

    def test_reproducible_across_runs(self):
        grid = GridSpec(32)
        sampler = lambda rng: sample_bm(grid, rng)
        a = generate_batch(sampler, 4, 7).values_matrix()
        b = generate_batch(sampler, 4, 7).values_matrix()
        assert np.array_equal(a, b)


def identity_sampler(k):
    """A LinearSampler whose paths are its k normals."""
    return LinearSampler(GridSpec(k), "identity", "bm", 0.5, lambda: (k, lambda z: z, {"k": k}))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestLinearBatch:
    SEEDS = (0, 3, 2**64 - 1, -1, 2**70 + 5)
    STREAMS = (0, 1, 2**63, 2**64 + 3)

    # one block of 4 rows (k = 5), and one row per block (k = 2**16 + 1)
    @pytest.mark.parametrize("k", [5, 2**16 + 1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_normals_match_stream(self, seed, k):
        batch = generate_batch(identity_sampler(k), 4, seed, stream_ids=self.STREAMS)
        for path, stream_id in zip(batch.paths, self.STREAMS):
            expected = RngStream(seed, stream_id)
            assert same_bits(path.values, expected.normals(k))
            assert (path.seed, path.stream_id) == (expected.seed, expected.stream_id)

    def test_paths_are_rows_with_own_info(self):
        batch = generate_batch(identity_sampler(3), 3, 8)
        base = batch.paths[0].values.base
        assert base is not None and all(p.values.base is base for p in batch.paths)
        infos = [p.info for p in batch.paths]
        assert infos == [{"k": 3}] * 3 and len({id(i) for i in infos}) == 3

    def test_call_is_one_row_of_the_batch(self):
        sampler = identity_sampler(6)
        path = sampler(RngStream(9, 4))
        batch = generate_batch(sampler, 1, 9, stream_ids=[4])
        assert same_bits(path.values, batch.paths[0].values)
        assert path.info == batch.paths[0].info and path.info is not batch.paths[0].info

    def test_empty_batch_rejected_before_plan(self):
        def plan():
            raise AssertionError("plan built for an empty batch")

        sampler = LinearSampler(GridSpec(4), "identity", "bm", 0.5, plan)
        with pytest.raises(ParameterError):
            generate_batch(sampler, 0, 1)

    def test_plan_built_once(self):
        calls = []

        def plan():
            calls.append(1)
            return 2, lambda z: z, {}

        sampler = LinearSampler(GridSpec(2), "identity", "bm", 0.5, plan)
        sampler(RngStream(1, 0))
        generate_batch(sampler, 3, 1)
        sampler(RngStream(1, 5))
        assert len(calls) == 1

    def test_nonfinite_row_rejected(self):
        sampler = LinearSampler(
            GridSpec(2), "identity", "bm", 0.5, lambda: (2, lambda z: z / 0.0, {})
        )
        with pytest.raises(ValueError, match="non-finite"), np.errstate(divide="ignore"):
            generate_batch(sampler, 3, 1)
