"""Tests for grids, RNG streams, and batch plumbing."""

import numpy as np
import pytest

from selfsim.core import (
    GridSpec,
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
