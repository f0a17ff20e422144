"""Tests for grids, RNG streams, and batch plumbing."""

import numpy as np
import pytest
from numpy.random import Generator, Philox

import selfsim.core
from selfsim.core import (
    GridSpec,
    LinearSampler,
    ParameterError,
    ReplicateBatch,
    RngStream,
    SamplePath,
    _BLOCK_NORMALS,
    _philox_state,
    generate_batch,
    generate_blocks,
)
from selfsim.lamperti import lamperti_sampler
from selfsim.samplers import bm_sampler, cholesky_sampler, davies_harte_sampler, ma_sampler


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


def keyed_normals(seed, stream_id, k):
    """The first k normals of the stream contract: numpy's Philox keyed
    (stream_id << 64) | seed, each taken mod 2**64."""
    mask = 2**64 - 1
    return Generator(Philox(key=((stream_id & mask) << 64) | (seed & mask))).standard_normal(k)


def stream_normals(seed, stream_id, k):
    """The k normals of stream RngStream(seed, stream_id), as one path."""
    return identity_sampler(k)(RngStream(seed, stream_id)).values


class TestRngStream:
    def test_same_stream_is_bit_identical(self):
        a = stream_normals(123, 5, 1000)
        b = stream_normals(123, 5, 1000)
        assert np.array_equal(a, b)
        assert same_bits(a, keyed_normals(123, 5, 1000))

    def test_distinct_streams_differ(self):
        a = stream_normals(123, 0, 100)
        b = stream_normals(123, 1, 100)
        assert not np.array_equal(a, b)
        assert same_bits(a, keyed_normals(123, 0, 100))
        assert same_bits(b, keyed_normals(123, 1, 100))

    # the batch core re-keys one Philox from this plain-int state, so a numpy
    # release that changes the state layout fails here
    @pytest.mark.parametrize("stream_id", [0, 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1, 2**70 + 5])
    def test_plain_state_is_the_keyed_stream(self, seed, stream_id):
        keyed = Philox(key=(stream_id << 64) | (seed & (2**64 - 1)))
        fresh = keyed.state
        fresh["state"] = {name: a.tolist() for name, a in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        state = _philox_state(seed, stream_id)
        assert state == fresh
        assert all(type(v) is int for v in state["state"]["key"] + state["buffer"])
        re_keyed = Philox(0)
        re_keyed.state = state
        a = Generator(re_keyed).standard_normal(1000)
        assert same_bits(a, Generator(keyed).standard_normal(1000))


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
        sampler = bm_sampler(grid)
        forward = generate_batch(sampler, 8, 99)
        backward = generate_batch(sampler, 8, 99, stream_ids=range(7, -1, -1))
        by_id = dict(zip(backward.stream_ids, backward.values))
        for stream_id, values in zip(forward.stream_ids, forward.values):
            assert np.array_equal(values, by_id[stream_id])

    def test_reproducible_across_runs(self):
        grid = GridSpec(32)
        sampler = bm_sampler(grid)
        a = generate_batch(sampler, 4, 7).values
        b = generate_batch(sampler, 4, 7).values
        assert np.array_equal(a, b)


def identity_sampler(k):
    """A LinearSampler whose paths are its k normals."""
    return LinearSampler(GridSpec(k), "identity", "bm", 0.5, k, lambda z: z, {"k": k})


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestLinearBatch:
    SEEDS = (0, 3, 2**64 - 1, -1, 2**70 + 5)
    STREAMS = (0, 1, 2**63, 2**64 + 3)

    # one block of 4 rows (k = 5), and one row per block: just past the block budget
    # and at four times it
    @pytest.mark.parametrize("k", [5, _BLOCK_NORMALS + 1, 4 * _BLOCK_NORMALS + 1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_normals_match_stream(self, seed, k):
        batch = generate_batch(identity_sampler(k), 4, seed, stream_ids=self.STREAMS)
        for values, batch_stream_id, stream_id in zip(batch.values, batch.stream_ids, self.STREAMS):
            expected = RngStream(seed, stream_id)
            assert same_bits(values, keyed_normals(seed, stream_id, k))
            assert (batch.seed, batch_stream_id) == (expected.seed, expected.stream_id)

    def test_batch_is_one_array_with_one_info(self):
        sampler = identity_sampler(3)
        batch = generate_batch(sampler, 3, 8)
        assert type(batch.values) is np.ndarray and batch.values.shape == (3, 3)
        assert (batch.count, batch.n, batch.stream_ids) == (3, 3, (0, 1, 2))
        assert batch.info == {"k": 3} and batch.info is not sampler.info
        assert (batch.method, batch.process, batch.hurst, batch.seed) == ("identity", "bm", 0.5, 8)

    def test_call_is_one_row_of_the_batch(self):
        sampler = identity_sampler(6)
        path = sampler(RngStream(9, 4))
        batch = generate_batch(sampler, 1, 9, stream_ids=[4])
        assert same_bits(path.values, batch.values[0])
        assert (path.seed, path.stream_id) == (batch.seed, batch.stream_ids[0])
        assert path.info == batch.info and path.info is not batch.info

    def test_empty_batch_rejected_before_plan(self):
        def draw(z):
            raise AssertionError("drawn for an empty batch")

        sampler = LinearSampler(GridSpec(4), "identity", "bm", 0.5, 4, draw, {})
        with pytest.raises(ParameterError):
            generate_batch(sampler, 0, 1)

    def test_nonfinite_row_rejected(self):
        sampler = LinearSampler(GridSpec(2), "identity", "bm", 0.5, 2, lambda z: z / 0.0, {})
        with pytest.raises(ValueError, match="non-finite"), np.errstate(divide="ignore"):
            generate_batch(sampler, 3, 1)

    @pytest.mark.parametrize("count, n", [(2**60, 1), (2**59, 2), (2**51, 1024)])
    def test_count_beyond_any_array_rejected(self, count, n):
        # each count is past the bound, which is checked before any stream id is built
        with pytest.raises(ParameterError, match="largest array"):
            generate_batch(identity_sampler(n), count, 1)

    def test_callable_rejected(self):
        grid = GridSpec(4)
        with pytest.raises(TypeError, match="LinearSampler"):
            generate_batch(lambda rng: bm_sampler(grid)(rng), 3, 1)

    def test_stream_ids_length_checked_before_plan(self):
        def draw(z):
            raise AssertionError("drawn for a batch with the wrong stream ids")

        sampler = LinearSampler(GridSpec(4), "identity", "bm", 0.5, 4, draw, {})
        with pytest.raises(ValueError, match="stream_ids"):
            generate_batch(sampler, 3, 1, stream_ids=[0, 1])


def test_batch_constructs_one_philox(monkeypatch):
    built = []

    def counting_philox(*args, **kwargs):
        built.append(args)
        return Philox(*args, **kwargs)

    monkeypatch.setattr(selfsim.core, "Philox", counting_philox)
    sampler = bm_sampler(GridSpec(1024))  # 16 rows per block: 19 blocks
    batch = generate_batch(sampler, 300, 11)
    assert len(built) == 1
    for stream_id, row in enumerate(batch.values):
        assert same_bits(row, sampler(RngStream(11, stream_id)).values)


def assert_blocks_are_the_batch(sampler, count, stream_ids=None):
    """The blocks of `generate_blocks` are the rows of `generate_batch`, bit for bit,
    in blocks of `sampler._block_rows` rows with the batch's fields."""
    batch = generate_batch(sampler, count, 5, stream_ids=stream_ids)
    blocks = list(generate_blocks(sampler, count, 5, stream_ids=stream_ids))
    sizes = [block.count for block in blocks]
    rows = sampler._block_rows
    assert sizes == [rows] * (count // rows) + ([count % rows] if count % rows else [])
    assert same_bits(np.concatenate([block.values for block in blocks]), batch.values)
    assert sum((block.stream_ids for block in blocks), ()) == batch.stream_ids
    fields = ("grid", "method", "process", "hurst", "seed", "info")
    for block in blocks:
        assert [getattr(block, f) for f in fields] == [getattr(batch, f) for f in fields]
        assert block.info is not sampler.info


class TestGenerateBlocks:
    SAMPLERS = {
        "bm-cumsum": lambda: bm_sampler(GridSpec(16)),
        "cholesky": lambda: cholesky_sampler("sfbm", 0.7, GridSpec(64)),
        "davies-harte": lambda: davies_harte_sampler(GridSpec(256), 0.3),
        "ma-truncated": lambda: ma_sampler(GridSpec(16), 0.7, truncation=2, substeps=2),
        # n = 256 draws through the dense node factor, n = 300 through the circulant
        "lamperti-dense": lambda: lamperti_sampler("fbm", 0.8, GridSpec(256)),
        "lamperti-circulant": lambda: lamperti_sampler("fbm", 0.8, GridSpec(300)),
    }

    @pytest.mark.parametrize("method", SAMPLERS)
    def test_blocks_are_the_batch(self, method):
        sampler = self.SAMPLERS[method]()
        rows = sampler._block_rows
        for count in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
            assert_blocks_are_the_batch(sampler, count)
            ids = [2**64 - 1 - 3 * i for i in range(count)]
            assert_blocks_are_the_batch(sampler, count, stream_ids=ids)

    def test_request_checked_at_the_call(self):
        def draw(z):
            raise AssertionError("drawn for a refused request")

        sampler = LinearSampler(GridSpec(16), "identity", "bm", 0.5, 16, draw, {})
        with pytest.raises(ParameterError, match="positive"):
            generate_blocks(sampler, 0, 1)
        with pytest.raises(ParameterError, match="largest array"):
            generate_blocks(sampler, 2**62, 1)
        with pytest.raises(ValueError, match="stream_ids"):
            generate_blocks(sampler, 3, 1, stream_ids=[0, 1])
        with pytest.raises(TypeError, match="LinearSampler"):
            generate_blocks(lambda rng: None, 3, 1)

    def test_blocks_are_drawn_when_asked(self):
        drawn = []

        def draw(z):
            drawn.append(len(z))
            return z

        sampler = LinearSampler(
            GridSpec(_BLOCK_NORMALS), "identity", "bm", 0.5, _BLOCK_NORMALS, draw, {}
        )
        blocks = generate_blocks(sampler, 3, 1)  # one row a block
        assert drawn == []
        next(blocks)
        assert drawn == [1]


class TestReplicateBatch:
    @staticmethod
    def make(values, stream_ids=None):
        ids = tuple(range(len(values))) if stream_ids is None else stream_ids
        return ReplicateBatch(GridSpec(4), values, "identity", "bm", 0.5, 0, ids)

    def test_accepts_a_finite_matrix(self):
        batch = self.make(np.ones((2, 4)))
        assert (batch.count, batch.n, batch.info) == (2, 4, {})

    @pytest.mark.parametrize("shape", [(2, 3), (2, 5), (4,), (1, 2, 4)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            self.make(np.zeros(shape), stream_ids=(0, 1))

    def test_zero_rows_rejected(self):
        with pytest.raises(ParameterError):
            self.make(np.zeros((0, 4)))

    def test_stream_ids_must_match_rows(self):
        with pytest.raises(ValueError, match="stream_ids"):
            self.make(np.zeros((2, 4)), stream_ids=(0,))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, pytest.param((np.nan, np.inf), id="nan-inf")]
    )
    def test_nonfinite_entry_rejected(self, bad):
        values = np.zeros((3, 4))
        values[2, 1 : 1 + np.size(bad)] = bad
        with pytest.raises(ValueError, match="non-finite"):
            self.make(values)
