"""Shared domain types: uniform time grid, sample paths, seeded RNG streams,
linear samplers, and replicate batches.

All samplers in this package are deterministic functions of their parameters
and an :class:`RngStream`. Streams are counter-based (Philox), so replicate i
of a batch can be generated in any order, on any worker, and always yields the
same path. Every built-in sampler is a :class:`LinearSampler` x = A z whose
cached builder computes the map A once. One loop draws a block of paths at a
time through it: `generate_blocks` yields each block as a `ReplicateBatch`, and
`generate_batch` copies the blocks into one (count, n) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "DEFAULT_SEED",
    "ParameterError",
    "GridSpec",
    "SamplePath",
    "RngStream",
    "LinearSampler",
    "ReplicateBatch",
    "generate_blocks",
    "generate_batch",
]

# Fixed default so every run is reproducible unless the caller opts out.
DEFAULT_SEED = 20240817

_MASK64 = (1 << 64) - 1

# The largest grid any array can index: numpy caps an array's bytes at the largest
# intp, and the circulant embedding of n points takes 2n floats, 16 bytes a point.
_MAX_GRID = np.iinfo(np.intp).max // 16

# The normals (or floats) one block of a batch's work holds: a drawn block's normals,
# and the row blocks of the marginal variance's moments.
_BLOCK_NORMALS = 2**14


class ParameterError(ValueError):
    """A parameter is outside its admissible domain."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid t_j = j/n for j = 1..n on the unit interval.

    t = 0 is excluded (all processes here vanish there almost surely);
    the CLI adds the t = 0 row on output for plotting convenience.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"grid size must be a positive integer, got {self.n}")
        if self.n > _MAX_GRID:
            raise ParameterError(f"grid size {self.n} exceeds the largest array, {_MAX_GRID}")

    def times(self) -> np.ndarray:
        # single division per node, so t_n == 1.0 exactly
        return np.arange(1, self.n + 1, dtype=float) / self.n


@dataclass(frozen=True)
class SamplePath:
    """One discretized trajectory with its generation metadata."""

    grid: GridSpec
    values: np.ndarray
    method: str
    process: str
    hurst: float
    seed: int
    stream_id: int = 0
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"values must have length {self.grid.n}, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("path contains non-finite values")


def _philox_state(seed: int, stream_id: int) -> dict:
    """A fresh Philox stream keyed (stream_id << 64) | seed, in plain ints: the Cython
    setter reads these faster than the numpy scalars of `Philox.state`."""
    key = [seed & _MASK64, stream_id & _MASK64]
    return {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


class RngStream:
    """The key of one splittable, counter-based normal variate stream.

    Identical (seed, stream_id) pairs yield bit-identical sequences regardless
    of thread schedule; distinct stream ids are statistically independent.
    The 128-bit Philox key is (stream_id << 64) | seed: `generate_blocks` draws it.
    """

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class LinearSampler:
    """A sampler x = A z that maps k standard normals to one path.

    `draw` maps a (rows, k) block of normals to the (rows, n) paths, row by
    row or, for a dense map, in GEMMs of `draw.gemm_rows` rows, so a row's
    bits never depend on its block; `info` is its record (repairs, embedding
    size). The builders fill these in, so the spectrum or factor behind
    `draw` exists once the sampler does.
    """

    grid: GridSpec
    method: str
    process: str
    hurst: float
    k: int
    draw: Callable[[np.ndarray], np.ndarray]
    info: dict

    @property
    def _block_rows(self) -> int:
        """Rows per drawn block: `_BLOCK_NORMALS` normals, or a multiple of the GEMM
        height."""
        height = getattr(self.draw, "gemm_rows", 1)
        return max(height, _BLOCK_NORMALS // self.k // height * height)

    def __call__(self, rng: RngStream) -> SamplePath:
        (b,) = generate_blocks(self, 1, rng.seed, [rng.stream_id])  # a one-row block
        return SamplePath(
            b.grid, b.values[0], b.method, b.process, b.hurst, b.seed, *b.stream_ids, b.info
        )


@dataclass(frozen=True)
class ReplicateBatch:
    """M paths as the rows of one (M, n) array: row i comes from
    RngStream(seed, stream_ids[i]), and `info` is the sampler's record."""

    grid: GridSpec
    values: np.ndarray
    method: str
    process: str
    hurst: float
    seed: int
    stream_ids: tuple[int, ...]
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != self.grid.n:
            raise ValueError(f"values must have shape (count, {self.grid.n}), got {values.shape}")
        if values.shape[0] < 1:
            raise ParameterError("replicate count must be positive")
        if len(self.stream_ids) != values.shape[0]:
            raise ValueError("stream_ids length does not match the number of rows")
        # NaN propagates through min and max, +inf shows in the max and -inf in the min
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValueError("batch contains non-finite values")

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.grid.n


def generate_blocks(
    sampler: LinearSampler,
    count: int,
    base_seed: int,
    stream_ids: Sequence[int] | None = None,
) -> Iterator[ReplicateBatch]:
    """Draw `count` paths of `sampler`, path i on stream (base_seed, stream_ids[i]),
    as consecutive `ReplicateBatch` blocks of `sampler._block_rows` rows (the last
    one shorter). One Philox is re-keyed to each stream (`_philox_state`): the
    package's one normal draw, so `sampler(RngStream(seed, i))` is a one-row block.

    The request is checked at the call, before anything is drawn; each block is
    drawn when it is asked for, so a consumer that drops each block holds one.
    """
    if not isinstance(sampler, LinearSampler):
        raise TypeError(f"paths are drawn by a LinearSampler, not {type(sampler).__name__}")
    if count < 1:
        raise ParameterError("replicate count must be positive")
    if count > np.iinfo(np.intp).max // 8 // sampler.grid.n:
        raise ParameterError(f"a ({count}, {sampler.grid.n}) batch exceeds the largest array")
    ids = range(count) if stream_ids is None else tuple(i & _MASK64 for i in stream_ids)
    if len(ids) != count:
        raise ValueError(f"stream_ids has {len(ids)} entries for a batch of {count}")
    seed = base_seed & _MASK64

    def blocks():
        bits = Philox(0)
        normal = Generator(bits).standard_normal
        state = _philox_state(seed, 0)
        key = state["state"]["key"]
        z = np.empty((sampler._block_rows, sampler.k))
        for start in range(0, count, len(z)):
            block = ids[start : start + len(z)]
            for row, stream_id in zip(z, block):
                key[1] = stream_id
                bits.state = state
                normal(out=row)
            yield ReplicateBatch(
                sampler.grid, sampler.draw(z[: len(block)]), sampler.method,
                sampler.process, sampler.hurst, seed, tuple(block), dict(sampler.info),
            )

    return blocks()


def generate_batch(
    sampler: LinearSampler,
    count: int,
    base_seed: int,
    stream_ids: Sequence[int] | None = None,
) -> ReplicateBatch:
    """The rows of `generate_blocks(sampler, count, base_seed, stream_ids)` in one (count, n)
    array: a library convenience, since every command draws by blocks."""
    blocks = generate_blocks(sampler, count, base_seed, stream_ids)
    values, ids = np.empty((count, sampler.grid.n)), []
    for block in blocks:
        values[len(ids) : len(ids) + block.count] = block.values
        ids += block.stream_ids
    return replace(block, values=values, stream_ids=tuple(ids))
