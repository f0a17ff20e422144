"""Shared domain types: uniform time grid, sample paths, seeded RNG streams,
linear samplers, and replicate batches.

All samplers in this package are deterministic functions of their parameters
and an :class:`RngStream`. Streams are counter-based (Philox), so replicate i
of a batch can be generated in any order, on any worker, and always yields the
same path. Every built-in sampler is a :class:`LinearSampler` x = A z whose
cached builder computes the map A once, and `generate_batch` draws a block of
paths at a time through it into one (count, n) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "ParameterError",
    "GridSpec",
    "SamplePath",
    "RngStream",
    "LinearSampler",
    "ReplicateBatch",
    "generate_batch",
]

# Fixed default so every run is reproducible unless the caller opts out.
DEFAULT_SEED = 20240817

_MASK64 = (1 << 64) - 1


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


class RngStream:
    """A splittable, counter-based normal variate stream.

    Identical (seed, stream_id) pairs yield bit-identical sequences regardless
    of thread schedule; distinct stream ids are statistically independent.
    The 128-bit Philox key is (stream_id << 64) | seed.
    """

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        key = (self.stream_id << 64) | self.seed
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normals(self, size: int) -> np.ndarray:
        """Draw `size` standard normal variates, advancing the stream."""
        return self._gen.standard_normal(size)

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
        """Rows per block of `generate_batch`: 2**16 normals, or a multiple of the GEMM height."""
        height = getattr(self.draw, "gemm_rows", 1)
        return max(height, 2**16 // self.k // height * height)

    def __call__(self, rng: RngStream) -> SamplePath:
        values = self.draw(rng.normals(self.k)[None, :])[0]
        return SamplePath(
            self.grid, values, self.method, self.process, self.hurst,
            rng.seed, rng.stream_id, dict(self.info),
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
        if not np.all(np.isfinite(values)):
            raise ValueError("batch contains non-finite values")

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.grid.n


def generate_batch(
    sampler: LinearSampler,
    count: int,
    base_seed: int,
    stream_ids: Sequence[int] | None = None,
) -> ReplicateBatch:
    """Draw `count` paths of `sampler`, path i on stream (base_seed, stream_ids[i]).

    The result is independent of generation order because stream i is fully
    determined by (base_seed, i). The paths are drawn in blocks of
    `sampler._block_rows` rows: one Generator is re-keyed to each stream, so
    row i holds the bits of RngStream(base_seed, i).normals(k), and equals
    sampler(RngStream(base_seed, i)).values.
    """
    if not isinstance(sampler, LinearSampler):
        raise TypeError(f"generate_batch takes a LinearSampler, not {type(sampler).__name__}")
    if count < 1:
        raise ParameterError("replicate count must be positive")
    ids = tuple(i & _MASK64 for i in (range(count) if stream_ids is None else stream_ids))
    if len(ids) != count:
        raise ValueError(f"stream_ids has {len(ids)} entries for a batch of {count}")
    seed = base_seed & _MASK64
    gen = np.random.Generator(np.random.Philox(0))
    state = gen.bit_generator.state  # counter 0, empty buffer: a fresh stream
    z = np.empty((sampler._block_rows, sampler.k))
    values = np.empty((count, sampler.grid.n))
    for start in range(0, count, len(z)):
        block = ids[start : start + len(z)]
        for row, stream_id in zip(z, block):
            state["state"]["key"][:] = (seed, stream_id)
            gen.bit_generator.state = state
            gen.standard_normal(out=row)
        values[start : start + len(block)] = sampler.draw(z[: len(block)])
    return ReplicateBatch(
        sampler.grid, values, sampler.method, sampler.process, sampler.hurst,
        seed, ids, dict(sampler.info),
    )
