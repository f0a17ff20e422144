"""Shared domain types: uniform time grid, sample paths, seeded RNG streams,
linear samplers, and replicate batches.

All samplers in this package are deterministic functions of their parameters
and an :class:`RngStream`. Streams are counter-based (Philox), so replicate i
of a batch can be generated in any order, on any worker, and always yields the
same path. Every built-in sampler is a :class:`LinearSampler` x = A z, which
`generate_batch` draws a block of paths at a time.
"""

from __future__ import annotations

import functools
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

    `plan()` returns (k, draw, info): `draw` maps a (rows, k) block of
    normals to the (rows, n) paths row by row, and `info` is the record
    every path carries. It is called once, when paths are first drawn, so
    the spectrum or factor behind it is not built before then.
    """

    grid: GridSpec
    method: str
    process: str
    hurst: float
    plan: Callable[[], tuple[int, Callable[[np.ndarray], np.ndarray], dict]]

    @functools.cached_property
    def _planned(self) -> tuple[int, Callable[[np.ndarray], np.ndarray], dict]:
        return self.plan()

    def __call__(self, rng: RngStream) -> SamplePath:
        k, draw, info = self._planned
        return self._path(draw(rng.normals(k)[None, :])[0], rng.seed, rng.stream_id, info)

    def _path(self, values, seed, stream_id, info) -> SamplePath:
        return SamplePath(
            self.grid, values, self.method, self.process, self.hurst, seed, stream_id, dict(info)
        )


@dataclass(frozen=True)
class ReplicateBatch:
    """A batch of M independent paths; path i comes from stream (base_seed, i)."""

    count: int
    base_seed: int
    paths: tuple[SamplePath, ...]

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ParameterError("replicate count must be positive")
        if len(self.paths) != self.count:
            raise ValueError("paths length does not match count")

    @property
    def n(self) -> int:
        return self.paths[0].grid.n

    def values_matrix(self) -> np.ndarray:
        """Stack path values into an (M, n) matrix."""
        return np.stack([p.values for p in self.paths])


def generate_batch(
    sampler: Callable[[RngStream], SamplePath],
    count: int,
    base_seed: int,
    stream_ids: Sequence[int] | None = None,
) -> ReplicateBatch:
    """Run `sampler` once per replicate, each on its own stream.

    The result is independent of generation order because stream i is fully
    determined by (base_seed, i). A LinearSampler is drawn in blocks of at
    most 2**16 normals: one Generator is re-keyed to each stream, so row i
    holds the bits of RngStream(base_seed, i).normals(k), and each path is a
    row of one (count, n) array.
    """
    if count < 1:
        raise ParameterError("replicate count must be positive")
    ids = range(count) if stream_ids is None else stream_ids
    if not isinstance(sampler, LinearSampler):
        paths = tuple(sampler(RngStream(base_seed, i)) for i in ids)
        return ReplicateBatch(count=count, base_seed=base_seed, paths=paths)
    k, draw, info = sampler._planned
    seed, ids = base_seed & _MASK64, [i & _MASK64 for i in ids]
    gen = np.random.Generator(np.random.Philox(0))
    state = gen.bit_generator.state  # counter 0, empty buffer: a fresh stream
    z = np.empty((max(1, 2**16 // k), k))
    values = np.empty((len(ids), sampler.grid.n))
    for start in range(0, len(ids), len(z)):
        block = ids[start : start + len(z)]
        for row, stream_id in zip(z, block):
            state["state"]["key"][:] = (seed, stream_id)
            gen.bit_generator.state = state
            gen.standard_normal(out=row)
        values[start : start + len(block)] = draw(z[: len(block)])
    paths = tuple(sampler._path(row, seed, i, info) for row, i in zip(values, ids))
    return ReplicateBatch(count=count, base_seed=base_seed, paths=paths)
