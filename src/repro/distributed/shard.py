"""Sharding strategies for distributed search (§2.3 Distributed Search).

The tutorial names two ways to partition a collection into shards:
"the vectors can be equally partitioned or the partitioning can be
index guided, such as placing all vectors in the same bucket into the
same partition".

* :class:`UniformSharding` — round-robin assignment; every query must
  scatter to every shard.
* :class:`IndexGuidedSharding` — k-means cells map to shards, and a
  query routes only to the shards owning the cells nearest to it, so
  fewer nodes are touched per query (bench E11's comparison).
"""

from __future__ import annotations

import abc

import numpy as np

from ..quantization.kmeans import CoarseQuantizer


class ShardingStrategy(abc.ABC):
    """Assigns vectors to shards and routes queries to shards."""

    def __init__(self, num_shards: int):
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards

    @abc.abstractmethod
    def assign(self, vectors: np.ndarray) -> np.ndarray:
        """Shard id per row of ``vectors``."""

    @abc.abstractmethod
    def route(self, query: np.ndarray, nprobe: int) -> list[int]:
        """Shards a query must contact (ordered by priority)."""


class UniformSharding(ShardingStrategy):
    """Equal partitioning; queries scatter everywhere."""

    def assign(self, vectors: np.ndarray) -> np.ndarray:
        return np.arange(vectors.shape[0]) % self.num_shards

    def route(self, query: np.ndarray, nprobe: int) -> list[int]:
        return list(range(self.num_shards))


class IndexGuidedSharding(ShardingStrategy):
    """k-means-cell-to-shard placement with nearest-shard routing.

    Cells are balanced onto shards by size (largest-first bin packing)
    so shards stay roughly even despite skewed clusters.
    """

    def __init__(self, num_shards: int, cells_per_shard: int = 4, seed: int = 0):
        super().__init__(num_shards)
        self.cells_per_shard = max(1, cells_per_shard)
        self.seed = seed
        self._coarse = CoarseQuantizer(num_shards * self.cells_per_shard, seed=seed)
        self._cell_to_shard: np.ndarray | None = None

    @property
    def centroids(self) -> np.ndarray | None:
        return self._coarse.centroids

    def fit(self, vectors: np.ndarray) -> "IndexGuidedSharding":
        self._trained_cells = self._coarse.train(vectors)
        ncells = self.centroids.shape[0]
        sizes = np.bincount(self._trained_cells, minlength=ncells)
        # Largest-first bin packing onto the emptiest shard.
        loads = np.zeros(self.num_shards, dtype=np.int64)
        cell_to_shard = np.zeros(ncells, dtype=np.int64)
        for cell in np.argsort(sizes)[::-1]:
            shard = int(loads.argmin())
            cell_to_shard[cell] = shard
            loads[shard] += sizes[cell]
        self._cell_to_shard = cell_to_shard
        return self

    def assign(self, vectors: np.ndarray) -> np.ndarray:
        if self.centroids is None:
            self.fit(vectors)
            return self._cell_to_shard[self._trained_cells]
        return self._cell_to_shard[self._coarse.assign(vectors)]

    def route(self, query: np.ndarray, nprobe: int) -> list[int]:
        if self.centroids is None:
            raise RuntimeError("IndexGuidedSharding.fit() has not been called")
        # Preserve priority order while deduplicating shards.
        seen: dict[int, None] = {}
        for cell in self._coarse.probe(query, nprobe):
            seen.setdefault(int(self._cell_to_shard[cell]), None)
        return list(seen)
