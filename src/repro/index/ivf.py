"""Inverted-file (IVF) indexes: IVF-Flat, IVFSQ, IVFADC (§2.2).

An IVF index partitions the collection into ``nlist`` k-means cells
("learned partitioning" in the tutorial's terms) and searches only the
``nprobe`` cells nearest the query.  Variants differ in what each posting
list stores:

* :class:`IvfFlatIndex` — full float vectors; exact re-rank inside cells.
* :class:`IvfSqIndex` — scalar-quantized codes (the tutorial's IVFSQ).
* :class:`IvfAdcIndex` — PQ codes of residuals with ADC scoring (IVFADC
  [49]), wrapping :class:`repro.quantization.ivfadc.IvfAdc`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import SearchHit, SearchStats, topk_from_arrays
from ..quantization.ivfadc import IvfAdc
from ..quantization.kmeans import assign_topn, kmeans
from ..quantization.scalar import ScalarQuantizer
from ..scores import Score
from .base import VectorIndex


class IvfFlatIndex(VectorIndex):
    """k-means cells with full-precision posting lists.

    Parameters
    ----------
    nlist:
        Number of coarse cells (k-means centroids).
    nprobe:
        Default number of cells scanned per query (override per search).
    """

    name = "ivf_flat"
    family = "table"
    supports_updates = True

    def __init__(
        self,
        score: Score | str = "l2",
        nlist: int = 64,
        nprobe: int = 8,
        seed: int = 0,
    ):
        super().__init__(score)
        if nlist <= 0:
            raise ValueError("nlist must be positive")
        self.nlist = nlist
        self.nprobe = nprobe
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self._cells: list[np.ndarray] = []  # row positions per cell

    def _build(self) -> None:
        n = self._vectors.shape[0]
        nlist = min(self.nlist, n)
        result = kmeans(self._vectors.astype(np.float64), nlist, seed=self.seed)
        self.centroids = result.centroids
        self._cells = [
            np.flatnonzero(result.assignments == c) for c in range(nlist)
        ]

    def add(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        start, matrix = self._append(vectors, ids)
        cells = assign_topn(matrix.astype(np.float64), self.centroids, 1)[:, 0]
        for offset, cell in enumerate(cells):
            self._cells[cell] = np.append(self._cells[cell], start + offset)

    def _probe_cells(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        nprobe = max(1, min(nprobe, len(self._cells)))
        return assign_topn(query[None, :].astype(np.float64), self.centroids, nprobe)[0]

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        nprobe: int | None = None,
        **params: Any,
    ) -> list[SearchHit]:
        if params:
            raise TypeError(f"IvfFlatIndex.search got unknown params {sorted(params)}")
        cells = self._probe_cells(query, nprobe if nprobe is not None else self.nprobe)
        stats.nodes_visited += len(cells)
        stats.distance_computations += len(self._cells)  # centroid ranking
        positions = (
            np.concatenate([self._cells[c] for c in cells])
            if len(cells)
            else np.empty(0, dtype=np.int64)
        )
        return self._brute_force(query, k, positions, allowed, stats)

    def cell_sizes(self) -> list[int]:
        return [len(c) for c in self._cells]

    def memory_bytes(self) -> int:
        centroid = 0 if self.centroids is None else self.centroids.nbytes
        return centroid + sum(c.nbytes for c in self._cells)


class IvfSqIndex(VectorIndex):
    """IVF cells whose posting lists hold scalar-quantized codes (IVFSQ).

    Search decodes only the probed cells' codes — the compression saves
    memory at a small recall cost measured in bench E4.
    """

    name = "ivf_sq"
    family = "table"

    def __init__(
        self,
        score: Score | str = "l2",
        nlist: int = 64,
        nprobe: int = 8,
        bits: int = 8,
        seed: int = 0,
    ):
        super().__init__(score)
        self.nlist = nlist
        self.nprobe = nprobe
        self.seed = seed
        self.sq = ScalarQuantizer(bits=bits)
        self.centroids: np.ndarray | None = None
        self._cell_positions: list[np.ndarray] = []
        self._cell_codes: list[np.ndarray] = []

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        nlist = min(self.nlist, data.shape[0])
        result = kmeans(data, nlist, seed=self.seed)
        self.centroids = result.centroids
        self.sq.train(data)
        self._cell_positions = []
        self._cell_codes = []
        for c in range(nlist):
            positions = np.flatnonzero(result.assignments == c)
            self._cell_positions.append(positions)
            self._cell_codes.append(self.sq.encode(data[positions]))

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        nprobe: int | None = None,
        **params: Any,
    ) -> list[SearchHit]:
        if params:
            raise TypeError(f"IvfSqIndex.search got unknown params {sorted(params)}")
        nprobe = max(1, min(nprobe if nprobe is not None else self.nprobe,
                            len(self._cell_positions)))
        cells = assign_topn(
            query[None, :].astype(np.float64), self.centroids, nprobe
        )[0]
        stats.nodes_visited += len(cells)
        stats.distance_computations += len(self._cell_positions)

        ids_chunks: list[np.ndarray] = []
        dist_chunks: list[np.ndarray] = []
        for c in cells:
            positions = self._cell_positions[c]
            if positions.shape[0] == 0:
                continue
            ids = self._ids[positions]
            keep = self._mask_for(ids, allowed)
            if allowed is not None:
                stats.predicate_evaluations += positions.shape[0]
                stats.predicate_rejections += int(np.count_nonzero(~keep))
            if not keep.any():
                continue
            codes = self._cell_codes[c][keep]
            dists = self.sq.squared_distances(query.astype(np.float64), codes)
            stats.distance_computations += codes.shape[0]
            stats.candidates_examined += codes.shape[0]
            ids_chunks.append(ids[keep])
            dist_chunks.append(dists)
        if not ids_chunks:
            return []
        return topk_from_arrays(
            np.concatenate(ids_chunks), np.concatenate(dist_chunks), k
        )

    def memory_bytes(self) -> int:
        centroid = 0 if self.centroids is None else self.centroids.nbytes
        codes = sum(c.nbytes for c in self._cell_codes)
        return centroid + codes + sum(p.nbytes for p in self._cell_positions)


class IvfAdcIndex(VectorIndex):
    """IVFADC [49] wrapped as a :class:`VectorIndex`.

    Optionally re-ranks the ADC top candidates with exact distances
    (``rerank`` > 0), the standard recall-recovery trick.
    """

    name = "ivf_adc"
    family = "table"
    supports_updates = True

    def __init__(
        self,
        score: Score | str = "l2",
        nlist: int = 64,
        nprobe: int = 8,
        m: int = 8,
        ks: int = 256,
        rerank: int = 0,
        seed: int = 0,
        layout: str = "flat",
    ):
        super().__init__(score)
        self.core = IvfAdc(nlist=nlist, m=m, ks=ks, seed=seed, layout=layout)
        self.nprobe = nprobe
        self.rerank = rerank

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        # Shrink nlist/ks gracefully for tiny collections.
        self.core.nlist = min(self.core.nlist, data.shape[0])
        self.core.pq.ks = min(self.core.pq.ks, data.shape[0])
        self.core.train(data)
        # Positions double as ids inside the core; translate on the way out.
        self.core.add(np.arange(data.shape[0], dtype=np.int64), data)

    def add(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """Quantize-and-append: codebooks stay fixed (the easy-update
        property the tutorial credits table-based indexes with)."""
        start, matrix = self._append(vectors, ids)
        positions = np.arange(start, start + matrix.shape[0], dtype=np.int64)
        self.core.add(positions, matrix.astype(np.float64))

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        nprobe: int | None = None,
        rerank: int | None = None,
        **params: Any,
    ) -> list[SearchHit]:
        if params:
            raise TypeError(f"IvfAdcIndex.search got unknown params {sorted(params)}")
        nprobe = nprobe if nprobe is not None else self.nprobe
        rerank = rerank if rerank is not None else self.rerank
        fetch = max(k, rerank) if rerank else k
        # Over-fetch when filtering so the post-mask set still has k.
        overfetch = fetch * 4 if allowed is not None else fetch
        positions, dists, core_stats = self.core.search(query, overfetch, nprobe=nprobe)
        stats.nodes_visited += core_stats.cells_probed
        stats.distance_computations += core_stats.codes_scanned
        stats.candidates_examined += core_stats.codes_scanned
        if positions.shape[0] == 0:
            return []
        ids = self._ids[positions]
        keep = self._mask_for(ids, allowed)
        if allowed is not None:
            stats.predicate_evaluations += ids.shape[0]
            stats.predicate_rejections += int(np.count_nonzero(~keep))
        positions, ids, dists = positions[keep], ids[keep], dists[keep]
        if positions.shape[0] == 0:
            return []
        if rerank:
            take = positions[: max(k, rerank)]
            exact = self.score.distances(query, self._vectors[take])
            stats.distance_computations += take.shape[0]
            return topk_from_arrays(self._ids[take], exact, k)
        return topk_from_arrays(ids, dists, k)[:k]

    def memory_bytes(self) -> int:
        return self.core.memory_bytes() if self.core.is_trained else 0
