"""IVFADC [49]: inverted file + asymmetric distance computation (§2.2).

The collection is coarsely partitioned by k-means into ``nlist`` cells;
within a cell, each vector is stored as the PQ code of its *residual*
(vector minus cell centroid).  A query probes the ``nprobe`` nearest
cells and scores candidates with one ADC table per probed cell (built on
the query residual), never touching full vectors.

This module exposes the quantizer-level object; the searchable index
wrapper lives in :mod:`repro.index.ivf`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import IndexNotBuiltError
from ..index._kernels import topk_indices
from .fastscan import (
    BlockedCodes,
    fastscan_accumulate,
    gather_packed_cells,
    pack_codes_blocked,
    quantize_tables,
)
from .kmeans import CoarseQuantizer
from .pq import ProductQuantizer


@dataclass
class IvfAdcSearchStats:
    cells_probed: int = 0
    codes_scanned: int = 0


class IvfAdc:
    """Coarse quantizer + PQ-on-residuals storage and ADC search.

    Parameters
    ----------
    nlist:
        Number of coarse k-means cells.
    m, ks:
        Product quantizer shape for the residual codes.
    layout:
        ``"flat"`` scores the probed cells with float ADC tables, one
        batched table build for all of them;
        ``"blocked"`` additionally stores codes in the register-blocked
        FastScan layout and scans all probed cells with jointly
        quantized uint8 LUTs plus an exact-rerank tail (§2.3,
        Quick(er)-ADC).
    """

    def __init__(
        self,
        nlist: int = 64,
        m: int = 8,
        ks: int = 256,
        seed: int = 0,
        layout: str = "flat",
    ):
        if layout not in ("flat", "blocked"):
            raise ValueError(f"unknown layout {layout!r}")
        self.coarse = CoarseQuantizer(nlist, seed=seed)  # lists hold external ids
        # The shape asked for; train() fits a fresh quantizer of it.
        self._pq_shape = ProductQuantizer(m=m, ks=ks, seed=seed)
        self.pq = self._pq_shape
        self.layout = layout
        self._cell_codes: list[np.ndarray] = []  # (n_i, m) uint8 per cell
        # Register-blocked twin of _cell_codes, maintained only for the
        # blocked layout.
        self._cell_packed: list[BlockedCodes] = []
        self.dim: int | None = None

    @property
    def centroids(self) -> np.ndarray | None:
        return self.coarse.centroids

    @property
    def _cell_ids(self) -> list[np.ndarray]:
        return self.coarse.lists

    @property
    def is_trained(self) -> bool:
        return self.centroids is not None

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise IndexNotBuiltError("IvfAdc.train() has not been called")

    def train(self, data: np.ndarray) -> "IvfAdc":
        """Learn the coarse centroids and the residual PQ codebooks
        (one cell / codeword per row when there are fewer rows than
        were asked for)."""
        data = np.asarray(data, dtype=np.float64)
        cells = self.coarse.train(data)
        self.dim = data.shape[1]
        self.pq = self._pq_shape.fitted_to(data.shape[0])
        self.pq.train(data - self.centroids[cells])
        empty = np.empty((0, self.pq.m), dtype=np.uint8)
        self._cell_codes = [empty for _ in self._cell_ids]
        if self.layout == "blocked":
            self._cell_packed = [
                pack_codes_blocked(empty, self.pq.ks) for _ in self._cell_ids
            ]
        return self

    def add(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Encode vectors into their cells' posting lists."""
        self._require_trained()
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != vectors.shape[0]:
            raise ValueError("ids and vectors length mismatch")
        cells = self.coarse.assign(vectors)
        codes = self.pq.encode(vectors - self.centroids[cells])
        for cell, members in self.coarse.append(cells, ids):
            self._cell_codes[cell] = np.vstack([self._cell_codes[cell], codes[members]])
            if self.layout == "blocked":
                self._cell_packed[cell] = pack_codes_blocked(
                    self._cell_codes[cell], self.pq.ks
                )

    def probe(self, query: np.ndarray, nprobe: int) -> tuple[list[int], np.ndarray]:
        """One query's candidates: the non-empty cells among its
        ``nprobe`` nearest, nearest first, and their ids in that order."""
        self._require_trained()
        cells = [
            int(c) for c in self.coarse.probe(query, nprobe) if len(self._cell_ids[c])
        ]
        return cells, self.coarse.entries(cells)

    def adc(
        self,
        query: np.ndarray,
        cells: list[int],
        pick=slice(None),
        k: int = 0,
        rerank: int | None = None,
    ) -> np.ndarray:
        """Approximate squared distances of the codes in ``cells`` (as
        :meth:`probe` returned them), those ``pick`` selects, in order.

        Flat layout: float ADC tables, all built in one batched pass.
        Blocked layout: one register-blocked scan over every cell with
        jointly quantized uint8 LUTs (masked-out codes are scanned and
        dropped — the layout has no gaps to skip); then the ``rerank``
        (``None`` → ``max(4 * k, 32)``) best by quantized sum are
        re-scored against the float tables and the rest are ruled out
        (``+inf``).  ``rerank=0`` returns the raw LUT estimates.
        """
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        tables = self.pq.adc_tables(query[None, :] - self.centroids[cells])
        sizes = [self._cell_codes[c].shape[0] for c in cells]
        slots = np.repeat(np.arange(len(cells), dtype=np.int32), sizes)
        if self.layout == "blocked":
            blocked = gather_packed_cells(self._cell_packed, cells)
            qluts = quantize_tables(tables, paired=blocked.paired)
            acc = fastscan_accumulate(
                qluts.luts, blocked.packed, slots * qluts.lut_size
            )[pick]
            tail = max(4 * k, 32) if rerank is None else rerank
            if tail <= 0:
                return qluts.dequantize(acc)
        codes = np.concatenate([self._cell_codes[c] for c in cells], axis=0)[pick]
        slots = slots[pick]

        def table_sums(rows=slice(None)) -> np.ndarray:
            return tables[
                slots[rows][:, None], np.arange(self.pq.m), codes[rows]
            ].sum(axis=1)

        if self.layout == "flat":
            return table_sums()
        # Accumulator order == approximate-distance order (monotone
        # affine map), and the head is re-scored exactly anyway, so the
        # cut runs on the raw uint accumulator, unsorted.
        head = topk_indices(acc, tail, sort=False)
        dists = np.full(codes.shape[0], np.inf)
        dists[head] = table_sums(head)
        return dists

    def search(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int = 8,
        rerank: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, IvfAdcSearchStats]:
        """Return (ids, squared_distances, stats) of the ADC top-k.

        With the blocked layout, ``rerank`` caps the exact-rerank tail
        (``None`` → ``max(4 * k, 32)``; ``0`` disables reranking and
        returns raw quantized-LUT distances).  The flat layout ignores
        it — float tables need no rerank.
        """
        cells, ids = self.probe(query, nprobe)
        dists = self.adc(query, cells, k=k, rerank=rerank) if cells else np.empty(0)
        return self._top(ids, dists, k, len(cells))

    @staticmethod
    def _top(
        ids: np.ndarray, dists: np.ndarray, k: int, cells_probed: int
    ) -> tuple[np.ndarray, np.ndarray, IvfAdcSearchStats]:
        order = topk_indices(dists, min(k, ids.shape[0]))
        order = order[np.isfinite(dists[order])]  # a rerank below k answers with fewer
        stats = IvfAdcSearchStats(cells_probed=cells_probed, codes_scanned=ids.shape[0])
        return ids[order], dists[order], stats

    def memory_bytes(self) -> int:
        """Approximate resident size: centroids + codes + id lists."""
        self._require_trained()
        lists = sum(a.nbytes for a in self._cell_codes + self._cell_ids)
        packed = sum(p.packed.nbytes for p in self._cell_packed)
        return self.centroids.nbytes + lists + packed

    def __len__(self) -> int:
        return sum(len(ids) for ids in self._cell_ids)
