"""DiskANN [74]: disk-resident Vamana with PQ-guided traversal (§2.2).

DiskANN's layout puts each node's **full vector and adjacency list
together in one disk page**, while a compact PQ sketch of every vector
stays in RAM.  A query runs beam search where candidate ordering uses
the cheap in-memory PQ distances; expanding a node costs exactly one
page read, which also yields the node's full-precision vector — used to
re-rank the final result.  I/Os per query therefore ~ nodes expanded
~ beam width, the property bench E7 measures against an IVF-on-disk
baseline.
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from ..core.types import VECTOR_DTYPE, Hits, SearchStats
from ..quantization.pq import ProductQuantizer
from ..scores import Score
from ..storage.disk import SimulatedDisk
from .base import VectorIndex
from .vamana import build_vamana_graph


class DiskAnnIndex(VectorIndex):
    """Disk-resident Vamana.

    Parameters
    ----------
    max_degree, build_beam_width, alpha:
        Vamana construction parameters.
    pq_m, pq_ks:
        Shape of the in-memory PQ sketch.
    beam_width:
        Default search beam (L); also bounds page reads per query.
    disk:
        Simulated device; supply a shared one to aggregate I/O stats.
    """

    name = "diskann"
    family = "graph"

    def __init__(
        self,
        score: Score | str = "l2",
        max_degree: int = 16,
        build_beam_width: int = 64,
        alpha: float = 1.2,
        pq_m: int = 8,
        pq_ks: int = 256,
        beam_width: int = 16,
        disk: SimulatedDisk | None = None,
        seed: int = 0,
    ):
        super().__init__(score)
        self.max_degree = max_degree
        self.build_beam_width = build_beam_width
        self.alpha = alpha
        self.beam_width = beam_width
        self.seed = seed
        # The quantizer asked for; each build trains a fresh one fitted
        # to the rows it sees.
        self._pq_shape = ProductQuantizer(m=pq_m, ks=pq_ks, seed=seed)
        self.pq = self._pq_shape
        self.disk = disk or SimulatedDisk(page_size=8192)
        self._codes: np.ndarray | None = None
        self._node_pages: list[int] = []
        self._entry: int = 0

    def _build(self) -> None:
        data64 = self._vectors.astype(np.float64)
        adjacency, self._entry = build_vamana_graph(
            data64.astype(VECTOR_DTYPE),
            self.max_degree,
            self.build_beam_width,
            self.alpha,
            self.score,
            seed=self.seed,
        )
        self.pq = self._pq_shape.fitted_to(data64.shape[0]).train(data64)
        self._codes = self.pq.encode(data64)
        # One page per node: full vector + degree + neighbor ids.
        self._node_pages = []
        for pos in range(data64.shape[0]):
            neighbors = adjacency[pos].astype(np.int64)
            payload = (
                self._vectors[pos].tobytes()
                + np.int64(neighbors.shape[0]).tobytes()
                + neighbors.tobytes()
            )
            page_id = self.disk.allocate()
            self.disk.write_page(page_id, payload)
            self._node_pages.append(page_id)
        # Full vectors now live on disk; drop the in-RAM copy except what
        # the base class needs for dim checks.  (We keep the matrix for
        # test oracles but mark the intent via _ram_resident.)
        self._ram_resident = False

    def _read_node(self, pos: int, stats: SearchStats) -> tuple[np.ndarray, np.ndarray]:
        """One page read -> (full vector, neighbor positions)."""
        data = self.disk.read_page(self._node_pages[pos])
        stats.page_reads += 1
        vec_bytes = self._vectors.shape[1] * np.dtype(VECTOR_DTYPE).itemsize
        vector = np.frombuffer(data[:vec_bytes], dtype=VECTOR_DTYPE)
        degree = int(np.frombuffer(data[vec_bytes : vec_bytes + 8], dtype=np.int64)[0])
        neighbors = np.frombuffer(
            data[vec_bytes + 8 : vec_bytes + 8 + degree * 8], dtype=np.int64
        )
        return vector, neighbors

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        beam_width: int | None = None,
        **params: Any,
    ) -> Hits:
        if params:
            raise TypeError(f"DiskAnnIndex.search got unknown params {sorted(params)}")
        if self._codes is None or self._codes.shape[0] == 0:
            return Hits.EMPTY
        beam = max(k, beam_width if beam_width is not None else self.beam_width)
        table = self.pq.adc_table(query.astype(np.float64))

        def pq_distance(pos: int) -> float:
            return float(self.pq.lookup(table, self._codes[pos : pos + 1])[0])

        entry = self._entry
        visited = {entry}
        frontier: list[tuple[float, int]] = [(pq_distance(entry), entry)]
        stats.distance_computations += 1
        # Beam membership and termination both live in PQ-distance space
        # (comparing the PQ estimate against exact distances would mix
        # units — ADC estimates *squared* L2).  Exact distances from the
        # page reads are kept solely for the final re-rank.
        beam_pq: dict[int, float] = {}
        exact: dict[int, float] = {}
        expanded = 0
        while frontier and expanded < 4 * beam:
            d_pq, pos = heapq.heappop(frontier)
            if len(beam_pq) >= beam and d_pq > max(beam_pq.values()):
                break
            vector, neighbors = self._read_node(pos, stats)
            expanded += 1
            stats.nodes_visited += 1
            d_exact = float(self.score.distances(query, vector[None, :])[0])
            stats.distance_computations += 1
            ext = int(self._ids[pos])
            if allowed is None or allowed[ext]:
                exact[pos] = d_exact
                beam_pq[pos] = d_pq
                if len(beam_pq) > beam:
                    worst_pos = max(beam_pq, key=beam_pq.get)
                    beam_pq.pop(worst_pos)
            fresh = [int(nb) for nb in neighbors if int(nb) not in visited]
            visited.update(fresh)
            if fresh:
                codes = self._codes[np.asarray(fresh, dtype=np.int64)]
                dists = self.pq.lookup(table, codes)
                stats.distance_computations += len(fresh)
                for nb, d in zip(fresh, dists):
                    heapq.heappush(frontier, (float(d), nb))
        stats.candidates_examined += len(exact)
        ordered = sorted((d, pos) for pos, d in exact.items())[:k]
        return Hits.from_pairs(ordered, self._ids)

    def memory_bytes(self) -> int:
        """RAM footprint: PQ codes + codebooks + page table (not vectors)."""
        if self._codes is None:
            return 0
        codebooks = self.pq.m * self.pq.ks * (self.pq.subdim or 0) * 8
        return self._codes.nbytes + codebooks + len(self._node_pages) * 8
