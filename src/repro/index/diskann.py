"""DiskANN [74]: disk-resident Vamana with PQ-guided traversal (§2.2).

DiskANN's layout puts each node's **full vector and adjacency list
together in one disk page**, while a compact PQ sketch of every vector
stays in RAM.  A query runs the family's beam search
(:func:`~repro.index._graph.beam_search`) with the cheap in-memory ADC
keys as its key source (:func:`~repro.index._graph.code_keys`) and the
pages as its adjacency: expanding a node costs exactly one page read,
which also yields the node's full-precision vector — used to re-rank the
expanded rows exactly.  I/Os per query therefore ~ nodes expanded ~ the
search list size, the property bench E7 measures against an IVF-on-disk
baseline.

The graph stays on its pages (a resident slot matrix would cost ~0.75x
the raw vectors again), so DiskANN is not a
:class:`~repro.index.graph_base.GraphIndex`.  Its ADC keys estimate
squared L2, so it refuses scores they cannot order.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import VECTOR_DTYPE, Hits, SearchStats
from ..quantization.pq import ProductQuantizer
from ..scores import Score
from ..storage.disk import SimulatedDisk
from ._graph import beam_search, code_keys
from .base import VectorIndex
from .vamana import build_vamana_graph

#: Frontier nodes one round of the beam expands, one page read each: the
#: paper's beam width W.  Wider rounds pay fewer numpy calls a query but
#: read pages a strict best-first walk would not; see E7 in
#: ``EXPERIMENTS.md`` for the trade.
ROUND_WIDTH = 1
#: Scores whose order the ADC keys (squared L2 estimates) follow.
_ADC_SCORES = ("l2", "sqeuclidean")


class _PageRows:
    """DiskANN's graph as the row source the beam gathers from:
    ``rows[v]`` reads node v's page (one ``page_read``) and answers its
    neighbor positions; the full vector's bytes, which the page also
    holds, are kept in expansion order for the exact re-rank."""

    __slots__ = ("disk", "pages", "vector_bytes", "stats", "positions", "vectors")

    def __init__(self, index: "DiskAnnIndex", stats: SearchStats):
        self.disk, self.pages, self.stats = index.disk, index._node_pages, stats
        self.vector_bytes = index._vectors.shape[1] * np.dtype(VECTOR_DTYPE).itemsize
        self.positions: list[int] = []
        self.vectors: list[bytes] = []

    def __getitem__(self, pos: int) -> np.ndarray:
        page = self.disk.read_page(self.pages[pos])
        self.stats.page_reads += 1
        self.positions.append(pos)
        self.vectors.append(page[: self.vector_bytes])
        return np.frombuffer(page, dtype=np.int64, offset=self.vector_bytes)


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
        max_degree: int = 32,
        build_beam_width: int = 64,
        alpha: float = 1.2,
        pq_m: int = 8,
        pq_ks: int = 256,
        beam_width: int = 32,
        disk: SimulatedDisk | None = None,
        seed: int = 0,
    ):
        super().__init__(score)
        if self.score.name not in _ADC_SCORES:
            # ADC keys estimate squared L2: under any other score they
            # steer the frontier away from the true neighbors.
            raise ValueError(
                f"DiskANN's PQ keys order only {' / '.join(_ADC_SCORES)}, "
                f"not {self.score.name!r}"
            )
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
        # One page per node: the full vector, then the neighbor ids.
        self._node_pages = []
        for pos in range(data64.shape[0]):
            payload = self._vectors[pos].tobytes() + adjacency[pos].astype(np.int64).tobytes()
            page_id = self.disk.allocate()
            self.disk.write_page(page_id, payload)
            self._node_pages.append(page_id)
        # Full vectors now live on disk; drop the in-RAM copy except what
        # the base class needs for dim checks.  (We keep the matrix for
        # test oracles but mark the intent via _ram_resident.)
        self._ram_resident = False

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
        table = self.pq.adc_tables(query)[0]
        rows = _PageRows(self, stats)
        beam_search(
            query, self._vectors, rows, [self._entry], beam, self.score,
            stats=stats, allowed=allowed, ids=self._ids, width=ROUND_WIDTH,
            key_source=code_keys(table, self._codes),
        )
        # The exact re-rank: every expanded allowed row, whose page (and
        # so whose full vector) was read.
        positions = np.array(rows.positions, dtype=np.int64)
        vectors = np.frombuffer(b"".join(rows.vectors), dtype=VECTOR_DTYPE)
        vectors = vectors.reshape(positions.size, -1)
        if allowed is not None:
            keep = allowed[self._ids[positions]]
            positions, vectors = positions[keep], vectors[keep]
        if positions.size == 0:
            return Hits.EMPTY
        dists = self.score.distances(query, vectors).astype(np.float64, copy=False)
        stats.distance_computations += positions.size
        stats.candidates_examined += positions.size
        order = np.lexsort((positions, dists))[:k]
        return Hits(self._ids[positions[order]], dists[order])

    def memory_bytes(self) -> int:
        """RAM footprint: PQ codes + codebooks + page table (not vectors)."""
        if self._codes is None:
            return 0
        codebooks = self.pq.m * self.pq.ks * (self.pq.subdim or 0) * 8
        return self._codes.nbytes + codebooks + len(self._node_pages) * 8
