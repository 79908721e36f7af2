"""SPANN [32]: disk-resident inverted index with closure assignment (§2.2).

SPANN keeps only cluster centroids in memory and posting lists of full
vectors on disk.  Its two signature techniques, both implemented here:

* **Closure (multi-cluster) assignment** — a boundary vector is
  replicated into every cluster whose centroid is within ``(1 +
  closure_epsilon)`` of its nearest centroid distance (up to
  ``max_replicas``), so probing few postings still finds boundary
  points: fewer I/Os at the same recall (bench E7's comparison).
* **Query-time pruning** — probed postings whose centroid distance
  exceeds ``(1 + prune_epsilon)`` times the nearest centroid distance
  are skipped, saving reads on easy queries.

Posting lists are page-aligned on a :class:`SimulatedDisk`; reading a
posting costs ``ceil(len / vectors_per_page)`` page reads.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import VECTOR_DTYPE, Hits, SearchStats
from ..quantization.kmeans import CoarseQuantizer
from ..scores import Score
from ..storage.disk import SimulatedDisk
from ._kernels import topk_indices
from .base import VectorIndex


class SpannIndex(VectorIndex):
    """Memory-resident centroids + disk-resident posting lists.

    Parameters
    ----------
    num_postings:
        Number of k-means posting lists (centroids in memory).
    closure_epsilon:
        Replication slack; 0 disables closure assignment (plain IVF on
        disk — the ablation baseline).
    max_replicas:
        Cap on posting lists one vector may join.
    nprobe:
        Default postings probed per query.
    prune_epsilon:
        Query-time centroid-distance pruning slack (None disables).
    """

    name = "spann"
    family = "table"

    def __init__(
        self,
        score: Score | str = "l2",
        num_postings: int = 64,
        closure_epsilon: float = 0.2,
        max_replicas: int = 4,
        nprobe: int = 8,
        prune_epsilon: float | None = None,
        disk: SimulatedDisk | None = None,
        seed: int = 0,
    ):
        super().__init__(score)
        if num_postings <= 0:
            raise ValueError("num_postings must be positive")
        self.num_postings = num_postings
        self.closure_epsilon = closure_epsilon
        self.max_replicas = max(1, max_replicas)
        self.nprobe = nprobe
        self.prune_epsilon = prune_epsilon
        self.disk = disk or SimulatedDisk(page_size=4096)
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self._posting_pages: list[list[int]] = []
        self._posting_ids: list[np.ndarray] = []
        self.replication_factor: float = 1.0

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        n = data.shape[0]
        # The family's trainer; closure assignment and the pruned probe
        # below need the score-aware centroid distances themselves.
        coarse = CoarseQuantizer(self.num_postings, seed=self.seed)
        coarse.train(data)
        self.centroids = coarse.centroids

        # Closure assignment: nearest centroid always; others within
        # (1 + eps) of the nearest distance, up to max_replicas.
        dists = self.score.pairwise(data, self.centroids)
        order = np.argsort(dists, axis=1, kind="stable")[:, : self.max_replicas]
        ranked = np.take_along_axis(dists, order, axis=1)
        replica = ranked <= (1.0 + self.closure_epsilon) * ranked[:, :1]
        replica[:, 0] = True
        rows, ranks = np.nonzero(replica)
        coarse.append(order[rows, ranks], rows)
        self.replication_factor = rows.shape[0] / max(1, n)

        # Lay each posting out on page-aligned disk blocks.
        vec_bytes = self._vectors.shape[1] * np.dtype(VECTOR_DTYPE).itemsize
        per_page = max(1, self.disk.page_size // vec_bytes)
        self._vectors_per_page = per_page
        self._posting_pages = []
        self._posting_ids = coarse.lists
        for positions in self._posting_ids:
            pages: list[int] = []
            for start in range(0, positions.shape[0], per_page):
                chunk = self._vectors[positions[start : start + per_page]]
                page_id = self.disk.allocate()
                self.disk.write_page(page_id, chunk.tobytes())
                pages.append(page_id)
            self._posting_pages.append(pages)

    def _read_posting(self, c: int, stats: SearchStats) -> np.ndarray:
        chunks = []
        for page_id in self._posting_pages[c]:
            data = self.disk.read_page(page_id)
            stats.page_reads += 1
            chunks.append(
                np.frombuffer(data, dtype=VECTOR_DTYPE).reshape(
                    -1, self._vectors.shape[1]
                )
            )
        if not chunks:
            return np.empty((0, self._vectors.shape[1]), dtype=VECTOR_DTYPE)
        return np.vstack(chunks)

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        nprobe: int | None = None,
        **params: Any,
    ) -> Hits:
        if params:
            raise TypeError(f"SpannIndex.search got unknown params {sorted(params)}")
        nprobe = max(1, min(nprobe if nprobe is not None else self.nprobe,
                            len(self._posting_pages)))
        cd = self.score.distances(
            query, self.centroids.astype(VECTOR_DTYPE, copy=False)
        )
        stats.distance_computations += self.centroids.shape[0]
        probe_order = topk_indices(cd, nprobe)
        if self.prune_epsilon is not None and probe_order.size:
            limit = (1.0 + self.prune_epsilon) * float(cd[probe_order[0]])
            probe_order = probe_order[cd[probe_order] <= limit]

        best_ids: list[np.ndarray] = []
        best_dists: list[np.ndarray] = []
        for c in probe_order:
            c = int(c)
            positions = self._posting_ids[c]
            if positions.shape[0] == 0:
                continue
            stats.nodes_visited += 1
            vectors = self._read_posting(c, stats)
            keep = self._admit(positions, allowed, stats)
            if keep is not None:
                positions, vectors = positions[keep], vectors[keep]
                if positions.shape[0] == 0:
                    continue
            stats.distance_computations += positions.shape[0]
            stats.candidates_examined += positions.shape[0]
            best_ids.append(self._ids[positions])
            best_dists.append(self.score.distances(query, vectors))
        if not best_ids:
            return Hits.EMPTY
        ids = np.concatenate(best_ids)
        dists = np.concatenate(best_dists)
        # Closure replication can surface the same id from several
        # postings; keep each id's best distance.
        uniq, inverse = np.unique(ids, return_inverse=True)
        reduced = np.full(uniq.shape[0], np.inf)
        np.minimum.at(reduced, inverse, dists)
        return Hits.topk(uniq, reduced, k)

    @property
    def nlist(self) -> int:
        """``num_postings`` under the name the other inverted files give it."""
        return self.num_postings

    def posting_page_counts(self) -> list[int]:
        return [len(p) for p in self._posting_pages]

    def expected_pages_per_probe(self) -> float:
        counts = self.posting_page_counts()
        return float(np.mean(counts)) if counts else 0.0

    def memory_bytes(self) -> int:
        """RAM footprint: centroids + posting id lists + page table."""
        if self.centroids is None:
            return 0
        ids = sum(a.nbytes for a in self._posting_ids)
        pages = sum(len(p) for p in self._posting_pages) * 8
        return self.centroids.nbytes + ids + pages
