"""Exact k-nearest-neighbor graph (KNNG) index (§2.2, graph-based).

The brute-force construction is O(N^2) — the tutorial notes this
"appears to be a fundamental limit" [86] — which is exactly what makes
it the baseline bench E6 compares NN-Descent against.  Once built, a
member query is answered in O(1) by returning the node's stored
neighbor list; non-member queries fall back to beam search over the
graph (seeded from several random nodes, since plain KNNGs are not
guaranteed navigable).
"""

from __future__ import annotations

import numpy as np

from ..scores import Score
from ._graph import Adjacency, pack_slots
from .graph_base import GraphIndex


def brute_force_knng(
    vectors: np.ndarray,
    k: int,
    score: Score,
    block_size: int = 512,
) -> Adjacency:
    """Exact directed KNNG via blocked pairwise distances.

    Blocking keeps peak memory at O(block * n) instead of O(n^2).
    """
    n = vectors.shape[0]
    k = min(k, n - 1)
    adjacency: Adjacency = []
    if k <= 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n)]
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        dmat = score.pairwise(vectors[start:stop], vectors)
        # Exclude self-edges by inflating the diagonal entries.
        rows = np.arange(start, stop)
        dmat[np.arange(stop - start), rows] = np.inf
        part = np.argpartition(dmat, k - 1, axis=1)[:, :k]
        row_idx = np.arange(stop - start)[:, None]
        order = np.argsort(dmat[row_idx, part], axis=1, kind="stable")
        sorted_nbrs = part[row_idx, order]
        adjacency.extend(np.asarray(row, dtype=np.int64) for row in sorted_nbrs)
    return adjacency


class KnngIndex(GraphIndex):
    """Exact KNNG with O(1) member lookups and beam search otherwise.

    Parameters
    ----------
    graph_k:
        Out-degree of the graph (k of the KNNG).
    num_entry_points:
        Random seeds per search; KNNGs can have poor navigability, so
        multiple restarts recover recall.
    """

    name = "knng"

    def __init__(
        self,
        score: Score | str = "l2",
        graph_k: int = 16,
        ef_search: int = 64,
        num_entry_points: int = 4,
        seed: int = 0,
    ):
        super().__init__(score, ef_search=ef_search, seed=seed)
        if graph_k <= 0:
            raise ValueError("graph_k must be positive")
        self.graph_k = graph_k
        self.num_entry_points = num_entry_points

    def _build_graph(self) -> tuple[np.ndarray, np.ndarray]:
        return pack_slots(brute_force_knng(self._vectors, self.graph_k, self.score))

    def member_neighbors(self, position: int) -> np.ndarray:
        """O(1) exact k-NN of a member vector — the KNNG's party trick."""
        self._require_built()
        return self._adjacency[position]
