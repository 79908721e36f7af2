"""Vamana graph [74] — the in-memory core of DiskANN (§2.2, MSN family).

Vamana starts from a random regular graph, then makes two passes over
the nodes in random order: search the current graph from the medoid for
the node's vector, collect the visited set, and re-select the node's
out-edges with **RobustPrune**.  The second pass uses ``alpha > 1``,
which deliberately keeps some longer edges — the ingredient that makes
the graph traversable with a small beam (and hence few disk reads in
DiskANN, see :mod:`repro.index.diskann`).
"""

from __future__ import annotations

import numpy as np

from ..scores import Score
from ._graph import Adjacency, beam_search, ensure_connected, link, medoid, select_edges
from ._kernels import ensure_f32c
from .graph_base import GraphIndex


def build_vamana_graph(
    vectors: np.ndarray,
    max_degree: int,
    beam_width: int,
    alpha: float,
    score: Score,
    seed: int = 0,
) -> tuple[Adjacency, int]:
    """Construct a Vamana graph; returns (adjacency, medoid position)."""
    # Kernel boundary: the beam searches below assume float32
    # C-contiguous (a no-op for the in-tree callers, which pass the
    # ingest-blessed ``self._vectors``).
    vectors = ensure_f32c(vectors)
    n = vectors.shape[0]
    if n == 0:
        return [], 0
    rng = np.random.default_rng(seed)
    degree = min(max_degree, n - 1)
    adjacency: Adjacency = []
    for v in range(n):
        if degree <= 0:
            adjacency.append(np.empty(0, dtype=np.int64))
            continue
        nbrs = rng.choice(n - 1, size=degree, replace=False)
        nbrs[nbrs >= v] += 1
        adjacency.append(nbrs.astype(np.int64))
    start = medoid(vectors.astype(np.float64))

    for pass_alpha in (1.0, alpha):
        order = rng.permutation(n)
        for v in order:
            v = int(v)
            pairs = beam_search(
                vectors[v], vectors, adjacency, [start], beam_width, score
            )
            adjacency[v] = select_edges(
                v, pairs, adjacency, vectors, max_degree, score, pass_alpha
            )
            # Back-edges with overflow pruning.
            for nb in adjacency[v]:
                nb = int(nb)
                if v not in adjacency[nb]:
                    link(adjacency, nb, v, vectors, max_degree, score, pass_alpha)

    ensure_connected(adjacency, vectors, start, score, max_degree)
    return adjacency, start


class VamanaIndex(GraphIndex):
    """In-memory Vamana (DiskANN's graph without the disk).

    Parameters
    ----------
    max_degree:
        R — degree cap.
    beam_width:
        L — construction beam width.
    alpha:
        Second-pass RobustPrune slack (> 1 keeps long-range edges).
    """

    name = "vamana"

    def __init__(
        self,
        score: Score | str = "l2",
        max_degree: int = 16,
        beam_width: int = 64,
        alpha: float = 1.2,
        ef_search: int = 64,
        seed: int = 0,
    ):
        super().__init__(score, ef_search=ef_search, seed=seed)
        if alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        self.max_degree = max_degree
        self.beam_width = beam_width
        self.alpha = alpha

    def _build_graph(self) -> Adjacency:
        adjacency, self._entry_point = build_vamana_graph(
            self._vectors,
            self.max_degree,
            self.beam_width,
            self.alpha,
            self.score,
            seed=self.seed,
        )
        return adjacency
