"""Navigating spreading-out graph (NSG) [40] (§2.2, MSN family).

NSG approximates a monotonic search network cheaply: instead of FANNG's
many random-pair search trials, it designates one "navigating node" (the
medoid) as the source of *all* trials.  For every node, a best-first
search from the navigating node collects a candidate pool, edges are
selected with the MRNG occlusion rule (the family's ``select_edges`` /
``link`` at alpha=1), and a final spanning pass reattaches any node the
pruning disconnected.  Queries always start at the navigating node.
"""

from __future__ import annotations

import numpy as np

from ..scores import Score
from ._graph import Adjacency, beam_search, ensure_connected, link, select_edges
from .graph_base import GraphIndex
from .nndescent import nn_descent


class NsgIndex(GraphIndex):
    """NSG built on an NN-Descent initial graph.

    Parameters
    ----------
    max_degree:
        R — out-degree cap after pruning.
    candidate_pool:
        Beam width of the per-node construction search (C in the paper).
    knng_k:
        Width of the NN-Descent graph used for initialization.
    """

    name = "nsg"

    def __init__(
        self,
        score: Score | str = "l2",
        max_degree: int = 16,
        candidate_pool: int = 64,
        knng_k: int = 16,
        ef_search: int = 64,
        seed: int = 0,
    ):
        super().__init__(score, ef_search=ef_search, seed=seed)
        self.max_degree = max_degree
        self.candidate_pool = candidate_pool
        self.knng_k = knng_k
        self.edges_added_for_connectivity = 0

    def _build_graph(self) -> Adjacency:
        n = self._vectors.shape[0]
        if n <= 1:
            return [np.empty(0, dtype=np.int64) for _ in range(n)]
        knng = nn_descent(
            self._vectors,
            min(self.knng_k, n - 1),
            self.score,
            seed=self.seed,
        ).to_adjacency()
        nav = self._entry_point  # the medoid: source of every trial and query

        adjacency: Adjacency = [np.empty(0, dtype=np.int64) for _ in range(n)]
        for v in range(n):
            pairs = beam_search(
                self._vectors[v],
                self._vectors,
                knng,
                [nav],
                self.candidate_pool,
                self.score,
            )
            # The paper unions in the KNNG neighbors of v.
            adjacency[v] = select_edges(
                v, pairs, knng, self._vectors, self.max_degree, self.score
            )

        # Reverse edges, re-pruning overflowing nodes.
        for v in range(n):
            for nb in adjacency[v]:
                nb = int(nb)
                if v not in adjacency[nb]:
                    link(adjacency, nb, v, self._vectors, self.max_degree, self.score)

        self.edges_added_for_connectivity = ensure_connected(
            adjacency, self._vectors, nav, self.score, self.max_degree
        )
        return adjacency
