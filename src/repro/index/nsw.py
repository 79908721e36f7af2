"""Navigable small world graph (NSW) [57] (§2.2, graph-based).

Malkov et al.'s construction is beautifully simple: insert nodes one at
a time, and connect each to its ``f`` nearest neighbors *among nodes
already in the graph*, found by searching the graph built so far.  Early
edges become long-range "highways" as the graph densifies, giving the
small-world property; searches use several random restarts to escape
local minima (the flaw HNSW's layers later fixed).
"""

from __future__ import annotations

import numpy as np

from ..scores import Score
from ._graph import Adjacency, pack_slots
from .graph_base import GraphIndex


class NswIndex(GraphIndex):
    """Incrementally-built navigable small world graph.

    Parameters
    ----------
    connections:
        f — bidirectional edges added per inserted node.
    ef_construction:
        Beam width when locating a new node's neighbors.
    num_entry_points:
        Random restarts per search (NSW's recall knob besides ef).
    """

    name = "nsw"

    def __init__(
        self,
        score: Score | str = "l2",
        connections: int = 8,
        ef_construction: int = 64,
        ef_search: int = 64,
        num_entry_points: int = 2,
        seed: int = 0,
    ):
        super().__init__(score, ef_search=ef_search, seed=seed)
        if connections <= 0:
            raise ValueError("connections must be positive")
        self.connections = connections
        self.ef_construction = ef_construction
        self.num_entry_points = num_entry_points

    def _insert_entries(self, pos: int) -> list[int]:
        return [] if pos == 0 else [0] if pos < 4 else [0, 1]

    def _insert_wave(self, adjacency, start, dists, positions) -> None:
        """Connect each node of the wave, in order, to its f nearest
        current members."""
        n = self._vectors.shape[0]
        for pos, row in enumerate(positions[:, : self.connections], start=start):
            adjacency[pos] = targets = row[row < n]
            for t in targets.tolist():
                adjacency[t] = np.append(adjacency[t], pos)

    def _build_graph(self) -> tuple[np.ndarray, np.ndarray]:
        n = self._vectors.shape[0]
        adjacency: Adjacency = [np.empty(0, dtype=np.int64) for _ in range(n)]
        self._insert_in_waves(
            adjacency, max(self.connections, self.ef_construction)
        )
        return pack_slots(adjacency)
