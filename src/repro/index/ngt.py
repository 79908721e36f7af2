"""NGT-style index (Figure 1's "NGT") — neighborhood graph + tree.

Yahoo's NGT pairs two structures, and that pairing is what we
reproduce:

* **ANNG** (approximate neighborhood graph): nodes are inserted
  incrementally, each connected bidirectionally to its k nearest
  current members (found by searching the graph built so far), with a
  degree cap enforced by distance-ranked truncation;
* a **tree** (NGT uses a VP-tree) whose only job at query time is to
  pick good *entry points* for the graph traversal — replacing NSW's
  random restarts with data-adapted seeds.  We use an RP-tree, which
  serves the same role without metric-specific machinery.
"""

from __future__ import annotations

import numpy as np

from ..core.types import SearchStats
from ..scores import Score
from ._graph import Adjacency, beam_search
from ._kernels import topk_indices
from ._tree import TreeNode, best_first_search, build_tree, tree_bytes
from .graph_base import GraphIndex
from .rptree import _rp_split


class NgtIndex(GraphIndex):
    """ANNG + tree-seeded search.

    Parameters
    ----------
    edge_size:
        k — bidirectional edges created per insertion (NGT's
        ``edge_size_for_creation``).
    max_degree:
        Degree cap; overflowing nodes keep their closest neighbors
        (NGT's truncation, simpler than occlusion pruning).
    seed_leaves:
        Tree leaves inspected to choose entry points per query.
    """

    name = "ngt"

    def __init__(
        self,
        score: Score | str = "l2",
        edge_size: int = 10,
        max_degree: int = 24,
        ef_construction: int = 48,
        ef_search: int = 64,
        seed_leaves: int = 2,
        leaf_size: int = 16,
        seed: int = 0,
    ):
        super().__init__(score, ef_search=ef_search, seed=seed)
        if edge_size <= 0:
            raise ValueError("edge_size must be positive")
        self.edge_size = edge_size
        self.max_degree = max(max_degree, edge_size)
        self.ef_construction = ef_construction
        self.seed_leaves = seed_leaves
        self.leaf_size = leaf_size
        self._tree: TreeNode | None = None

    # ------------------------------------------------------------------ build

    def _truncate(self, node: int, adjacency: Adjacency) -> None:
        neighbors = adjacency[node]
        if neighbors.shape[0] <= self.max_degree:
            return
        d = self.score.distances(self._vectors[node], self._vectors[neighbors])
        adjacency[node] = neighbors[topk_indices(d, self.max_degree)]

    def _insert_position(self, pos: int, adjacency: Adjacency) -> None:
        if pos == 0:
            return
        pairs = beam_search(
            self._vectors[pos],
            self._vectors,
            lambda n: adjacency[n],
            [0] if pos < 4 else [0, pos // 2],
            max(self.edge_size, self.ef_construction),
            self.score,
        )
        targets = [p for _, p in pairs[: self.edge_size]]
        adjacency[pos] = np.asarray(targets, dtype=np.int64)
        for t in targets:
            adjacency[t] = np.append(adjacency[t], pos)
            self._truncate(t, adjacency)

    def _build_graph(self) -> Adjacency:
        n = self._vectors.shape[0]
        adjacency: Adjacency = [np.empty(0, dtype=np.int64) for _ in range(n)]
        for pos in range(n):
            self._insert_position(pos, adjacency)
        self._tree = build_tree(
            np.arange(n, dtype=np.int64),
            self._vectors.astype(np.float64),
            _rp_split(jitter=0.15),
            self.leaf_size,
            np.random.default_rng(self.seed),
        )
        return adjacency

    # ----------------------------------------------------------------- search

    def _entry_points(
        self, query: np.ndarray, stats: SearchStats | None = None
    ) -> list[int]:
        """Tree-selected seeds: the contents of the query's nearest
        leaves, reduced to the closest few candidates."""
        if self._tree is None:
            return [self._entry_point]
        positions, _ = best_first_search(
            [self._tree], query.astype(np.float64), max_leaves=self.seed_leaves
        )
        if positions.size == 0:
            return [self._entry_point]
        d = self.score.distances(query, self._vectors[positions])
        if stats is not None:
            stats.distance_computations += positions.size
        return [int(positions[i]) for i in topk_indices(d, 3)]

    def memory_bytes(self) -> int:
        tree = [] if self._tree is None else [self._tree]
        return super().memory_bytes() + tree_bytes(tree, self._vectors)
