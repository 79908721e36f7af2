"""ANNOY-style index [2] (§2.2, tree-based).

Spotify's ANNOY is "similar to RPTree but selects the splitting
threshold based on random medians": each split direction is the
perpendicular bisector of two randomly sampled points, and the threshold
is the midpoint of their projections — so splits adapt to data geometry
without any PCA preprocessing.  Recall comes from a forest searched
through a single shared priority queue.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from ._tree import TreeNode, best_first_search, build_tree, tree_bytes, tree_stats, unit
from .base import VectorIndex


def _annoy_split(rows: np.ndarray, rng: np.random.Generator):
    """Perpendicular bisector of two random points, midpoint threshold."""
    n = rows.shape[0]
    # A few attempts to sample two distinct points.
    for _ in range(8):
        i, j = rng.integers(n), rng.integers(n)
        direction = rows[i] - rows[j]
        norm = np.linalg.norm(direction)
        if norm > 0:
            w = direction / norm
            midpoint = (rows[i] + rows[j]) / 2.0
            t = float(w @ midpoint)
            proj = rows @ w
            if proj.min() < t <= proj.max():
                return w, t
    # Fallback: random direction at the median (degenerate local data).
    w = unit(rng.standard_normal(rows.shape[1]))
    proj = rows @ w
    if proj.max() == proj.min():
        return None
    return w, float(np.median(proj))


class AnnoyIndex(VectorIndex):
    """Forest of two-point-bisector trees with shared-queue search.

    Parameters
    ----------
    num_trees:
        Forest size; ANNOY's main recall knob.
    search_k:
        Default leaf budget per query (ANNOY's ``search_k`` is node
        visits; ours counts leaves, same role).
    """

    name = "annoy"
    family = "tree"

    def __init__(
        self,
        score: Score | str = "l2",
        num_trees: int = 8,
        leaf_size: int = 16,
        search_k: int = 64,
        seed: int = 0,
    ):
        super().__init__(score)
        if num_trees <= 0:
            raise ValueError("num_trees must be positive")
        self.num_trees = num_trees
        self.leaf_size = leaf_size
        self.search_k = search_k
        self.seed = seed
        self._roots: list[TreeNode] = []

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        positions = np.arange(data.shape[0], dtype=np.int64)
        self._roots = [
            build_tree(
                positions,
                data,
                _annoy_split,
                self.leaf_size,
                np.random.default_rng(self.seed + t),
            )
            for t in range(self.num_trees)
        ]

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        search_k: int | None = None,
        **params: Any,
    ) -> Hits:
        if params:
            raise TypeError(f"AnnoyIndex.search got unknown params {sorted(params)}")
        budget = max(1, search_k if search_k is not None else self.search_k)
        positions, leaves = best_first_search(
            self._roots, query.astype(np.float64), max_leaves=budget
        )
        stats.nodes_visited += leaves
        return self._brute_force(query, k, positions, allowed, stats)

    def stats(self) -> list[dict[str, float]]:
        self._require_built()
        return [tree_stats(r) for r in self._roots]

    def memory_bytes(self) -> int:
        return tree_bytes(self._roots, self._vectors)
