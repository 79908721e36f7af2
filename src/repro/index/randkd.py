"""FLANN-style randomized k-d forest (§2.2, tree-based).

FLANN [62] builds several k-d trees, each splitting "along random
principal dimensions": at every node one of the top-spread coordinate
axes is chosen at random, so the trees decorrelate and a shared
best-first queue across the forest recovers recall that a single
deterministic tree loses in high dimension.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from ._tree import TreeNode, best_first_search, build_tree, tree_bytes, tree_stats
from .base import VectorIndex


def _random_top_axis_split(top_axes: int):
    """Split on a random axis among the ``top_axes`` of greatest spread."""

    def choose(rows: np.ndarray, rng: np.random.Generator):
        spread = rows.max(axis=0) - rows.min(axis=0)
        if spread.max() == 0:
            return None
        candidates = np.argsort(spread)[::-1][:top_axes]
        axis = int(rng.choice(candidates))
        if spread[axis] == 0:
            axis = int(spread.argmax())
        w = np.zeros(rows.shape[1], dtype=np.float64)
        w[axis] = 1.0
        # Mean threshold with a little jitter decorrelates trees further
        # (FLANN uses mean +- noise).
        col = rows[:, axis]
        t = float(col.mean())
        if not col.min() < t <= col.max():
            t = float(np.median(col))
        return w, t

    return choose


class RandomizedKdForestIndex(VectorIndex):
    """A forest of randomized k-d trees searched through one queue.

    Parameters
    ----------
    num_trees:
        Forest size; more trees -> higher recall at same leaf budget.
    top_axes:
        Number of highest-spread axes to randomize among (FLANN uses 5).
    max_leaves:
        Default total leaf-visit budget across the whole forest.
    """

    name = "randkd_forest"
    family = "tree"

    def __init__(
        self,
        score: Score | str = "l2",
        num_trees: int = 4,
        leaf_size: int = 16,
        top_axes: int = 5,
        max_leaves: int = 64,
        seed: int = 0,
    ):
        super().__init__(score)
        if num_trees <= 0:
            raise ValueError("num_trees must be positive")
        self.num_trees = num_trees
        self.leaf_size = leaf_size
        self.top_axes = top_axes
        self.max_leaves = max_leaves
        self.seed = seed
        self._roots: list[TreeNode] = []

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        positions = np.arange(data.shape[0], dtype=np.int64)
        split = _random_top_axis_split(self.top_axes)
        self._roots = []
        for t in range(self.num_trees):
            rng = np.random.default_rng(self.seed + t)
            self._roots.append(build_tree(positions, data, split, self.leaf_size, rng))

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        max_leaves: int | None = None,
        **params: Any,
    ) -> Hits:
        if params:
            raise TypeError(
                f"RandomizedKdForestIndex.search got unknown params {sorted(params)}"
            )
        budget = max(1, max_leaves if max_leaves is not None else self.max_leaves)
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
