"""Random projection tree (RPTree) index [33, 34] (§2.2, tree-based).

RP-trees avoid the principal-component pre-processing of PCA trees by
splitting on *random unit directions* with a *randomly perturbed*
threshold: Dasgupta & Freund choose the split point uniformly in an
interval around the median of the projections, which provably adapts to
low intrinsic dimensionality.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from ._tree import TreeNode, best_first_search, build_tree, tree_bytes, tree_stats, unit
from .base import VectorIndex


def _rp_split(jitter: float):
    """Random direction, threshold = median +- jitter*spread*U(-1,1)."""

    def choose(rows: np.ndarray, rng: np.random.Generator):
        w = unit(rng.standard_normal(rows.shape[1]))
        proj = rows @ w
        spread = proj.max() - proj.min()
        if spread == 0:
            return None
        t = float(np.median(proj) + jitter * spread * rng.uniform(-1.0, 1.0))
        if not proj.min() < t <= proj.max():
            t = float(np.median(proj))
        return w, t

    return choose


class RpTreeIndex(VectorIndex):
    """A forest of random projection trees.

    Parameters
    ----------
    num_trees:
        Forest size (1 = the plain RPTree).
    jitter:
        Width of the random threshold perturbation as a fraction of the
        projection spread (0 gives exact-median splits).
    max_leaves:
        Default total leaf budget across the forest per query.
    """

    name = "rp_tree"
    family = "tree"

    def __init__(
        self,
        score: Score | str = "l2",
        num_trees: int = 4,
        leaf_size: int = 16,
        jitter: float = 0.25,
        max_leaves: int = 64,
        seed: int = 0,
    ):
        super().__init__(score)
        if num_trees <= 0:
            raise ValueError("num_trees must be positive")
        self.num_trees = num_trees
        self.leaf_size = leaf_size
        self.jitter = jitter
        self.max_leaves = max_leaves
        self.seed = seed
        self._roots: list[TreeNode] = []

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        positions = np.arange(data.shape[0], dtype=np.int64)
        split = _rp_split(self.jitter)
        self._roots = [
            build_tree(
                positions, data, split, self.leaf_size, np.random.default_rng(self.seed + t)
            )
            for t in range(self.num_trees)
        ]

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
            raise TypeError(f"RpTreeIndex.search got unknown params {sorted(params)}")
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
