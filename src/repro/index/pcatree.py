"""Principal-component trees: PCA tree and PKD-style rotation (§2.2).

A principal component tree "first finds the principal components of the
dataset, and then splits along the principal axes".  We implement two
variants from the tutorial:

* ``rotate=False`` — split every node on the locally strongest principal
  direction (plain PCA tree).
* ``rotate=True`` — PKD-tree style [72]: rotate *through* the top
  principal axes by depth, so sibling subtrees cut along different
  components.

Principal components are computed once on the full dataset (the
"expensive pre-processing step" the tutorial says random-projection
trees avoid); per-node we only project.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from ._tree import TreeNode, best_first_search, tree_bytes, tree_stats, unit
from .base import VectorIndex


def principal_axes(data: np.ndarray, top: int) -> np.ndarray:
    """Top principal directions of ``data`` as rows (unit vectors)."""
    centered = data - data.mean(axis=0)
    # SVD of the data matrix is numerically kinder than eigh(cov).
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[:top]


class PcaTreeIndex(VectorIndex):
    """Binary tree splitting along (globally computed) principal axes.

    Parameters
    ----------
    num_axes:
        How many top principal components to rotate through / choose from.
    rotate:
        PKD-style axis rotation by depth instead of always the strongest
        local component.
    max_leaves:
        Default approximate-search leaf budget.
    """

    name = "pca_tree"
    family = "tree"

    def __init__(
        self,
        score: Score | str = "l2",
        leaf_size: int = 16,
        num_axes: int = 8,
        rotate: bool = True,
        max_leaves: int = 32,
        seed: int = 0,
    ):
        super().__init__(score)
        self.leaf_size = leaf_size
        self.num_axes = num_axes
        self.rotate = rotate
        self.max_leaves = max_leaves
        self.seed = seed
        self._root: TreeNode | None = None
        self.axes: np.ndarray | None = None

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        self._data64 = data
        top = min(self.num_axes, data.shape[1], max(1, data.shape[0] - 1))
        self.axes = np.array([unit(a) for a in principal_axes(data, top)])

        def build(positions: np.ndarray, depth: int) -> TreeNode:
            if positions.shape[0] <= self.leaf_size:
                return TreeNode(positions=positions)
            rows = data[positions]
            if self.rotate:
                w = self.axes[depth % self.axes.shape[0]]
            else:
                # Strongest axis locally: max projection variance.
                variances = (rows @ self.axes.T).var(axis=0)
                w = self.axes[int(variances.argmax())]
            proj = rows @ w
            t = float(np.median(proj))
            go_left = proj < t
            if go_left.all() or not go_left.any():
                return TreeNode(positions=positions)
            return TreeNode(
                w=w,
                t=t,
                left=build(positions[go_left], depth + 1),
                right=build(positions[~go_left], depth + 1),
            )

        self._root = build(np.arange(data.shape[0], dtype=np.int64), 0)

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
            raise TypeError(f"PcaTreeIndex.search got unknown params {sorted(params)}")
        budget = max(1, max_leaves if max_leaves is not None else self.max_leaves)
        positions, leaves = best_first_search(
            [self._root], query.astype(np.float64), max_leaves=budget
        )
        stats.nodes_visited += leaves
        return self._brute_force(query, k, positions, allowed, stats)

    def stats(self) -> dict[str, float]:
        self._require_built()
        return tree_stats(self._root)

    def memory_bytes(self) -> int:
        return tree_bytes([self._root], self._vectors)
