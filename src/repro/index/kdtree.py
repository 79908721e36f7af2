"""k-d tree index (§2.2, tree-based).

The fundamental deterministic tree [33, 69]: each internal node splits
on the coordinate axis of maximum spread at the median.  Supports both
exact search (branch-and-bound backtracking, valid for L2) and the
approximate "visit at most ``max_leaves`` leaves" mode that FLANN-style
systems use — the tradeoff bench E5 sweeps that knob.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from ._tree import TreeNode, best_first_search, build_tree, tree_bytes, tree_stats, unit
from .base import VectorIndex


def _kd_split(rows: np.ndarray, rng: np.random.Generator):
    """Median split on the axis of maximum spread (classic k-d rule)."""
    spread = rows.max(axis=0) - rows.min(axis=0)
    axis = int(spread.argmax())
    if spread[axis] == 0:
        return None  # all points identical
    w = np.zeros(rows.shape[1], dtype=np.float64)
    w[axis] = 1.0
    t = float(np.median(rows[:, axis]))
    # Guard against a median equal to the max (all mass on one side).
    if t >= rows[:, axis].max():
        t = float(rows[:, axis].mean())
    return w, t


class KdTreeIndex(VectorIndex):
    """Deterministic k-d tree with exact and approximate search modes.

    Parameters
    ----------
    leaf_size:
        Maximum points per leaf.
    max_leaves:
        Default leaf-visit budget for approximate search; ``None`` means
        exact branch-and-bound (L2 only).
    """

    name = "kdtree"
    family = "tree"

    def __init__(
        self,
        score: Score | str = "l2",
        leaf_size: int = 16,
        max_leaves: int | None = None,
        seed: int = 0,
    ):
        super().__init__(score)
        if leaf_size <= 0:
            raise ValueError("leaf_size must be positive")
        self.leaf_size = leaf_size
        self.max_leaves = max_leaves
        self.seed = seed
        self._root: TreeNode | None = None

    def _build(self) -> None:
        rng = np.random.default_rng(self.seed)
        data = self._vectors.astype(np.float64)
        self._data64 = data
        self._root = build_tree(
            np.arange(data.shape[0], dtype=np.int64),
            data,
            _kd_split,
            self.leaf_size,
            rng,
        )

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        max_leaves: int | None = None,
        exact: bool | None = None,
        **params: Any,
    ) -> Hits:
        if params:
            raise TypeError(f"KdTreeIndex.search got unknown params {sorted(params)}")
        budget = max_leaves if max_leaves is not None else self.max_leaves
        run_exact = exact if exact is not None else budget is None
        q = query.astype(np.float64)
        if run_exact:
            # Branch-and-bound needs a metric; only L2 qualifies here.
            # Under a predicate mask the bound is the k-th *allowed*
            # neighbor, so only rows the mask keeps may tighten it.
            eligible = None if allowed is None else allowed[self._ids]
            positions, leaves = best_first_search(
                [self._root], q, max_leaves=None,
                exact_l2_k=(self._data64, k), eligible=eligible,
            )
        else:
            positions, leaves = best_first_search(
                [self._root], q, max_leaves=max(1, budget)
            )
        stats.nodes_visited += leaves
        return self._brute_force(query, k, positions, allowed, stats)

    def stats(self) -> dict[str, float]:
        """Tree shape statistics (depth should be ~log2(n/leaf_size))."""
        self._require_built()
        return tree_stats(self._root)

    def memory_bytes(self) -> int:
        return tree_bytes([self._root], self._vectors)


def make_unit_axis(dim: int, axis: int) -> np.ndarray:
    """One-hot direction vector (exposed for tests)."""
    w = np.zeros(dim, dtype=np.float64)
    w[axis] = 1.0
    return unit(w)
