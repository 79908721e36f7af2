"""k-d tree index (§2.2, tree-based).

The fundamental deterministic tree [33, 69]: each internal node splits
on the coordinate axis of maximum spread at the median.  Supports both
exact search (branch-and-bound backtracking, valid for L2) and the
approximate "visit at most ``max_leaves`` leaves" mode that FLANN-style
systems use — the tradeoff bench E5 sweeps that knob.
"""

from __future__ import annotations

import numpy as np

from ..scores import Score
from ._tree import TreeIndex


class KdTreeIndex(TreeIndex):
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

    def __init__(
        self,
        score: Score | str = "l2",
        leaf_size: int = 16,
        max_leaves: int | None = None,
        seed: int = 0,
    ):
        super().__init__(score, 1, leaf_size, max_leaves, seed)

    def choose_split(self, rows: np.ndarray, rng: np.random.Generator, depth: int):
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
