"""ANNOY-style index [2] (§2.2, tree-based).

Spotify's ANNOY is "similar to RPTree but selects the splitting
threshold based on random medians": each split direction is the
perpendicular bisector of two randomly sampled points, and the threshold
is the midpoint of their projections — so splits adapt to data geometry
without any PCA preprocessing.  Recall comes from a forest searched
through a single shared priority queue.
"""

from __future__ import annotations

import numpy as np

from ..scores import Score
from ._tree import TreeIndex, unit


class AnnoyIndex(TreeIndex):
    """Forest of two-point-bisector trees with shared-queue search.

    Parameters
    ----------
    num_trees:
        Forest size; ANNOY's main recall knob.
    search_k:
        Default leaf budget per query (ANNOY's ``search_k`` is node
        visits; ours counts leaves, same role).  It is the index's
        ``max_leaves`` under ANNOY's name, also as a search keyword.
    """

    name = "annoy"
    budget_param = "search_k"

    def __init__(
        self,
        score: Score | str = "l2",
        num_trees: int = 8,
        leaf_size: int = 16,
        search_k: int = 64,
        seed: int = 0,
    ):
        super().__init__(score, num_trees, leaf_size, search_k, seed)

    def choose_split(self, rows: np.ndarray, rng: np.random.Generator, depth: int):
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
