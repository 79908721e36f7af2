"""FLANN-style randomized k-d forest (§2.2, tree-based).

FLANN [62] builds several k-d trees, each splitting "along random
principal dimensions": at every node one of the top-spread coordinate
axes is chosen at random, so the trees decorrelate and a shared
best-first queue across the forest recovers recall that a single
deterministic tree loses in high dimension.
"""

from __future__ import annotations

import numpy as np

from ..scores import Score
from ._tree import TreeIndex


def random_top_axis_split(rows: np.ndarray, rng: np.random.Generator, top_axes: int):
    """Split on a random axis among the ``top_axes`` of greatest spread."""
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


class RandomizedKdForestIndex(TreeIndex):
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

    def __init__(
        self,
        score: Score | str = "l2",
        num_trees: int = 4,
        leaf_size: int = 16,
        top_axes: int = 5,
        max_leaves: int = 64,
        seed: int = 0,
    ):
        super().__init__(score, num_trees, leaf_size, max_leaves, seed)
        self.top_axes = top_axes

    def choose_split(self, rows: np.ndarray, rng: np.random.Generator, depth: int):
        return random_top_axis_split(rows, rng, self.top_axes)
