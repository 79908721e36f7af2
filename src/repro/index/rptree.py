"""Random projection tree (RPTree) index [33, 34] (§2.2, tree-based).

RP-trees avoid the principal-component pre-processing of PCA trees by
splitting on *random unit directions* with a *randomly perturbed*
threshold: Dasgupta & Freund choose the split point uniformly in an
interval around the median of the projections, which provably adapts to
low intrinsic dimensionality.
"""

from __future__ import annotations

import numpy as np

from ..scores import Score
from ._tree import TreeIndex, unit


def rp_split(rows: np.ndarray, rng: np.random.Generator, jitter: float):
    """Random direction, threshold = median +- jitter*spread*U(-1,1)."""
    w = unit(rng.standard_normal(rows.shape[1]))
    proj = rows @ w
    spread = proj.max() - proj.min()
    if spread == 0:
        return None
    t = float(np.median(proj) + jitter * spread * rng.uniform(-1.0, 1.0))
    if not proj.min() < t <= proj.max():
        t = float(np.median(proj))
    return w, t


class RpTreeIndex(TreeIndex):
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

    def __init__(
        self,
        score: Score | str = "l2",
        num_trees: int = 4,
        leaf_size: int = 16,
        jitter: float = 0.25,
        max_leaves: int = 64,
        seed: int = 0,
    ):
        super().__init__(score, num_trees, leaf_size, max_leaves, seed)
        self.jitter = jitter

    def choose_split(self, rows: np.ndarray, rng: np.random.Generator, depth: int):
        return rp_split(rows, rng, self.jitter)
