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

import numpy as np

from ..scores import Score
from ._tree import TreeIndex, unit


class PcaTreeIndex(TreeIndex):
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

    def __init__(
        self,
        score: Score | str = "l2",
        leaf_size: int = 16,
        num_axes: int = 8,
        rotate: bool = True,
        max_leaves: int = 32,
        seed: int = 0,
    ):
        super().__init__(score, 1, leaf_size, max_leaves, seed)
        self.num_axes = num_axes
        self.rotate = rotate
        self.axes: np.ndarray | None = None

    def _prepare(self, data: np.ndarray) -> None:
        """The top principal directions as unit rows."""
        top = min(self.num_axes, data.shape[1], max(1, data.shape[0] - 1))
        # SVD of the data matrix is numerically kinder than eigh(cov).
        _, _, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
        self.axes = np.array([unit(a) for a in vt[:top]])

    def choose_split(self, rows: np.ndarray, rng: np.random.Generator, depth: int):
        """The median along the depth's axis, or the locally strongest."""
        if self.rotate:
            w = self.axes[depth % self.axes.shape[0]]
        else:
            # Strongest axis locally: max projection variance.
            w = self.axes[int((rows @ self.axes.T).var(axis=0).argmax())]
        return w, float(np.median(rows @ w))
