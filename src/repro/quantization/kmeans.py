"""Lloyd's k-means (from scratch), the workhorse of quantization (§2.2).

IVF coarse quantizers, product-quantization codebooks, SPANN's learned
bucketing, and centroid-code quantizers [42, 56] all reduce to k-means.
This implementation uses k-means++ seeding, vectorized assignment, empty-
cluster repair, and early stopping on centroid movement.

:class:`CoarseQuantizer` is the coarse layer of every inverted-file
structure, written once: IVF-Flat, IVFSQ, IVFADC, SPANN and index-guided
sharding all k-means the rows into cells, send a new row to its nearest
cell and a query to its ``nprobe`` nearest, and keep one posting list
per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class KMeansResult:
    """Fitted centroids plus training diagnostics."""

    centroids: np.ndarray  # (k, d)
    assignments: np.ndarray  # (n,) cluster index of each training row
    inertia: float  # sum of squared distances to assigned centroids
    iterations: int


def _squared_distances(
    points: np.ndarray, centroids: np.ndarray, c_sq: np.ndarray | None = None
) -> np.ndarray:
    """(n, k) squared L2 distances, computed via the expansion identity
    (``c_sq``: the centroids' squared norms, when the caller keeps them)."""
    p_sq = np.einsum("ij,ij->i", points, points)[:, None]
    if c_sq is None:
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
    cross = points @ centroids.T
    return np.clip(p_sq + c_sq[None, :] - 2.0 * cross, 0.0, None)


def kmeans_pp_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest_sq = _squared_distances(data, centroids[:1]).ravel()
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All points coincide with chosen centroids; fill randomly.
            centroids[i] = data[int(rng.integers(n))]
            continue
        probs = closest_sq / total
        choice = int(rng.choice(n, p=probs))
        centroids[i] = data[choice]
        new_sq = _squared_distances(data, centroids[i : i + 1]).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


def kmeans(
    data: np.ndarray,
    k: int,
    max_iterations: int = 25,
    tolerance: float = 1e-4,
    seed: int | None = 0,
) -> KMeansResult:
    """Fit k centroids to ``data`` with Lloyd's algorithm.

    Raises ``ValueError`` if ``k`` exceeds the number of points.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    centroids = kmeans_pp_init(data, k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        sq = _squared_distances(data, centroids)
        assignments = sq.argmin(axis=1)
        new_centroids = np.empty_like(centroids)
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, data)
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        # Empty-cluster repair: reseed from the farthest points.
        empties = np.flatnonzero(~nonempty)
        if empties.size:
            farthest = np.argsort(sq[np.arange(n), assignments])[::-1]
            for slot, point in zip(empties, farthest):
                new_centroids[slot] = data[point]
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < tolerance:
            break

    sq = _squared_distances(data, centroids)
    assignments = sq.argmin(axis=1)
    inertia = float(sq[np.arange(n), assignments].sum())
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        iterations=iterations,
    )


def assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid index for each point."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return _squared_distances(points, np.asarray(centroids, dtype=np.float64)).argmin(
        axis=1
    )


def assign_topn(points: np.ndarray, centroids: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n nearest centroids per point (for multi-probe/closure)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return _smallest_n(
        _squared_distances(points, np.asarray(centroids, dtype=np.float64)), n
    )


def _smallest_n(sq: np.ndarray, n: int) -> np.ndarray:
    """Per row of ``sq``, the columns of its n smallest entries, ascending."""
    n = min(n, sq.shape[1])
    part = np.argpartition(sq, n - 1, axis=1)[:, :n]
    rows = np.arange(sq.shape[0])[:, None]
    order = np.argsort(sq[rows, part], axis=1)
    return part[rows, order]


class CoarseQuantizer:
    """k-means cells and their posting lists.

    ``nlist`` is the number of cells *requested*: fewer rows train one
    cell per row, but the request is never overwritten, so a rebuild
    over more rows gets the cells it asked for.
    """

    def __init__(self, nlist: int, seed: int = 0):
        if nlist <= 0:
            raise ValueError("nlist must be positive")
        self.nlist = nlist
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self._norms: np.ndarray | None = None  # |centroid|^2, kept for probe
        self.lists: list[np.ndarray] = []  # int64 entries (positions / ids) per cell

    def train(self, data: np.ndarray) -> np.ndarray:
        """Fit ``min(nlist, len(data))`` cells and empty the posting
        lists; returns the cell k-means left each training row in."""
        result = kmeans(data, min(self.nlist, len(data)), seed=self.seed)
        self.centroids = result.centroids
        self._norms = np.einsum("ij,ij->i", self.centroids, self.centroids)
        self.lists = [np.empty(0, dtype=np.int64) for _ in self.centroids]
        return result.assignments

    def probe(self, points: np.ndarray, nprobe: int) -> np.ndarray:
        """The ``nprobe`` (clamped to [1, cells]) nearest cells, nearest
        first: (nprobe,) for one point, (n, nprobe) for a matrix.  This is
        :func:`assign_topn`'s arithmetic, less recomputing the centroid
        norms per call."""
        points = np.asarray(points, dtype=np.float64)
        sq = _squared_distances(np.atleast_2d(points), self.centroids, self._norms)
        cells = _smallest_n(sq, max(1, nprobe))
        return cells[0] if points.ndim == 1 else cells

    def assign(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest cell of each row."""
        return self.probe(np.atleast_2d(vectors), 1)[:, 0]

    def append(self, cells: np.ndarray, entries: np.ndarray) -> list[tuple]:
        """Append ``entries[i]`` to the list of ``cells[i]``, in row order,
        with one concatenation per touched cell.  Returns the ``(cell,
        member rows)`` groups, for a caller keeping codes beside each list."""
        order = np.argsort(cells, kind="stable")
        touched, starts = np.unique(cells[order], return_index=True)
        groups = list(zip(touched.tolist(), np.split(order, starts[1:])))
        for cell, members in groups:
            self.lists[cell] = np.concatenate([self.lists[cell], entries[members]])
        return groups

    def entries(self, cells) -> np.ndarray:
        """The posting lists of ``cells`` concatenated in that order."""
        empty = np.empty(0, dtype=np.int64)
        return np.concatenate([empty] + [self.lists[c] for c in cells])
