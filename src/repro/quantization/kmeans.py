"""Lloyd's k-means (from scratch), the workhorse of quantization (§2.2).

IVF coarse quantizers, product-quantization codebooks, SPANN's learned
bucketing, and centroid-code quantizers [42, 56] all reduce to k-means.
This implementation uses k-means++ seeding, vectorized assignment in
cache-sized row blocks, empty-cluster repair, and early stopping on
centroid movement.

:class:`CoarseQuantizer` is the coarse layer of every inverted-file
structure, written once: IVF-Flat, IVFSQ, IVFADC, SPANN and index-guided
sharding all k-means the rows into cells, send a new row to its nearest
cell and a query to its ``nprobe`` nearest, and keep one posting list
per cell.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np


@dataclass
class KMeansResult:
    """Fitted centroids plus training diagnostics."""

    centroids: np.ndarray  # (k, d)
    assignments: np.ndarray  # (n,) cluster index of each training row
    inertia: float  # sum of squared distances to assigned centroids
    iterations: int


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row (one einsum, so every caller sums a
    row's squares in the same order)."""
    return np.einsum("ij,ij->i", rows, rows)


# Output cells per row block of a distance pass: 1 MiB of float64, so a
# block's GEMM output and its sum stay in cache.  Not a tunable: the
# results must not depend on the blocking, and a small enough block
# takes another BLAS kernel that rounds some cells differently from the
# whole product (numpy sends a one-row block to GEMV, OpenBLAS a block
# of up to ~1 200 cells to its small-matrix kernel).
_BLOCK_CELLS = 2**17


def _squared_distances(
    points: np.ndarray, p_sq: np.ndarray, centroids_x2t: np.ndarray, c_sq: np.ndarray
) -> np.ndarray:
    """(n, k) squared L2 distances ``clip((p² + c²) − 2P·C, 0)`` by the
    expansion identity, from the points' squared norms ``p_sq``, the
    transposed doubled centroids ``centroids_x2t`` = (2C)ᵀ and their
    squared norms ``c_sq``.

    Scaling by two is exact, so ``P @ (2C)ᵀ`` is ``2·(P @ Cᵀ)`` bit for
    bit and the GEMM's own output holds the cross term.  The sum is
    formed before the subtraction (that order is part of the result);
    subtract and clip then run in place, so the call allocates two
    n × k buffers and returns one of them.
    """
    cross = points @ centroids_x2t
    sq = np.add(p_sq[:, None], c_sq)
    np.subtract(sq, cross, out=sq)
    del cross
    return np.clip(sq, 0.0, None, out=sq)


def _distances(
    points: np.ndarray, p_sq: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """:func:`_squared_distances` to ``centroids``, whose doubled
    transpose and norms are derived here."""
    return _squared_distances(points, p_sq, (2.0 * centroids).T, _row_norms(centroids))


def _distance_blocks(
    points: np.ndarray, p_sq: np.ndarray, centroids_x2t: np.ndarray, c_sq: np.ndarray
):
    """:func:`_squared_distances` one row block at a time: yields
    ``(rows, sq)``, ``sq`` the distances of ``points[rows]``.

    Every block holds ``_BLOCK_CELLS // k`` rows (at least one), or all
    n when there are fewer; the last block ends at row n and overlaps
    its predecessor rather than run short.  Each block's rows are then
    the same cells, bit for bit, as those rows of the whole product, and
    no n × k matrix is formed.
    """
    n = points.shape[0]
    step = max(1, min(n, _BLOCK_CELLS // c_sq.shape[0]))
    for start in range(0, n, step):
        start = min(start, n - step)
        rows = slice(start, start + step)
        yield rows, _squared_distances(points[rows], p_sq[rows], centroids_x2t, c_sq)


def _nearest(
    points: np.ndarray, p_sq: np.ndarray, centroids_x2t: np.ndarray, c_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(assignments, nearest)``: each point's nearest centroid (the
    first on a tie) and its squared distance, from one blocked pass."""
    n = points.shape[0]
    assignments = np.empty(n, dtype=np.intp)
    nearest = np.empty(n, dtype=np.float64)
    for rows, sq in _distance_blocks(points, p_sq, centroids_x2t, c_sq):
        block = sq.argmin(axis=1)
        assignments[rows] = block
        nearest[rows] = sq[np.arange(block.size), block]
        del sq  # freed before the next block's GEMM allocates
    return assignments, nearest


def _nearest_n(
    points: np.ndarray,
    p_sq: np.ndarray,
    centroids_x2t: np.ndarray,
    c_sq: np.ndarray,
    n: int,
) -> np.ndarray:
    """Per point, its n (clamped to k) nearest centroids, ascending, from
    one blocked pass with one :func:`_smallest_n` per block."""
    out = np.empty((points.shape[0], min(n, c_sq.shape[0])), dtype=np.intp)
    for rows, sq in _distance_blocks(points, p_sq, centroids_x2t, c_sq):
        out[rows] = _smallest_n(sq, n)
        del sq  # freed before the next block's GEMM allocates
    return out


def _kmeans_pp(
    data: np.ndarray, p_sq: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """:func:`kmeans_pp_init` given the rows' squared norms ``p_sq``."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest_sq = _distances(data, p_sq, centroids[:1]).ravel()
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All points coincide with chosen centroids; fill randomly.
            centroids[i] = data[int(rng.integers(n))]
            continue
        probs = closest_sq / total
        choice = int(rng.choice(n, p=probs))
        centroids[i] = data[choice]
        new_sq = _distances(data, p_sq, centroids[i : i + 1]).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


def kmeans_pp_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    return _kmeans_pp(data, _row_norms(data), k, rng)


def _mapped_copy(array: np.ndarray) -> np.ndarray:
    """C-contiguous float64 copy of ``array`` in an anonymous mapping of
    its own, unmapped when the last view of it goes.

    k-means keeps two n × d copies for the length of a call: the float64
    rows of a float32 input and the (d, n) columns of the centroid
    update (``bincount`` on a strided column view would gather that
    column again every iteration).  From malloc's heap either could stay
    resident after the call: once a large block has been freed, glibc
    raises its mmap threshold, serves the next n × d block from the
    heap, and keeps the freed heap block mapped.
    """
    buffer = mmap.mmap(-1, max(1, array.size * 8))
    copy = np.frombuffer(buffer, dtype=np.float64, count=array.size)
    copy = copy.reshape(array.shape)
    np.copyto(copy, array)
    return copy


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
    data = np.asarray(data)
    if data.dtype != np.float64:
        data = _mapped_copy(data)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    p_sq = _row_norms(data)  # constant across k-means++ and every iteration
    centroids = _kmeans_pp(data, p_sq, k, rng)
    columns = _mapped_copy(data.T)
    iterations = 0
    shift = np.inf
    for iterations in range(1, max_iterations + 1):
        assignments, nearest = _nearest(
            data, p_sq, (2.0 * centroids).T, _row_norms(centroids)
        )
        new_centroids = np.empty_like(centroids)
        counts = np.bincount(assignments, minlength=k)
        # Per column, bincount adds the rows into their cells in row
        # order, starting from zero: the sums np.add.at would form.
        sums = np.stack(
            [np.bincount(assignments, weights=col, minlength=k) for col in columns],
            axis=1,
        )
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        # Empty-cluster repair: reseed from the farthest points.
        empties = np.flatnonzero(~nonempty)
        if empties.size:
            farthest = np.argsort(nearest)[::-1]
            for slot, point in zip(empties, farthest):
                new_centroids[slot] = data[point]
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < tolerance:
            break

    del columns
    # A shift of exactly 0.0 means every centroid kept its value, so the
    # pass just run is the final pass: equal values give the same
    # distances bit for bit (a centroid's signed zero only signs a zero
    # product, which no sum or difference the pass forms can show).
    if shift != 0.0:
        assignments, nearest = _nearest(
            data, p_sq, (2.0 * centroids).T, _row_norms(centroids)
        )
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=float(nearest.sum()),
        iterations=iterations,
    )


def assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid index for each point."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centroids = np.asarray(centroids, dtype=np.float64)
    return _nearest(
        points, _row_norms(points), (2.0 * centroids).T, _row_norms(centroids)
    )[0]


def assign_topn(points: np.ndarray, centroids: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n nearest centroids per point (for multi-probe/closure)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centroids = np.asarray(centroids, dtype=np.float64)
    return _nearest_n(
        points, _row_norms(points), (2.0 * centroids).T, _row_norms(centroids), n
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
        self._x2t: np.ndarray | None = None  # (2 * centroids).T, kept for probe
        self.lists: list[np.ndarray] = []  # int64 entries (positions / ids) per cell

    def train(self, data: np.ndarray) -> np.ndarray:
        """Fit ``min(nlist, len(data))`` cells and empty the posting
        lists; returns the cell k-means left each training row in."""
        result = kmeans(data, min(self.nlist, len(data)), seed=self.seed)
        self.centroids = result.centroids
        self._norms = _row_norms(self.centroids)
        self._x2t = (2.0 * self.centroids).T
        self.lists = [np.empty(0, dtype=np.int64) for _ in self.centroids]
        return result.assignments

    def probe(self, points: np.ndarray, nprobe: int) -> np.ndarray:
        """The ``nprobe`` (clamped to [1, cells]) nearest cells, nearest
        first: (nprobe,) for one point, (n, nprobe) for a matrix.  This is
        :func:`assign_topn`'s arithmetic, less recomputing the centroid
        norms and doubled centroids per call; one point takes a 1-D
        selection (one argpartition, one argsort) over its row."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim > 1:
            return _nearest_n(
                points, _row_norms(points), self._x2t, self._norms, max(1, nprobe)
            )
        rows = np.atleast_2d(points)
        row = _squared_distances(rows, _row_norms(rows), self._x2t, self._norms)[0]
        n = min(max(1, nprobe), row.shape[0])
        part = np.argpartition(row, n - 1)[:n]
        return part[np.argsort(row[part])]

    def assign(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest cell of each row (the first on a tie), by the rule
        :func:`assign` and k-means training use."""
        points = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        return _nearest(points, _row_norms(points), self._x2t, self._norms)[0]

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
