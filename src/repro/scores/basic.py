"""Basic similarity scores (§2.1 "Score Design").

The tutorial classifies scores into *basic*, *aggregate*, and *learned*.
This module implements the basic scores it lists: Hamming distance, inner
product, cosine angle, Minkowski distance (including fractional norms),
and Mahalanobis distance.

Every score is exposed through the :class:`Score` interface, which maps
similarity onto a **distance** (smaller is better).  Similarity scores
(inner product, cosine) are negated or inverted so that indexes, top-k
operators, and the executor can all sort in one direction.  The raw
similarity is recoverable via :meth:`Score.similarity`.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.types import VECTOR_DTYPE


class Score(abc.ABC):
    """A similarity score expressed as a distance (smaller is better)."""

    #: registry name; subclasses override.
    name: str = "abstract"
    #: True when the underlying measure is a proper metric (triangle
    #: inequality holds), which some indexes (k-d tree pruning) rely on.
    is_metric: bool = False

    @abc.abstractmethod
    def distances(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Distances from one query (d,) to each row of ``vectors`` (n, d)."""

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(len(a), len(b)) distance matrix.  Generic row-by-row fallback."""
        a = np.atleast_2d(a)
        b = np.atleast_2d(b)
        out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
        for i, row in enumerate(a):
            out[i] = self.distances(row, b)
        return out

    def distances_batch(self, queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """(len(queries), len(vectors)) distances with row-identity.

        Contract: row ``i`` must equal ``distances(queries[i], vectors)``
        *bitwise* — batched kernels rely on it for result-identity with
        their per-query references.  The base implementation loops, which
        guarantees the identity; overrides may fuse only when the fused
        arithmetic reduces in the same element order (c_einsum forms —
        not BLAS, whose blocking differs between GEMV and GEMM).
        """
        queries = np.atleast_2d(queries)
        vectors = np.atleast_2d(vectors)
        if queries.shape[0] == 0:
            return np.empty((0, vectors.shape[0]))
        return np.stack([self.distances(q, vectors) for q in queries])

    # The exact-scan kernel (repro.index._scan.scan_topk) ranks rows
    # by keys() and re-scores only the few it selects with distances().
    # A score with a GEMV form caches a per-row auxiliary (norms) so its
    # keys cost one ``V @ q``; every other score ranks by its distances.

    def row_aux(self, vectors: np.ndarray) -> np.ndarray | None:
        """Per-row float32 auxiliary of the GEMV form; None = no such form."""
        return None

    def keys(
        self, query: np.ndarray, vectors: np.ndarray, aux: np.ndarray | None
    ) -> np.ndarray:
        """Ranking keys of one query (d,) -> (n,), or a block (b, d) -> (b, n).

        ``aux`` is ``row_aux(vectors)``.  When that is None the keys *are*
        the distances; otherwise they order rows as ``distances`` does up
        to :meth:`key_margin`.
        """
        if query.ndim == 1:
            return self.distances(query, vectors)
        return self.distances_batch(query, vectors)

    def paired_keys(
        self, queries: np.ndarray, vectors: np.ndarray, aux: np.ndarray
    ) -> np.ndarray:
        """Row-wise keys (m, d), (m, d) -> (m,): row ``i`` of ``vectors``
        keyed against its own query ``queries[i]``, ``aux`` its
        ``row_aux``.  Only scores with a GEMV form have one; the same
        :meth:`key_margin` certifies it."""
        raise NotImplementedError(f"{self.name} has no GEMV key form")

    def paired_distances(
        self, queries: np.ndarray, vectors: np.ndarray
    ) -> np.ndarray | None:
        """Row-wise distances of two blocks that broadcast to (..., d):
        each row of ``vectors`` against its own row of ``queries``.  Each
        element must equal *bitwise* what ``distances(query, rows)``
        returns for that row, whatever else ``rows`` holds — the build
        kernels rely on it to score a whole wave in one call.  Only a
        ``distances`` that reduces every row on its own (a c_einsum form,
        not a BLAS GEMV) has one; None otherwise."""
        return None

    def key_margin(self, query: np.ndarray, aux: np.ndarray) -> float:
        """Key gap that certifies the ``distances`` order for one query:
        ``keys[i] + key_margin <= keys[j]`` implies row ``i`` is no farther
        than row ``j``.  Covers the float32 rounding of the GEMV key and of
        the exact distance it stands for."""
        return 0.0

    def similarity(self, distance: np.ndarray | float):
        """Map a distance back to the natural similarity orientation.

        For true distances this is the identity negated is meaningless, so
        the default returns ``-distance`` (bigger similarity = closer).
        """
        return -np.asarray(distance, dtype=np.float64)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_F32_EPS = float(np.finfo(np.float32).eps)


def _dot_rounding(dim: int) -> float:
    """Rounding bound of a float32 length-``dim`` dot product, in units of
    ``|v| * |q|``: the textbook ``dim * u``, with 4x headroom for the
    key's own scale/add and for the exact distance it is compared with."""
    return 4.0 * (dim + 2) * _F32_EPS


def _dots(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``v . q`` per row: one float32 GEMV -> (n,), or for a query block
    one GEMM -> (b, n).  ``V @ Q.T`` is the fast BLAS orientation (2x
    ``Q @ V.T`` here); its transpose is copied so each query's keys are
    a contiguous row."""
    dots = vectors @ query.T
    return dots if query.ndim == 1 else np.ascontiguousarray(dots.T)


def _squared_norms(vectors: np.ndarray) -> np.ndarray:
    """``row_aux`` of l2 / sqeuclidean / ip."""
    return np.einsum("ij,ij->i", vectors, vectors)


class _SquaredNormKeys:
    """GEMV form shared by l2 / sqeuclidean: rank by ``|v|^2 - 2 v.q``
    (the squared distance less the constant ``|q|^2``)."""

    row_aux = staticmethod(_squared_norms)

    def keys(self, query, vectors, aux):
        keys = _dots(query * -2.0, vectors)
        keys += aux
        return keys

    def paired_keys(self, queries, vectors, aux):
        keys = np.einsum("ij,ij->i", queries, vectors)
        keys *= -2.0
        keys += aux
        return keys

    def key_margin(self, query, aux):
        # (|v| + |q|)^2 <= 2 (|v|^2 + |q|^2)
        return _dot_rounding(query.shape[0]) * 2.0 * float(aux.max() + query @ query)


class EuclideanScore(_SquaredNormKeys, Score):
    """L2 distance, the default score of most VDBMSs."""

    name = "l2"
    is_metric = True

    def distances(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        diff = vectors - query
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def distances_batch(self, queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        # Same subtraction and same per-element einsum reduction order
        # over the trailing axis as distances(), so each row is bitwise
        # identical to the per-query call.
        queries = np.atleast_2d(queries)
        vectors = np.atleast_2d(vectors)
        diff = vectors[None, :, :] - queries[:, None, :]
        return np.sqrt(np.einsum("qnd,qnd->qn", diff, diff))

    def paired_distances(self, queries, vectors):
        diff = vectors - queries
        return np.sqrt(np.einsum("...d,...d->...", diff, diff))

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b, clipped for fp error.
        sq = (
            np.sum(a * a, axis=1)[:, None]
            + np.sum(b * b, axis=1)[None, :]
            - 2.0 * (a @ b.T)
        )
        return np.sqrt(np.clip(sq, 0.0, None))


class SquaredEuclideanScore(_SquaredNormKeys, Score):
    """Squared L2: same ordering as L2 but cheaper (no sqrt).

    Not a metric (triangle inequality fails), so tree pruning bounds must
    not assume it; ordering-only consumers (top-k) may use it freely.
    """

    name = "sqeuclidean"
    is_metric = False

    def distances(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        diff = vectors - query
        return np.einsum("ij,ij->i", diff, diff)

    def distances_batch(self, queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        queries = np.atleast_2d(queries)
        vectors = np.atleast_2d(vectors)
        diff = vectors[None, :, :] - queries[:, None, :]
        return np.einsum("qnd,qnd->qn", diff, diff)

    def paired_distances(self, queries, vectors):
        diff = vectors - queries
        return np.einsum("...d,...d->...", diff, diff)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return EuclideanScore().pairwise(a, b) ** 2


class InnerProductScore(Score):
    """Negative inner product (maximum inner product search, MIPS)."""

    name = "ip"
    is_metric = False

    def distances(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        return -(vectors @ query)

    # The distance already is one GEMV; the squared norms only bound the
    # rounding gap between a block's GEMM keys and the per-row GEMV.
    row_aux = staticmethod(_squared_norms)

    def keys(self, query, vectors, aux):
        keys = _dots(query, vectors)
        return np.negative(keys, out=keys)

    def paired_keys(self, queries, vectors, aux):
        keys = np.einsum("ij,ij->i", queries, vectors)
        return np.negative(keys, out=keys)

    def key_margin(self, query, aux):
        # |v| |q| <= (|v|^2 + |q|^2) / 2
        return _dot_rounding(query.shape[0]) * 0.5 * float(aux.max() + query @ query)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(a)
        b = np.atleast_2d(b)
        return -(a @ b.T)

    def similarity(self, distance):
        return -np.asarray(distance, dtype=np.float64)


class CosineScore(Score):
    """Cosine distance ``1 - cos(a, b)``.

    Zero vectors are treated as orthogonal to everything (distance 1),
    matching the convention of pgvector.
    """

    name = "cosine"
    is_metric = False

    def distances(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        # Upcast so norms of tiny (subnormal float32) rows do not underflow
        # to zero and disagree with pairwise().
        query = np.asarray(query, dtype=np.float64)
        vectors = np.asarray(vectors, dtype=np.float64)
        qn = np.linalg.norm(query)
        vn = np.linalg.norm(vectors, axis=1)
        denom = qn * vn
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.where(denom > 0, (vectors @ query) / denom, 0.0)
        return 1.0 - np.clip(cos, -1.0, 1.0)

    # GEMV form: rank by ``-(v . q) / |v|`` (``-|q| cos``).  The auxiliary
    # is the *inverse* row norm, accumulated in float64 like distances()
    # so a tiny row is not mistaken for a zero row; zero rows get 0
    # (orthogonal to everything, as in distances()).
    def row_aux(self, vectors: np.ndarray) -> np.ndarray:
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64))
        with np.errstate(divide="ignore"):
            return np.where(norms > 0, 1.0 / norms, 0.0).astype(VECTOR_DTYPE, copy=False)

    def keys(self, query, vectors, aux):
        keys = _dots(query, vectors)
        keys *= aux
        return np.negative(keys, out=keys)

    def paired_keys(self, queries, vectors, aux):
        keys = np.einsum("ij,ij->i", queries, vectors)
        keys *= aux
        return np.negative(keys, out=keys)

    def key_margin(self, query, aux):
        # A row shorter than 1e-30 loses its float32 products to underflow
        # (and its inverse norm may be inf): certify nothing.
        if not aux.max() < 1e30:
            return np.inf
        return _dot_rounding(query.shape[0]) * float(np.sqrt(query @ query))

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        an = np.linalg.norm(a, axis=1)[:, None]
        bn = np.linalg.norm(b, axis=1)[None, :]
        denom = an * bn
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.where(denom > 0, (a @ b.T) / denom, 0.0)
        return 1.0 - np.clip(cos, -1.0, 1.0)

    def similarity(self, distance):
        return 1.0 - np.asarray(distance, dtype=np.float64)


class MinkowskiScore(Score):
    """Minkowski (L_p) distance for any p > 0, plus L-infinity.

    Fractional p < 1 gives a quasinorm; the tutorial cites its use (and
    limits) as a curse-of-dimensionality mitigation [22, 61].
    """

    name = "minkowski"

    def __init__(self, p: float = 2.0):
        if p != np.inf and p <= 0:
            raise ValueError(f"p must be positive or inf, got {p}")
        self.p = float(p)
        self.is_metric = p >= 1.0
        if p == 1.0:
            self.name = "l1"
        elif p == 2.0:
            self.name = "l2"
        elif p == np.inf:
            self.name = "linf"
        else:
            self.name = f"minkowski_p{p:g}"

    def distances(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        diff = np.abs(vectors - query)
        if self.p == np.inf:
            return diff.max(axis=1)
        if self.p == 1.0:
            return diff.sum(axis=1)
        return np.power(np.power(diff, self.p).sum(axis=1), 1.0 / self.p)

    def __repr__(self) -> str:
        return f"MinkowskiScore(p={self.p!r})"


class HammingScore(Score):
    """Hamming distance over binary or integer-coded vectors.

    Vectors are compared element-wise; the distance is the number of
    positions that differ.  Float inputs are binarized at 0.5 so that the
    score also works on {0,1}-valued float32 collections.
    """

    name = "hamming"
    is_metric = True

    @staticmethod
    def _binarize(x: np.ndarray) -> np.ndarray:
        if np.issubdtype(x.dtype, np.floating):
            return x >= 0.5
        return x.astype(bool, copy=False) if x.dtype != bool else x

    def distances(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        q = self._binarize(np.asarray(query))
        v = self._binarize(np.asarray(vectors))
        return (v != q).sum(axis=1).astype(np.float64)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = self._binarize(np.atleast_2d(np.asarray(a)))
        b = self._binarize(np.atleast_2d(np.asarray(b)))
        # XOR via broadcasting in blocks to bound memory.
        out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
        for i, row in enumerate(a):
            out[i] = (b != row).sum(axis=1)
        return out


class MahalanobisScore(Score):
    """Mahalanobis distance under a positive-definite matrix ``M``.

    ``d(x, y) = sqrt((x-y)^T M (x-y))``.  With ``M`` the inverse data
    covariance this whitens correlated dimensions; with a learned ``M``
    (see :mod:`repro.scores.learned`) it is a learned score.
    """

    name = "mahalanobis"
    is_metric = True

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        # Cholesky both validates positive-definiteness and gives a linear
        # map L so that d_M(x,y) = ||L^T (x-y)||_2.
        self._chol = np.linalg.cholesky(matrix)
        self.matrix = matrix

    @classmethod
    def from_data(cls, data: np.ndarray, regularization: float = 1e-6):
        """Whitening Mahalanobis: M = (cov(data) + eps I)^-1."""
        data = np.asarray(data, dtype=np.float64)
        cov = np.cov(data, rowvar=False)
        cov = np.atleast_2d(cov)
        cov += regularization * np.eye(cov.shape[0])
        return cls(np.linalg.inv(cov))

    def _transform(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self._chol

    def distances(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        diff = self._transform(vectors) - self._transform(query)
        return np.sqrt(np.einsum("ij,ij->i", np.atleast_2d(diff), np.atleast_2d(diff)))

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return EuclideanScore().pairwise(
            self._transform(np.atleast_2d(a)), self._transform(np.atleast_2d(b))
        )

    def __repr__(self) -> str:
        return f"MahalanobisScore(dim={self.matrix.shape[0]})"


def normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """Unit-normalize rows; zero rows stay zero.

    Cosine search over normalized vectors reduces to inner product, the
    standard trick real systems use to reuse an IP or L2 index for cosine.
    """
    vectors = np.asarray(vectors, dtype=VECTOR_DTYPE)
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(norms > 0, vectors / norms, vectors)
    return out.astype(VECTOR_DTYPE)
