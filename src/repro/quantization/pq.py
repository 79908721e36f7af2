"""Product quantization (PQ) [49] with ADC and SDC lookups (§2.2).

PQ splits the d-dimensional space into ``m`` subspaces of d/m dimensions,
learns a ``ks``-centroid codebook per subspace by k-means, and encodes a
vector as the tuple of its nearest sub-centroid indices — m * log2(ks)
bits per vector.

Distance estimation:

* **ADC** (asymmetric): the float query is compared against codes via a
  per-subspace lookup table of query-to-centroid distances, one table
  build per query and then one table lookup per (vector, subspace).
* **SDC** (symmetric): the query is itself encoded and distances come
  from precomputed centroid-to-centroid tables; cheaper per lookup but
  doubly approximate.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import IndexNotBuiltError
from ..core.types import VECTOR_DTYPE
from .kmeans import kmeans


class ProductQuantizer:
    """An m-subspace, ks-centroid product quantizer.

    Parameters
    ----------
    m:
        Number of subspaces; must divide the dimension at train time.
    ks:
        Centroids per subspace (<= 256 keeps codes in uint8).
    """

    def __init__(self, m: int = 8, ks: int = 256, seed: int = 0):
        if m <= 0:
            raise ValueError("m must be positive")
        if not 2 <= ks <= 256:
            raise ValueError("ks must be in [2, 256] (codes are uint8)")
        self.m = m
        self.ks = ks
        self.seed = seed
        self.dim: int | None = None
        self.subdim: int | None = None
        # (m, ks, subdim) codebooks.
        self._codebooks: np.ndarray | None = None
        # (m, ks, ks) symmetric centroid-to-centroid squared distances,
        # built lazily for SDC.
        self._sdc_tables: np.ndarray | None = None

    @property
    def is_trained(self) -> bool:
        return self._codebooks is not None

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise IndexNotBuiltError("ProductQuantizer.train() has not been called")

    def fitted_to(self, n: int) -> "ProductQuantizer":
        """A fresh untrained quantizer of this shape with ``ks`` clamped to
        ``n`` training rows.  An index keeps the quantizer it was asked
        for and trains one of these per build, so a small first build
        never shrinks the codebooks of a later, larger one."""
        fresh = ProductQuantizer(m=self.m, ks=self.ks, seed=self.seed)
        fresh.ks = min(self.ks, n)
        return fresh

    def train(self, data: np.ndarray) -> "ProductQuantizer":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("training data must be a non-empty 2-D matrix")
        n, dim = data.shape
        if dim % self.m != 0:
            raise ValueError(f"dimension {dim} is not divisible by m={self.m}")
        if n < self.ks:
            raise ValueError(f"need at least ks={self.ks} training points, got {n}")
        self.dim = dim
        self.subdim = dim // self.m
        codebooks = np.empty((self.m, self.ks, self.subdim), dtype=np.float64)
        for sub in range(self.m):
            block = data[:, sub * self.subdim : (sub + 1) * self.subdim]
            result = kmeans(block, self.ks, seed=self.seed + sub)
            codebooks[sub] = result.centroids
        self._codebooks = codebooks
        self._sdc_tables = None
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """(n, m) uint8 codes: nearest sub-centroid per subspace."""
        self._require_trained()
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        codes = np.empty((vectors.shape[0], self.m), dtype=np.uint8)
        for sub in range(self.m):
            block = vectors[:, sub * self.subdim : (sub + 1) * self.subdim]
            cb = self._codebooks[sub]
            sq = (
                np.einsum("ij,ij->i", block, block)[:, None]
                + np.einsum("ij,ij->i", cb, cb)[None, :]
                - 2.0 * block @ cb.T
            )
            codes[:, sub] = sq.argmin(axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors by concatenating sub-centroids."""
        self._require_trained()
        codes = np.atleast_2d(codes)
        n = codes.shape[0]
        out = np.empty((n, self.dim), dtype=np.float64)
        for sub in range(self.m):
            out[:, sub * self.subdim : (sub + 1) * self.subdim] = self._codebooks[
                sub
            ][codes[:, sub]]
        return out.astype(VECTOR_DTYPE)

    # -------------------------------------------------------------------- ADC

    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """(m, ks) table of squared distances query-subvector -> centroid."""
        self._require_trained()
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {query.shape[0]}")
        table = np.empty((self.m, self.ks), dtype=np.float64)
        for sub in range(self.m):
            q = query[sub * self.subdim : (sub + 1) * self.subdim]
            diff = self._codebooks[sub] - q
            table[sub] = np.einsum("ij,ij->i", diff, diff)
        return table

    def adc_tables(self, queries: np.ndarray) -> np.ndarray:
        """(c, m, ks) stack of ADC tables for a batch of queries.

        One einsum per subspace covers every query at once — the batched
        analogue of :meth:`adc_table` (same difference-form arithmetic,
        so each slice matches the per-query table).  IVFADC uses this to
        build all probed cells' residual tables in one pass.
        """
        self._require_trained()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {queries.shape[1]}")
        # One difference tensor and one einsum cover every (query, sub,
        # centroid) triple; the reduction order over subdim matches the
        # per-query loop, so each slice equals adc_table(queries[i]).
        sub_queries = queries.reshape(queries.shape[0], self.m, self.subdim)
        diff = self._codebooks[None, :, :, :] - sub_queries[:, :, None, :]
        return np.einsum("cmks,cmks->cmk", diff, diff)

    @staticmethod
    def lookup(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Sum table entries along the code tuple -> squared ADC distances."""
        codes = np.atleast_2d(codes)
        m = codes.shape[1]
        cols = np.arange(m)
        return table[cols, codes].sum(axis=1)

    def adc_distances(self, query: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Asymmetric squared distances from a float query to coded vectors."""
        return self.lookup(self.adc_table(query), codes)

    # -------------------------------------------------------------------- SDC

    def _ensure_sdc_tables(self) -> np.ndarray:
        if self._sdc_tables is None:
            tables = np.empty((self.m, self.ks, self.ks), dtype=np.float64)
            for sub in range(self.m):
                cb = self._codebooks[sub]
                sq = (
                    np.einsum("ij,ij->i", cb, cb)[:, None]
                    + np.einsum("ij,ij->i", cb, cb)[None, :]
                    - 2.0 * cb @ cb.T
                )
                tables[sub] = np.clip(sq, 0.0, None)
            self._sdc_tables = tables
        return self._sdc_tables

    def sdc_distances(self, query: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Symmetric squared distances (query is itself quantized)."""
        self._require_trained()
        tables = self._ensure_sdc_tables()
        qcode = self.encode(np.atleast_2d(query))[0]
        codes = np.atleast_2d(codes)
        total = np.zeros(codes.shape[0], dtype=np.float64)
        for sub in range(self.m):
            total += tables[sub, qcode[sub], codes[:, sub]]
        return total

    # -------------------------------------------------------------- properties

    def code_size_bytes(self) -> int:
        """Bytes per encoded vector."""
        return self.m  # uint8 per subspace

    def compression_ratio(self) -> float:
        self._require_trained()
        raw = self.dim * np.dtype(VECTOR_DTYPE).itemsize
        return raw / self.code_size_bytes()

    def quantization_error(self, data: np.ndarray) -> float:
        """Mean squared reconstruction error on ``data``."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        recon = self.decode(self.encode(data)).astype(np.float64)
        return float(np.mean(np.sum((data - recon) ** 2, axis=1)))
