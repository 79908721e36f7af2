"""Optimized product quantization (OPQ) [41] (§2.2).

PQ's error depends on how variance is distributed across subspaces; OPQ
learns an orthogonal rotation ``R`` so that the rotated data product-
quantizes better.  We implement the non-parametric alternating solver of
Ge et al.: fix codebooks, solve the orthogonal Procrustes problem for R
via SVD; fix R, retrain/re-encode.  The public surface mirrors
:class:`~repro.quantization.pq.ProductQuantizer` with the rotation folded
into encode/decode/ADC, so OPQ is a drop-in replacement everywhere PQ is
accepted.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import IndexNotBuiltError
from ..core.types import VECTOR_DTYPE
from .pq import ProductQuantizer


class OptimizedProductQuantizer:
    """PQ behind a learned orthogonal rotation.

    Parameters
    ----------
    m, ks:
        As in :class:`ProductQuantizer`.
    opq_iterations:
        Alternating optimization rounds (rotation <-> codebooks).
    """

    def __init__(self, m: int = 8, ks: int = 256, opq_iterations: int = 10, seed: int = 0):
        self.pq = ProductQuantizer(m=m, ks=ks, seed=seed)
        self.opq_iterations = opq_iterations
        self.seed = seed
        self._rotation: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.pq.m

    @property
    def ks(self) -> int:
        return self.pq.ks

    @property
    def dim(self) -> int | None:
        return self.pq.dim

    @property
    def is_trained(self) -> bool:
        return self._rotation is not None and self.pq.is_trained

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise IndexNotBuiltError(
                "OptimizedProductQuantizer.train() has not been called"
            )

    def fitted_to(self, n: int) -> "OptimizedProductQuantizer":
        """As :meth:`ProductQuantizer.fitted_to`: a fresh untrained copy
        whose codebooks are sized for ``n`` training rows."""
        fresh = OptimizedProductQuantizer(
            self.m, self.ks, self.opq_iterations, self.seed
        )
        fresh.pq = self.pq.fitted_to(n)
        return fresh

    def train(self, data: np.ndarray) -> "OptimizedProductQuantizer":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("training data must be a non-empty 2-D matrix")
        dim = data.shape[1]
        rotation = np.eye(dim)
        self.pq.train(data)
        for _ in range(self.opq_iterations):
            rotated = data @ rotation
            codes = self.pq.encode(rotated)
            recon = self.pq.decode(codes).astype(np.float64)
            # Orthogonal Procrustes: argmin_R ||X R - Y||_F with R orthogonal
            # is R = U V^T from SVD(X^T Y).
            u, _, vt = np.linalg.svd(data.T @ recon)
            rotation = u @ vt
            self.pq.train(data @ rotation)
        self._rotation = rotation
        return self

    def _rotate(self, vectors: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(vectors, dtype=np.float64)) @ self._rotation

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        self._require_trained()
        return self.pq.encode(self._rotate(vectors))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        self._require_trained()
        recon = self.pq.decode(codes).astype(np.float64)
        return (recon @ self._rotation.T).astype(VECTOR_DTYPE)

    def adc_table(self, query: np.ndarray) -> np.ndarray:
        self._require_trained()
        return self.pq.adc_table(self._rotate(query)[0])

    lookup = staticmethod(ProductQuantizer.lookup)

    def adc_distances(self, query: np.ndarray, codes: np.ndarray) -> np.ndarray:
        return self.lookup(self.adc_table(query), codes)

    def code_size_bytes(self) -> int:
        return self.pq.code_size_bytes()

    def compression_ratio(self) -> float:
        self._require_trained()
        return self.pq.compression_ratio()

    def quantization_error(self, data: np.ndarray) -> float:
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        recon = self.decode(self.encode(data)).astype(np.float64)
        return float(np.mean(np.sum((data - recon) ** 2, axis=1)))

    @property
    def rotation(self) -> np.ndarray:
        self._require_trained()
        return self._rotation
