"""Flat quantized indexes: PQ, OPQ, and SQ over the whole collection (§2.2).

These are the non-inverted counterparts of the IVF variants: every code
is scanned per query, so recall loss comes purely from quantization error
— which makes them the clean ablation for bench E4 (compression ratio
vs recall).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import Hits, SearchStats
from ..quantization.opq import OptimizedProductQuantizer
from ..quantization.pq import ProductQuantizer
from ..quantization.scalar import ScalarQuantizer
from ..scores import Score
from .base import VectorIndex


class PqIndex(VectorIndex):
    """Whole-collection PQ (or OPQ) codes scanned with ADC per query."""

    name = "pq"
    family = "table"

    def __init__(
        self,
        score: Score | str = "l2",
        m: int = 8,
        ks: int = 256,
        optimized: bool = False,
        opq_iterations: int = 10,
        rerank: int = 0,
        seed: int = 0,
    ):
        super().__init__(score)
        if optimized:
            self.name = "opq"
        # The quantizer asked for; each build trains a fresh one of this
        # shape, fitted to the rows it sees, as ``quantizer``.
        self._shape: ProductQuantizer | OptimizedProductQuantizer = (
            OptimizedProductQuantizer(
                m=m, ks=ks, opq_iterations=opq_iterations, seed=seed
            )
            if optimized
            else ProductQuantizer(m=m, ks=ks, seed=seed)
        )
        self.quantizer = self._shape
        self.rerank = rerank
        self._codes: np.ndarray | None = None

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        self.quantizer = self._shape.fitted_to(data.shape[0]).train(data)
        self._codes = self.quantizer.encode(data)

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        rerank: int | None = None,
        **params: Any,
    ) -> Hits:
        if params:
            raise TypeError(
                f"{type(self).__name__}.search got unknown params {sorted(params)}"
            )

        def approx(pick) -> np.ndarray:
            codes = self._codes[pick]
            stats.distance_computations += codes.shape[0]
            stats.candidates_examined += codes.shape[0]
            return self.quantizer.adc_distances(query.astype(np.float64), codes)

        rerank = rerank if rerank is not None else self.rerank
        return self._brute_force(
            query, k, None, allowed, stats, approx=approx, rerank=rerank
        )

    def memory_bytes(self) -> int:
        if self._codes is None:
            return 0
        rotation = getattr(self.quantizer, "rotation", None)  # OPQ's (d, d)
        return self._codes.nbytes + (0 if rotation is None else rotation.nbytes)


class SqIndex(VectorIndex):
    """Whole-collection scalar-quantized codes (the tutorial's SQ index)."""

    name = "sq"
    family = "table"

    def __init__(self, score: Score | str = "l2", bits: int = 8, rerank: int = 0):
        super().__init__(score)
        self.sq = ScalarQuantizer(bits=bits)
        self.rerank = rerank
        self._codes: np.ndarray | None = None

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        self.sq.train(data)
        self._codes = self.sq.encode(data)

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        rerank: int | None = None,
        **params: Any,
    ) -> Hits:
        if params:
            raise TypeError(
                f"{type(self).__name__}.search got unknown params {sorted(params)}"
            )

        def approx(pick) -> np.ndarray:
            codes = self._codes[pick]
            stats.distance_computations += codes.shape[0]
            stats.candidates_examined += codes.shape[0]
            return self.sq.squared_distances(query.astype(np.float64), codes)

        rerank = rerank if rerank is not None else self.rerank
        return self._brute_force(
            query, k, None, allowed, stats, approx=approx, rerank=rerank
        )

    def memory_bytes(self) -> int:
        return 0 if self._codes is None else self._codes.nbytes
