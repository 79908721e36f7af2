"""Basic physical operators (§2.1 "Basic Operators", Figure 1).

Figure 1's query-executor boxes: similarity projection, sort/top-k,
table scan, index scan, and hybrid scan.  These are deliberately plain
functions/classes over numpy arrays — the executor composes them into
plans, and the cost model charges them per the counters they report.

The table-scan operators here are thin: every *exact* scan in the system
is one call of :func:`repro.index._scan.scan_topk`, and the sort/top-k
box is :meth:`repro.core.types.Hits.topk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..index._scan import scan_topk
from ..scores import Score
from .types import Hits, SearchStats


def similarity_projection(
    query: np.ndarray,
    vectors: np.ndarray,
    score: Score,
    stats: SearchStats | None = None,
) -> np.ndarray:
    """Project each vector onto its distance to the query (§2.1(4))."""
    distances = score.distances(query, vectors)
    if stats is not None:
        stats.distance_computations += vectors.shape[0]
    return distances


@dataclass
class TableScan:
    """Full scan + similarity projection + top-k (the brute-force plan).

    ``mask`` (indexed by id) restricts the scan (pre-filtering); this is
    the operator a relational system uses when no vector index applies
    (§2.4).  ``run`` takes one query, or a (b, d) block answered with
    one key GEMM (a ``Hits`` per query).
    """

    vectors: np.ndarray
    ids: np.ndarray
    score: Score

    def __post_init__(self):
        self.aux = self.score.row_aux(self.vectors)

    def run(
        self,
        query: np.ndarray,
        k: int,
        mask: np.ndarray | None = None,
        stats: SearchStats | None = None,
    ) -> Hits:
        keep = None
        if mask is not None:
            keep = mask[self.ids]
            if stats is not None:
                queries = 1 if query.ndim == 1 else query.shape[0]
                stats.predicate_evaluations += keep.shape[0] * queries
                stats.predicate_rejections += int(np.count_nonzero(~keep)) * queries
        return scan_topk(
            self.score, query, self.vectors, k,
            aux=self.aux, ids=self.ids, keep=keep, stats=stats,
        )


@dataclass
class IndexScan:
    """Vector index scan: delegates to a built index's search."""

    index: Any  # VectorIndex; typed loosely to avoid an import cycle

    def run(
        self,
        query: np.ndarray,
        k: int,
        mask: np.ndarray | None = None,
        stats: SearchStats | None = None,
        **params: Any,
    ) -> Hits:
        return self.index.search(query, k, allowed=mask, stats=stats, **params)


def batched_table_scan(
    queries: np.ndarray,
    vectors: np.ndarray,
    ids: np.ndarray,
    score: Score,
    k: int,
    mask: np.ndarray | None = None,
    stats: SearchStats | None = None,
) -> list[Hits]:
    """Answer a whole query batch with one key GEMM.

    This is the §2.3 batched-execution idea in its simplest form: the
    (b, n) key matrix amortizes memory traffic over the batch, exactly
    how GPU/SIMD batch kernels win [50, 79].
    """
    return TableScan(vectors, ids, score).run(queries, k, mask=mask, stats=stats)
