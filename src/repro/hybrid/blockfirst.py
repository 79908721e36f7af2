"""Block-first scan (§2.3): filter the index, then scan it.

Two flavors from the tutorial:

* **Online blocking** — at query time, build a bitmask over ids with
  vectorized attribute filtering [6, 79, 84], then run the index scan
  with that mask (every index here accepts ``allowed``).  Flexible for
  arbitrary predicates; costs one pass over the attribute columns.
* **Offline blocking** — pre-partition the collection along an
  attribute so only the matching partition's index is searched at query
  time [6, 79] (see :mod:`repro.hybrid.partitioned`).

Also implements strict **pre-filtering** (evaluate the predicate first,
brute-force only the survivors), the plan that wins at very low
selectivity.
"""

from __future__ import annotations

import numpy as np

from ..core.types import Hits, SearchStats
from ..hybrid.predicates import Predicate
from ..index._scan import scan_topk
from ..observability.tracing import NOOP_SPAN


def online_bitmask(collection, predicate: Predicate | None) -> np.ndarray:
    """Query-time bitmask over ids (liveness-aware)."""
    return collection.predicate_mask(predicate)


def charged_bitmask(collection, predicate, stats: SearchStats, span) -> np.ndarray:
    """The online bitmask, built (and charged) under a ``bitmask`` span."""
    with span.child("bitmask").attach_stats(stats) as mask_span:
        mask = online_bitmask(collection, predicate)
        stats.predicate_evaluations += collection.capacity
        mask_span.set(selectivity=round(float(mask.mean()), 6) if mask.size else 0.0)
    return mask


def blocked_index_scan(
    index,
    collection,
    query: np.ndarray,
    k: int,
    predicate: Predicate | None,
    stats: SearchStats | None = None,
    span=None,
    **params,
) -> Hits:
    """Online block-first scan: bitmask + masked index traversal."""
    stats = stats if stats is not None else SearchStats()
    span = span if span is not None else NOOP_SPAN
    mask = charged_bitmask(collection, predicate, stats, span)
    return index.search(query, k, allowed=mask, stats=stats, span=span, **params)


def prefilter_scan(
    collection,
    query: np.ndarray,
    k: int,
    predicate: Predicate | None,
    score,
    stats: SearchStats | None = None,
    span=None,
) -> Hits:
    """Strict pre-filtering: predicate first, exact scan of survivors.

    At selectivity s this costs s*n distance computations and returns
    exact results — unbeatable when s is tiny, hopeless when s ~ 1.
    """
    stats = stats if stats is not None else SearchStats()
    span = span if span is not None else NOOP_SPAN
    with span.child("bitmask").attach_stats(stats) as mask_span:
        mask = online_bitmask(collection, predicate)
        stats.predicate_evaluations += collection.capacity
        survivors = int(np.count_nonzero(mask))
        mask_span.set(survivors=survivors)
    if survivors == 0:
        return Hits.EMPTY
    with span.child("table_scan", survivors=survivors).attach_stats(stats):
        return scan_topk(
            score, query, collection.vectors, k,
            aux=collection.row_aux(score), keep=mask, stats=stats,
        )
