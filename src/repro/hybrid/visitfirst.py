"""Visit-first scan (§2.3): predicate-aware graph traversal.

Where block-first scan masks the index and searches as usual,
visit-first scan changes the *scan operator itself*: the best-first
traversal considers attribute values on visited nodes.  Following HQANN
[87] and Filtered-DiskANN-style operators [43]:

* the result set only admits predicate-passing nodes (single-stage
  filtering — no post-pass);
* blocked nodes remain traversable (preserving connectivity), but their
  frontier key is *inflated* by ``penalty`` so expansion prefers
  passing nodes — the "scan prefers nodes that satisfy the predicate"
  bias that avoids backtracking at high selectivity.

Both are the graph index's own beam: ``index.search(q, k, allowed=mask,
penalty=p)`` (:func:`repro.index._graph.beam_search`), from the index's
own entry points — HNSW's charged layer descent included.  When the mask
passes no more rows than the beam is wide, the beam's pool could never
fill: it would have no bound and walk the whole graph, so those rows are
scanned exactly instead (the full-scan threshold of filtered HNSW
engines).
"""

from __future__ import annotations

import numpy as np

from ..core.types import Hits, SearchStats
from ..hybrid.blockfirst import charged_bitmask
from ..hybrid.predicates import Predicate
from ..index._scan import scan_topk
from ..index.graph_base import GraphIndex
from ..observability.tracing import NOOP_SPAN


def visit_first_scan(
    index,
    collection,
    query: np.ndarray,
    k: int,
    predicate: Predicate | None,
    ef: int = 64,
    penalty: float = 1.5,
    stats: SearchStats | None = None,
    span=None,
) -> Hits:
    """Single-stage filtered search on a :class:`GraphIndex`: the
    online bitmask (charged, as block-first's), then the index's beam
    under it with blocked nodes' frontier keys inflated by ``penalty``
    (> 1 de-prioritizes them without disconnecting the search) — or,
    when the mask passes at most ``max(k, ef)`` rows, the exact scan of
    the index's passing rows."""
    if not isinstance(index, GraphIndex):
        raise TypeError(
            f"visit-first scan requires a graph index, got {type(index).__name__}"
        )
    stats = stats if stats is not None else SearchStats()
    span = span if span is not None else NOOP_SPAN
    mask = charged_bitmask(collection, predicate, stats, span)
    if np.count_nonzero(mask) <= max(k, ef):
        index._require_built()  # as its search would
        rows = np.flatnonzero(mask[index._ids])
        with span.child("table_scan", survivors=int(rows.size)).attach_stats(stats):
            return scan_topk(
                index.score, query, index._vectors, k, ids=index._ids,
                positions=rows, stats=stats,
            )
    return index.search(
        query, k, allowed=mask, stats=stats, span=span, ef_search=ef,
        penalty=penalty,
    )
