"""Request coalescing: many concurrent single queries, one kernel call.

Under load, a serving tier sees many independent single-vector queries
in flight at once.  Dispatching each alone pays the full pure-Python
query overhead (planning, validation, operator setup) per request —
the observability baseline puts that near a millisecond, dwarfing the
vectorized kernels it wraps.  The coalescer funnels queued requests
that share a coalesce key (same tenant, k, predicate, and params —
only the vectors differ) into **one** call:

* plans over a ``GraphIndex`` run the whole group through
  :func:`repro.core.batched.batched_graph_search` — the merged-frontier
  kernel with shared k-means routes and one fused score pass per round.
  The bounded-recall contract carries over verbatim: a coalesced
  member's recall must not trail its solo execution by more than the
  documented 0.05 (asserted by the serving tests and the E23 bench).
* every other plan falls back to the executor's batch path, which still
  shares the predicate bitmask and (on brute-force plans) the pairwise
  distance kernel, and for quantized indexes reaches the blocked
  FastScan ADC scan per member with the coarse centroids and LUT
  machinery warm in cache.

Results and statistics are split back per request: integer work
counters are partitioned so the per-request parts **sum exactly** to
the batch totals (largest-remainder split), keeping cost accounting
conserved across the coalescing boundary.
"""

from __future__ import annotations

import numpy as np

from ..core.batched import batched_graph_search
from ..core.executor import ExecutionFrame, QueryExecutor
from ..core.query import BatchQuery, SearchQuery
from ..core.types import Hits, SearchStats
from ..index.graph_base import GraphIndex
from .request import ServingRequest

__all__ = ["execute_coalesced", "split_stats"]

#: SearchStats integer counters conserved by :func:`split_stats`.
_SPLIT_COUNTERS = (
    "distance_computations",
    "nodes_visited",
    "page_reads",
    "candidates_examined",
    "predicate_evaluations",
    "predicate_rejections",
    "shards_ok",
    "shards_failed",
)


def split_stats(total: SearchStats, parts: int) -> list[SearchStats]:
    """Partition batch-level stats into ``parts`` per-request shares.

    Integer counters use a largest-remainder split: each part gets
    ``v // parts`` and the first ``v % parts`` parts one extra, so the
    shares sum to the batch total *exactly* (asserted in tests — cost
    accounting is conserved, never inflated or lost, across
    coalescing).  ``elapsed_seconds`` is divided evenly (float).
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    out = []
    for i in range(parts):
        share = SearchStats(plan_name=total.plan_name)
        for name in _SPLIT_COUNTERS:
            value = getattr(total, name)
            base, remainder = divmod(value, parts)
            setattr(share, name, base + (1 if i < remainder else 0))
        share.elapsed_seconds = total.elapsed_seconds / parts
        share.partial = total.partial
        share.coverage_fraction = total.coverage_fraction
        out.append(share)
    return out


def _graph_batchable(db, plan, requests) -> bool:
    """May this group run through the merged-frontier graph kernel?

    Requires an unpredicated index scan over a
    :class:`~repro.index.graph_base.GraphIndex` (the kernel reads its
    adjacency; DiskANN has none in memory and coalesces as a batched
    scan) with no tombstones and no tail (``batched_graph_search`` reads
    the graph alone: it has no liveness mask and knows nothing of rows
    written since the build; the executor's member path handles both).
    """
    if plan.strategy != "index_scan" or plan.index_name is None:
        return False
    if any(r.predicate is not None for r in requests):
        return False
    index = db.indexes.get(plan.index_name)
    if not isinstance(index, GraphIndex):
        return False
    return not db.tail_rows(index) and bool(db.collection.alive.all())


def execute_coalesced(
    db, requests: list[ServingRequest], span=None
) -> tuple[list[Hits], list[SearchStats], str, str]:
    """Execute one coalesced group through the cheapest shared path.

    Returns ``(per_request_hits, per_request_stats, mode, strategy)``
    where ``mode`` names the execution path taken
    (``"batched_graph"`` / ``"batched_scan"`` / ``"solo"``) and
    ``strategy`` is the chosen plan's strategy.  The group must share a
    coalesce key (the admission controller guarantees it), so the lead
    request's plan decision — served from the prepared-query plan cache
    on repeats — covers every member.  ``span`` (the front door's batch
    span) becomes the parent of the planning span so plan selection is
    visible inside the request journey's trace.

    Every path runs in the executor's :class:`ExecutionFrame`, which
    records it and offers each member to the recall auditor; this module
    owns only the *choice* of the merged-frontier kernel.
    """
    lead = requests[0]
    query = SearchQuery(
        lead.vector, lead.k, predicate=lead.predicate, params=dict(lead.params)
    )
    plan, _ = db.plan(query, parent=span)
    n = len(requests)
    label = f"coalesced[{n}]:{plan.describe()}"

    executor = QueryExecutor(db)
    if n == 1:
        result = executor.execute(query, plan)
        result.stats.plan_name = label
        return [result.hits], [result.stats], "solo", plan.strategy

    vectors = np.stack([r.vector for r in requests])
    if _graph_batchable(db, plan, requests):
        mode = "batched_graph"
        with ExecutionFrame(db, "batch", plan, "batch", size=n, k=lead.k) as frame:
            hits = batched_graph_search(
                db.indexes[plan.index_name], vectors, lead.k, stats=frame.stats,
                ef_search=lead.params.get("ef_search"),
            )
            frame.answers = tuple(
                (vector, lead.k, None, answer) for vector, answer in zip(vectors, hits)
            )
        stats_list = split_stats(frame.stats, n)
    else:
        mode = "batched_scan"
        batch = BatchQuery(
            vectors, lead.k, predicate=lead.predicate, params=dict(lead.params)
        )
        results = executor.execute_batch(batch, plan)
        hits = [r.hits for r in results]
        stats_list = [r.stats for r in results]
        if all(stats is stats_list[0] for stats in stats_list):
            # Exact batches share one merged stats object; re-split it so
            # per-request accounting stays conserved and independent.
            stats_list = split_stats(stats_list[0], n)
    for share in stats_list:
        share.plan_name = label
    return hits, stats_list, mode, plan.strategy
