"""Request coalescing: many concurrent single queries, one batch.

Under load, a serving tier sees many independent single-vector queries
in flight at once.  Dispatching each alone pays the full pure-Python
query overhead (planning, validation, operator setup) per request —
the observability baseline puts that near a millisecond, dwarfing the
vectorized kernels it wraps.  The coalescer funnels queued requests
that share a coalesce key (same tenant, k, predicate, and params —
only the vectors differ) into **one** plan decision and one
:meth:`~repro.core.executor.QueryExecutor.execute_batch` call, the
path ``db.batch_search`` takes.  It shares the plan, the resolved
index and the predicate bitmask across the group (and, on brute-force
plans, one distance GEMM), so every member answers exactly as its solo
``db.search`` would: the same ids and the same distances, tail and
tombstones included.

Results and statistics are split back per request: integer work
counters are partitioned so the per-request parts **sum exactly** to
the batch totals (largest-remainder split), keeping cost accounting
conserved across the coalescing boundary.
"""

from __future__ import annotations

import numpy as np

from ..core.executor import QueryExecutor
from ..core.query import BatchQuery, SearchQuery
from ..core.types import Hits, SearchStats
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


def execute_coalesced(
    db, requests: list[ServingRequest], span=None
) -> tuple[list[Hits], list[SearchStats], str, str]:
    """Execute one coalesced group as one batch.

    Returns ``(per_request_hits, per_request_stats, mode, strategy)``
    where ``mode`` names the execution path taken (``"batched_scan"`` /
    ``"solo"``) and ``strategy`` is the chosen plan's strategy.  The
    group must share a coalesce key (the admission controller
    guarantees it), so the lead request's plan decision — served from
    the prepared-query plan cache on repeats — covers every member.
    ``span`` (the front door's batch span) becomes the parent of the
    planning span so plan selection is visible inside the request
    journey's trace.  The executor records every member and offers it
    to the recall auditor.
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

    batch = BatchQuery(
        np.stack([r.vector for r in requests]), lead.k,
        predicate=lead.predicate, params=dict(lead.params),
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
    return hits, stats_list, "batched_scan", plan.strategy
