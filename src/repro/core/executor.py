"""Query execution (§2.3): run a selected plan against the storage.

The executor is the only component that touches indexes, the collection,
and the hybrid operators together; everything above it (planner,
selectors, the :class:`VectorDatabase` facade) deals in plan objects.

Batched execution exploits the §2.3 observations: the predicate bitmask
is computed once per batch, and the brute-force path uses one key GEMM
for the whole batch (:func:`~repro.index._scan.scan_topk`).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..hybrid.blockfirst import blocked_index_scan, prefilter_scan
from ..hybrid.postfilter import adaptive_postfilter_scan, postfilter_scan
from ..hybrid.visitfirst import visit_first_scan
from ..index._scan import scan_topk
from ..observability.instrument import DISABLED, Observability
from ..observability.tracing import NOOP_SPAN
from ..scores import AggregateScore, Score
from .collection import VectorCollection
from .errors import PlanningError
from .planner import QueryPlan
from .query import BatchQuery, MultiVectorQuery, RangeQuery, SearchQuery
from .types import SearchHit, SearchResult, SearchStats, topk_from_arrays


class QueryExecutor:
    """Executes plans over one collection and its indexes.

    When ``observability`` is enabled, every execute path opens a root
    span, each operator runs under a child span carrying its
    :class:`SearchStats` delta, and per-query metrics / the slow-query
    log are recorded.  The default is the shared no-op bundle: the
    disabled path costs a handful of no-op calls per *query* (never per
    node or per candidate), which the perf suite verifies is unmeasurable.
    """

    def __init__(
        self,
        collection: VectorCollection,
        score: Score,
        indexes: dict[str, Any],
        partitioned: dict[str, Any] | None = None,
        observability: Observability | None = None,
    ):
        self.collection = collection
        self.score = score
        self.indexes = indexes
        # Keep the caller's dict object: the database registers partitioned
        # indexes after constructing the executor.
        self.partitioned = partitioned if partitioned is not None else {}
        self.observability = observability if observability is not None else DISABLED

    # -------------------------------------------------------------- plumbing

    def _index_for(self, plan: QueryPlan):
        if plan.index_name is None:
            raise PlanningError(f"plan {plan.strategy!r} needs an index")
        try:
            return self.indexes[plan.index_name]
        except KeyError:
            raise PlanningError(
                f"plan references unknown index {plan.index_name!r}"
            ) from None

    def _table_scan(self, query, k, predicate, stats, radius=None):
        """The exact scan of the live rows passing ``predicate``, in place:
        tombstones and rejections are one mask over the row matrix."""
        collection = self.collection
        keep = collection.predicate_mask(predicate)
        live = len(collection)
        stats.predicate_evaluations += live
        stats.predicate_rejections += live - int(np.count_nonzero(keep))
        return scan_topk(
            self.score, query, collection.vectors, k,
            aux=collection.row_aux(self.score), keep=keep, radius=radius,
            stats=stats,
        )

    # ------------------------------------------------------------- execution

    def execute(self, query: SearchQuery, plan: QueryPlan) -> SearchResult:
        """Run one (c,k)-search under the given plan."""
        obs = self.observability
        stats = SearchStats(plan_name=plan.describe())
        root = obs.tracer.start_span(
            "query", kind="search", strategy=plan.strategy, plan=plan.describe(),
            k=query.k, hybrid=query.is_hybrid,
        ).attach_stats(stats)
        start = time.perf_counter()
        with root:
            hits = self._dispatch(query, plan, stats, span=root)
            root.set(hits=len(hits))
        stats.elapsed_seconds = time.perf_counter() - start
        if obs.enabled:
            obs.record_query("search", plan.strategy, stats)
            # The audit hook sits strictly after the query's stats and
            # metrics are finalized: an audited query's SearchStats and
            # latency histogram sample are identical to an unaudited
            # one's, and all audit work lands in the
            # dedicated audit_* namespace.
            if obs.auditor is not None:
                obs.auditor.consider(
                    query.vector, query.k, hits,
                    collection=self.collection, score=self.score,
                    predicate=query.predicate, strategy=plan.strategy,
                    index=plan.index_name,
                )
        return SearchResult(hits=hits, stats=stats)

    def _dispatch(
        self,
        query: SearchQuery,
        plan: QueryPlan,
        stats: SearchStats,
        span: Any = NOOP_SPAN,
    ) -> list[SearchHit]:
        params = {**plan.params, **query.params}
        strategy = plan.strategy
        with span.child(
            f"op:{strategy}", index=plan.index_name
        ).attach_stats(stats) as op:
            if strategy == "brute_force":
                return self._table_scan(
                    query.vector, query.k, query.predicate, stats
                )
            if strategy == "index_scan":
                index = self._index_for(plan)
                # Deleted rows must never surface even on a plain scan.
                mask = self.collection.alive if not self.collection.alive.all() else None
                return index.search(
                    query.vector, query.k, allowed=mask, stats=stats, span=op,
                    **params,
                )
            if strategy == "pre_filter":
                return prefilter_scan(
                    self.collection, query.vector, query.k, query.predicate,
                    self.score, stats=stats, span=op,
                )
            if strategy == "block_first":
                return blocked_index_scan(
                    self._index_for(plan), self.collection, query.vector, query.k,
                    query.predicate, stats=stats, span=op, **params,
                )
            if strategy == "post_filter":
                if plan.oversample is None:
                    result = adaptive_postfilter_scan(
                        self._index_for(plan), self.collection, query.vector,
                        query.k, query.predicate, stats=stats, span=op, **params,
                    )
                    return result.hits
                return postfilter_scan(
                    self._index_for(plan), self.collection, query.vector, query.k,
                    query.predicate, oversample=plan.oversample, stats=stats,
                    span=op, **params,
                )
            if strategy == "visit_first":
                return visit_first_scan(
                    self._index_for(plan), self.collection, query.vector, query.k,
                    query.predicate, stats=stats, span=op, **params,
                )
            if strategy == "partition":
                part = self.partitioned.get(plan.index_name)
                if part is None:
                    raise PlanningError(
                        f"unknown partitioned index {plan.index_name!r}"
                    )
                return part.search(
                    query.vector, query.k, query.predicate, stats=stats, span=op,
                    **params,
                )
            raise PlanningError(f"executor cannot run strategy {strategy!r}")

    # ----------------------------------------------------------- range query

    def execute_range(self, query: RangeQuery, plan: QueryPlan) -> SearchResult:
        """Range queries run on the plan's index (or exactly, brute force)."""
        obs = self.observability
        stats = SearchStats(plan_name=f"range:{plan.describe()}")
        root = obs.tracer.start_span(
            "query", kind="range", strategy=plan.strategy, plan=plan.describe(),
            radius=query.radius,
        ).attach_stats(stats)
        start = time.perf_counter()
        with root:
            if plan.strategy in ("brute_force", "pre_filter"):
                with root.child("op:exact_range").attach_stats(stats):
                    hits = self._table_scan(
                        query.vector, None, query.predicate, stats,
                        radius=query.radius,
                    )
            else:
                mask = self.collection.predicate_mask(query.predicate) if (
                    query.predicate is not None
                ) else (None if self.collection.alive.all() else self.collection.alive)
                index = self._index_for(plan)
                with root.child(
                    "op:index_range", index=plan.index_name
                ).attach_stats(stats):
                    hits = index.range_search(
                        query.vector, query.radius, allowed=mask, stats=stats,
                        **plan.params,
                    )
            root.set(hits=len(hits))
        stats.elapsed_seconds = time.perf_counter() - start
        if obs.enabled:
            obs.record_query("range", plan.strategy, stats)
        return SearchResult(hits=hits, stats=stats)

    # ---------------------------------------------------------------- batch

    def execute_batch(self, batch: BatchQuery, plan: QueryPlan) -> list[SearchResult]:
        """Run a batch, sharing bitmask construction (and the distance
        kernel on brute-force plans) across all member queries."""
        obs = self.observability
        stats_template = plan.describe()
        root = obs.tracer.start_span(
            "batch", kind="batch", strategy=plan.strategy, plan=stats_template,
            size=len(batch), k=batch.k,
        )
        if plan.strategy in ("brute_force", "pre_filter"):
            shared = SearchStats(plan_name=f"batch:{stats_template}")
            root.attach_stats(shared)
            start = time.perf_counter()
            with root:
                with root.child(
                    "op:batched_table_scan", size=len(batch)
                ).attach_stats(shared):
                    per_query = scan_topk(
                        self.score, batch.vectors, self.collection.vectors,
                        batch.k, aux=self.collection.row_aux(self.score),
                        keep=self.collection.predicate_mask(batch.predicate),
                        stats=shared,
                    )
            shared.elapsed_seconds = time.perf_counter() - start
            # The shared stats object stands for the whole batch: keep the
            # merged provenance so per-query averages stay computable.
            shared.merged_count = len(batch)
            if obs.enabled:
                obs.record_query("batch", plan.strategy, shared)
            return [SearchResult(hits=h, stats=shared) for h in per_query]
        # Index plans: share the bitmask, run member scans individually.
        mask_cache: np.ndarray | None = None
        results = []
        with root:
            for query in batch.queries():
                stats = SearchStats(plan_name=f"batch:{stats_template}")
                member = root.child("query", k=batch.k).attach_stats(stats)
                start = time.perf_counter()
                with member:
                    if batch.predicate is not None and plan.strategy == "block_first":
                        if mask_cache is None:
                            mask_cache = self.collection.predicate_mask(
                                batch.predicate
                            )
                        index = self._index_for(plan)
                        hits = index.search(
                            query.vector, batch.k, allowed=mask_cache, stats=stats,
                            span=member, **plan.params,
                        )
                    else:
                        hits = self._dispatch(query, plan, stats, span=member)
                stats.elapsed_seconds = time.perf_counter() - start
                if obs.enabled:
                    obs.record_query("batch", plan.strategy, stats)
                results.append(SearchResult(hits=hits, stats=stats))
        return results

    # ----------------------------------------------------------- multivector

    def execute_multivector(
        self, query: MultiVectorQuery, plan: QueryPlan
    ) -> SearchResult:
        """Aggregate-score execution of a multi-vector query (§2.1).

        Brute-force plans compute the exact aggregate over all entities;
        index plans use the standard decomposition: per-query-vector
        index scans gather a candidate union, which is re-ranked with
        the exact aggregate score.
        """
        from ..scores.aggregate import WeightedSumAggregator

        obs = self.observability
        stats = SearchStats(plan_name=f"multivector:{plan.describe()}")
        root = obs.tracer.start_span(
            "query", kind="multivector", strategy=plan.strategy,
            plan=plan.describe(), vectors=query.vectors.shape[0], k=query.k,
        ).attach_stats(stats)
        start = time.perf_counter()
        with root:
            aggregator = (
                WeightedSumAggregator(query.weights)
                if query.weights is not None
                else query.aggregator
            )
            agg = AggregateScore(self.score, aggregator)
            mask = self.collection.predicate_mask(query.predicate)

            with root.child(
                "op:gather_candidates", index=plan.index_name
            ).attach_stats(stats) as gather:
                if plan.strategy in ("brute_force", "pre_filter") or (
                    plan.index_name is None
                ):
                    candidates = np.flatnonzero(mask)
                else:
                    index = self._index_for(plan)
                    fetch = max(query.k * 4, 32)
                    found: set[int] = set()
                    for vector in query.vectors:
                        for hit in index.search(
                            vector, fetch, allowed=mask, stats=stats, span=gather,
                            **plan.params,
                        ):
                            found.add(hit.id)
                    candidates = np.fromiter(found, dtype=np.int64, count=len(found))
                gather.set(candidates=int(candidates.size))
            if candidates.size == 0:
                stats.elapsed_seconds = time.perf_counter() - start
                if obs.enabled:
                    obs.record_query("multivector", plan.strategy, stats)
                return SearchResult(hits=[], stats=stats)
            with root.child(
                "op:rerank", candidates=int(candidates.size)
            ).attach_stats(stats):
                block = self.score.pairwise(
                    query.vectors, self.collection.vectors[candidates]
                )
                stats.distance_computations += block.size
                distances = self._aggregate_columns(agg, query, block)
                hits = topk_from_arrays(candidates, distances, query.k)
                stats.candidates_examined += candidates.size
            root.set(hits=len(hits))
        stats.elapsed_seconds = time.perf_counter() - start
        if obs.enabled:
            obs.record_query("multivector", plan.strategy, stats)
        return SearchResult(hits=hits, stats=stats)

    @staticmethod
    def _aggregate_columns(agg: AggregateScore, query, block: np.ndarray) -> np.ndarray:
        """Aggregate a (num_query_vectors, num_entities) distance block.

        Single-vector entities make the standard aggregators pure axis-0
        reductions, so vectorize those; arbitrary callables fall back to
        the generic per-entity path.
        """
        from ..scores.aggregate import (
            WeightedSumAggregator,
            max_aggregator,
            mean_aggregator,
            min_aggregator,
            sum_of_min_aggregator,
        )

        reducer = agg.aggregator
        if isinstance(reducer, WeightedSumAggregator):
            return reducer.weights @ block
        vectorized = {
            mean_aggregator: lambda b: b.mean(axis=0),
            min_aggregator: lambda b: b.min(axis=0),
            max_aggregator: lambda b: b.max(axis=0),
            sum_of_min_aggregator: lambda b: b.sum(axis=0),
        }.get(reducer)
        if vectorized is not None:
            return vectorized(block)
        return np.array([reducer(block[:, [j]]) for j in range(block.shape[1])])
