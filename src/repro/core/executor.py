"""Query execution (§2.3): run a selected plan against the storage.

The executor is the only component that touches indexes, the collection,
and the hybrid operators together; everything above it (planner,
selectors, the :class:`VectorDatabase` facade) deals in plan objects.

Every query kind runs plan → frame → resolve → body: the
:class:`ExecutionFrame` owns what an execution needs whatever its kind
(stats, span, clock, metrics record, audit offer), :class:`_Resolved`
turns ``(query, plan)`` into the params, index and ``allowed`` mask, the
bodies scan through ``_scan``, the one per-strategy switch — so every
kind runs every strategy (``docs/paper_map.md``).

Batched execution exploits the §2.3 observations: the predicate bitmask
is computed once per batch, and the brute-force path uses one key GEMM
for the whole batch (:func:`~repro.index._scan.scan_topk`).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..hybrid.blockfirst import charged_bitmask, prefilter_scan
from ..hybrid.postfilter import adaptive_postfilter_scan, postfilter_scan
from ..hybrid.visitfirst import visit_first_scan
from ..index._scan import GATHER_BELOW, scan_topk
from ..observability.tracing import NOOP_SPAN
from ..scores import AggregateScore, WeightedSumAggregator
from .errors import IndexNotBuiltError, PlanningError
from .planner import QueryPlan
from .query import BatchQuery, MultiVectorQuery, RangeQuery, SearchQuery
from .types import Hits, SearchResult, SearchStats

#: Strategies whose range / batch / multi-vector form is the exact scan
#: of the allowed rows (no index to consult).
_EXACT = ("brute_force", "pre_filter")
#: Strategies that are the plan's index scanned under the ``allowed`` mask.
_MASKED = ("index_scan", "block_first", "partition")
_UNBUILT = object()


class ExecutionFrame:
    """What one execution owns whatever its kind: the :class:`SearchStats`
    named after the plan, the span carrying their delta (a root tagged
    with kind and plan, or a child of the ``parent`` frame's), the wall
    clock, and — on a clean exit with observability on — the
    ``record_query`` rollup, then the audit offer of each
    ``(vector, k, predicate, hits)`` in ``answers``.  A class, not a
    generator: the disabled path pays two method calls."""

    __slots__ = ("db", "kind", "plan", "label", "stats", "span", "answers", "_start")

    def __init__(
        self,
        db,
        kind: str,
        plan: QueryPlan,
        name: str = "query",
        label: str | None = None,
        parent: "ExecutionFrame | None" = None,
        **attributes: Any,
    ):
        self.db = db
        self.kind = kind
        self.plan = plan
        if parent is not None:
            label = parent.label
        elif label is None:
            label = plan.describe()
        self.label = label
        self.stats = SearchStats(
            plan_name=label if kind == "search" else f"{kind}:{label}"
        )
        self.answers: tuple = ()
        obs = db.observability
        if not obs.enabled:  # skip even the no-op tracer's argument packing
            self.span = NOOP_SPAN
        elif parent is not None:
            self.span = parent.span.child(name, **attributes)
        else:
            self.span = obs.tracer.start_span(
                name, kind=kind, strategy=plan.strategy, plan=label, **attributes
            )

    def result(self, hits: Hits) -> SearchResult:
        self.span.set(hits=len(hits))
        return SearchResult(hits=hits, stats=self.stats)

    def __enter__(self) -> "ExecutionFrame":
        self.span.attach_stats(self.stats)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.__exit__(exc_type, exc, tb)
        self.stats.elapsed_seconds = time.perf_counter() - self._start
        obs = self.db.observability
        if obs.enabled and exc is None:
            plan = self.plan
            obs.record_query(self.kind, plan.strategy, self.stats)
            # The audit hook sits strictly after the query's stats and
            # metrics are finalized: an audited query's SearchStats and
            # latency histogram sample are identical to an unaudited
            # one's, and all audit work lands in the dedicated audit_*
            # namespace.
            if obs.auditor is not None:
                for vector, k, predicate, hits in self.answers:
                    obs.auditor.consider(
                        vector, k, hits,
                        collection=self.db.collection, score=self.db.score,
                        predicate=predicate, strategy=plan.strategy,
                        index=plan.index_name,
                    )
        return False


class _Resolved:
    """The resolve step: ``(query, plan)`` turned, once per execution, into
    the caller's params over the plan's, the index the plan names with its
    tail (the rows written since it was built, ``None`` when there are
    none), and the ``allowed`` mask — built on first use, so operators
    that derive their own from ``(collection, predicate)`` never pay and a
    batch shares one."""

    __slots__ = (
        "plan", "collection", "predicate", "params", "index", "tail", "mask",
        "_tail_allowed",
    )

    def __init__(self, db, query, plan: QueryPlan):
        self.plan = plan
        self.collection = db.collection
        self.predicate = query.predicate
        self.params = {**plan.params, **query.params}
        self.index = self.tail = None
        self.mask = self._tail_allowed = _UNBUILT
        if plan.strategy in _EXACT:
            return
        if plan.index_name is None:
            raise PlanningError(f"plan {plan.strategy!r} needs an index")
        if plan.strategy == "partition":
            # A partitioned index selects its sub-indexes *by* the predicate,
            # which so travels as a scan argument; the mask is liveness alone.
            self.params["predicate"] = query.predicate
            self.predicate = None
        self.index = db.index_for(plan)
        if self.index is None:
            raise PlanningError(f"plan references unknown index {plan.index_name!r}")
        self.tail = self.collection.tail(self.index.built_at)

    def allowed(self, stats: SearchStats | None = None, span: Any = NOOP_SPAN):
        """predicate ∧ alive; alive alone when unpredicated and something
        is deleted; ``None`` when every row may answer.  A block-first
        plan's build is its ``bitmask`` step, charged to the scan that
        asks first (of a batch: the first member)."""
        if self.mask is _UNBUILT:
            collection = self.collection
            if self.plan.strategy == "block_first":
                self.mask = charged_bitmask(collection, self.predicate, stats, span)
            elif self.predicate is not None:
                self.mask = collection.predicate_mask(self.predicate)
            else:
                self.mask = None if collection.alive.all() else collection.alive
        return self.mask

    def tail_allowed(self, stats: SearchStats, span: Any) -> np.ndarray:
        """The tail rows the query's own mask allows (a partition plan's
        predicate rides in its params, the tail is masked by it all the same)."""
        if self._tail_allowed is _UNBUILT:
            rows = self.tail[0]
            if self.plan.strategy == "partition":
                allowed = self.collection.predicate_mask(self.params["predicate"])
            else:
                allowed = self.allowed(stats, span)
            self._tail_allowed = rows if allowed is None else rows[allowed[rows]]
        return self._tail_allowed


class QueryExecutor:
    """Executes plans over one database's collection and indexes, read
    off ``database`` at execution time (so replacing them rewires nothing).
    The facade makes this view per call: held as a member it would close a
    reference cycle and leave a dropped database's arrays to the next gc.

    When observability is enabled, every execution opens a root span,
    each operator runs under a child span carrying its
    :class:`SearchStats` delta, and per-query metrics / the slow-query
    log are recorded.  The default is the shared no-op bundle: the
    disabled path costs a handful of no-op calls per *query* (never per
    node or per candidate), which the perf suite verifies is unmeasurable.
    """

    def __init__(self, database):
        self.db = database

    # -------------------------------------------------------------- plumbing

    def _scan(self, r: _Resolved, vector, k, stats, op, radius=None) -> Hits:
        """One scan under the resolved plan — the member scans of every
        query kind come through it (``radius`` makes it a range scan).
        The one freshness rule: an index answers for the rows it was
        built on, and the rows written since (its tail) are scanned
        exactly under the query's mask.  When the index's answer is itself
        an exact scan of rows it names (``VectorIndex.candidates``: a
        flat, table or tree index under a masked plan), those rows and the
        tail are ranked together in one scan of the collection's rows
        (:meth:`_candidate_scan`).  Otherwise — a graph walk, approximate
        distances, a range scan, the post-filter and visit-first
        operators — the strategy runs for ``k`` + the rewritten rows,
        which it holds at an old vector and which are dropped from its
        answer, and the tail's own scan is merged with it."""
        if r.tail is None:
            try:
                return self._operator(r, vector, k, stats, op, radius)
            except IndexNotBuiltError:
                if r.index.built_at is None:  # not built by this database
                    raise
                return Hits.EMPTY  # built over no live row: it holds nothing
        positions, held = r.tail
        indexed = Hits.EMPTY
        if len(r.index):  # built over no live row, it holds nothing
            if radius is None and r.plan.strategy in _MASKED:
                # Sized for k + held, as the merged answer is fetched: a
                # shortlist or a branch-and-bound keeps k rows besides
                # the rewritten ones it holds.
                ids = r.index.candidates(
                    vector, k + held, allowed=r.allowed(stats, op), stats=stats,
                    **r.params,
                )
                if ids is not None:
                    return self._candidate_scan(r, vector, k, ids, stats, op)
            fetch = k if radius is not None else k + held
            indexed = self._operator(r, vector, fetch, stats, op, radius)
            if held:
                indexed = indexed.where(~np.isin(indexed.ids, positions[:held]))
        rows = r.tail_allowed(stats, op)
        collection = r.collection
        score = self.db.score
        with op.child("tail_scan", rows=int(rows.size)).attach_stats(stats):
            tail = scan_topk(
                score, vector, collection.vectors, k, aux=collection.row_aux(score),
                positions=rows, radius=radius, stats=stats,
            )
        return Hits.merge([indexed, tail], k)

    def _candidate_scan(self, r: _Resolved, vector, k, ids, stats, op) -> Hits:
        """The index's candidate ``ids`` (admitted by the query's mask and
        charged by the index) and the tail rows the mask allows, ranked in
        one exact scan of the collection's rows, ``(distance, id)`` order
        as a merge gives.  A rewritten row among the candidates is read at
        its new vector and scored once; the ``tail_scan`` span carries the
        tail rows the candidates did not already charge."""
        rows = r.tail_allowed(stats, op)
        if r.tail[1]:
            rows = rows[~np.isin(rows, ids)]
        scanned = np.concatenate([ids, rows])
        collection = r.collection
        vectors = collection.vectors
        keep = None
        if scanned.shape[0] * GATHER_BELOW >= vectors.shape[0]:
            # Most of the rows (a flat index): one mask, not a gather.
            keep = np.zeros(vectors.shape[0], dtype=bool)
            keep[scanned] = True
            scanned = None
        score = self.db.score
        aux = collection.row_aux(score)
        with op.child(
            "tail_scan", rows=int(rows.size), candidates=int(ids.size)
        ).attach_stats(stats):
            stats.distance_computations += rows.shape[0]
            stats.candidates_examined += rows.shape[0]
            # One row past k shows whether rows tie at the cut; a merge
            # keeps the lowest ids of such a tie, so it is ranked whole.
            fetch = k + 1
            while True:
                hits = scan_topk(
                    score, vector, vectors, fetch, aux=aux, keep=keep,
                    positions=scanned,
                )
                if len(hits) < fetch or hits.distances[-1] > hits.distances[k - 1]:
                    break
                fetch *= 2
        if len(hits) > k and hits.distances[k] > hits.distances[k - 1]:
            hits = hits[:k]
        return Hits.merge([hits], k)

    def _operator(self, r: _Resolved, vector, k, stats, op, radius) -> Hits:
        """The strategy's operator over the plan's index — the only
        strategy switch.  A range scan is the masked range scan of the
        index, which is what ``post_filter`` / ``visit_first`` degenerate
        to without a k."""
        if radius is not None:
            return r.index.range_search(
                vector, radius, allowed=r.allowed(stats, op), stats=stats,
                **r.params,
            )
        plan = r.plan
        strategy = plan.strategy
        if strategy in _MASKED:
            return r.index.search(
                vector, k, allowed=r.allowed(stats, op), stats=stats, span=op,
                **r.params,
            )
        if strategy == "brute_force":
            return self._table_scan(vector, k, r, stats)
        if strategy == "pre_filter":
            return prefilter_scan(
                r.collection, vector, k, r.predicate, self.db.score,
                stats=stats, span=op,
            )
        if strategy == "visit_first":
            return visit_first_scan(
                r.index, r.collection, vector, k, r.predicate,
                stats=stats, span=op, **r.params,
            )
        if plan.oversample is None:  # post_filter, its a chosen per query
            return adaptive_postfilter_scan(
                r.index, r.collection, vector, k, r.predicate,
                stats=stats, span=op, **r.params,
            ).hits
        return postfilter_scan(
            r.index, r.collection, vector, k, r.predicate,
            oversample=plan.oversample, stats=stats, span=op, **r.params,
        )

    def _table_scan(self, query, k, r: _Resolved, stats, radius=None):
        """The exact scan of the allowed rows, in place: tombstones and
        rejections are one mask over the row matrix."""
        collection = r.collection
        score = self.db.score
        allowed = r.allowed()
        live = len(collection)
        stats.predicate_evaluations += live
        if allowed is not None:
            stats.predicate_rejections += live - int(np.count_nonzero(allowed))
        return scan_topk(
            score, query, collection.vectors, k, aux=collection.row_aux(score),
            keep=allowed, radius=radius, stats=stats,
        )

    # ------------------------------------------------------------- execution

    def execute(self, query: SearchQuery, plan: QueryPlan) -> SearchResult:
        """Run one (c,k)-search under the given plan."""
        with ExecutionFrame(
            self.db, "search", plan, k=query.k, hybrid=query.is_hybrid
        ) as frame:
            hits = self._dispatch(query, plan, frame.stats, frame.span)
            frame.answers = ((query.vector, query.k, query.predicate, hits),)
            return frame.result(hits)

    def _dispatch(
        self,
        query: SearchQuery,
        plan: QueryPlan,
        stats: SearchStats,
        span: Any = NOOP_SPAN,
        resolved: _Resolved | None = None,
    ) -> Hits:
        """Resolve (unless a batch already did) and scan under the
        strategy's operator span."""
        r = resolved if resolved is not None else _Resolved(self.db, query, plan)
        with span.child(
            f"op:{plan.strategy}", index=plan.index_name
        ).attach_stats(stats) as op:
            return self._scan(r, query.vector, query.k, stats, op)

    # ----------------------------------------------------------- range query

    def execute_range(self, query: RangeQuery, plan: QueryPlan) -> SearchResult:
        """Range queries run exactly (``brute_force`` / ``pre_filter``) or
        as the masked range scan of the plan's index."""
        with ExecutionFrame(self.db, "range", plan, radius=query.radius) as frame:
            r = _Resolved(self.db, query, plan)
            stats = frame.stats
            if plan.strategy in _EXACT:
                with frame.span.child("op:exact_range").attach_stats(stats):
                    hits = self._table_scan(query.vector, None, r, stats, query.radius)
            else:
                with frame.span.child(
                    "op:index_range", index=plan.index_name
                ).attach_stats(stats) as op:
                    hits = self._scan(r, query.vector, None, stats, op, query.radius)
            return frame.result(hits)

    # ---------------------------------------------------------------- batch

    def execute_batch(self, batch: BatchQuery, plan: QueryPlan) -> list[SearchResult]:
        """Run a batch, sharing the resolve — params, index, bitmask —
        (and the distance kernel on exact plans) across all member queries."""
        root = ExecutionFrame(
            self.db, "batch", plan, "batch", size=len(batch), k=batch.k
        )
        r = _Resolved(self.db, batch, plan)
        if plan.strategy in _EXACT:
            with root:
                shared = root.stats
                with root.span.child(
                    "op:batched_table_scan", size=len(batch)
                ).attach_stats(shared):
                    per_query = scan_topk(
                        self.db.score, batch.vectors, r.collection.vectors,
                        batch.k, aux=r.collection.row_aux(self.db.score),
                        keep=r.allowed(), stats=shared,
                    )
                # The shared stats object stands for the whole batch: keep the
                # merged provenance so per-query averages stay computable.
                shared.merged_count = len(batch)
                root.answers = tuple(
                    (vector, batch.k, batch.predicate, hits)
                    for vector, hits in zip(batch.vectors, per_query)
                )
            return [SearchResult(hits=h, stats=shared) for h in per_query]
        # Index plans: members scan one by one, each in its own frame under
        # the root's span; the root itself measures and records nothing.
        results = []
        with root.span:
            for query in batch.queries():
                with ExecutionFrame(
                    self.db, "batch", plan, parent=root, k=batch.k
                ) as member:
                    hits = self._dispatch(query, plan, member.stats, member.span, r)
                    member.answers = ((query.vector, batch.k, batch.predicate, hits),)
                results.append(SearchResult(hits=hits, stats=member.stats))
        return results

    # ----------------------------------------------------------- multivector

    def execute_multivector(
        self, query: MultiVectorQuery, plan: QueryPlan
    ) -> SearchResult:
        """Aggregate-score execution of a multi-vector query (§2.1).

        Exact plans compute the aggregate over every allowed entity;
        index plans use the standard decomposition: one scan per query
        vector under the plan's strategy gathers a candidate union, which
        is re-ranked with the exact aggregate score.
        """
        with ExecutionFrame(
            self.db, "multivector", plan, vectors=query.vectors.shape[0], k=query.k
        ) as frame:
            r = _Resolved(self.db, query, plan)
            stats = frame.stats
            root = frame.span
            aggregator = (
                WeightedSumAggregator(query.weights)
                if query.weights is not None
                else query.aggregator
            )
            agg = AggregateScore(self.db.score, aggregator)
            with root.child(
                "op:gather_candidates", index=plan.index_name
            ).attach_stats(stats) as gather:
                if plan.strategy in _EXACT:
                    allowed = r.allowed()
                    candidates = np.flatnonzero(
                        r.collection.alive if allowed is None else allowed
                    )
                else:
                    fetch = max(query.k * 4, 32)
                    candidates = np.unique(np.concatenate([
                        self._scan(r, vector, fetch, stats, gather).ids
                        for vector in query.vectors
                    ]))
                gather.set(candidates=int(candidates.size))
            if candidates.size == 0:
                return frame.result(Hits.EMPTY)
            with root.child(
                "op:rerank", candidates=int(candidates.size)
            ).attach_stats(stats):
                block = self.db.score.pairwise(
                    query.vectors, r.collection.vectors[candidates]
                )
                stats.distance_computations += block.size
                distances = self._aggregate_columns(agg, query, block)
                hits = Hits.topk(candidates, distances, query.k)
                stats.candidates_examined += candidates.size
            return frame.result(hits)

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
