"""The VDBMS facade: Figure 1 end to end.

:class:`VectorDatabase` wires the collection, score, indexes, planner,
selector, and executor into the query pipeline of Figure 1:

    query -> (embed) -> parser/validation -> plan enumeration ->
    plan selection -> executor -> index/table scans -> top-k

It exposes the "simple API" interface (§2.1 Query Interfaces); the SQL
extension lives in :mod:`repro.core.sql` on top of the same object.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..embed.embedders import EmbeddingFunction
from ..hybrid.partitioned import AttributePartitionedIndex
from ..hybrid.predicates import Predicate
from ..index._scan import scan_topk
from ..index.graph_base import GraphIndex
from ..index.registry import make_index
from ..observability.instrument import DISABLED, Observability
from ..observability.metrics import SeriesCache
from ..scores import get_score
from .collection import VectorCollection
from .errors import PlanningError, QueryError
from .executor import ExecutionFrame, QueryExecutor
from .optimizer import (
    CostBasedSelector,
    FirstPlanSelector,
    PlanSelector,
    RuleBasedSelector,
)
from .planner import AutomaticPlanner, PlanCache, PredefinedPlanner, QueryPlan
from .query import BatchQuery, MultiVectorQuery, RangeQuery, SearchQuery
from .types import SearchResult, as_vector


def _make_selector(selector) -> PlanSelector:
    if isinstance(selector, PlanSelector):
        return selector
    table = {
        "cost": CostBasedSelector,
        "rule": RuleBasedSelector,
        "first": FirstPlanSelector,
    }
    try:
        return table[selector]()
    except KeyError:
        raise PlanningError(
            f"unknown selector {selector!r}; expected one of {sorted(table)}"
        ) from None


class VectorDatabase:
    """A complete single-node VDBMS.

    Parameters
    ----------
    dim:
        Vector dimensionality (ignored when ``embedder`` provides one).
    score:
        Similarity score name or :class:`~repro.scores.basic.Score`.
    planner:
        ``"auto"`` (enumerate all plans) or a
        :class:`~repro.core.planner.PredefinedPlanner`.
    selector:
        ``"cost"``, ``"rule"``, ``"first"`` or a
        :class:`~repro.core.optimizer.PlanSelector`.
    embedder:
        Optional embedding function enabling indirect manipulation
        (insert/search by entity instead of vector).
    observability:
        Optional :class:`~repro.observability.Observability` bundle
        (tracer + metrics + slow-query log).  Defaults to the shared
        no-op ``DISABLED`` singleton, which costs nothing on the query
        path.
    plan_cache:
        Prepared-query plan caching: ``True`` (default) uses an LRU
        :class:`~repro.core.planner.PlanCache` of 256 entries, an int
        sets the capacity, ``False`` disables caching.  Cached plans are
        keyed to the collection's mutation generation and the database's
        index epoch, so mutations and index DDL invalidate them
        structurally (see :meth:`plan`).
    """

    def __init__(
        self,
        dim: int | None = None,
        score: str | Any = "l2",
        planner: str | Any = "auto",
        selector: str | PlanSelector = "cost",
        embedder: EmbeddingFunction | None = None,
        observability: Observability | None = None,
        plan_cache: bool | int = True,
    ):
        if dim is None:
            if embedder is None:
                raise QueryError("either dim or an embedder is required")
            dim = embedder.dim
        self.score = get_score(score)
        self.collection = VectorCollection(dim)
        self.collection.bind_score(self.score)
        self.embedder = embedder
        if planner == "auto":
            self.planner = AutomaticPlanner()
        elif isinstance(planner, (AutomaticPlanner, PredefinedPlanner)):
            self.planner = planner
        else:
            raise PlanningError(f"unknown planner {planner!r}")
        self.selector = _make_selector(selector)
        self.set_observability(observability)
        self.indexes: dict[str, Any] = {}
        self.partitioned: dict[str, AttributePartitionedIndex] = {}
        if plan_cache is True:
            self.plan_cache: PlanCache | None = PlanCache()
        elif plan_cache is False:
            self.plan_cache = None
        else:
            self.plan_cache = PlanCache(capacity=int(plan_cache))
        # Bumped by index DDL and rebuilds; part of every plan-cache key
        # so schema changes invalidate cached plans structurally.
        self._plan_epoch = 0

    def set_observability(self, observability: Observability | None) -> None:
        """Swap the observability bundle (``None`` -> disabled no-op)."""
        self.observability = observability if observability is not None else DISABLED
        counter = self.observability.metrics.counter
        self._plan_hits = SeriesCache(lambda: counter(
            "vdbms_plan_cache_hits_total",
            "Plans served from the prepared-query cache.",
        ).labels())
        self._plan_misses = SeriesCache(lambda: counter(
            "vdbms_plan_cache_misses_total",
            "Plan-cache probes that fell through to the planner.",
        ).labels())
        self._plans_selected = SeriesCache(lambda strategy: counter(
            "vdbms_plans_selected_total",
            "Plans chosen by the selector, by strategy.",
        ).labels(strategy=strategy))

    # ------------------------------------------------------------------- DML

    @property
    def dim(self) -> int:
        return self.collection.dim

    def _vectorize(self, vector=None, entity=None) -> np.ndarray:
        if (vector is None) == (entity is None):
            raise QueryError("provide exactly one of vector= or entity=")
        if entity is not None:
            if self.embedder is None:
                raise QueryError("no embedder configured for entity input")
            vector = self.embedder(entity)
        return as_vector(vector, self.dim)

    def insert(
        self,
        vector: np.ndarray | None = None,
        attributes: Mapping[str, Any] | None = None,
        entity: Any = None,
    ) -> int:
        """Insert one item by vector (direct) or entity (indirect)."""
        return self.collection.insert(self._vectorize(vector, entity), attributes)

    def insert_many(
        self,
        vectors: np.ndarray | None = None,
        attributes: Sequence[Mapping[str, Any]] | None = None,
        entities: Sequence[Any] | None = None,
    ) -> list[int]:
        if entities is not None:
            if self.embedder is None:
                raise QueryError("no embedder configured for entity input")
            vectors = np.vstack([self.embedder(e) for e in entities])
        return self.collection.insert_many(vectors, attributes)

    def update_vector(self, item_id: int, vector: np.ndarray) -> None:
        """Replace an item's vector; like an inserted row, the rewritten
        one is answered from each index's tail until a rebuild."""
        self.collection.update_vector(item_id, vector)

    def delete(self, item_id: int) -> None:
        """Tombstone an item; masks keep it out of every plan's results."""
        self.collection.delete(item_id)

    def get(self, item_id: int) -> tuple[np.ndarray, dict[str, Any]]:
        return self.collection.vector(item_id), self.collection.attributes(item_id)

    def __len__(self) -> int:
        return len(self.collection)

    # ---------------------------------------------------------------- indexes

    def create_index(self, name: str, index_type: str, **kwargs: Any) -> Any:
        """Create and build an index over the current collection."""
        self._claim(name)
        kwargs.setdefault("score", self.score)
        index = make_index(index_type, **kwargs)
        self._build(index)
        self.indexes[name] = index
        self._plan_epoch += 1
        return index

    def _claim(self, name: str) -> None:
        """Plain and partitioned indexes share one name space."""
        if name in self.indexes or name in self.partitioned:
            raise PlanningError(f"index {name!r} already exists")

    def _build(self, index) -> None:
        """(Re)build a plain index over the live rows and stamp it with
        the collection's write counter: it answers for these rows, the
        executor scans whatever is written after (its tail)."""
        live = np.flatnonzero(self.collection.alive)
        if live.size:
            index.build(self.collection.vectors[live], ids=live.astype(np.int64))
        index.built_at = self.collection.stamp()

    def create_partitioned_index(
        self, name: str, index_type: str, attribute: str, **kwargs: Any
    ) -> AttributePartitionedIndex:
        """Offline blocking: one sub-index per value of ``attribute``."""
        self._claim(name)
        kwargs.setdefault("score", self.score)
        part = AttributePartitionedIndex(
            lambda: make_index(index_type, **kwargs), attribute
        )
        part.definition = (index_type, kwargs)
        part.build(self.collection)
        self.partitioned[name] = part
        self._plan_epoch += 1
        return part

    def drop_index(self, name: str) -> None:
        if self.indexes.pop(name, None) is None and self.partitioned.pop(name, None) is None:
            raise PlanningError(f"no index named {name!r}")
        self._plan_epoch += 1

    def rebuild_indexes(self) -> None:
        """Rebuild every index over the live collection (bulk update
        apply): the compaction that folds each index's tail into it."""
        for index in self.indexes.values():
            self._build(index)
        for part in self.partitioned.values():
            part.build(self.collection)
        self._plan_epoch += 1

    def index_for(self, plan: QueryPlan):
        """The index ``plan`` names (``partition`` plans name a
        partitioned one), or None."""
        registry = self.partitioned if plan.strategy == "partition" else self.indexes
        return registry.get(plan.index_name)

    def tail_rows(self, index) -> int:
        """How many rows were written since ``index`` was (re)built."""
        tail = None if index is None else self.collection.tail(index.built_at)
        return 0 if tail is None else int(tail[0].size)

    @property
    def has_stale_indexes(self) -> bool:
        """True when some index has a tail: rows written since its
        (re)build, which every plan over it answers by an exact scan
        beside the index until :meth:`rebuild_indexes` folds them in."""
        return any(
            map(self.tail_rows, (*self.indexes.values(), *self.partitioned.values()))
        )

    def health(self):
        """Operational health report (see ``docs/observability.md``).

        Combines the observability bundle's view — latency
        quantiles, audited recall, SLO status, and any active burn-rate
        alerts — with database-level facts (size, index staleness).
        ``report.ok`` is False exactly when a burn-rate alert is
        currently firing; ``report.render()`` is the human view and
        ``report.to_dict()`` the machine one.  Works (trivially) on a
        database with observability disabled.
        """
        report = self.observability.health()
        report.database = {
            "items": len(self.collection),
            "indexes": len(self.indexes),
            "partitioned": len(self.partitioned),
            "stale_indexes": self.has_stale_indexes,
            "live_rows": len(self.collection),
            "index_freshness": {
                name: {
                    "indexed_rows": len(index), "tail_rows": self.tail_rows(index),
                }
                for name, index in (*self.indexes.items(), *self.partitioned.items())
            },
        }
        if self.plan_cache is not None:
            info = self.plan_cache.info()
            probes = info["hits"] + info["misses"]
            report.database["plan_cache"] = {
                **info,
                "hit_ratio": info["hits"] / probes if probes else 0.0,
            }
        slow_log = self.observability.slow_log
        if slow_log is not None:
            report.database["slow_queries"] = slow_log.recorded
        return report

    # ----------------------------------------------------------------- plans

    def _plan_cache_key(self, query: SearchQuery):
        """Hashable identity of a planning decision, or None.

        Embeds everything :meth:`plan` depends on: the collection
        snapshot (mutation generation), the index set (plan epoch), and
        the query shape (dim, k, c, predicate, params).
        Predicates are frozen dataclasses and hash structurally; queries
        carrying unhashable params are simply not cached.
        """
        try:
            key = (
                self.collection.generation,
                self._plan_epoch,
                query.vector.shape[0],
                query.k,
                query.c,
                query.predicate,
                tuple(sorted(query.params.items())),
            )
            hash(key)  # unhashable param *values* only surface here
            return key
        except TypeError:
            return None

    def plan(
        self, query: SearchQuery, *, parent=None
    ) -> tuple[QueryPlan, list[QueryPlan]]:
        """Enumerate and select; returns (chosen, all candidates).

        With a :class:`~repro.core.planner.PlanCache` configured, a
        repeat query (same shape against an unchanged database) returns
        the cached decision without enumerating, estimating selectivity,
        or opening a planning span; hit/miss counts are exported as
        ``vdbms_plan_cache_{hits,misses}_total`` when observability is
        enabled.  ``parent`` attaches the planning span to a caller's
        span (the serving front door passes its batch span so planning
        appears inside the request journey's trace).
        """
        obs = self.observability
        cache = self.plan_cache
        key = None if cache is None else self._plan_cache_key(query)
        if key is not None:
            entry = cache.get(key)
            if entry is not None:
                if obs.enabled:
                    self._plan_hits[()].inc()
                chosen, candidates = entry
                return chosen, list(candidates)
            if obs.enabled:
                self._plan_misses[()].inc()
        with obs.tracer.start_span(
            "plan", parent=parent, hybrid=query.is_hybrid
        ) as span:
            plans = self.planner.enumerate(
                query.is_hybrid, self.indexes, self.partitioned, query.predicate
            )
            selectivity = self.collection.selectivity(query.predicate)
            chosen = self.selector.select(
                plans, self.indexes, len(self.collection), query.k, selectivity,
                span=span if obs.enabled else None,
                tail_rows=[self.tail_rows(self.index_for(plan)) for plan in plans],
            )
            span.set(
                chosen=chosen.describe(),
                candidates=len(plans),
                selectivity=round(float(selectivity), 6),
            )
        if obs.enabled:
            self._plans_selected[chosen.strategy,].inc()
        if key is not None:
            cache.put(key, chosen, plans)
        return chosen, plans

    def explain(self, query: SearchQuery) -> str:
        """Human-readable plan choice, like EXPLAIN."""
        chosen, plans = self.plan(query)
        lines = [f"chosen: {chosen.describe()}", "candidates:"]
        lines.extend(f"  - {p.describe()}" for p in plans)
        return "\n".join(lines)

    def explain_analyze(
        self,
        vector: np.ndarray | None = None,
        k: int = 10,
        c: float = 0.0,
        predicate: Predicate | None = None,
        entity: Any = None,
        plan: QueryPlan | None = None,
        **params: Any,
    ) -> QueryProfile:
        """Run one (c, k)-search under a private tracer and profile it.

        Returns a :class:`~repro.observability.QueryProfile` whose
        operator tree carries per-span :class:`SearchStats` deltas; the
        *self* deltas partition the query's counters exactly
        (``profile.attribution_residual()`` is all zeros).  The caller's
        observability configuration is untouched — profiling swaps in a
        tracing-only bundle for the duration of this one query.
        """
        # Lazy: the profiler is not part of the no-op-able observability
        # surface, and core must stay importable/fast without it (VDB202).
        from ..observability.profiler import QueryProfile, build_profile_tree

        query = SearchQuery(
            self._vectorize(vector, entity), k, c=c, predicate=predicate,
            params=params,
        )
        profiled = Observability(metrics=False)
        previous = self.observability
        self.set_observability(profiled)
        cache = self.plan_cache
        try:
            candidates: list[QueryPlan] = []
            if plan is not None:
                plan_source = "explicit"
            elif cache is None:
                plan_source = "disabled"
                plan, candidates = self.plan(query)
            else:
                hits_before = cache.hits
                plan, candidates = self.plan(query)
                plan_source = "hit" if cache.hits > hits_before else "miss"
            result = self._run(QueryExecutor.execute, query, plan)
        finally:
            self.set_observability(previous)
        roots = build_profile_tree(profiled.tracer.spans)
        query_root = next((r for r in roots if r.name == "query"), roots[-1])
        plan_cache_state: dict[str, Any] = {"source": plan_source}
        if cache is not None:
            plan_cache_state.update(cache.info())
        return QueryProfile(
            result=result,
            root=query_root,
            plan=plan.describe(),
            candidates=[p.describe() for p in candidates],
            plan_cache=plan_cache_state,
        )

    # ---------------------------------------------------------------- queries

    def _run(self, execute, query, plan: QueryPlan | None):
        """Plan (unless the caller brought a plan) and execute: the one way
        every query kind reaches the executor.  A plan depends on a query's
        shape, not its kind: the kinds that are not a :class:`SearchQuery`
        are planned as the (k, predicate) search their scans amount to."""
        if plan is None:
            proxy = query if isinstance(query, SearchQuery) else SearchQuery(
                query.vector if isinstance(query, RangeQuery) else query.vectors[0],
                getattr(query, "k", 1), predicate=query.predicate,
            )
            plan = self.plan(proxy)[0]
        return execute(QueryExecutor(self), query, plan)

    def search(
        self,
        vector: np.ndarray | None = None,
        k: int = 10,
        c: float = 0.0,
        predicate: Predicate | None = None,
        entity: Any = None,
        plan: QueryPlan | None = None,
        **params: Any,
    ) -> SearchResult:
        """(c, k)-search; the predicate makes it hybrid."""
        query = SearchQuery(
            self._vectorize(vector, entity), k, c=c, predicate=predicate,
            params=params,
        )
        return self._run(QueryExecutor.execute, query, plan)

    def range_search(
        self,
        vector: np.ndarray | None = None,
        radius: float = 1.0,
        predicate: Predicate | None = None,
        entity: Any = None,
        plan: QueryPlan | None = None,
        **params: Any,
    ) -> SearchResult:
        query = RangeQuery(
            self._vectorize(vector, entity), radius, predicate=predicate,
            params=params,
        )
        return self._run(QueryExecutor.execute_range, query, plan)

    def batch_search(
        self,
        vectors: np.ndarray,
        k: int = 10,
        predicate: Predicate | None = None,
        plan: QueryPlan | None = None,
        **params: Any,
    ) -> list[SearchResult]:
        """One result per row of ``vectors``, each the answer per-query
        :meth:`search` gives; an empty batch answers ``[]``."""
        batch = BatchQuery(vectors, k, predicate=predicate, params=params)
        if not len(batch):
            return []
        return self._run(QueryExecutor.execute_batch, batch, plan)

    def incremental_search(
        self,
        vector: np.ndarray | None = None,
        predicate: Predicate | None = None,
        entity: Any = None,
        index: str | None = None,
        **params: Any,
    ):
        """Open a resumable search cursor (§2.6(5)).

        Requires a :class:`~repro.index.graph_base.GraphIndex` (the
        cursor walks its adjacency); pass ``index`` to pick one, else the
        first is used.  Returns an
        :class:`~repro.core.incremental.IncrementalSearcher` whose
        ``next_batch(k)`` pages through results without re-traversal.
        """
        from .incremental import IncrementalSearcher

        query = self._vectorize(vector, entity)
        if index is not None and index not in self.indexes:
            raise PlanningError(f"no index named {index!r}")
        usable = [
            name for name, idx in self.indexes.items() if isinstance(idx, GraphIndex)
        ]
        name = index if index is not None else next(iter(usable), None)
        if name not in usable:
            raise PlanningError(
                "incremental search needs a graph index that holds its adjacency"
                f" in memory; usable here: {usable or 'none'}"
                " (e.g. create_index('g', 'hnsw'))"
            )
        return IncrementalSearcher(
            self.indexes[name], query, predicate=predicate,
            collection=self.collection,
            **params,
        )

    def multi_score_search(
        self,
        vector: np.ndarray | None = None,
        k: int = 10,
        scores: Sequence[str] | None = None,
        entity: Any = None,
        **params: Any,
    ) -> dict[str, SearchResult]:
        """Answer the same query under several scores at once (§2.6(1)).

        EuclidesDB's pragmatic answer to the open score-selection
        problem: return per-score result sets and let the caller decide.
        Runs exact (brute-force) scans so the comparison reflects the
        scores, not index artifacts.
        """
        query = self._vectorize(vector, entity)
        names = list(scores) if scores is not None else ["l2", "cosine", "ip"]
        plan = QueryPlan("brute_force")
        collection = self.collection
        out: dict[str, SearchResult] = {}
        for name in names:
            score = get_score(name)
            with ExecutionFrame(self, "multi_score", plan, label=name, k=k) as frame:
                out[name] = frame.result(scan_topk(
                    score, query, collection.vectors, k,
                    aux=collection.row_aux(score), keep=collection.alive,
                    stats=frame.stats,
                ))
        return out

    def multi_vector_search(
        self,
        vectors: np.ndarray,
        k: int = 10,
        aggregator: Any = "mean",
        weights: np.ndarray | None = None,
        predicate: Predicate | None = None,
        plan: QueryPlan | None = None,
        **params: Any,
    ) -> SearchResult:
        query = MultiVectorQuery(
            vectors, k, aggregator=aggregator, weights=weights,
            predicate=predicate, params=params,
        )
        return self._run(QueryExecutor.execute_multivector, query, plan)

    def __repr__(self) -> str:
        return (
            f"VectorDatabase(dim={self.dim}, items={len(self)},"
            f" score={self.score.name}, indexes={sorted(self.indexes)})"
        )
