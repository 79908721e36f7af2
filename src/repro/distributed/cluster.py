"""Scatter-gather search over sharded, replicated nodes (§2.3).

:class:`DistributedSearchCluster` is the coordinator: it shards the
collection per a :class:`~repro.distributed.shard.ShardingStrategy`,
keeps ``replication_factor`` replicas of each shard, scatters a query
to one live replica of each routed shard, and gathers/merges the
per-shard top-k.

The simulated wall clock follows the scatter-gather shape: contacted
replicas work in parallel, so per-query latency is the *maximum* node
latency plus a merge term — which is how adding shards buys throughput
and tail latency shifts.  Node searches and the merge are priced by the
one fitted :class:`~repro.core.cost.WorkCostModel`; the network round
trip and the cost of a failed attempt are settings of the cluster,
because they describe the simulated network, not work.  Node failures
are injectable to exercise the replica failover path.

Fault handling (``repro.reliability``): the coordinator retries flaky
replicas with exponential backoff, fails over across replicas, trips a
per-replica circuit breaker after consecutive failures, races each
shard chain against an optional simulated-clock deadline, and — in
non-strict mode — degrades gracefully when a shard has no reachable
replica, returning a partial :class:`SearchResult` with per-shard
coverage accounting instead of raising.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.cost import WorkCostModel
from ..core.errors import (
    AllReplicasDownError,
    DeadlineExceededError,
    PartialResultWarning,
    VdbmsError,
)
from ..core.types import Hits, SearchResult, SearchStats
from ..observability.instrument import DISABLED, Observability
from ..observability.metrics import SeriesCache
from ..observability.sketch import QuantileSketch
from ..observability.tracing import NOOP_SPAN
from ..reliability.breaker import CircuitBreaker, ClusterHealth, ReplicaHealth
from ..reliability.faults import FaultInjector
from ..reliability.retry import RetryPolicy
from .node import SearchNode
from .shard import ShardingStrategy, UniformSharding



@dataclass
class DistributedQueryStats:
    """Coordinator-side accounting for one query."""

    shards_contacted: int = 0
    replicas_tried: int = 0
    failovers: int = 0
    retries: int = 0
    breaker_skips: int = 0
    shards_ok: int = 0
    shards_failed: int = 0
    skipped_shards: list[int] = field(default_factory=list)
    deadline_exceeded: bool = False
    partial: bool = False
    coverage_fraction: float = 1.0
    simulated_latency_seconds: float = 0.0
    total_distance_computations: int = 0


class DistributedSearchCluster:
    """Shards + replicas + scatter-gather coordinator.

    Parameters
    ----------
    sharding:
        Placement/routing strategy (uniform scatters everywhere).
    replication_factor:
        Replicas per shard (>= 1).
    index_type / index_kwargs:
        Local index each node builds over its shard.
    cost_model:
        Prices of node searches and of the merge (the fitted
        :class:`~repro.core.cost.WorkCostModel` by default).
    network_seconds:
        Simulated round trip charged to every replica request.
    failed_attempt_seconds:
        Simulated time a failed or refused attempt burns before the
        coordinator can fail over (an RTT, or a timeout's worth of
        waiting); ``None`` charges one ``network_seconds``.
    retry_policy:
        Backoff/retry knobs for contacting replicas; defaults to a
        3-attempt exponential-backoff policy seeded from 0.
    injector:
        Optional :class:`~repro.reliability.faults.FaultInjector` wired
        into every node (chaos testing).
    strict:
        Default failure semantics: ``True`` raises
        :class:`AllReplicasDownError` / :class:`DeadlineExceededError`
        when a shard is unreachable; ``False`` returns a partial result
        with coverage accounting.  Overridable per :meth:`search`.
    breaker_failure_threshold / breaker_cooldown_ops:
        Per-replica circuit-breaker tuning (consecutive failures to
        trip; denied operations before half-opening).
    observability:
        Optional :class:`~repro.observability.Observability` bundle; the
        coordinator emits a ``distributed_search`` span with per-shard
        children whose events record every retry, failover, breaker
        skip/transition, and deadline abandonment (tagged with the
        injected-fault reason when one applies), plus replica/fault
        counters and a coverage histogram.
    """

    def __init__(
        self,
        sharding: ShardingStrategy | None = None,
        num_shards: int = 4,
        replication_factor: int = 1,
        index_type: str = "hnsw",
        cost_model: WorkCostModel | None = None,
        network_seconds: float = 0.0005,
        failed_attempt_seconds: float | None = None,
        retry_policy: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        strict: bool = True,
        breaker_failure_threshold: int = 3,
        breaker_cooldown_ops: int = 8,
        observability: Observability | None = None,
        **index_kwargs,
    ):
        self.sharding = sharding or UniformSharding(num_shards)
        self.num_shards = self.sharding.num_shards
        if replication_factor < 1:
            raise VdbmsError("replication_factor must be >= 1")
        self.replication_factor = replication_factor
        self.cost_model = cost_model or WorkCostModel()
        self.network_seconds = network_seconds
        self.failed_attempt_seconds = (
            network_seconds if failed_attempt_seconds is None
            else failed_attempt_seconds
        )
        self.retry_policy = retry_policy or RetryPolicy()
        self.injector = injector
        self.strict = strict
        self.observability = observability if observability is not None else DISABLED
        metrics = self.observability.metrics
        self._replica_attempts = SeriesCache(lambda outcome: metrics.counter(
            "vdbms_replica_attempts_total", "Replica requests."
        ).labels(outcome=outcome))
        self._coverage = SeriesCache(lambda: metrics.histogram(
            "vdbms_coverage_fraction",
            "Per-query fraction of routed shards that answered.",
        ).labels())
        self._breaker_kwargs = dict(
            failure_threshold=breaker_failure_threshold,
            cooldown_ops=breaker_cooldown_ops,
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        # Per-shard latency sketches (simulated seconds per
        # shard chain, failed attempts and backoff included); folded
        # into one cluster view by latency_sketch()/latency_quantiles().
        self._shard_sketches: dict[int, QuantileSketch] = defaultdict(
            QuantileSketch
        )
        self.nodes: list[list[SearchNode]] = [
            [
                SearchNode(
                    f"shard{s}-replica{r}", index_type, self.cost_model,
                    network_seconds, injector=self.injector, **index_kwargs
                )
                for r in range(replication_factor)
            ]
            for s in range(self.num_shards)
        ]
        self._rr = 0
        self.loaded = False
        self._index_type = index_type
        self._index_kwargs = index_kwargs
        # Per (shard, replica): writes the primary applied and this
        # replica has not yet (async replica apply, §2.3).
        self._pending: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
        self.vectors_moved = 0

    # ------------------------------------------------------------------ load

    def load(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> None:
        """Shard the collection: every replica a fresh, indexed database."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if ids is None:
            ids = np.arange(vectors.shape[0], dtype=np.int64)
        assignment = self.sharding.assign(vectors)
        for shard in range(self.num_shards):
            member = assignment == shard
            for replica in self.nodes[shard]:
                replica.load(vectors[member], ids[member])
        self._pending = {}
        self.loaded = True

    def shard_sizes(self) -> list[int]:
        return [len(replicas[0]) for replicas in self.nodes]

    # --------------------------------------------------------------- writes

    def insert(self, vector: np.ndarray, item_id: int) -> int:
        """Insert with asynchronous replica apply (§2.3).

        The owning shard's *primary* replica applies the write
        immediately; the other replicas only queue it, so their reads
        are stale until :meth:`sync_replicas` drains the queues — the
        eventual-consistency tradeoff [10, 13, 84] make.

        Returns the owning shard id.
        """
        if not self.loaded:
            raise VdbmsError("cluster has no data loaded")
        vector = np.asarray(vector, dtype=np.float32).reshape(1, -1)
        if isinstance(self.sharding, UniformSharding):
            # Round-robin continues from the rows written so far.
            shard = sum(self.shard_sizes()) % self.num_shards
        else:
            shard = int(self.sharding.assign(vector)[0])
        self.nodes[shard][0].insert(vector[0], item_id)
        for r in range(1, self.replication_factor):
            self._pending.setdefault((shard, r), []).append((item_id, vector[0]))
        return shard

    def pending_replication(self) -> int:
        """Writes applied on primaries but not yet on all replicas."""
        return sum(len(queue) for queue in self._pending.values())

    def sync_replicas(self) -> int:
        """Drain the async-replication queues; returns writes applied."""
        applied = 0
        for (shard, r), queue in self._pending.items():
            node = self.nodes[shard][r]
            for item_id, vector in queue:
                node.insert(vector, item_id)
            applied += len(queue)
        self._pending = {}
        return applied

    # ------------------------------------------------------------- elasticity

    def scale_out(self, new_num_shards: int) -> int:
        """Re-shard onto more nodes (disaggregated/cloud elasticity, §2.3).

        Uniform sharding only (index-guided placement would retrain its
        clustering instead).  Returns the number of vectors that moved.
        """
        if not isinstance(self.sharding, UniformSharding):
            raise VdbmsError("scale_out currently supports UniformSharding")
        if new_num_shards <= self.num_shards:
            raise VdbmsError("scale_out requires more shards than before")
        if not self.loaded:
            raise VdbmsError("cluster has no data loaded")
        self.sync_replicas()
        # Every row, from the primaries, in cluster-id order.
        primaries = [replicas[0] for replicas in self.nodes]
        ids = np.concatenate([node.ids for node in primaries])
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        vectors = np.vstack([node.db.collection.vectors for node in primaries])[order]
        old_shard = np.repeat(
            np.arange(self.num_shards), [node.ids.size for node in primaries]
        )[order]
        self.sharding = UniformSharding(new_num_shards)
        self.num_shards = new_num_shards
        new_shard = self.sharding.assign(vectors)
        moved = int(np.count_nonzero(new_shard != old_shard))
        self.vectors_moved += moved
        self.nodes = [
            [
                SearchNode(
                    f"shard{s}-replica{r}", self._index_type,
                    self.cost_model, self.network_seconds,
                    injector=self.injector, **self._index_kwargs,
                )
                for r in range(self.replication_factor)
            ]
            for s in range(new_num_shards)
        ]
        self._breakers = {}
        self._shard_sketches.clear()
        for shard in range(new_num_shards):
            member = new_shard == shard
            for replica in self.nodes[shard]:
                replica.load(vectors[member], ids[member])
        return moved

    # --------------------------------------------------------------- failure

    def fail_node(self, shard: int, replica: int = 0) -> None:
        self.nodes[shard][replica].is_up = False

    def recover_node(self, shard: int, replica: int = 0) -> None:
        self.nodes[shard][replica].is_up = True

    def attach_injector(self, injector: FaultInjector | None) -> None:
        """(Re)wire a fault injector into the coordinator and all nodes."""
        self.injector = injector
        for replicas in self.nodes:
            for node in replicas:
                node.injector = injector

    def _breaker(self, node: SearchNode) -> CircuitBreaker:
        breaker = self._breakers.get(node.node_id)
        if breaker is None:
            breaker = CircuitBreaker(**self._breaker_kwargs)
            self._breakers[node.node_id] = breaker
        return breaker

    def health(self) -> ClusterHealth:
        """Coordinator's view of every replica's liveness + breaker."""
        view = ClusterHealth()
        for shard, replicas in enumerate(self.nodes):
            for r, node in enumerate(replicas):
                breaker = self._breaker(node)
                view.replicas.append(ReplicaHealth(
                    node_id=node.node_id,
                    shard=shard,
                    replica=r,
                    is_up=node.is_up and not (
                        self.injector is not None
                        and self.injector.is_down(node.node_id)
                    ),
                    breaker_state=breaker.state,
                    consecutive_failures=breaker.consecutive_failures,
                    breaker_trips=breaker.trips,
                    queries_served=node.queries_served,
                ))
        return view

    # ---------------------------------------------------------------- search

    def _pick_replica(self, shard: int) -> list[SearchNode]:
        """Replicas of a shard in round-robin-rotated order."""
        replicas = self.nodes[shard]
        start = self._rr % len(replicas)
        return replicas[start:] + replicas[:start]

    def _breaker_event(self, span, node, breaker, before: str) -> None:
        """Record a breaker state change as a span event + counter."""
        if breaker.state == before:
            return
        span.event(
            "breaker_transition", replica=node.node_id,
            from_state=before, to=breaker.state,
        )
        if self.observability.enabled:
            self.observability.metrics.counter(
                "vdbms_breaker_transitions_total",
                "Circuit-breaker state changes.",
            ).inc(to=breaker.state)

    def _search_shard(
        self,
        shard: int,
        query: np.ndarray,
        k: int,
        dstats: DistributedQueryStats,
        deadline_seconds: float | None,
        params: dict,
        span: Any = NOOP_SPAN,
    ) -> tuple[Hits | None, float, SearchStats | None, bool]:
        """One shard's replica chain: breaker -> attempt -> retry -> failover.

        Returns ``(hits, simulated_elapsed, node_stats, deadline_hit)``
        where ``hits is None`` means every replica was exhausted.  The
        elapsed time includes failed attempts and backoff delays
        (failover is sequential within a shard), so failover cost is
        visible in the query's wall clock.
        """
        obs = self.observability
        m = obs.metrics
        elapsed = 0.0
        for node in self._pick_replica(shard):
            breaker = self._breaker(node)
            before = breaker.state
            if not breaker.allow():
                dstats.breaker_skips += 1
                span.event(
                    "breaker_skip", replica=node.node_id, state=breaker.state
                )
                if obs.enabled:
                    m.counter(
                        "vdbms_breaker_skips_total",
                        "Replica attempts denied by an open breaker.",
                    ).inc()
                continue
            self._breaker_event(span, node, breaker, before)
            attempt = 0
            while True:
                if deadline_seconds is not None and elapsed > deadline_seconds:
                    span.event(
                        "deadline_exceeded", replica=node.node_id,
                        simulated_elapsed=elapsed, budget=deadline_seconds,
                    )
                    return None, elapsed, None, True
                dstats.replicas_tried += 1
                before = breaker.state
                try:
                    hits, latency, stats = node.search(query, k, **params)
                except ConnectionError as exc:
                    elapsed += self.failed_attempt_seconds
                    breaker.record_failure()
                    self._breaker_event(span, node, breaker, before)
                    transient = getattr(exc, "transient", False)
                    reason = getattr(exc, "reason", None) or str(exc)
                    if obs.enabled:
                        self._replica_attempts["error",].inc()
                    attempt += 1
                    if transient and attempt < self.retry_policy.max_attempts:
                        # Same replica may answer next time: back off and
                        # retry, charging the wait to the shard's clock.
                        elapsed += self.retry_policy.backoff(attempt)
                        dstats.retries += 1
                        span.event(
                            "retry", replica=node.node_id, attempt=attempt,
                            reason=reason, transient=True,
                        )
                        if obs.enabled:
                            m.counter(
                                "vdbms_replica_retries_total",
                                "Same-replica retries after transient failures.",
                            ).inc()
                        continue
                    dstats.failovers += 1
                    span.event(
                        "failover", replica=node.node_id, attempt=attempt,
                        reason=reason, transient=transient,
                    )
                    if obs.enabled:
                        m.counter(
                            "vdbms_failovers_total",
                            "Replica-chain failovers to the next replica.",
                        ).inc()
                    break  # next replica
                breaker.record_success()
                self._breaker_event(span, node, breaker, before)
                if obs.enabled:
                    self._replica_attempts["ok",].inc()
                elapsed += latency
                if deadline_seconds is not None and elapsed > deadline_seconds:
                    span.event(
                        "deadline_exceeded", replica=node.node_id,
                        simulated_elapsed=elapsed, budget=deadline_seconds,
                    )
                    return None, elapsed, None, True
                span.set(replica=node.node_id, simulated_seconds=elapsed)
                return hits, elapsed, stats, False
        return None, elapsed, None, False

    def search(
        self,
        query: np.ndarray,
        k: int,
        route_nprobe: int = 4,
        deadline_seconds: float | None = None,
        strict: bool | None = None,
        **params,
    ) -> tuple[SearchResult, DistributedQueryStats]:
        """Scatter to routed shards, gather and merge the top-k.

        Parameters
        ----------
        deadline_seconds:
            Per-query budget on the simulated clock.  Shards fan out in
            parallel, so each shard's replica chain races the deadline
            independently; a chain that exceeds it is abandoned.
        strict:
            ``True``: raise :class:`AllReplicasDownError` (or
            :class:`DeadlineExceededError`) when any routed shard cannot
            answer.  ``False``: skip the shard and return a result
            flagged partial, with ``shards_ok``/``shards_failed``/
            ``coverage_fraction`` accounting.  ``None`` uses the
            cluster's default.
        """
        if not self.loaded:
            raise VdbmsError("cluster has no data loaded")
        if strict is None:
            strict = self.strict
        obs = self.observability
        self._rr += 1
        dstats = DistributedQueryStats()
        shard_latencies: list[float] = []
        parts: list[Hits] = []
        gather_stats = SearchStats(plan_name="scatter_gather")
        root = obs.tracer.start_span(
            "distributed_search", kind="distributed", k=k, strict=strict,
            shards=self.num_shards, replication=self.replication_factor,
        ).attach_stats(gather_stats)
        with root:
            for shard in self.sharding.route(np.asarray(query), route_nprobe):
                dstats.shards_contacted += 1
                with root.child("shard", shard=shard) as shard_span:
                    hits, elapsed, stats, deadline_hit = self._search_shard(
                        shard, query, k, dstats, deadline_seconds, params,
                        span=shard_span,
                    )
                    shard_latencies.append(elapsed)
                    if obs.enabled:
                        self._shard_sketches[shard].observe(elapsed)
                    if hits is None:
                        shard_span.set(
                            ok=False,
                            reason="deadline" if deadline_hit else "no_replica",
                        )
                        dstats.deadline_exceeded |= deadline_hit
                        if strict:
                            if deadline_hit:
                                raise DeadlineExceededError(
                                    deadline_seconds, elapsed
                                )
                            raise AllReplicasDownError(
                                shard, dstats.replicas_tried
                            )
                        dstats.shards_failed += 1
                        dstats.skipped_shards.append(shard)
                        if obs.enabled:
                            obs.metrics.counter(
                                "vdbms_shard_failures_total",
                                "Routed shards that could not answer.",
                            ).inc()
                        continue
                    shard_span.set(ok=True, hits=len(hits))
                dstats.shards_ok += 1
                gather_stats.merge(stats)
                dstats.total_distance_computations += stats.distance_computations
                parts.append(hits)
            with root.child("merge", inputs=sum(map(len, parts))):
                merged = Hits.merge(parts, k)
            # Parallel fan-out: latency = slowest contacted node + merge cost.
            merge_seconds = self.cost_model.merged_hit * max(1, len(merged))
            dstats.simulated_latency_seconds = (
                (max(shard_latencies) if shard_latencies else 0.0) + merge_seconds
            )
            dstats.coverage_fraction = (
                dstats.shards_ok / dstats.shards_contacted
                if dstats.shards_contacted else 1.0
            )
            dstats.partial = dstats.shards_failed > 0
            gather_stats.elapsed_seconds = dstats.simulated_latency_seconds
            gather_stats.shards_ok = dstats.shards_ok
            gather_stats.shards_failed = dstats.shards_failed
            gather_stats.coverage_fraction = dstats.coverage_fraction
            gather_stats.partial = dstats.partial
            root.set(
                hits=len(merged),
                shards_ok=dstats.shards_ok,
                shards_failed=dstats.shards_failed,
                coverage=round(dstats.coverage_fraction, 4),
                simulated_seconds=dstats.simulated_latency_seconds,
            )
        if obs.enabled:
            obs.record_query(
                "distributed", "scatter_gather", gather_stats,
                elapsed_seconds=dstats.simulated_latency_seconds,
                simulated=True,
            )
            self._coverage[()].observe(dstats.coverage_fraction)
            if dstats.partial:
                obs.metrics.counter(
                    "vdbms_degraded_queries_total",
                    "Queries answered with partial shard coverage.",
                ).inc()
        if dstats.partial:
            warnings.warn(
                "query answered with partial coverage"
                f" ({dstats.shards_ok}/{dstats.shards_contacted} shards,"
                f" skipped {dstats.skipped_shards})",
                PartialResultWarning,
                stacklevel=2,
            )
        return SearchResult(hits=merged, stats=gather_stats), dstats

    # ----------------------------------------------------- latency sketches

    def latency_sketch(self) -> QuantileSketch:
        """Cluster-level latency sketch: the per-shard sketches folded
        into one, exactly the gather-side merge a coordinator performs
        (each shard keeps its own sketch; the coordinator never sees
        raw per-query samples, and adding counts loses nothing)."""
        merged = QuantileSketch()
        for sketch in self._shard_sketches.values():
            merged.merge(sketch)
        return merged

    def latency_quantiles(self) -> dict[str, float]:
        """Merged per-shard latency quantiles (empty dict before any
        observed query or with observability disabled)."""
        merged = self.latency_sketch()
        if merged.count == 0:
            return {}
        return {"count": float(merged.count), **merged.quantiles()}

    def throughput_estimate(self, per_query: DistributedQueryStats) -> float:
        """Aggregate QPS bound: each query busies only contacted shards,
        so the cluster sustains ~num_shards/contacted parallel queries."""
        if per_query.simulated_latency_seconds <= 0:
            return float("inf")
        concurrency = self.num_shards / max(1, per_query.shards_contacted)
        return concurrency / per_query.simulated_latency_seconds
