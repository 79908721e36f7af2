"""A simulated search node: one shard replica, a full single-node system
— a :class:`VectorDatabase` with one index, ``"shard"``, whose tail
answers the writes the node applies (§2.2–2.3 out-of-place updates) —
plus a latency model.

Real distributed VDBMSs pay a per-request network cost plus the node's
local search cost; the simulated clock models both so scatter-gather
wall-clock estimates behave like the real thing (queries fan out in
parallel, so elapsed time is the *max* over contacted nodes — the
cluster computes that).

Fault injection (``repro.reliability``): a node may carry a
:class:`~repro.reliability.faults.FaultInjector`; before serving it asks
the injector whether this request crashes, fails transiently, or runs
slow, and raises the typed errors the coordinator's failover/retry
logic keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.database import VectorDatabase
from ..core.errors import ReplicaUnavailableError
from ..core.planner import QueryPlan
from ..core.types import Hits, SearchStats
from ..reliability.faults import FaultInjector


@dataclass
class NodeLatencyModel:
    """Synthetic per-request latency: network RTT + per-distance compute."""

    network_seconds: float = 0.0005
    per_distance_seconds: float = 1e-7
    # A failed attempt is not free: the coordinator still pays (at least)
    # the RTT — or a timeout's worth of waiting — before it can fail
    # over.  Charged per failed attempt into the simulated wall clock so
    # failover cost shows up in ``simulated_latency_seconds``.
    failed_attempt_seconds: float | None = None

    def request_latency(self, stats: SearchStats) -> float:
        return (
            self.network_seconds
            + stats.distance_computations * self.per_distance_seconds
        )

    def failed_request_latency(self) -> float:
        """Simulated time burned by one failed/refused attempt."""
        if self.failed_attempt_seconds is not None:
            return self.failed_attempt_seconds
        return self.network_seconds


#: The one plan a node runs: its index (plus the index's tail), whatever
#: the shard's size — the cost-based selector would scan small shards.
SHARD_PLAN = QueryPlan("index_scan", index_name="shard")


class SearchNode:
    """One shard replica: a database over a subset of the cluster's rows,
    with the cluster id of each local row."""

    def __init__(
        self,
        node_id: str,
        index_type: str = "hnsw",
        latency: NodeLatencyModel | None = None,
        injector: FaultInjector | None = None,
        **index_kwargs: Any,
    ):
        self.node_id = node_id
        self.index_type = index_type
        self.index_kwargs = index_kwargs
        self.latency = latency or NodeLatencyModel()
        self.injector = injector
        self.db: VectorDatabase | None = None
        self.ids = np.empty(0, dtype=np.int64)
        self.queries_served = 0
        self.is_up = True

    def load(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """A fresh database over this node's shard, indexed."""
        self.db = VectorDatabase(
            vectors.shape[1], score=self.index_kwargs.get("score", "l2")
        )
        self.db.insert_many(vectors)
        self.db.create_index("shard", self.index_type, **self.index_kwargs)
        self.ids = np.asarray(ids, dtype=np.int64)

    def insert(self, vector: np.ndarray, item_id: int) -> None:
        """Apply one write: a row of the database, answered from the
        index's tail until a rebuild."""
        self.db.insert(vector)
        self.ids = np.append(self.ids, item_id)

    def __len__(self) -> int:
        return 0 if self.db is None else len(self.db)

    def search(
        self, query: np.ndarray, k: int, **params: Any
    ) -> tuple[Hits, float, SearchStats]:
        """Local search; returns (hits, simulated latency, stats).

        Raises :class:`ReplicaUnavailableError` (a ``ConnectionError``)
        when the node is administratively down, crashed by the fault
        injector, or hit by an injected transient failure; the error's
        ``transient`` flag tells the coordinator whether retrying this
        same replica can help.
        """
        if not self.is_up:
            raise ReplicaUnavailableError(self.node_id, reason="node is down")
        slowdown = 1.0
        if self.injector is not None:
            decision = self.injector.on_request(self.node_id)
            if decision.crashed:
                raise ReplicaUnavailableError(
                    self.node_id, reason="crashed (injected)"
                )
            if decision.flaky:
                raise ReplicaUnavailableError(
                    self.node_id, reason="request dropped (injected)",
                    transient=True,
                )
            slowdown = decision.slowdown
        self.queries_served += 1
        result = self.db.search(query, k, plan=SHARD_PLAN, **params)
        hits = Hits(self.ids[result.hits.ids], result.hits.distances)
        stats = result.stats
        latency = slowdown * self.latency.request_latency(stats)
        stats.elapsed_seconds = latency
        return hits, latency, stats
