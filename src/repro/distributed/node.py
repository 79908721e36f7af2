"""A simulated search node: one shard replica, a full single-node system
— a :class:`VectorDatabase` with one index, ``"shard"``, whose tail
answers the writes the node applies (§2.2–2.3 out-of-place updates).

Real distributed VDBMSs pay a per-request network cost plus the node's
local search cost; the simulated clock models both — the network as a
setting of the cluster, the search as one execution priced by the
fitted :class:`~repro.core.cost.WorkCostModel` — so scatter-gather
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

from typing import Any

import numpy as np

from ..core.cost import WorkCostModel
from ..core.database import VectorDatabase
from ..core.errors import ReplicaUnavailableError
from ..core.planner import QueryPlan
from ..core.types import Hits, SearchStats
from ..reliability.faults import FaultInjector


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
        cost_model: WorkCostModel | None = None,
        network_seconds: float = 0.0005,
        injector: FaultInjector | None = None,
        **index_kwargs: Any,
    ):
        self.node_id = node_id
        self.index_type = index_type
        self.index_kwargs = index_kwargs
        self.cost_model = cost_model or WorkCostModel()
        self.network_seconds = network_seconds
        self.injector = injector
        self.db: VectorDatabase | None = None
        # Cluster id of each local row, in a buffer grown by doubling.
        self._ids = np.empty(0, dtype=np.int64)
        self._rows = 0
        self.queries_served = 0
        self.is_up = True

    def load(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """A fresh database over this node's shard, indexed."""
        self.db = VectorDatabase(
            vectors.shape[1], score=self.index_kwargs.get("score", "l2")
        )
        self.db.insert_many(vectors)
        self.db.create_index("shard", self.index_type, **self.index_kwargs)
        self._ids = np.asarray(ids, dtype=np.int64)
        self._rows = self._ids.size

    @property
    def ids(self) -> np.ndarray:
        """Cluster id of each local row, in row order."""
        return self._ids[: self._rows]

    def insert(self, vector: np.ndarray, item_id: int) -> None:
        """Apply one write: a row of the database, answered from the
        index's tail until a rebuild.  The id buffer doubles when full,
        so a write costs amortised O(1) there, not a copy of the shard."""
        self.db.insert(vector)
        if self._rows == self._ids.size:
            spare = np.empty(max(1, self._rows), dtype=np.int64)
            self._ids = np.concatenate([self._ids, spare])
        self._ids[self._rows] = item_id
        self._rows += 1

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
        latency = slowdown * (
            self.network_seconds
            + self.cost_model.execution_seconds(SHARD_PLAN.strategy, stats)
        )
        stats.elapsed_seconds = latency
        return hits, latency, stats
