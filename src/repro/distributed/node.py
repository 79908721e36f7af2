"""A simulated search node: one shard's data, index, and latency model.

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

from ..core.errors import ReplicaUnavailableError
from ..core.types import Hits, SearchStats
from ..index.registry import make_index
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


class SearchNode:
    """One shard replica: a subset of vectors with its own index."""

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
        self.index = None
        self.queries_served = 0
        self.is_up = True

    def load(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """Build this node's local index over its shard of the data."""
        self.index = make_index(self.index_type, **self.index_kwargs)
        if vectors.shape[0]:
            self.index.build(vectors, ids=ids)

    def __len__(self) -> int:
        return 0 if self.index is None else len(self.index)

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
        stats = SearchStats()
        if self.index is None or len(self.index) == 0:
            latency = slowdown * self.latency.network_seconds
            stats.elapsed_seconds = latency
            return Hits.EMPTY, latency, stats
        hits = self.index.search(query, k, stats=stats, **params)
        latency = slowdown * self.latency.request_latency(stats)
        stats.elapsed_seconds = latency
        return hits, latency, stats
