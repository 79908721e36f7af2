"""Request/response value types and the serving-time cost model.

:class:`ServingRequest` is what a tenant submits: one single-vector
(c,k)-search plus serving metadata (arrival time on the simulated
clock, an optional latency budget).  :class:`ServedResponse` is the
front door's answer — results for executed requests, an explicit
backpressure record (reason + retry-after) for rejected ones.

:class:`ServiceModel` converts the work counters a batch actually
incurred (:class:`~repro.core.types.SearchStats`) into simulated
service seconds, the same device the distributed layer uses
(:class:`~repro.distributed.node.NodeLatencyModel`): latency in the
simulation is a deterministic function of work done, so experiments are
reproducible bit-for-bit while still rewarding real efficiency —
coalescing helps precisely because a shared frontier does fewer
distance computations and pays one dispatch overhead instead of N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

import numpy as np

from ..core.types import Hits, SearchStats, as_vector
from ..hybrid.predicates import Predicate

__all__ = ["ServedResponse", "ServiceModel", "ServingRequest"]


@dataclass
class ServingRequest:
    """One tenant-attributed single-vector search at the front door."""

    tenant: str
    vector: np.ndarray
    k: int = 10
    arrival_seconds: float = 0.0
    predicate: Predicate | None = None
    params: dict[str, Any] = field(default_factory=dict)
    #: Latency budget from arrival; ``None`` falls back to the tenant's
    #: default.  The front door resolves it at admission time.
    deadline_seconds: float | None = None
    #: Journey trace id, stamped by the front door at arrival so every
    #: span, exemplar, and slow-log entry about this request shares one
    #: cross-reference.  ``None`` until (or unless) the request is traced.
    trace_id: int | None = None

    def __post_init__(self):
        self.vector = as_vector(self.vector)
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.arrival_seconds < 0:
            raise ValueError("arrival_seconds must be >= 0")

    def coalesce_key(self) -> Hashable | None:
        """Group identity for request coalescing, or None (never grouped).

        Requests with the same key differ only in their query vector,
        which is exactly the shape the batched kernels exploit.  The key
        deliberately excludes the vector (members bring different ones)
        and the collection generation (all concurrently queued requests
        execute against the same database state at dispatch).
        """
        try:
            key = (
                self.tenant,
                self.vector.shape[0],
                self.k,
                self.predicate,
                tuple(sorted(self.params.items())),
            )
            hash(key)
            return key
        except TypeError:
            return None


@dataclass
class ServedResponse:
    """The front door's answer to one :class:`ServingRequest`.

    ``status`` is one of ``"ok"`` (executed), ``"cache_hit"`` (served
    from the tenant's result cache), ``"rejected"`` (admission refused;
    see ``reason`` / ``retry_after_seconds``), or ``"shed"`` (admitted
    but dropped at dispatch because its deadline had already passed).
    Latency fields are simulated seconds; ``math.nan`` where the
    request never completed.
    """

    request: ServingRequest
    status: str
    hits: Hits = field(default_factory=lambda: Hits.EMPTY)
    stats: SearchStats | None = None
    reason: str = ""
    retry_after_seconds: float = 0.0
    queue_wait_seconds: float = math.nan
    service_seconds: float = math.nan
    latency_seconds: float = math.nan
    batch_size: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cache_hit")

    @property
    def ids(self) -> list[int]:
        return self.hits.ids.tolist()

    def __repr__(self) -> str:
        if not self.ok:
            return (
                f"ServedResponse({self.request.tenant!r} {self.status}:"
                f" {self.reason}, retry_after={self.retry_after_seconds:.4g}s)"
            )
        return (
            f"ServedResponse({self.request.tenant!r} {self.status},"
            f" {len(self.hits)} hits, latency="
            f"{self.latency_seconds * 1e3:.3f}ms, batch={self.batch_size})"
        )


@dataclass(frozen=True)
class ServiceModel:
    """Deterministic work-counter -> simulated-service-seconds model.

    Defaults are loosely calibrated to the observability baseline
    (~1 ms pure-Python dispatch per query, tens of nanoseconds per
    vectorized distance computation) but the absolute values only set
    the simulation's time scale — every comparison the benchmarks make
    (isolation, coalescing throughput) is within one model.
    """

    #: Fixed cost per dispatched batch (validation, kernel entry) — the
    #: cost coalescing amortizes.
    base_seconds: float = 1e-3
    #: Marginal cost per coalesced member (result split, response copy).
    per_member_seconds: float = 2e-5
    per_distance_seconds: float = 2e-8
    per_node_seconds: float = 5e-7
    per_page_seconds: float = 5e-5
    #: Flat cost of answering from the exact result cache.
    cache_hit_seconds: float = 5e-5
    #: Extra per-batch cost when the plan decision missed (or bypassed)
    #: the plan cache — the latency the plan-cache-collapse anomaly
    #: detector exists to notice.
    planning_seconds: float = 5e-4

    def phase_seconds(
        self, stats_list: Sequence[SearchStats], plan_cached: bool = True
    ) -> dict[str, float]:
        """Simulated batch time, decomposed by journey phase.

        Phases (the vocabulary anomaly attribution names): ``planning``
        (plan-cache miss penalty), ``coalesce_batch`` (dispatch overhead
        plus per-member split/copy), ``index_scan`` (distance + node
        traversal work), ``page_io`` (page reads).  The values sum to
        :meth:`batch_service_seconds` exactly.
        """
        n = len(stats_list)
        distances = sum(s.distance_computations for s in stats_list)
        nodes = sum(s.nodes_visited for s in stats_list)
        pages = sum(s.page_reads for s in stats_list)
        return {
            "planning": 0.0 if plan_cached else self.planning_seconds,
            "coalesce_batch": self.base_seconds + self.per_member_seconds * n,
            "index_scan": (
                self.per_distance_seconds * distances
                + self.per_node_seconds * nodes
            ),
            "page_io": self.per_page_seconds * pages,
        }

    def member_phase_seconds(
        self, stats: SearchStats, batch_size: int, plan_cached: bool = True
    ) -> dict[str, float]:
        """One member's phase decomposition of its batch's time.

        Batch-level terms (planning, dispatch base) divide evenly across
        the ``batch_size`` members; work terms charge the member's own
        share — so member phase dicts sum (over the batch) to
        :meth:`phase_seconds` of the batch.
        """
        n = max(1, batch_size)
        return {
            "planning": (0.0 if plan_cached else self.planning_seconds) / n,
            "coalesce_batch": self.base_seconds / n + self.per_member_seconds,
            "index_scan": (
                self.per_distance_seconds * stats.distance_computations
                + self.per_node_seconds * stats.nodes_visited
            ),
            "page_io": self.per_page_seconds * stats.page_reads,
        }

    def batch_service_seconds(
        self,
        stats_list: Sequence[SearchStats],
        plan_cached: bool = True,
    ) -> float:
        """Simulated execution time of one dispatched batch.

        ``stats_list`` holds the per-member shares (they sum to the
        batch totals, so summing here charges exactly the batch's work).
        """
        return sum(self.phase_seconds(stats_list, plan_cached).values())
