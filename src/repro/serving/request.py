"""Request/response value types of the serving front door.

:class:`ServingRequest` is what a tenant submits: one single-vector
(c,k)-search plus serving metadata (arrival time on the simulated
clock, an optional latency budget).  :class:`ServedResponse` is the
front door's answer — results for executed requests, an explicit
backpressure record (reason + retry-after) for rejected ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable

import numpy as np

from ..core.types import Hits, SearchStats, as_vector
from ..hybrid.predicates import Predicate

__all__ = ["ServedResponse", "ServingRequest"]


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
