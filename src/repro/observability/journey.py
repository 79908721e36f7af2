"""Request journeys: the per-request record anomaly attribution walks.

A :class:`Journey` is the compact, phase-decomposed summary of one
request's trip through the serving front door — who sent it, what
happened to it, and where its simulated time went (``admission_wait``,
``planning``, ``coalesce_batch``, ``index_scan``, ``page_io``,
``cache_lookup``).  The full span tree (with links to the coalesced
batch) remains the ground truth; the journey is the cheap index over it
keyed by ``trace_id``, which is exactly what a latency **exemplar**
(histogram bucket → trace id) resolves through.

:class:`JourneyLog` keeps a bounded ring of completed journeys with a
trace-id index, plus the aggregation helpers the anomaly layer uses to
name a phase and tenant when a detector fires.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["Journey", "JourneyLog", "PHASES"]

#: The attribution vocabulary, in journey order.  The front door prices
#: the execution phases with the one ``WorkCostModel`` and adds the
#: queueing and cache ones.
PHASES = (
    "admission_wait",
    "cache_lookup",
    "planning",
    "coalesce_batch",
    "index_scan",
    "page_io",
)


@dataclass
class Journey:
    """One request's phase-decomposed trip through the front door."""

    trace_id: int
    tenant: str
    status: str  # "ok" | "cache_hit" | "rejected" | "shed"
    arrival_seconds: float
    completed_seconds: float
    latency_seconds: float
    #: Simulated seconds per phase; keys from :data:`PHASES` (absent =
    #: the request never entered that phase).
    phases: dict[str, float] = field(default_factory=dict)
    batch_size: int = 0

    @property
    def phase_total(self) -> float:
        return sum(self.phases.values())

    def dominant_phase(self) -> str | None:
        """The phase holding the largest share of this journey's time."""
        if not self.phases:
            return None
        return max(self.phases, key=lambda p: (self.phases[p], p))

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "tenant": self.tenant,
            "status": self.status,
            "arrival_seconds": self.arrival_seconds,
            "completed_seconds": self.completed_seconds,
            "latency_seconds": self.latency_seconds,
            "batch_size": self.batch_size,
            "phases": dict(self.phases),
        }

    def __repr__(self) -> str:
        top = self.dominant_phase()
        return (
            f"Journey(trace={self.trace_id} {self.tenant!r} {self.status}"
            f" {self.latency_seconds * 1e3:.3f}ms top={top})"
        )


class JourneyLog:
    """Bounded ring of completed journeys, indexed by trace id."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._by_trace: "OrderedDict[int, Journey]" = OrderedDict()
        self.recorded = 0

    def record(self, journey: Journey) -> Journey:
        if journey.trace_id in self._by_trace:
            del self._by_trace[journey.trace_id]
        self._by_trace[journey.trace_id] = journey
        self.recorded += 1
        while len(self._by_trace) > self.capacity:
            self._by_trace.popitem(last=False)
        return journey

    def get(self, trace_id: int) -> Journey | None:
        """Resolve an exemplar's trace id to its journey (or None)."""
        return self._by_trace.get(trace_id)

    def between(self, start: float, end: float) -> list[Journey]:
        """Journeys completed in the half-open window ``(start, end]``."""
        return [
            j
            for j in self._by_trace.values()
            if start < j.completed_seconds <= end
        ]

    def recent(self, n: int) -> list[Journey]:
        """The ``n`` most recently recorded journeys, oldest first."""
        items = list(self._by_trace.values())
        return items[-n:] if n < len(items) else items

    def __len__(self) -> int:
        return len(self._by_trace)

    def __iter__(self):
        return iter(self._by_trace.values())

    # ------------------------------------------------------- attribution math

    @staticmethod
    def phase_means(journeys: Iterable[Journey]) -> dict[str, float]:
        """Mean simulated seconds per phase over ``journeys``.

        A journey that never entered a phase contributes 0 to that
        phase's mean (absence of a phase is itself signal — e.g. cache
        hits stop after ``cache_lookup``).
        """
        totals: dict[str, float] = defaultdict(float)
        count = 0
        for journey in journeys:
            count += 1
            for phase, seconds in journey.phases.items():
                totals[phase] += seconds
        if count == 0:
            return {}
        return {phase: totals[phase] / count for phase in sorted(totals)}

    @staticmethod
    def tenant_latency_means(
        journeys: Iterable[Journey],
    ) -> dict[str, tuple[float, int]]:
        """Per-tenant ``(mean latency, journey count)``."""
        sums: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for journey in journeys:
            sums[journey.tenant] += journey.latency_seconds
            counts[journey.tenant] += 1
        return {
            tenant: (sums[tenant] / counts[tenant], counts[tenant])
            for tenant in sorted(sums)
        }

    @staticmethod
    def slowest(journeys: Iterable[Journey], n: int = 3) -> list[Journey]:
        ordered = sorted(
            journeys, key=lambda j: (-j.latency_seconds, j.trace_id)
        )
        return ordered[:n]
