"""Exporters: JSON-lines traces, Prometheus metric dumps, slow-query log.

Machine-readable output is the point of the observability subsystem —
the bench harness and CI consume these artifacts instead of scraping
stdout:

* :func:`spans_to_jsonl` / :func:`write_trace_jsonl` — one JSON object
  per finished span (ids, parent ids, wall interval, attributes,
  events, attributed ``SearchStats`` delta).
* :func:`write_metrics_text` — the registry in Prometheus text format.
* :class:`SlowQueryLog` — a bounded ring of queries whose elapsed time
  (simulated where a simulated clock exists, wall otherwise) crossed a
  configurable threshold, with their plan and stats snapshot.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from .metrics import MetricsRegistry
from .tracing import STAT_FIELDS, Span

__all__ = [
    "SlowQuery",
    "SlowQueryLog",
    "spans_to_jsonl",
    "write_metrics_text",
    "write_trace_jsonl",
]


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Serialize finished spans as JSON lines (one span per line)."""
    return "".join(
        json.dumps(span.to_dict(), default=_jsonable) + "\n" for span in spans
    )


def _jsonable(value: Any):
    """Fallback encoder: numpy scalars and arbitrary objects to builtins."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def write_trace_jsonl(spans: Iterable[Span], path) -> int:
    """Write spans as JSONL; returns the number of spans written."""
    text = spans_to_jsonl(spans)
    with open(path, "w") as fh:
        fh.write(text)
    return text.count("\n")


def write_metrics_text(registry: MetricsRegistry, path) -> None:
    """Write a Prometheus-style text dump of every registered metric."""
    with open(path, "w") as fh:
        fh.write(registry.render_prometheus())


@dataclass
class SlowQuery:
    """One slow-query record: what ran, how long, and what it cost."""

    kind: str
    plan: str
    elapsed_seconds: float
    threshold_seconds: float
    stats: dict[str, int] = field(default_factory=dict)
    simulated: bool = False
    tenant: str | None = None
    trace_id: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "plan": self.plan,
            "elapsed_seconds": self.elapsed_seconds,
            "threshold_seconds": self.threshold_seconds,
            "simulated": self.simulated,
            "stats": self.stats,
            "tenant": self.tenant,
            "trace_id": self.trace_id,
        }

    def __repr__(self) -> str:
        clock = "sim" if self.simulated else "wall"
        who = f" tenant={self.tenant}" if self.tenant is not None else ""
        ref = f" trace={self.trace_id}" if self.trace_id is not None else ""
        return (
            f"SlowQuery({self.kind} {self.plan!r}"
            f" {self.elapsed_seconds * 1e3:.2f}ms {clock},"
            f" threshold {self.threshold_seconds * 1e3:.2f}ms{who}{ref})"
        )


class SlowQueryLog:
    """Bounded log of queries slower than a threshold.

    The threshold applies to whichever elapsed value the caller reports:
    executors pass wall time, the distributed coordinator passes the
    simulated scatter-gather latency (flagged ``simulated=True``).

    Eviction policy (``keep``):

    * ``"newest"`` (default) — a ring buffer of the most recent N slow
      queries, the classic slow-query-log shape.
    * ``"slowest"`` — keep the N slowest seen so far: at capacity, a new
      entry replaces the current fastest entry only if it is slower.
      Use this when hunting worst-case outliers over long runs, where
      newest-N would rotate the record-holders out.

    ``threshold_provider`` makes the threshold dynamic: a zero-argument
    callable consulted on every ``observe`` (e.g. the p99 of the
    latency sketches — ``Observability(slow_query_seconds="auto")``).
    Each logged entry records the threshold that was in force when it
    was admitted.
    """

    def __init__(
        self,
        threshold_seconds: float = 0.1,
        capacity: int = 256,
        keep: str = "newest",
        threshold_provider: Any = None,
    ):
        if threshold_seconds < 0:
            raise ValueError("threshold_seconds must be >= 0")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if keep not in ("newest", "slowest"):
            raise ValueError(f"keep must be 'newest' or 'slowest', got {keep!r}")
        self.threshold_seconds = threshold_seconds
        self.keep = keep
        self.threshold_provider = threshold_provider
        self.entries: deque[SlowQuery] = deque(
            maxlen=capacity if keep == "newest" else None
        )
        self.capacity = capacity
        self.observed = 0
        self.recorded = 0

    def current_threshold(self) -> float:
        """The threshold in force right now (provider wins when set)."""
        return self._threshold()[0]

    def _threshold(self) -> tuple[float, bool]:
        """(threshold, came-from-provider).

        Admission is ``>=`` against a static threshold ("at least this
        slow") but strictly ``>`` against a provider-supplied one: the
        provider reports a quantile of the live stream (e.g. p99), and a
        query exactly *at* the quantile is by definition not an outlier
        — with ``>=`` a perfectly uniform workload would flag every
        query once warmup ends.
        """
        if self.threshold_provider is not None:
            dynamic = self.threshold_provider()
            if dynamic == dynamic:  # provider may return NaN during warmup
                return float(dynamic), True
        return self.threshold_seconds, False

    def observe(
        self,
        kind: str,
        plan: str,
        elapsed_seconds: float,
        stats: Any = None,
        simulated: bool = False,
        tenant: str | None = None,
        trace_id: int | None = None,
    ) -> bool:
        """Consider one finished query; True when it was logged as slow.

        ``tenant``/``trace_id`` are optional journey cross-references
        (the serving front door populates both); they never affect
        admission or eviction.
        """
        self.observed += 1
        threshold, dynamic = self._threshold()
        if elapsed_seconds < threshold or (dynamic and elapsed_seconds == threshold):
            return False
        snapshot = (
            {f: getattr(stats, f) for f in STAT_FIELDS} if stats is not None else {}
        )
        entry = SlowQuery(
            kind=kind,
            plan=plan,
            elapsed_seconds=elapsed_seconds,
            threshold_seconds=threshold,
            stats=snapshot,
            simulated=simulated,
            tenant=tenant,
            trace_id=trace_id,
        )
        if self.keep == "slowest" and len(self.entries) >= self.capacity:
            fastest = min(
                range(len(self.entries)),
                key=lambda i: self.entries[i].elapsed_seconds,
            )
            if entry.elapsed_seconds <= self.entries[fastest].elapsed_seconds:
                self.recorded += 1  # it *was* slow; it just isn't a keeper
                return True
            del self.entries[fastest]
        self.entries.append(entry)
        self.recorded += 1
        return True

    def render(self) -> str:
        if not self.entries:
            return "(no slow queries)"
        return "\n".join(repr(entry) for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)
