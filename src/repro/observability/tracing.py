"""Explicit-propagation tracing for the query path.

The survey frames operator crossovers and plan selection as *empirical*
questions: answering them needs to know where inside a plan the
per-query quantities (distance computations, nodes visited, page reads,
predicate work) are spent, not just their totals.  This module provides
the span layer that attributes those quantities to operators:

* :class:`Span` — one timed unit of work with a name, attributes,
  point-in-time events, and (optionally) the delta of a
  :class:`~repro.core.types.SearchStats` object over the span's
  lifetime.  Spans are context managers; nesting is *explicit* — a
  child is created via :meth:`Span.child` (no thread-local ambient
  context), so the propagation path is visible in the code.
* :class:`Tracer` — creates spans, assigns ids, collects finished
  spans, and owns the clock (``time.perf_counter`` by default; a
  simulated clock can be injected where one exists).
* :data:`NOOP_SPAN` / :data:`NOOP_TRACER` — the disabled fast path.
  Every instrumented call site works against these singletons when
  observability is off; each call is one attribute lookup plus a no-op
  method call, so the query path pays no measurable cost
  (``benchmarks/bench_perf_suite.py`` verifies this).

Request journeys add two ingredients on top of the tree:

* **trace ids** — every span carries a ``trace_id``, inherited from its
  parent (a root span starts a fresh trace).  The serving front door
  stamps a request's trace id on everything that happens to it, so a
  latency exemplar (histogram bucket → trace id) is one hop from the
  request's full journey.
* **span links** (:class:`SpanLink`) — a non-parental edge between
  spans in *different* traces.  The coalescer's fan-in is the canonical
  use: one batch span links to its N member spans (and each member
  links back to exactly one batch span) without pretending the batch is
  any single request's child.

Span-tree well-formedness (every span's parent exists, no cycles,
child intervals nested inside the parent's) is checkable via
:func:`validate_span_tree`; link well-formedness (every link points at
a span in the set, never at the linking span itself) via
:func:`validate_span_links`; the property tests drive both.
"""

from __future__ import annotations

import operator
import time
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "NOOP_SPAN",
    "NOOP_TRACER",
    "STAT_FIELDS",
    "NoopSpan",
    "NoopTracer",
    "Span",
    "SpanEvent",
    "SpanLink",
    "Tracer",
    "validate_span_links",
    "validate_span_tree",
]

#: The SearchStats counters a span can attribute to itself.  Kept as a
#: name tuple (not an import of core.types) so this module stays
#: import-cycle-free under ``repro.core`` -> optimizer -> observability.
STAT_FIELDS = (
    "distance_computations",
    "nodes_visited",
    "page_reads",
    "candidates_examined",
    "predicate_evaluations",
    "predicate_rejections",
)
_read_stats = operator.attrgetter(*STAT_FIELDS)
_NO_STATS = (0,) * len(STAT_FIELDS)


class SpanEvent:
    """A point-in-time annotation on a span (retry, failover, ...)."""

    __slots__ = ("name", "timestamp", "attributes")

    def __init__(self, name: str, timestamp: float, attributes: dict[str, Any]):
        self.name = name
        self.timestamp = timestamp
        self.attributes = attributes

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "timestamp": self.timestamp,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:
        return f"SpanEvent({self.name!r}, t={self.timestamp:.6f}, {self.attributes})"


class SpanLink:
    """A non-parental edge to a span in another trace.

    Parent/child edges carry the *containment* story (this work happened
    inside that work); links carry the *causality across traces* story —
    a coalesced batch span links to the N member request spans it served,
    and each member links back to the one batch that carried it.
    """

    __slots__ = ("span_id", "trace_id", "attributes")

    def __init__(self, span_id: int, trace_id: int, attributes: dict[str, Any]):
        self.span_id = span_id
        self.trace_id = trace_id
        self.attributes = attributes

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:
        return f"SpanLink(span=#{self.span_id}, trace={self.trace_id}, {self.attributes})"


class Span:
    """One timed, attributed unit of work inside a trace."""

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "trace_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "events",
        "links",
        "error",
        "_stats",
        "_stats_at_start",
        "_stats_at_end",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        trace_id: int,
        parent_id: int | None,
        start: float,
        attributes: dict[str, Any],
    ):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attributes = attributes
        # One shared immutable empty until first written: most spans
        # carry neither, and a container each is two more objects for
        # the collector to walk per span the tracer keeps.
        self.events: Sequence[SpanEvent] = ()
        self.links: Sequence[SpanLink] = ()
        self.error: str | None = None
        self._stats = None
        self._stats_at_start: tuple[int, ...] = _NO_STATS
        self._stats_at_end: tuple[int, ...] | None = None

    # ------------------------------------------------------------- recording

    def child(self, name: str, **attributes: Any) -> "Span":
        """Start a child span (explicit propagation — no ambient context)."""
        return self.tracer._start(name, self.trace_id, self.span_id, attributes)

    def set(self, **attributes: Any) -> "Span":
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes: Any) -> "Span":
        """Record a point-in-time event (retry, failover, breaker trip...)."""
        if not self.events:
            self.events = []
        self.events.append(SpanEvent(name, self.tracer.now(), attributes))
        return self

    def link(self, other: "Span | NoopSpan", **attributes: Any) -> "Span":
        """Record a non-parental edge to ``other`` (usually another trace).

        Linking is one-directional; the coalescer records both
        directions explicitly (batch → members with ``role="member"``
        per link target, member → batch with ``role="batch"``) so each
        side's journey is walkable without a global span index.
        """
        if not self.links:
            self.links = []
        self.links.append(SpanLink(other.span_id, other.trace_id, attributes))
        return self

    def set_stats_delta(self, stats: Any) -> "Span":
        """Attribute the :data:`STAT_FIELDS` counters of ``stats``, as they
        stand, to this span as its delta.

        Used where the span's work was measured elsewhere — e.g. a
        coalesced member's largest-remainder share of the batch totals —
        instead of live via :meth:`attach_stats`.  A subsequent
        :meth:`finish` keeps this value unless live stats were attached.
        """
        self._stats_at_end = _read_stats(stats)
        return self

    def attach_stats(self, stats: Any) -> "Span":
        """Snapshot ``stats`` now; the delta to span end is attributed here.

        The attached object is any :class:`SearchStats`-shaped object;
        only the :data:`STAT_FIELDS` counters are read.  Multiple spans
        may attach the same object — the profiler's *self* accounting
        (total minus children) then partitions the counters exactly.
        """
        self._stats = stats
        self._stats_at_start = _read_stats(stats)
        return self

    def finish(self) -> "Span":
        if self.end is None:
            tracer = self.tracer
            self.end = tracer._clock()
            if self._stats is not None:
                self._stats_at_end = _read_stats(self._stats)
            tracer.spans.append(self)
        return self

    # ------------------------------------------------------- context manager

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.error = f"{type(exc).__name__}: {exc}"
        self.finish()
        return False

    # ----------------------------------------------------------------- views

    @property
    def duration_seconds(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    @property
    def stats_delta(self) -> dict[str, int] | None:
        """The :data:`STAT_FIELDS` work attributed to this span (``None``:
        none was), built from the two snapshots when read."""
        if self._stats_at_end is None:
            return None
        return dict(zip(STAT_FIELDS, map(
            operator.sub, self._stats_at_end, self._stats_at_start
        )))

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (one trace-export line)."""
        out: dict[str, Any] = {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_seconds": self.duration_seconds,
            "attributes": self.attributes,
        }
        if self._stats_at_end is not None:
            out["stats"] = self.stats_delta
        if self.events:
            out["events"] = [e.to_dict() for e in self.events]
        if self.links:
            out["links"] = [link.to_dict() for link in self.links]
        if self.error is not None:
            out["error"] = self.error
        return out

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration_seconds * 1e3:.3f}ms"
        return f"Span(#{self.span_id} {self.name!r} parent={self.parent_id} {state})"


class Tracer:
    """Creates, times, and collects spans for one trace session.

    Parameters
    ----------
    clock:
        Zero-arg callable returning monotonically non-decreasing floats.
        Defaults to ``time.perf_counter``; the distributed layer injects
        simulated-clock readings as span *attributes* instead (wall
        nesting stays truthful, simulated time rides along).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.perf_counter
        self._next_id = 1
        self._next_trace = 1
        self.spans: list[Span] = []  # finished spans, in finish order

    def now(self) -> float:
        return self._clock()

    def start_span(
        self,
        name: str,
        parent: "Span | None" = None,
        trace_id: int | None = None,
        **attributes: Any,
    ) -> Span:
        """Start a span.

        Trace context propagates with the parent edge: a child inherits
        its parent's ``trace_id``, a root starts a fresh trace.  Pass an
        explicit ``trace_id`` to join an existing trace without a parent
        edge (the serving front door does this when work for a request
        resumes after queueing).
        """
        if trace_id is None:
            if parent is not None:
                trace_id = parent.trace_id
            else:
                trace_id = self._next_trace
                self._next_trace += 1
        return self._start(
            name, trace_id, None if parent is None else parent.span_id, attributes
        )

    def _start(
        self, name: str, trace_id: int, parent_id: int | None,
        attributes: dict[str, Any],
    ) -> Span:
        span_id = self._next_id
        self._next_id = span_id + 1
        return Span(
            self, name, span_id, trace_id, parent_id, self._clock(), attributes
        )

    def clear(self) -> None:
        self.spans = []

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def __len__(self) -> int:
        return len(self.spans)


class NoopSpan:
    """The disabled-path span: every operation is a cheap no-op."""

    __slots__ = ()

    # Mirror the Span read surface so rendering code never branches.
    tracer = None
    name = "noop"
    span_id = 0
    trace_id = 0
    parent_id = None
    start = 0.0
    end = 0.0
    attributes: dict[str, Any] = {}
    events: tuple = ()
    links: tuple = ()
    error = None
    stats_delta = None
    duration_seconds = 0.0

    def child(self, name: str, **attributes: Any) -> "NoopSpan":
        return self

    def set(self, **attributes: Any) -> "NoopSpan":
        return self

    def event(self, name: str, **attributes: Any) -> "NoopSpan":
        return self

    def link(self, other: Any, **attributes: Any) -> "NoopSpan":
        return self

    def set_stats_delta(self, stats: Any) -> "NoopSpan":
        return self

    def attach_stats(self, stats: Any) -> "NoopSpan":
        return self

    def finish(self) -> "NoopSpan":
        return self

    def to_dict(self) -> dict[str, Any]:
        return {}

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NoopTracer:
    """The disabled-path tracer: hands out :data:`NOOP_SPAN` forever."""

    enabled = False
    spans: tuple = ()

    def now(self) -> float:
        return 0.0

    def start_span(
        self, name: str, parent=None, trace_id=None, **attributes: Any
    ) -> NoopSpan:
        return NOOP_SPAN

    def clear(self) -> None:
        pass

    def roots(self) -> list:
        return []

    def __len__(self) -> int:
        return 0


NOOP_SPAN = NoopSpan()
NOOP_TRACER = NoopTracer()


def validate_span_tree(spans: Iterable[Span]) -> list[str]:
    """Check well-formedness of a set of finished spans.

    Returns a list of human-readable problems (empty = well-formed):

    * every span's ``parent_id`` refers to a span in the set;
    * the parent relation is acyclic;
    * every span is finished and its interval is non-negative;
    * each child's ``[start, end]`` nests inside its parent's.
    """
    problems: list[str] = []
    by_id: dict[int, Span] = {}
    for span in spans:
        if span.span_id in by_id:
            problems.append(f"duplicate span id {span.span_id}")
        by_id[span.span_id] = span
    for span in by_id.values():
        if span.end is None:
            problems.append(f"span #{span.span_id} {span.name!r} never finished")
            continue
        if span.end < span.start:
            problems.append(f"span #{span.span_id} {span.name!r} ends before it starts")
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(
                f"span #{span.span_id} {span.name!r} has unknown parent"
                f" #{span.parent_id}"
            )
            continue
        if parent.end is not None and not (
            parent.start <= span.start and span.end <= parent.end
        ):
            problems.append(
                f"span #{span.span_id} {span.name!r} interval"
                f" [{span.start}, {span.end}] escapes parent #{parent.span_id}"
                f" [{parent.start}, {parent.end}]"
            )
    # Cycle check over the parent relation.
    for span in by_id.values():
        seen: set[int] = set()
        current: Span | None = span
        while current is not None and current.parent_id is not None:
            if current.span_id in seen:
                problems.append(f"cycle through span #{span.span_id}")
                break
            seen.add(current.span_id)
            current = by_id.get(current.parent_id)
    return problems


def validate_span_links(spans: Iterable[Span]) -> list[str]:
    """Check link well-formedness over a set of spans.

    Returns human-readable problems (empty = well-formed):

    * every link's target span exists in the set;
    * a span never links to itself;
    * the link's recorded ``trace_id`` matches the target's;
    * parent edges stay within one trace (a child inheriting a
      different trace id than its parent is a propagation bug).
    """
    problems: list[str] = []
    by_id = {span.span_id: span for span in spans}
    for span in by_id.values():
        if span.parent_id is not None:
            parent = by_id.get(span.parent_id)
            if parent is not None and parent.trace_id != span.trace_id:
                problems.append(
                    f"span #{span.span_id} {span.name!r} trace {span.trace_id}"
                    f" differs from parent #{parent.span_id}"
                    f" trace {parent.trace_id}"
                )
        for link in span.links:
            if link.span_id == span.span_id:
                problems.append(f"span #{span.span_id} {span.name!r} links to itself")
                continue
            target = by_id.get(link.span_id)
            if target is None:
                problems.append(
                    f"span #{span.span_id} {span.name!r} links to unknown"
                    f" span #{link.span_id}"
                )
                continue
            if target.trace_id != link.trace_id:
                problems.append(
                    f"span #{span.span_id} link records trace {link.trace_id}"
                    f" but target #{target.span_id} is in trace {target.trace_id}"
                )
    return problems
