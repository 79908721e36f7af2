"""The observability bundle components carry: tracer + metrics + slow log
+ recall auditor + SLO monitor.

One :class:`Observability` object is threaded through the database,
executor, distributed coordinator, and paged storage.  The default for
every component is the shared :data:`DISABLED` singleton, whose tracer
and registry are the no-op fast paths — an uninstrumented query pays a
handful of attribute lookups and nothing else (verified by the perf
smoke suite).

Metric catalog (all names are created lazily on first use; see
``docs/observability.md`` for labels and semantics):

========================================  =========  =======================
name                                      type       labels
========================================  =========  =======================
vdbms_queries_total                       counter    kind, strategy
vdbms_query_seconds                       histogram  kind
vdbms_distance_computations_total         counter    kind
vdbms_nodes_visited_total                 counter    kind
vdbms_query_page_reads_total              counter    kind
vdbms_partial_results_total               counter    kind
vdbms_plans_selected_total                counter    strategy
vdbms_plan_cache_hits_total               counter    —
vdbms_plan_cache_misses_total             counter    —
vdbms_slow_queries_total                  counter    kind
vdbms_replica_attempts_total              counter    outcome
vdbms_replica_retries_total               counter    —
vdbms_failovers_total                     counter    —
vdbms_breaker_skips_total                 counter    —
vdbms_breaker_transitions_total           counter    to
vdbms_shard_failures_total                counter    —
vdbms_degraded_queries_total              counter    —
vdbms_coverage_fraction                   histogram  —
vdbms_storage_page_reads_total            counter    —
vdbms_storage_page_read_retries_total     counter    —
vdbms_storage_page_batch_span             histogram  —
vdbms_buffer_pool_requests_total          counter    outcome
vdbms_buffer_pool_hit_ratio               gauge      —
vdbms_audit_queries_total                 counter    collection, strategy, index
vdbms_audit_distance_computations_total   counter    collection, strategy, index
vdbms_audit_seconds_total                 counter    collection, strategy, index
vdbms_audit_recall                        histogram  collection, strategy, index
vdbms_slo_breaches_total                  counter    slo, severity
vdbms_slo_good_fraction                   gauge      slo
vdbms_serving_requests_total              counter    tenant, status
vdbms_serving_rejected_total              counter    tenant, reason
vdbms_serving_shed_total                  counter    tenant
vdbms_serving_batches_total               counter    mode
vdbms_serving_batch_size                  histogram  —
vdbms_serving_cache_hits_total            counter    tenant
vdbms_serving_cache_misses_total          counter    tenant
vdbms_serving_queue_depth                 gauge      tenant
vdbms_anomalies_total                     counter    detector
========================================  =========  =======================

``kind`` is the executor frame's — ``search``, ``range``, ``batch``,
``multivector``, ``multi_score`` — or a tier's: ``serving``, ``distributed``.

Every histogram is a labelled family of
:class:`~repro.observability.sketch.QuantileSketch`; query latency lives
only in ``vdbms_query_seconds``, which every latency read below merges.

The serving tier additionally passes ``labels={"tenant": ...}`` into
:meth:`Observability.record_query`, adding a ``tenant`` dimension to the
query-path counters for requests it dispatches.

The ``audit_*`` namespace is the cost-isolation contract: every
distance computation and second spent by the online recall auditor is
charged there, never to the query-path counters above it.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from .export import SlowQueryLog
from .metrics import NOOP_METRICS, MetricsRegistry, NoopMetricsRegistry, SeriesCache
from .quality import RecallAuditor
from .sketch import QuantileSketch
from .slo import DEFAULT_BURN_POLICIES, SLO, HealthReport, SLOMonitor
from .tracing import NOOP_TRACER, NoopTracer, Tracer

__all__ = ["DISABLED", "Observability"]

#: Queries observed before the "auto" slow-query threshold starts
#: trusting the latency p99.
_AUTO_SLOW_WARMUP = 30
_QUERY_SECONDS = ("vdbms_query_seconds", "Per-query latency")


def _bind_query(m: Any, kind: str, strategy: str, *items: tuple) -> tuple:
    """The bind step of :meth:`Observability.record_query`: the five
    series one ``(kind, strategy, *caller label items)`` updates on every
    call, and the caller's ``tenant`` label for the slow log."""
    extra = dict(items)
    for reserved in ("kind", "strategy"):
        if reserved in extra:
            raise ValueError(
                f"record_query label {reserved!r} is reserved: it is the"
                " recording component's own dimension"
            )
    return (
        m.counter("vdbms_queries_total", "Queries executed").labels(
            kind=kind, strategy=strategy, **extra
        ),
        m.counter(
            "vdbms_distance_computations_total", "Similarity computations"
        ).labels(kind=kind, **extra),
        m.counter("vdbms_nodes_visited_total", "Index nodes expanded").labels(
            kind=kind, **extra
        ),
        m.counter(
            "vdbms_query_page_reads_total", "Disk pages read by queries"
        ).labels(kind=kind, **extra),
        m.histogram(*_QUERY_SECONDS).labels(kind=kind, **extra),
        extra.get("tenant"),
    )


class Observability:
    """Tracing + metrics + slow-query logging + quality, enabled as a unit.

    Parameters
    ----------
    tracing / metrics:
        Enable the respective layer; a disabled layer is replaced by its
        no-op twin, so call sites never branch.
    slow_query_seconds:
        When a number, queries at least this slow (wall or simulated,
        whichever the component reports) land in :attr:`slow_log`.  The
        string ``"auto"`` sets the threshold dynamically to the
        p99 of all query latency observed so far (after a
        short warmup) — the log then captures exactly the tail.
    slow_log_keep:
        Eviction policy for the slow log: ``"newest"`` (ring buffer) or
        ``"slowest"`` (keep record-holders).
    audit_fraction / audit_k / audit_seed:
        When ``audit_fraction > 0``, an online :class:`RecallAuditor`
        samples that fraction of vector queries and re-executes them
        exactly, feeding recall@``audit_k`` into the ``audit_*`` metrics
        and the ``"recall"`` SLO signal.  Sampling is seeded and
        deterministic in query order.
    slos:
        Declarative :class:`~repro.observability.slo.SLO` objectives; a
        :class:`SLOMonitor` evaluates them over sliding windows with
        multi-window burn-rate alerting as signals arrive
        (``"latency"``/``"coverage"`` from ``record_query``,
        ``"recall"`` from the auditor).
    clock:
        Clock for span timestamps (defaults to ``time.perf_counter``).
    """

    enabled = True

    def __init__(
        self,
        tracing: bool = True,
        metrics: bool = True,
        slow_query_seconds: float | str | None = None,
        clock: Callable[[], float] | None = None,
        slow_log_capacity: int = 256,
        slow_log_keep: str = "newest",
        audit_fraction: float = 0.0,
        audit_k: int = 10,
        audit_seed: int = 0,
        slos: Sequence[SLO] | None = None,
        slo_policies=DEFAULT_BURN_POLICIES,
    ):
        self.tracer: Tracer | NoopTracer = (
            Tracer(clock=clock) if tracing else NOOP_TRACER
        )
        self.metrics: MetricsRegistry | NoopMetricsRegistry = (
            MetricsRegistry() if metrics else NOOP_METRICS
        )
        self.slo: SLOMonitor | None = (
            SLOMonitor(slos, metrics=self.metrics, tracer=self.tracer,
                       policies=slo_policies)
            if slos
            else None
        )
        self.auditor: RecallAuditor | None = (
            RecallAuditor(
                audit_fraction, k=audit_k, seed=audit_seed,
                metrics=self.metrics, tracer=self.tracer, slo=self.slo,
            )
            if audit_fraction > 0.0
            else None
        )
        if slow_query_seconds == "auto":
            self.slow_log: SlowQueryLog | None = SlowQueryLog(
                threshold_seconds=0.0,
                capacity=slow_log_capacity,
                keep=slow_log_keep,
                threshold_provider=self._auto_slow_threshold,
            )
            # Until warmup, the provider returns NaN and the static
            # threshold takes over; make that "log nothing".
            self.slow_log.threshold_seconds = math.inf
        elif slow_query_seconds is not None:
            self.slow_log = SlowQueryLog(
                float(slow_query_seconds), slow_log_capacity, keep=slow_log_keep
            )
        else:
            self.slow_log = None
        # Wired by the serving front door when journey telemetry runs;
        # health() then embeds the attributed anomaly list.
        self.anomalies = None
        # record_query's bound series, by (kind, strategy, *label items).
        counter = self.metrics.counter
        self._query_series = SeriesCache(partial(_bind_query, self.metrics))
        self._partial = SeriesCache(lambda kind, _, *items: counter(
            "vdbms_partial_results_total", "Queries answered partially"
        ).labels(kind=kind, **dict(items)))
        self._slow = SeriesCache(lambda kind: counter(
            "vdbms_slow_queries_total", "Queries over threshold"
        ).labels(kind=kind))

    # -------------------------------------------------------------- latency

    def _query_seconds(self):
        return self.metrics.histogram(*_QUERY_SECONDS)

    def latency_sketch(self, kind: str | None = None) -> QuantileSketch:
        """Query latency of one kind (``None``: every kind), all other
        labels merged; empty while nothing was recorded."""
        match = {} if kind is None else {"kind": kind}
        return self._query_seconds().merged(**match)

    def latency_quantile(self, q: float, kind: str | None = None) -> float:
        """Quantile of query latency (NaN while empty)."""
        return self.latency_sketch(kind).quantile(q)

    def latency_snapshots(self) -> dict[str, dict[str, float]]:
        """Per-kind quantile snapshots for health reporting."""
        by_kind: dict[str, QuantileSketch] = {}
        for key, sketch in self._query_seconds().series():
            by_kind.setdefault(dict(key)["kind"], QuantileSketch()).merge(sketch)
        return {
            kind: {"count": float(sketch.count), **sketch.quantiles()}
            for kind, sketch in by_kind.items()
        }

    def _auto_slow_threshold(self) -> float:
        merged = self.latency_sketch()
        if merged.count < _AUTO_SLOW_WARMUP:
            return math.nan
        return merged.quantile(0.99)

    # ------------------------------------------------------------ recording

    def record_query(
        self,
        kind: str,
        strategy: str,
        stats: Any,
        elapsed_seconds: float | None = None,
        simulated: bool = False,
        labels: Mapping[str, Any] | None = None,
        trace_id: int | None = None,
    ) -> None:
        """Standard per-query rollup: counters, latency, slow-query log.

        ``stats`` is a :class:`~repro.core.types.SearchStats`;
        ``elapsed_seconds`` overrides ``stats.elapsed_seconds`` (the
        distributed coordinator passes simulated latency).  ``labels``
        adds caller dimensions (e.g. the serving tier's ``tenant``) to
        every metric recorded here; they ride the normal registry, so
        label escaping and exposition come for free.  ``trace_id``
        attaches a journey exemplar to the latency histogram bucket and
        cross-references any slow-log entry.
        """
        elapsed = (
            elapsed_seconds if elapsed_seconds is not None else stats.elapsed_seconds
        )
        if elapsed < 0 or elapsed == math.inf:  # before any series moves
            raise ValueError(
                f"query latency must be finite and >= 0 (or NaN), got {elapsed}"
            )
        key = (kind, strategy, *labels.items()) if labels else (kind, strategy)
        queries, distances, nodes, pages, seconds, tenant = self._query_series[key]
        queries.inc()
        distances.inc(stats.distance_computations)
        nodes.inc(stats.nodes_visited)
        pages.inc(stats.page_reads)
        if stats.partial:
            self._partial[key].inc()
        timed = elapsed == elapsed  # NaN: the component reported no time
        if self.slo is not None:
            if timed:
                self.slo.observe("latency", elapsed)
            coverage = getattr(stats, "coverage_fraction", None)
            if coverage is not None:
                self.slo.observe("coverage", coverage)
        if self.slow_log is not None and self.slow_log.observe(
            kind, stats.plan_name or strategy, elapsed, stats,
            simulated=simulated, tenant=tenant, trace_id=trace_id,
        ):
            self._slow[kind,].inc()
        if timed:
            # Last, so the "auto" slow threshold above judged this query
            # against the ones before it, not against itself.
            seconds.observe(elapsed, trace_id)

    # --------------------------------------------------------------- health

    def health(self) -> HealthReport:
        """Operational summary: latency, audited quality, SLOs, alerts."""
        report = HealthReport(
            enabled=True,
            ok=self.slo.ok if self.slo is not None else True,
            latency=self.latency_snapshots(),
        )
        if self.slow_log is not None:
            threshold = self.slow_log.current_threshold()
            report.slow_queries = {
                "observed": self.slow_log.observed,
                "recorded": self.slow_log.recorded,
                "threshold": (
                    f"{threshold * 1e3:.3f}ms"
                    if threshold == threshold and threshold != math.inf
                    else "warming up"
                ),
            }
        if self.auditor is not None:
            report.audit = self.auditor.summary()
        if self.slo is not None:
            report.slos = self.slo.status()
            report.alerts = list(self.slo.alerts)
        if self.anomalies is not None:
            report.anomalies = self.anomalies.summary()
        return report

    def __repr__(self) -> str:
        slow = (
            "auto"
            if self.slow_log is not None and self.slow_log.threshold_provider
            else f"{self.slow_log.threshold_seconds:g}s"
            if self.slow_log is not None
            else "off"
        )
        return (
            f"Observability(enabled={self.enabled},"
            f" tracing={self.tracer.enabled},"
            f" metrics={self.metrics.enabled}, slow_query={slow},"
            f" audit={'on' if self.auditor else 'off'},"
            f" slos={len(self.slo.slos) if self.slo else 0})"
        )


class _DisabledObservability(Observability):
    """The shared default: every layer is the no-op twin."""

    enabled = False

    def __init__(self):
        self.tracer = NOOP_TRACER
        self.metrics = NOOP_METRICS
        self.slow_log = None
        self.auditor = None
        self.slo = None
        self.anomalies = None

    def record_query(self, *args: Any, **kwargs: Any) -> None:
        pass

    def health(self) -> HealthReport:
        return HealthReport(enabled=False, ok=True)


DISABLED = _DisabledObservability()
