"""Observability: tracing, metrics, and query profiling (whole query path).

The measurement substrate the survey's empirical questions need:

* :mod:`~repro.observability.tracing` — explicit-propagation spans
  with per-span :class:`~repro.core.types.SearchStats` attribution;
* :mod:`~repro.observability.metrics` — named counters / gauges /
  histograms (each a labelled family of the one sketch) with a
  Prometheus-style text dump;
* :mod:`~repro.observability.profiler` — EXPLAIN ANALYZE plan trees
  whose per-operator self-stats partition the query's cost exactly;
* :mod:`~repro.observability.export` — JSONL trace export and a
  configurable slow-query log;
* :mod:`~repro.observability.sketch` — the one distribution type: a
  log-bucketed counts sketch (relative error 1 % at every quantile,
  merge and window delta exact);
* :mod:`~repro.observability.quality` — the online recall auditor
  (seeded sampling of live queries re-executed exactly, charged to
  dedicated ``audit_*`` metrics);
* :mod:`~repro.observability.slo` — declarative SLOs with multi-window
  burn-rate alerting and the ``Database.health()`` report;
* :mod:`~repro.observability.journey` — per-request journey records
  (phase-decomposed latency keyed by trace id, reachable from latency
  exemplars);
* :mod:`~repro.observability.timeseries` — fixed-width windowed
  scraping of the registry and latency sketches (ring retention,
  mergeable windows);
* :mod:`~repro.observability.anomaly` — baseline-relative detectors
  (p99 inflation, recall drift, queue-wait growth, cache collapse)
  with journey-walking phase/tenant attribution;
* :mod:`~repro.observability.instrument` — the
  :class:`Observability` bundle components carry, and the
  :data:`DISABLED` no-op default (negligible overhead when off).

``python -m repro.observability report`` renders a health-report JSON
artifact (e.g. the E24 bench output) as the operator dashboard.

Enable on any database::

    from repro import VectorDatabase
    from repro.observability import Observability

    db = VectorDatabase(dim=32, observability=Observability())
    ...
    print(db.observability.metrics.render_prometheus())
    profile = db.explain_analyze(vector=q, k=10, predicate=Field("c") == 1)
    print(profile.render())
"""

from .anomaly import (
    Anomaly,
    AnomalyMonitor,
    CacheHitRatioDetector,
    Detector,
    P99InflationDetector,
    PlanCacheCollapseDetector,
    QueueWaitGrowthDetector,
    RecallDriftDetector,
    default_detectors,
)
from .export import (
    SlowQuery,
    SlowQueryLog,
    spans_to_jsonl,
    write_metrics_text,
    write_trace_jsonl,
)
from .instrument import DISABLED, Observability
from .journey import PHASES, Journey, JourneyLog
from .metrics import (
    NOOP_METRIC,
    NOOP_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profiler import ProfileNode, QueryProfile, build_profile_tree
from .quality import AuditRecord, RecallAuditor
from .sketch import ALPHA, DEFAULT_QUANTILES, QuantileSketch
from .slo import (
    DEFAULT_BURN_POLICIES,
    SLO,
    BurnRatePolicy,
    HealthReport,
    SLOAlert,
    SLOMonitor,
    SLOStatus,
)
from .timeseries import TimeSeriesStore, TimeWindow
from .tracing import (
    NOOP_SPAN,
    NOOP_TRACER,
    STAT_FIELDS,
    Span,
    SpanEvent,
    SpanLink,
    Tracer,
    validate_span_links,
    validate_span_tree,
)

__all__ = [
    "ALPHA",
    "Anomaly",
    "AnomalyMonitor",
    "AuditRecord",
    "BurnRatePolicy",
    "CacheHitRatioDetector",
    "Counter",
    "DEFAULT_BURN_POLICIES",
    "DEFAULT_QUANTILES",
    "DISABLED",
    "Detector",
    "Gauge",
    "HealthReport",
    "Histogram",
    "Journey",
    "JourneyLog",
    "MetricsRegistry",
    "NOOP_METRIC",
    "NOOP_METRICS",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "Observability",
    "P99InflationDetector",
    "PHASES",
    "PlanCacheCollapseDetector",
    "ProfileNode",
    "QuantileSketch",
    "QueryProfile",
    "QueueWaitGrowthDetector",
    "RecallAuditor",
    "RecallDriftDetector",
    "SLO",
    "SLOAlert",
    "SLOMonitor",
    "SLOStatus",
    "STAT_FIELDS",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "SpanEvent",
    "SpanLink",
    "TimeSeriesStore",
    "TimeWindow",
    "Tracer",
    "build_profile_tree",
    "default_detectors",
    "spans_to_jsonl",
    "validate_span_links",
    "validate_span_tree",
    "write_metrics_text",
    "write_trace_jsonl",
]
