"""The serving front door: one event loop tying admission, coalescing,
caching, and per-tenant SLOs together in front of a database.

:class:`ServingFrontDoor` runs an open-loop discrete-event simulation on
the repo's simulated clock (the same device as the distributed layer):
arrivals and batch completions are the events, *service time is the
work counters the batch actually incurred, priced by the one fitted
work→time model* (:class:`~repro.core.cost.WorkCostModel`).  Nothing
here reads a wall clock or an unseeded RNG, so a run is reproducible
bit-for-bit — and still rewards real efficiency, because a coalesced
batch pays one execution's fixed price instead of N.

Lifecycle of one request::

    arrive ──cache hit──────────────────────────────▶ "cache_hit"
      │ miss
      ▼
    admission (token bucket, bounded queue) ──refuse─▶ "rejected"
      │ admit
      ▼
    priority queue ──deadline passed at dispatch────▶ "shed"
      │ dispatch (respecting per-tenant in-flight caps)
      ▼
    coalesced batch ──▶ executor / batched kernel ──▶ "ok"

Per-tenant accounting is first-class: latency and queue-wait quantile
sketches, cache hit ratios, rejection counts by reason, and optional
per-tenant p99 latency SLOs with the burn-rate alerting machinery from
the observability layer.  ``health()`` returns the database's
:class:`~repro.observability.slo.HealthReport` with a ``serving``
section attached, and ``report()`` produces the standalone
:class:`ServingReport` the E23 experiment renders.

**Journey tracing**: every arriving request opens a ``serve_request``
root span (a fresh trace), and the request's ``trace_id`` rides along
through admission, queueing, and coalescing.  A dispatched batch gets
one ``serve_batch`` span *linked* (not parented — the members keep
their own traces) to every member's root, the plan span nests under the
batch span, and completion closes each root with the member's
largest-remainder stats share, so ``attribution_residual() == 0`` holds
across the serving spans too.  Latency exemplars (histogram bucket →
trace id) and slow-log entries cross-reference the same ids.

**Telemetry** (``telemetry=True``): a
:class:`~repro.observability.timeseries.TimeSeriesStore` scrapes the
registry and the per-tenant sketches into fixed windows on the
simulated clock, a :class:`~repro.observability.journey.JourneyLog`
keeps phase-decomposed journeys, and an
:class:`~repro.observability.anomaly.AnomalyMonitor` evaluates each
closed window, attributing any firing to a phase and tenant by walking
exemplar journeys — surfaced via ``health()``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Sequence

from ..core.cost import WorkCostModel
from ..core.types import SearchStats
from ..observability.metrics import NOOP_METRICS, SeriesCache
from ..observability.sketch import QuantileSketch
from .admission import AdmissionController, AdmissionRejected
from .cache import QueryResultCache, result_cache_key
from .coalescer import execute_coalesced
from .quota import TenantSpec
from .request import ServedResponse, ServingRequest

__all__ = ["ServingFrontDoor", "ServingReport"]

#: Serving latency quantiles reported per tenant: the p999 tail is the
#: whole point of admission control.
_SERVING_QUANTILES = (0.5, 0.9, 0.99, 0.999)


def member_phase_seconds(
    model: WorkCostModel,
    stats: SearchStats,
    batch_size: int,
    strategy: str,
    plan_cached: bool = True,
) -> dict[str, float]:
    """One member's share of its batch's simulated time, by journey phase.

    ``planning`` is a plan-cache miss; ``coalesce_batch`` the execution's
    fixed price plus each member beyond the first; ``index_scan`` the
    distance, node and predicate work; ``page_io`` the page reads.
    Batch-level terms divide evenly across the ``batch_size`` members and
    work terms charge the member's own counters, so the members' phases
    sum to :func:`batch_service_seconds`.
    """
    n = max(1, batch_size)
    fixed = model.execution[strategy] + model.member * (n - 1)
    pages = model.page_read * stats.page_reads
    return {
        "planning": (0.0 if plan_cached else model.plan_miss) / n,
        "coalesce_batch": fixed / n,
        "index_scan": model.work_seconds(stats) - pages,
        "page_io": pages,
    }


def batch_service_seconds(
    model: WorkCostModel,
    stats_list: Sequence[SearchStats],
    strategy: str,
    plan_cached: bool = True,
) -> float:
    """Simulated execution time of one dispatched batch: one execution
    of ``strategy`` over the members' work shares (which sum to the
    batch totals)."""
    return (
        (0.0 if plan_cached else model.plan_miss)
        + model.execution[strategy]
        + model.member * (len(stats_list) - 1)
        + sum(model.work_seconds(s) for s in stats_list)
    )


class _TenantState:
    """Mutable per-tenant serving-side bookkeeping."""

    __slots__ = (
        "spec", "cache", "latency", "queue_wait", "submitted", "executed",
        "cache_hits", "rejected", "shed", "coalesced", "inflight",
    )

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.cache = QueryResultCache(spec.cache_capacity)
        self.latency = QuantileSketch()
        self.queue_wait = QuantileSketch()
        self.submitted = 0
        self.executed = 0
        self.cache_hits = 0
        self.rejected: dict[str, int] = {}
        self.shed = 0
        self.coalesced = 0  # executed as a member of a multi-request batch
        self.inflight = 0

    def summary(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "rejected": dict(self.rejected),
            "shed": self.shed,
            "coalesced": self.coalesced,
            "latency_seconds": self.latency.quantiles(_SERVING_QUANTILES),
            "queue_wait_p99_seconds": self.queue_wait.quantile(0.99),
            "cache": self.cache.info(),
            "priority": self.spec.priority,
            "qps": self.spec.qps,
        }


@dataclass
class _Inflight:
    """One dispatched batch awaiting its simulated completion."""

    members: list[ServingRequest]
    hits: list[list]
    stats: list
    cache_keys: list[Hashable | None]
    dispatched_seconds: float
    service_seconds: float
    strategy: str
    mode: str
    plan_cached: bool = True


@dataclass
class ServingReport:
    """End-of-run (or point-in-time) serving summary.

    ``tenants`` maps tenant name to its accounting summary;
    ``totals`` aggregates the run (request disposition, batch count and
    mean size, coalescing ratio); ``slos`` carries per-tenant SLO status
    dicts when latency objectives were configured.
    """

    tenants: dict[str, dict[str, Any]] = field(default_factory=dict)
    totals: dict[str, Any] = field(default_factory=dict)
    slos: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenants": self.tenants,
            "totals": self.totals,
            "slos": self.slos,
        }

    def render(self) -> str:
        lines = ["serving:"]
        info = ", ".join(f"{k}={v}" for k, v in self.totals.items())
        lines.append(f"  totals: {info}")
        for name in sorted(self.tenants):
            t = self.tenants[name]
            lat = t["latency_seconds"]
            quantiles = "  ".join(
                f"{q}={value * 1e3:.3f}ms"
                for q, value in lat.items()
                if value == value
            )
            lines.append(
                f"  tenant[{name}] prio={t['priority']}"
                f" submitted={t['submitted']} ok={t['executed']}"
                f" cached={t['cache_hits']} shed={t['shed']}"
                f" rejected={sum(t['rejected'].values())}"
            )
            if quantiles:
                lines.append(f"    latency: {quantiles}")
        for status in self.slos:
            flag = "OK " if status.get("ok") else "FIRING"
            lines.append(
                f"  slo[{status['name']}] {flag} {status['objective']}"
                f" good={status['good_fraction']:.3f}"
                f" n={status['observations']}"
            )
        return "\n".join(lines)


class ServingFrontDoor:
    """Multi-tenant admission + coalescing + caching in front of a database.

    Parameters
    ----------
    database:
        The :class:`~repro.core.database.VectorDatabase` to serve.
    tenants:
        Tenant contracts (:class:`~repro.serving.quota.TenantSpec`).
    workers:
        Concurrent batch executions the simulated backend sustains.
    coalesce_max:
        Upper bound on requests merged into one dispatched batch.
    cost_model:
        Work-counters -> simulated-seconds prices (the fitted
        :class:`~repro.core.cost.WorkCostModel` by default).
    start_seconds:
        Initial simulated clock value.
    telemetry:
        Enable windowed time-series scraping, the journey log, and the
        anomaly monitor (``health()`` then carries attributed
        anomalies).  Off by default: the plain front door stays as
        cheap as before.
    window_seconds / telemetry_retention:
        Fixed window width and ring retention for the time-series
        store (telemetry only).
    detectors:
        Override the anomaly detector set (telemetry only; defaults to
        :func:`~repro.observability.anomaly.default_detectors`).
    """

    def __init__(
        self,
        database,
        tenants: Iterable[TenantSpec],
        *,
        workers: int = 2,
        coalesce_max: int = 16,
        cost_model: WorkCostModel | None = None,
        start_seconds: float = 0.0,
        telemetry: bool = False,
        window_seconds: float = 1.0,
        telemetry_retention: int = 120,
        detectors: Sequence[Any] | None = None,
    ):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if coalesce_max <= 0:
            raise ValueError(f"coalesce_max must be positive, got {coalesce_max}")
        specs = list(tenants)
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.db = database
        self.workers = workers
        self.coalesce_max = coalesce_max
        self.cost_model = cost_model or WorkCostModel()
        self.now = start_seconds
        self.admission = AdmissionController(
            {s.name: s for s in specs}, now=start_seconds
        )
        self._states = {s.name: _TenantState(s) for s in specs}
        self._busy = 0
        self._completions: list[tuple[float, int, _Inflight]] = []
        self._tick = 0  # heap tie-breaker: dispatch order
        self.batches = 0
        self.batch_members = 0
        self.modes: dict[str, int] = {}
        self.responses: list[ServedResponse] = []
        # Per-tenant latency objectives ride the observability layer's
        # burn-rate machinery; slo is a heavyweight module, imported
        # lazily per the layering contract.
        slo_specs = [s for s in specs if s.slo_p99_seconds is not None]
        if slo_specs:
            from ..observability.slo import SLO, SLOMonitor

            self.slo: Any = SLOMonitor(
                [
                    SLO(
                        name=f"serving:{s.name}:latency",
                        signal=f"serving_latency:{s.name}",
                        threshold=s.slo_p99_seconds,
                        op="<=",
                        budget=s.slo_budget,
                        description=f"tenant {s.name} serving latency ceiling",
                    )
                    for s in slo_specs
                ]
            )
        else:
            self.slo = None
        #: Open ``serve_request`` root spans by trace id.  Spans are
        #: *handed off* here at arrival (they outlive the queueing gap)
        #: and finished by their terminal disposition.
        self._spans: dict[int, Any] = {}
        if telemetry:
            # Journey/time-series/anomaly are heavyweight observability
            # modules; per the layering contract they load lazily, only
            # when telemetry is actually requested.
            from ..observability.anomaly import AnomalyMonitor
            from ..observability.journey import Journey, JourneyLog
            from ..observability.timeseries import TimeSeriesStore

            self._journey_cls: Any = Journey
            self.telemetry: Any = TimeSeriesStore(
                NOOP_METRICS,
                width_seconds=window_seconds,
                retention=telemetry_retention,
                start_seconds=start_seconds,
            )
            for name, state in self._states.items():
                self.telemetry.track_sketch(f"latency:{name}", state.latency)
                self.telemetry.track_sketch(
                    f"queue_wait:{name}", state.queue_wait
                )
            self.journeys: Any = JourneyLog()
            self.monitor: Any = AnomalyMonitor(
                self.telemetry,
                journeys=self.journeys,
                detectors=detectors,
                exemplar_fn=self._latency_exemplar,
            )
        else:
            self._journey_cls = None
            self.telemetry = None
            self.journeys = None
            self.monitor = None
        self._bind(database.observability)

    def _bind(self, obs) -> None:
        """Follow the database's bundle: the monitors record into it and
        the door's series are bound on it (each on first use, then held),
        so a bundle set after the door was built is not left half-fed."""
        self.obs = obs
        metrics = obs.metrics
        if self.slo is not None:
            self.slo.bind(metrics, obs.tracer)
        if self.monitor is not None:
            self.telemetry.bind(metrics)
            self.monitor.bind(metrics)
            if obs.enabled:
                # DISABLED is a shared singleton; only a real bundle may
                # carry the monitor into Database.health().
                obs.anomalies = self.monitor
        counter = metrics.counter
        self._requests = SeriesCache(lambda tenant, status: counter(
            "vdbms_serving_requests_total", "Front-door request dispositions"
        ).labels(tenant=tenant, status=status))
        self._cache_hits = SeriesCache(lambda tenant: counter(
            "vdbms_serving_cache_hits_total",
            "Result-cache hits at the front door",
        ).labels(tenant=tenant))
        self._cache_misses = SeriesCache(lambda tenant: counter(
            "vdbms_serving_cache_misses_total",
            "Result-cache misses at the front door",
        ).labels(tenant=tenant))
        self._rejected = SeriesCache(lambda tenant, reason: counter(
            "vdbms_serving_rejected_total", "Requests refused at the front door"
        ).labels(tenant=tenant, reason=reason))
        self._shed = SeriesCache(lambda tenant: counter(
            "vdbms_serving_shed_total",
            "Admitted requests dropped at dispatch (deadline passed)",
        ).labels(tenant=tenant))
        self._batches = SeriesCache(lambda mode: counter(
            "vdbms_serving_batches_total", "Coalesced batches dispatched"
        ).labels(mode=mode))
        self._batch_size = SeriesCache(lambda: metrics.histogram(
            "vdbms_serving_batch_size", "Requests per dispatched batch"
        ).labels())
        # Written where a depth changes (admit, dispatch, shed), so what a
        # closing window samples is the depth as it stands.
        gauge = (metrics if self.monitor is not None else NOOP_METRICS).gauge
        self._queue_depth = SeriesCache(lambda tenant: gauge(
            "vdbms_serving_queue_depth", "Queued requests per tenant"
        ).labels(tenant=tenant))
        for tenant in self._states:
            self._sample_depth(tenant)

    # -------------------------------------------------------------- the loop

    def run(self, requests: Sequence[ServingRequest]) -> list[ServedResponse]:
        """Serve an open-loop request trace to completion.

        Events are processed in simulated-time order (completions before
        arrivals on ties, so a freed worker can pick up work arriving at
        the same instant).  Returns one :class:`ServedResponse` per
        request, in arrival order; the run's responses are also appended
        to :attr:`responses` for later reporting.
        """
        if self.db.observability is not self.obs:
            self._bind(self.db.observability)
        arrivals = sorted(requests, key=lambda r: r.arrival_seconds)
        first_new = len(self.responses)
        i = 0
        while True:
            self._dispatch()
            next_arrival = (
                arrivals[i].arrival_seconds if i < len(arrivals) else None
            )
            next_completion = (
                self._completions[0][0] if self._completions else None
            )
            if next_completion is not None and (
                next_arrival is None or next_completion <= next_arrival
            ):
                finish, _, entry = heapq.heappop(self._completions)
                self.now = finish
                self._complete(entry, finish)
            elif next_arrival is not None:
                self.now = max(self.now, next_arrival)
                self._arrive(arrivals[i])
                i += 1
            else:
                break
            if self.monitor is not None:
                # Close any elapsed windows, run the detectors over them.
                self.monitor.tick(self.now)
        return self.responses[first_new:]

    def _latency_exemplar(self, tenant: str | None) -> int | None:
        """p99 exemplar trace id from the serving latency histogram."""
        labels = {"kind": "serving"}
        if tenant is not None:
            labels["tenant"] = tenant
        witness = self.obs.metrics.histogram(
            "vdbms_query_seconds", "Per-query latency"
        ).exemplar(0.99, **labels)
        return None if witness is None else witness[0]

    def _finish_journey(
        self,
        request: ServingRequest,
        status: str,
        latency: float,
        phases: dict[str, float],
        batch_size: int = 0,
        stats: Any = None,
        **attributes: Any,
    ) -> None:
        """Close the request's root span and record its journey.

        For executed requests ``stats`` carries the member's
        largest-remainder share of the batch counters; it is attributed
        to an ``execute`` child *and* set as the root's delta, so the
        root's self-stats are exactly zero and the profile partition
        stays exact across the serving spans.
        """
        root = self._spans.pop(request.trace_id, None)
        if root is not None:
            if stats is not None:
                execute = root.child("execute", batch=batch_size)
                execute.set_stats_delta(stats)
                execute.finish()
                root.set_stats_delta(stats)
            root.set(status=status, latency_seconds=latency, **attributes)
            root.finish()
        if self.journeys is not None:
            self.journeys.record(self._journey_cls(
                trace_id=request.trace_id or 0,
                tenant=request.tenant,
                status=status,
                arrival_seconds=request.arrival_seconds,
                completed_seconds=self.now,
                latency_seconds=latency,
                phases=phases,
                batch_size=batch_size,
            ))

    # --------------------------------------------------------------- arrival

    def _arrive(self, request: ServingRequest) -> None:
        state = self._states.get(request.tenant)
        # Every request gets a journey root span (a fresh trace); its id
        # is the cross-reference exemplars and the slow log resolve.
        root = self.obs.tracer.start_span(
            "serve_request", tenant=request.tenant,
            arrival_seconds=request.arrival_seconds,
        )
        request.trace_id = root.trace_id
        self._spans[root.trace_id] = root
        if state is not None:
            state.submitted += 1
            if request.deadline_seconds is None:
                request.deadline_seconds = state.spec.deadline_seconds
            # Exact-match cache first: a hot repeat costs neither quota
            # tokens nor a queue slot — the cache absorbs hot-key load
            # before it ever contends with cold traffic.
            key = result_cache_key(
                self.db.collection.generation, request.vector, request.k,
                request.predicate, request.params,
            )
            cached = state.cache.get(key)
            lookup = root.child("cache_lookup", hit=cached is not None)
            lookup.finish()
            if cached is not None:
                self._cache_hits[request.tenant,].inc()
                state.cache_hits += 1
                latency = self.cost_model.cache_hit
                self._finish_journey(
                    request, "cache_hit", latency,
                    phases={"cache_lookup": latency},
                )
                self._emit_response(ServedResponse(
                    request, "cache_hit", hits=cached,
                    queue_wait_seconds=0.0, service_seconds=latency,
                    latency_seconds=latency,
                ))
                self._observe_latency(state, request.tenant, latency, 0.0)
                return
            self._cache_misses[request.tenant,].inc()
        try:
            self.admission.admit(request, self.now)
            self._sample_depth(request.tenant)
        except AdmissionRejected as exc:
            if state is not None:
                state.rejected[exc.reason] = state.rejected.get(exc.reason, 0) + 1
            self._rejected[request.tenant, exc.reason].inc()
            quota = root.child(
                "admission", outcome="rejected", reason=exc.reason,
                retry_after_seconds=exc.retry_after_seconds,
            )
            quota.finish()
            self._finish_journey(
                request, "rejected", 0.0, phases={}, reason=exc.reason,
            )
            self._emit_response(ServedResponse(
                request, "rejected", reason=exc.reason,
                retry_after_seconds=exc.retry_after_seconds,
            ))

    # -------------------------------------------------------------- dispatch

    def _capacity(self, tenant: str) -> int:
        state = self._states[tenant]
        return state.spec.max_inflight - state.inflight

    def _dispatch(self) -> None:
        while self._busy < self.workers and self.admission.pending():
            batch, shed = self.admission.next_batch(
                self.now, self.coalesce_max, self._capacity
            )
            for request in shed:
                self._record_shed(request)
            if not batch:
                if not shed:
                    break  # everything queued is at its in-flight cap
                continue
            self._sample_depth(batch[0].tenant)
            self._execute(batch)

    def _record_shed(self, request: ServingRequest) -> None:
        state = self._states[request.tenant]
        state.shed += 1
        waited = self.now - request.arrival_seconds
        self._shed[request.tenant,].inc()
        self._sample_depth(request.tenant)
        root = self._spans.get(request.trace_id)
        if root is not None:
            drop = root.child(
                "shed", reason="deadline", waited_seconds=waited,
            )
            drop.finish()
        self._finish_journey(
            request, "shed", waited,
            phases={"admission_wait": waited}, reason="deadline",
        )
        self._emit_response(ServedResponse(
            request, "shed", reason="deadline",
            queue_wait_seconds=waited,
        ))

    def _execute(self, batch: list[ServingRequest]) -> None:
        lead = batch[0]
        generation = self.db.collection.generation
        plan_cache = self.db.plan_cache
        hits_before = plan_cache.hits if plan_cache is not None else -1
        with self.obs.tracer.start_span(
            "serve_batch", tenant=lead.tenant, members=len(batch),
            simulated_seconds=self.now,
        ) as span:
            # Coalescer fan-in: the batch span and each member's root
            # are in different traces, so they reference each other via
            # span *links*, not parent edges.
            for request in batch:
                root = self._spans.get(request.trace_id)
                if root is not None:
                    waited = root.child(
                        "queue_wait",
                        seconds=self.now - request.arrival_seconds,
                    )
                    waited.finish()
                    span.link(root, role="member")
                    root.link(span, role="batch")
            hits, stats, mode, strategy = execute_coalesced(
                self.db, batch, span=span
            )
            plan_cached = (
                plan_cache is not None and plan_cache.hits > hits_before
            )
            service = batch_service_seconds(
                self.cost_model, stats, strategy, plan_cached
            )
            span.set(
                mode=mode, strategy=strategy, service_seconds=service,
                plan_cached=plan_cached,
            )
        keys = [
            result_cache_key(
                generation, r.vector, r.k, r.predicate, r.params
            )
            for r in batch
        ]
        self._states[lead.tenant].inflight += len(batch)
        self._busy += 1
        self.batches += 1
        self.batch_members += len(batch)
        self.modes[mode] = self.modes.get(mode, 0) + 1
        self._batches[mode,].inc()
        self._batch_size[()].observe(len(batch))
        entry = _Inflight(
            members=batch, hits=hits, stats=stats, cache_keys=keys,
            dispatched_seconds=self.now, service_seconds=service,
            strategy=strategy, mode=mode, plan_cached=plan_cached,
        )
        heapq.heappush(
            self._completions, (self.now + service, self._tick, entry)
        )
        self._tick += 1

    # ------------------------------------------------------------ completion

    def _complete(self, entry: _Inflight, finish: float) -> None:
        n = len(entry.members)
        state = self._states[entry.members[0].tenant]
        state.inflight -= n
        self._busy -= 1
        for request, hits, stats, key in zip(
            entry.members, entry.hits, entry.stats, entry.cache_keys
        ):
            queue_wait = entry.dispatched_seconds - request.arrival_seconds
            latency = finish - request.arrival_seconds
            state.executed += 1
            if n > 1:
                state.coalesced += 1
            state.cache.put(key, hits)
            self.obs.record_query(
                "serving", entry.strategy, stats,
                elapsed_seconds=latency, simulated=True,
                labels={"tenant": request.tenant},
                trace_id=request.trace_id,
            )
            self._observe_latency(state, request.tenant, latency, queue_wait)
            phases = {"admission_wait": queue_wait}
            phases.update(member_phase_seconds(
                self.cost_model, stats, n, entry.strategy, entry.plan_cached
            ))
            if n > 1:
                # A member rides the whole batch, not just its own work
                # share; the excess residency is the price of being
                # coalesced, charged to coalesce_batch so a journey's
                # phases always partition its latency exactly.
                share = sum(phases.values()) - queue_wait
                phases["coalesce_batch"] = (
                    phases.get("coalesce_batch", 0.0)
                    + entry.service_seconds
                    - share
                )
            self._finish_journey(
                request, "ok", latency, phases,
                batch_size=n, stats=stats, mode=entry.mode,
            )
            self._emit_response(ServedResponse(
                request, "ok", hits=hits, stats=stats,
                queue_wait_seconds=queue_wait,
                service_seconds=entry.service_seconds,
                latency_seconds=latency, batch_size=n,
            ))

    def _observe_latency(
        self, state: _TenantState, tenant: str, latency: float, queue_wait: float
    ) -> None:
        state.latency.observe(latency)
        state.queue_wait.observe(queue_wait)
        if self.slo is not None:
            self.slo.observe(f"serving_latency:{tenant}", latency)

    def _emit_response(self, response: ServedResponse) -> None:
        self._requests[response.request.tenant, response.status].inc()
        self.responses.append(response)

    def _sample_depth(self, tenant: str) -> None:
        self._queue_depth[tenant,].set(self.admission.queue_depth(tenant))

    # -------------------------------------------------------------- reporting

    def report(self) -> ServingReport:
        """Point-in-time serving summary (rendered by E23)."""
        tenants = {
            name: state.summary() for name, state in self._states.items()
        }
        executed = sum(t["executed"] for t in tenants.values())
        totals: dict[str, Any] = {
            "requests": len(self.responses),
            "executed": executed,
            "cache_hits": sum(t["cache_hits"] for t in tenants.values()),
            "rejected": sum(
                sum(t["rejected"].values()) for t in tenants.values()
            ),
            "shed": sum(t["shed"] for t in tenants.values()),
            "batches": self.batches,
            "mean_batch_size": (
                self.batch_members / self.batches if self.batches else math.nan
            ),
            "coalesced_fraction": (
                sum(t["coalesced"] for t in tenants.values()) / executed
                if executed
                else 0.0
            ),
            "modes": dict(self.modes),
            "simulated_seconds": self.now,
        }
        slos = (
            [status.to_dict() for status in self.slo.status()]
            if self.slo is not None
            else []
        )
        return ServingReport(tenants=tenants, totals=totals, slos=slos)

    def health(self):
        """The database's health report with a ``serving`` section."""
        report = self.db.health()
        report.serving = self.report().to_dict()
        return report

    def __repr__(self) -> str:
        return (
            f"ServingFrontDoor({len(self._states)} tenants,"
            f" workers={self.workers}, coalesce_max={self.coalesce_max},"
            f" t={self.now:.4g}s, {len(self.responses)} responses)"
        )
