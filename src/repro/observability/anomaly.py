"""Baseline-relative anomaly detection with journey attribution.

The VDBMS failure mode this layer targets is the *creeping* degradation:
nothing crashes, no SLO burns yet, but a mid-run change (a disabled plan
cache, a doctored index parameter, a cold result cache) bends some
series away from its own recent past.  Detection is therefore
**baseline-relative**: each detector compares the newest closed
:class:`~repro.observability.timeseries.TimeWindow` against a merged
baseline of recent *healthy* windows (windows during which nothing
fired), and only after a warmup of healthy windows exists — so a steady
workload can never alarm on its own prefix.

Detection alone names a symptom; **attribution** names a cause.  When a
detector fires, the monitor walks the window's recorded
:class:`~repro.observability.journey.Journey` records (reachable from
latency exemplars) and names:

* the **phase** — the journey phase whose per-request mean grew most
  against the baseline (detectors with an intrinsic phase, e.g.
  plan-cache collapse → ``planning``, pin it directly), and
* the **tenant** — the tenant whose journeys dominate that phase's time
  in the offending window,

plus exemplar trace ids, so the report's one-liner is one hop from full
journeys.  Results surface through ``Database.health()`` and the
``python -m repro.observability report`` dashboard.

Determinism: detectors are pure functions of windows and journeys; the
monitor holds no RNG and never reads a clock.  Identical runs produce
identical anomaly lists.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .journey import JourneyLog
from .metrics import NOOP_METRICS
from .timeseries import TimeSeriesStore, TimeWindow

__all__ = [
    "Anomaly",
    "AnomalyMonitor",
    "CacheHitRatioDetector",
    "Detector",
    "P99InflationDetector",
    "PlanCacheCollapseDetector",
    "QueueWaitGrowthDetector",
    "RecallDriftDetector",
    "default_detectors",
]


@dataclass
class Anomaly:
    """One detector firing, attributed to a phase and tenant."""

    detector: str
    window_start: float
    window_end: float
    value: float
    baseline: float
    detail: str
    phase: str | None = None
    tenant: str | None = None
    trace_ids: tuple[int, ...] = ()
    phase_growth: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "detector": self.detector,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "value": self.value,
            "baseline": self.baseline,
            "detail": self.detail,
            "phase": self.phase,
            "tenant": self.tenant,
            "trace_ids": list(self.trace_ids),
            "phase_growth": dict(self.phase_growth),
        }

    def render(self) -> str:
        who = self.tenant if self.tenant is not None else "?"
        where = self.phase if self.phase is not None else "?"
        refs = ",".join(str(t) for t in self.trace_ids) or "-"
        return (
            f"[{self.window_start:g}s..{self.window_end:g}s] {self.detector}:"
            f" {self.detail} -> phase={where} tenant={who} traces={refs}"
        )

    def __repr__(self) -> str:
        return f"Anomaly({self.render()})"


class Detector:
    """Base detector: compare the newest window against a healthy baseline.

    ``check`` returns zero or more raw firings as dicts with keys
    ``value``, ``baseline``, ``detail`` and optionally ``tenant``; the
    monitor turns each into an attributed :class:`Anomaly`.  A subclass
    may pin ``fixed_phase`` when the symptom implies the phase (e.g. a
    plan-cache collapse *is* a planning problem); otherwise the phase is
    inferred from journey growth.
    """

    name = "detector"
    fixed_phase: str | None = None

    def check(
        self, window: TimeWindow, baseline: TimeWindow
    ) -> list[dict[str, Any]]:
        raise NotImplementedError


def _tenant_quantiles(
    window: TimeWindow, baseline: TimeWindow, prefix: str, q: float, min_count: int
):
    """``(tenant, window q-quantile, baseline q-quantile)`` for every
    tracked sketch named ``prefix + tenant`` that holds at least
    ``min_count`` observations on both sides."""
    for name in sorted(window.sketches):
        if not name.startswith(prefix):
            continue
        current = window.sketches[name]
        base = baseline.sketches.get(name)
        if base is None or min(base.count, current.count) < min_count:
            continue
        yield name[len(prefix):], current.quantile(q), base.quantile(q)


class P99InflationDetector(Detector):
    """Tail-latency inflation per tenant, from windowed latency sketches.

    Fires when a tenant's window p-``q`` is at least ``factor`` times the
    baseline's *and* grew by at least ``min_inflation_seconds`` (the
    absolute floor keeps microsecond-scale jitter from alarming).
    """

    name = "p99_inflation"

    def __init__(
        self,
        prefix: str = "latency:",
        q: float = 0.99,
        factor: float = 2.0,
        min_inflation_seconds: float = 1e-3,
        min_count: int = 8,
    ):
        self.prefix = prefix
        self.q = q
        self.factor = factor
        self.min_inflation_seconds = min_inflation_seconds
        self.min_count = min_count

    def check(self, window, baseline):
        firings = []
        for tenant, cur_q, base_q in _tenant_quantiles(
            window, baseline, self.prefix, self.q, self.min_count
        ):
            if (
                cur_q >= self.factor * base_q
                and cur_q - base_q >= self.min_inflation_seconds
            ):
                firings.append(
                    {
                        "tenant": tenant,
                        "value": cur_q,
                        "baseline": base_q,
                        "detail": (
                            f"p{self.q * 100:g} {cur_q * 1e3:.2f}ms vs"
                            f" baseline {base_q * 1e3:.2f}ms"
                        ),
                    }
                )
        return firings


class QueueWaitGrowthDetector(Detector):
    """Queue-wait growth per tenant (admission backlog building up)."""

    name = "queue_wait_growth"
    fixed_phase = "admission_wait"

    def __init__(
        self,
        prefix: str = "queue_wait:",
        q: float = 0.9,
        factor: float = 3.0,
        min_seconds: float = 5e-3,
        min_count: int = 8,
    ):
        self.prefix = prefix
        self.q = q
        self.factor = factor
        self.min_seconds = min_seconds
        self.min_count = min_count

    def check(self, window, baseline):
        firings = []
        for tenant, cur_q, base_q in _tenant_quantiles(
            window, baseline, self.prefix, self.q, self.min_count
        ):
            if cur_q >= self.min_seconds and cur_q >= self.factor * max(
                base_q, 1e-9
            ):
                firings.append(
                    {
                        "tenant": tenant,
                        "value": cur_q,
                        "baseline": base_q,
                        "detail": (
                            f"queue p{self.q * 100:g} {cur_q * 1e3:.2f}ms vs"
                            f" baseline {base_q * 1e3:.2f}ms"
                        ),
                    }
                )
        return firings


class RecallDriftDetector(Detector):
    """Windowed mean audited recall dropping below its own baseline.

    Consumes the ``vdbms_audit_recall`` histogram series the
    :class:`~repro.observability.quality.RecallAuditor` maintains: the
    window's mean recall is ``Δsum / Δcount`` — no new instrumentation,
    just the longitudinal view of it.
    """

    name = "recall_drift"
    fixed_phase = "index_scan"

    def __init__(self, drop: float = 0.05, min_audits: int = 5):
        self.drop = drop
        self.min_audits = min_audits

    def check(self, window, baseline):
        base_n = baseline.counter_total("vdbms_audit_recall_count")
        cur_n = window.counter_total("vdbms_audit_recall_count")
        if base_n < self.min_audits or cur_n < self.min_audits:
            return []
        base_recall = baseline.counter_total("vdbms_audit_recall_sum") / base_n
        cur_recall = window.counter_total("vdbms_audit_recall_sum") / cur_n
        if cur_recall <= base_recall - self.drop:
            return [
                {
                    "value": cur_recall,
                    "baseline": base_recall,
                    "detail": (
                        f"audited recall {cur_recall:.3f} vs baseline"
                        f" {base_recall:.3f} ({int(cur_n)} audits)"
                    ),
                }
            ]
        return []


class PlanCacheCollapseDetector(Detector):
    """Plan-cache hit ratio collapsing (including the cache disappearing).

    A disabled plan cache emits *no* probe counters at all, so the ratio
    cannot be read off hits/misses alone; the tell is planning activity
    (``vdbms_plans_selected_total``) continuing while probes stop.  That
    case is treated as ratio 0.0 — the cache answered nothing.
    """

    name = "plan_cache_collapse"
    fixed_phase = "planning"

    def __init__(self, drop: float = 0.4, min_probes: int = 5):
        self.drop = drop
        self.min_probes = min_probes

    def check(self, window, baseline):
        base_hits = baseline.counter_total("vdbms_plan_cache_hits_total")
        base_misses = baseline.counter_total("vdbms_plan_cache_misses_total")
        base_probes = base_hits + base_misses
        if base_probes < self.min_probes:
            return []
        base_ratio = base_hits / base_probes
        hits = window.counter_total("vdbms_plan_cache_hits_total")
        misses = window.counter_total("vdbms_plan_cache_misses_total")
        probes = hits + misses
        selected = window.counter_total("vdbms_plans_selected_total")
        if probes > 0:
            ratio = hits / probes
            how = f"hit ratio {ratio:.2f} over {int(probes)} probes"
        elif selected > 0:
            ratio = 0.0
            how = (
                f"{int(selected)} plans selected with zero cache probes"
                " (cache disabled or bypassed)"
            )
        else:
            return []
        if base_ratio - ratio >= self.drop:
            return [
                {
                    "value": ratio,
                    "baseline": base_ratio,
                    "detail": f"{how}; baseline ratio {base_ratio:.2f}",
                }
            ]
        return []


class CacheHitRatioDetector(Detector):
    """Per-tenant result-cache hit ratio collapsing against baseline."""

    name = "result_cache_collapse"
    fixed_phase = "cache_lookup"

    def __init__(self, drop: float = 0.4, min_probes: int = 10):
        self.drop = drop
        self.min_probes = min_probes

    def check(self, window, baseline):
        hits_name = "vdbms_serving_cache_hits_total"
        misses_name = "vdbms_serving_cache_misses_total"
        firings = []
        tenants = set(baseline.label_values(hits_name, "tenant")) | set(
            baseline.label_values(misses_name, "tenant")
        )
        for tenant in sorted(tenants):
            base_hits = baseline.counter_total(hits_name, tenant=tenant)
            base_probes = base_hits + baseline.counter_total(
                misses_name, tenant=tenant
            )
            if base_probes < self.min_probes:
                continue
            base_ratio = base_hits / base_probes
            hits = window.counter_total(hits_name, tenant=tenant)
            probes = hits + window.counter_total(misses_name, tenant=tenant)
            if probes < self.min_probes:
                continue
            ratio = hits / probes
            if base_ratio - ratio >= self.drop:
                firings.append(
                    {
                        "tenant": tenant,
                        "value": ratio,
                        "baseline": base_ratio,
                        "detail": (
                            f"cache hit ratio {ratio:.2f} vs baseline"
                            f" {base_ratio:.2f} ({int(probes)} probes)"
                        ),
                    }
                )
        return firings


def default_detectors() -> list[Detector]:
    """The standard serving-tier detector set."""
    return [
        P99InflationDetector(),
        QueueWaitGrowthDetector(),
        RecallDriftDetector(),
        PlanCacheCollapseDetector(),
        CacheHitRatioDetector(),
    ]


class AnomalyMonitor:
    """Feeds closed windows to detectors; attributes firings via journeys.

    Parameters
    ----------
    store:
        The :class:`TimeSeriesStore` producing windows.
    journeys:
        The :class:`JourneyLog` attribution walks (optional — without it
        anomalies carry symptom but no phase/tenant inference beyond
        what the detector itself pins).
    detectors:
        Detector instances; defaults to :func:`default_detectors`.
    baseline_windows:
        How many recent *healthy* windows form the merged baseline.
    warmup_windows:
        Healthy windows required before any detector may fire — the
        zero-false-positive guard for a run's opening prefix.
    metrics:
        Registry for the ``vdbms_anomalies_total`` counter (defaults to
        the no-op registry, so callers never branch).
    exemplar_fn:
        Optional ``(tenant) -> trace_id | None`` hook the front door
        wires to its latency histogram's p99 exemplar.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        journeys: JourneyLog | None = None,
        detectors: Sequence[Detector] | None = None,
        baseline_windows: int = 8,
        warmup_windows: int = 3,
        metrics: Any = NOOP_METRICS,
        exemplar_fn: Callable[[str | None], int | None] | None = None,
    ):
        if warmup_windows < 1:
            raise ValueError("warmup_windows must be >= 1")
        self.store = store
        self.journeys = journeys
        self.detectors = (
            list(detectors) if detectors is not None else default_detectors()
        )
        self.baseline_windows = baseline_windows
        self.warmup_windows = warmup_windows
        self.bind(metrics)
        self.exemplar_fn = exemplar_fn
        self.anomalies: list[Anomaly] = []
        self.windows_seen = 0
        self._healthy: deque[TimeWindow] = deque(maxlen=baseline_windows)

    def bind(self, metrics: Any) -> None:
        """Count firings in ``metrics`` from here on."""
        self.anomaly_counter = metrics.counter(
            "vdbms_anomalies_total", "Anomaly detector firings by detector."
        )

    # ------------------------------------------------------------- processing

    def tick(self, now: float) -> list[Anomaly]:
        """Advance the store to ``now`` and evaluate each closed window."""
        fired: list[Anomaly] = []
        for window in self.store.advance(now):
            fired.extend(self.observe_window(window))
        return fired

    def observe_window(self, window: TimeWindow) -> list[Anomaly]:
        """Evaluate one closed window; returns the anomalies it raised."""
        self.windows_seen += 1
        fired: list[Anomaly] = []
        if len(self._healthy) >= self.warmup_windows:
            baseline = TimeWindow.merge(list(self._healthy))
            for detector in self.detectors:
                for raw in detector.check(window, baseline):
                    fired.append(
                        self._attribute(detector, window, baseline, raw)
                    )
        if fired:
            self.anomalies.extend(fired)
            for anomaly in fired:
                self.anomaly_counter.inc(detector=anomaly.detector)
        else:
            # Only quiet windows join the baseline: a degraded window must
            # not normalize the degradation it carries.
            self._healthy.append(window)
        return fired

    # ------------------------------------------------------------ attribution

    def _window_journeys(self, window: TimeWindow) -> list:
        if self.journeys is None:
            return []
        return self.journeys.between(window.start, window.end)

    def _attribute(
        self,
        detector: Detector,
        window: TimeWindow,
        baseline: TimeWindow,
        raw: dict[str, Any],
    ) -> Anomaly:
        tenant = raw.get("tenant")
        current = self._window_journeys(window)
        past = self._window_journeys(baseline)
        scoped_current = [
            j for j in current if tenant is None or j.tenant == tenant
        ]
        scoped_past = [j for j in past if tenant is None or j.tenant == tenant]
        current_means = JourneyLog.phase_means(scoped_current)
        past_means = JourneyLog.phase_means(scoped_past)
        growth = {
            phase: current_means.get(phase, 0.0) - past_means.get(phase, 0.0)
            for phase in set(current_means) | set(past_means)
        }
        phase = detector.fixed_phase
        if phase is None and growth:
            phase = max(growth, key=lambda p: (growth[p], p))
        if tenant is None and phase is not None and current:
            by_tenant: dict[str, float] = defaultdict(float)
            for journey in current:
                by_tenant[journey.tenant] += journey.phases.get(phase, 0.0)
            if any(by_tenant.values()):
                tenant = max(by_tenant, key=lambda t: (by_tenant[t], t))
        trace_ids: list[int] = []
        if self.exemplar_fn is not None:
            witness = self.exemplar_fn(tenant)
            if witness is not None:
                trace_ids.append(int(witness))
        pool = [j for j in current if tenant is None or j.tenant == tenant]
        for journey in JourneyLog.slowest(pool, 3):
            if journey.trace_id not in trace_ids:
                trace_ids.append(journey.trace_id)
        return Anomaly(
            detector=detector.name,
            window_start=window.start,
            window_end=window.end,
            value=raw["value"],
            baseline=raw["baseline"],
            detail=raw["detail"],
            phase=phase,
            tenant=tenant,
            trace_ids=tuple(trace_ids[:3]),
            phase_growth={p: g for p, g in sorted(growth.items()) if g != 0.0},
        )

    # ----------------------------------------------------------------- views

    def summary(self) -> list[dict[str, Any]]:
        """JSON-able anomaly list for :class:`HealthReport` embedding."""
        return [anomaly.to_dict() for anomaly in self.anomalies]

    def render(self) -> str:
        if not self.anomalies:
            return "(no anomalies)"
        return "\n".join(anomaly.render() for anomaly in self.anomalies)

    def __len__(self) -> int:
        return len(self.anomalies)
