"""Service-level objectives: declarative targets, burn-rate alerts, health.

The observability layer built in the previous PRs can *see* latency and
work counters; this module decides whether what it sees is acceptable.
Three pieces:

* :class:`SLO` — one declarative objective over a quality signal
  (``recall@10 >= 0.9``, ``p-latency <= X``, ``coverage >= 0.95``).
  Each observation of the signal is classified good/bad against the
  threshold, and the objective allows a ``budget`` fraction of bad
  observations.
* :class:`SLOMonitor` — sliding-window evaluation with **multi-window
  burn-rate alerting** (the SRE-workbook construction, restated over
  observation counts because the simulated system has no wall clock to
  trust): the burn rate is ``bad_fraction / budget``; an alert fires
  when *both* a long and a short window burn faster than a policy's
  factor — the long window filters noise, the short window guarantees
  the alert is still firing *now*.  Alerts are surfaced three ways: a
  record on :attr:`SLOMonitor.alerts`, a ``vdbms_slo_breaches_total``
  counter, and an ``slo_alert`` trace span carrying a
  ``burn_rate_alert`` event.
* :class:`HealthReport` — the one-call operator view
  (``Database.health()``): latency quantiles from the
  ``vdbms_query_seconds`` sketches, audited-recall summary, per-SLO status, and active alerts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = [
    "DEFAULT_BURN_POLICIES",
    "BurnRatePolicy",
    "HealthReport",
    "SLO",
    "SLOAlert",
    "SLOMonitor",
    "SLOStatus",
]


@dataclass(frozen=True)
class SLO:
    """One objective: observations of ``signal`` should satisfy the
    threshold, with at most a ``budget`` fraction allowed to miss it.

    ``op`` gives the direction: ``">="`` for floor objectives (recall,
    coverage), ``"<="`` for ceilings (latency).
    """

    name: str
    signal: str  # "recall" | "latency" | "coverage" | custom
    threshold: float
    op: str = ">="
    budget: float = 0.05
    description: str = ""

    def __post_init__(self):
        if self.op not in (">=", "<="):
            raise ValueError(f"SLO op must be '>=' or '<=', got {self.op!r}")
        if not 0.0 < self.budget < 1.0:
            raise ValueError("SLO budget must be in (0, 1)")

    def is_good(self, value: float) -> bool:
        return value >= self.threshold if self.op == ">=" else value <= self.threshold

    def describe(self) -> str:
        return f"{self.signal} {self.op} {self.threshold:g} (budget {self.budget:g})"


@dataclass(frozen=True)
class BurnRatePolicy:
    """One (long window, short window, factor) alerting rule.

    Windows are observation counts.  The policy fires when the bad
    fraction in *both* windows exceeds ``factor * budget``; it needs at
    least ``short_window`` observations before it evaluates at all.
    """

    long_window: int = 120
    short_window: int = 15
    factor: float = 6.0
    severity: str = "fast_burn"

    def __post_init__(self):
        if self.short_window <= 0 or self.long_window < self.short_window:
            raise ValueError("need 0 < short_window <= long_window")
        if self.factor <= 0:
            raise ValueError("factor must be positive")


#: Fast burn (page-now shaped) + slow burn (ticket shaped), in
#: observation counts rather than hours.
DEFAULT_BURN_POLICIES = (
    BurnRatePolicy(long_window=120, short_window=15, factor=6.0,
                   severity="fast_burn"),
    BurnRatePolicy(long_window=480, short_window=60, factor=2.0,
                   severity="slow_burn"),
)


@dataclass
class SLOAlert:
    """One burn-rate alert firing (kept even after it clears)."""

    slo: str
    severity: str
    burn_rate_long: float
    burn_rate_short: float
    factor: float
    observation: int  # index of the observation that tripped it
    value: float      # the signal value at trip time
    active: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "slo": self.slo,
            "severity": self.severity,
            "burn_rate_long": round(self.burn_rate_long, 3),
            "burn_rate_short": round(self.burn_rate_short, 3),
            "factor": self.factor,
            "observation": self.observation,
            "value": self.value,
            "active": self.active,
        }

    def __repr__(self) -> str:
        state = "ACTIVE" if self.active else "cleared"
        return (
            f"SLOAlert({self.slo} {self.severity} {state}"
            f" burn={self.burn_rate_long:.1f}/{self.burn_rate_short:.1f}"
            f" x{self.factor:g} @obs{self.observation})"
        )


@dataclass
class SLOStatus:
    """Point-in-time view of one SLO for health reporting."""

    slo: SLO
    observations: int
    window_mean: float
    good_fraction: float
    burn_rates: dict[str, tuple[float, float]]  # severity -> (long, short)
    alerting: list[str]  # severities currently firing

    @property
    def ok(self) -> bool:
        return not self.alerting

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.slo.name,
            "objective": self.slo.describe(),
            "observations": self.observations,
            "window_mean": self.window_mean,
            "good_fraction": self.good_fraction,
            "burn_rates": {
                sev: {"long": round(lo, 3), "short": round(sh, 3)}
                for sev, (lo, sh) in self.burn_rates.items()
            },
            "alerting": list(self.alerting),
            "ok": self.ok,
        }


class _Window:
    """Sliding window of (value, good) pairs for one SLO."""

    def __init__(self, capacity: int):
        self.values: deque[float] = deque(maxlen=capacity)
        self.good: deque[bool] = deque(maxlen=capacity)
        self.observed = 0

    def append(self, value: float, good: bool) -> None:
        self.values.append(value)
        self.good.append(good)
        self.observed += 1

    def bad_fraction(self, last_n: int) -> float:
        if not self.good:
            return 0.0
        window = list(self.good)[-last_n:]
        return sum(1 for g in window if not g) / len(window)

    def mean(self) -> float:
        if not self.values:
            return float("nan")
        return sum(self.values) / len(self.values)

    def good_fraction(self) -> float:
        if not self.good:
            return 1.0
        return sum(1 for g in self.good if g) / len(self.good)


class SLOMonitor:
    """Evaluates a set of SLOs over sliding windows as signals arrive.

    ``observe(signal, value)`` is pushed from the recording paths
    (``record_query`` for latency/coverage, the recall auditor for
    recall).  The monitor is deliberately synchronous and in-process:
    the simulated system has no background threads, so alert evaluation
    rides on the observations themselves.
    """

    def __init__(
        self,
        slos: Sequence[SLO],
        metrics: Any = None,
        tracer: Any = None,
        policies: Sequence[BurnRatePolicy] = DEFAULT_BURN_POLICIES,
    ):
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.slos = tuple(slos)
        self.policies = tuple(policies)
        self.bind(metrics, tracer)
        self._by_signal: dict[str, list[SLO]] = {}
        for slo in self.slos:
            self._by_signal.setdefault(slo.signal, []).append(slo)
        capacity = max((p.long_window for p in self.policies), default=128)
        self._windows: dict[str, _Window] = {
            slo.name: _Window(capacity) for slo in self.slos
        }
        self._active: dict[tuple[str, str], SLOAlert] = {}
        self.alerts: list[SLOAlert] = []

    def bind(self, metrics: Any = None, tracer: Any = None) -> None:
        """Record breaches, good fractions and alert spans into these
        layers from here on (``None``: the no-op twin)."""
        from .metrics import NOOP_METRICS, SeriesCache
        from .tracing import NOOP_TRACER

        self.metrics = metrics if metrics is not None else NOOP_METRICS
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        gauge = self.metrics.gauge
        self._good_fraction = SeriesCache(lambda slo: gauge(
            "vdbms_slo_good_fraction",
            "Sliding-window fraction of observations meeting each SLO.",
        ).labels(slo=slo))

    # ------------------------------------------------------------ observing

    def observe(self, signal: str, value: float) -> None:
        """Feed one observation of a signal into every SLO watching it."""
        for slo in self._by_signal.get(signal, ()):
            window = self._windows[slo.name]
            window.append(float(value), slo.is_good(float(value)))
            self._evaluate(slo, window, float(value))

    def _evaluate(self, slo: SLO, window: _Window, value: float) -> None:
        for policy in self.policies:
            if window.observed < policy.short_window:
                continue
            burn_long = window.bad_fraction(policy.long_window) / slo.budget
            burn_short = window.bad_fraction(policy.short_window) / slo.budget
            key = (slo.name, policy.severity)
            firing = burn_long >= policy.factor and burn_short >= policy.factor
            active = self._active.get(key)
            if firing and active is None:
                alert = SLOAlert(
                    slo=slo.name,
                    severity=policy.severity,
                    burn_rate_long=burn_long,
                    burn_rate_short=burn_short,
                    factor=policy.factor,
                    observation=window.observed,
                    value=value,
                )
                self._active[key] = alert
                self.alerts.append(alert)
                self.metrics.counter(
                    "vdbms_slo_breaches_total",
                    "Burn-rate alerts fired per SLO and severity.",
                ).inc(slo=slo.name, severity=policy.severity)
                span = self.tracer.start_span(
                    "slo_alert", slo=slo.name, severity=policy.severity,
                    objective=slo.describe(),
                )
                span.event(
                    "burn_rate_alert",
                    slo=slo.name,
                    severity=policy.severity,
                    burn_rate_long=round(burn_long, 3),
                    burn_rate_short=round(burn_short, 3),
                    factor=policy.factor,
                    value=value,
                )
                span.finish()
            elif not firing and active is not None:
                # Cleared: the short window no longer burns.
                active.active = False
                del self._active[key]
                self.tracer.start_span(
                    "slo_alert", slo=slo.name, severity=policy.severity,
                    cleared=True,
                ).finish()
        self._good_fraction[slo.name,].set(window.good_fraction())

    # -------------------------------------------------------------- queries

    def active_alerts(self) -> list[SLOAlert]:
        return list(self._active.values())

    @property
    def ok(self) -> bool:
        return not self._active

    def status(self) -> list[SLOStatus]:
        out = []
        for slo in self.slos:
            window = self._windows[slo.name]
            burn = {
                p.severity: (
                    window.bad_fraction(p.long_window) / slo.budget,
                    window.bad_fraction(p.short_window) / slo.budget,
                )
                for p in self.policies
                if window.observed >= p.short_window
            }
            out.append(SLOStatus(
                slo=slo,
                observations=window.observed,
                window_mean=window.mean(),
                good_fraction=window.good_fraction(),
                burn_rates=burn,
                alerting=[
                    sev for (name, sev) in self._active if name == slo.name
                ],
            ))
        return out

    def __repr__(self) -> str:
        return (
            f"SLOMonitor({len(self.slos)} SLOs,"
            f" {len(self._active)} active alerts)"
        )


@dataclass
class HealthReport:
    """One-call operational summary (``Database.health()``).

    ``ok`` is False exactly when a burn-rate alert is currently active.
    ``latency`` maps query kind -> quantile snapshot from the
    ``vdbms_query_seconds`` sketches; ``audit`` summarizes the online recall auditor; ``slos``
    and ``alerts`` come from the :class:`SLOMonitor`; ``database`` is
    filled by the database facade (collection size, index staleness,
    plan-cache hit ratio); ``serving`` is attached by the serving front
    door (per-tenant dispositions and latency quantiles) when one wraps
    the database.
    """

    enabled: bool = True
    ok: bool = True
    latency: dict[str, dict[str, float]] = field(default_factory=dict)
    slow_queries: dict[str, Any] | None = None
    audit: dict[str, Any] | None = None
    slos: list[SLOStatus] = field(default_factory=list)
    alerts: list[SLOAlert] = field(default_factory=list)
    database: dict[str, Any] = field(default_factory=dict)
    serving: dict[str, Any] | None = None
    #: Attributed anomaly-detector firings (dicts from
    #: ``AnomalyMonitor.summary()``); ``None`` when no monitor runs.
    anomalies: list[dict[str, Any]] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "ok": self.ok,
            "latency": self.latency,
            "slow_queries": self.slow_queries,
            "audit": self.audit,
            "slos": [s.to_dict() for s in self.slos],
            "alerts": [a.to_dict() for a in self.alerts],
            "database": self.database,
            "serving": self.serving,
            "anomalies": self.anomalies,
        }

    def render(self) -> str:
        """Human-readable report (the worked example in the docs)."""
        lines = [f"health: {'OK' if self.ok else 'ALERTING'}"]
        if not self.enabled:
            lines.append("  observability disabled (no data)")
            return "\n".join(lines)
        if self.database:
            info = ", ".join(f"{k}={v}" for k, v in self.database.items())
            lines.append(f"  database: {info}")
        for kind, snap in sorted(self.latency.items()):
            qs = "  ".join(
                f"{name}={value * 1e3:.3f}ms"
                for name, value in snap.items()
                if name != "count"
            )
            lines.append(f"  latency[{kind}]: n={snap.get('count', 0):g}  {qs}")
        if self.audit is not None:
            lines.append(
                "  audit: {audited}/{considered} sampled,"
                " recall(window)={window_mean_recall:.3f},"
                " last={last_recall}".format(**{
                    "audited": self.audit.get("audited"),
                    "considered": self.audit.get("considered"),
                    "window_mean_recall":
                        self.audit.get("window_mean_recall", float("nan")),
                    "last_recall": self.audit.get("last_recall"),
                })
            )
        if self.slow_queries is not None:
            lines.append(
                "  slow queries: {recorded} over threshold"
                " ({threshold})".format(**self.slow_queries)
            )
        for status in self.slos:
            flag = "OK " if status.ok else "FIRING"
            lines.append(
                f"  slo[{status.slo.name}] {flag} {status.slo.describe()}"
                f"  mean={status.window_mean:.4g}"
                f"  good={status.good_fraction:.3f}"
                f"  n={status.observations}"
            )
        for alert in self.alerts:
            if alert.active:
                lines.append(f"  ALERT {alert!r}")
        if self.serving is not None:
            totals = self.serving.get("totals", {})
            info = ", ".join(f"{k}={v}" for k, v in totals.items())
            lines.append(f"  serving: {info}")
            for name in sorted(self.serving.get("tenants", {})):
                t = self.serving["tenants"][name]
                p99 = t.get("latency_seconds", {}).get("p99", float("nan"))
                lines.append(
                    f"  serving[{name}]: submitted={t.get('submitted')}"
                    f" ok={t.get('executed')} cached={t.get('cache_hits')}"
                    f" shed={t.get('shed')}"
                    f" rejected={sum(t.get('rejected', {}).values())}"
                    + (f" p99={p99 * 1e3:.3f}ms" if p99 == p99 else "")
                )
        if self.anomalies is not None:
            if not self.anomalies:
                lines.append("  anomalies: none")
            for anomaly in self.anomalies:
                refs = ",".join(str(t) for t in anomaly.get("trace_ids", []))
                lines.append(
                    "  ANOMALY {detector} phase={phase} tenant={tenant}"
                    " {detail} traces={refs}".format(
                        detector=anomaly.get("detector"),
                        phase=anomaly.get("phase"),
                        tenant=anomaly.get("tenant"),
                        detail=anomaly.get("detail", ""),
                        refs=refs or "-",
                    )
                )
        return "\n".join(lines)
