"""E24 (journey telemetry): detect and attribute a mid-run degradation.

The claim this experiment demonstrates numerically: the serving tier's
time-series + journey-tracing layer **notices a creeping degradation
within a bounded number of windows and names the right phase and
tenant** — with zero false positives on the healthy prefix of the very
same run.

One front door, one database, two tenants, sixteen simulated seconds:

* **prod** — always-fresh interactive queries (no result-cache reuse),
  the tenant actually exercising the planner and the IVF index.
* **replay** — a tiny fixed query pool replayed verbatim; after the
  first second it is served entirely from its result cache and is
  therefore *untouched* by the fault below.

At t=8s (after 8 healthy one-second windows — comfortably past the
anomaly monitor's warmup) the run injects a compound fault no single
counter names on its own:

* the **plan cache is disabled** (``db.plan_cache = None``) — every
  batch re-plans, adding the priced plan-cache miss (``plan_miss``); and
* the **IVF index is doctored** (``nprobe`` 24 -> 1) — searches get
  *faster* but recall collapses, which only the recall-audit series
  can see.

The detectors must fire within ``DETECT_WITHIN_WINDOWS`` windows of the
fault and attribution must walk the exemplar journeys to the truth:
plan-cache collapse -> phase ``planning``, tenant ``prod`` (replay
never plans — its journeys stop at ``cache_lookup``); recall drift ->
phase ``index_scan``; p99 inflation -> tenant ``prod``.  Along the way
the serving spans must stay exact: every coalesced member's root links
to exactly one batch span (``validate_span_links`` is clean) and the
largest-remainder stats shares keep ``attribution_residual() == 0``
across every ``serve_request`` trace.

Everything runs on the simulated clock with seeded traffic, so the
anomaly list — down to the exemplar trace ids — is reproducible
bit-for-bit.

Artifacts: ``results/e24_journey.json`` (health dump + recent windows +
exemplar journeys + attributed anomalies; the interchange format
``python -m repro.observability report`` renders) and
``results/e24_journey.txt`` (the rendered dashboard; CI uploads both).
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from _util import RESULTS_DIR, emit
from repro.core.cost import WorkCostModel
from repro.core.database import VectorDatabase
from repro.core.planner import STRATEGIES
from repro.observability import (
    CacheHitRatioDetector,
    Observability,
    P99InflationDetector,
    PlanCacheCollapseDetector,
    QueryProfile,
    QueueWaitGrowthDetector,
    RecallDriftDetector,
    build_profile_tree,
    validate_span_links,
)
from repro.observability.__main__ import render_report
from repro.serving import (
    ServingFrontDoor,
    TenantSpec,
    TrafficGenerator,
)

K = 10
DIM = 32
WINDOW_SECONDS = 1.0
#: The fault lands exactly on this window boundary...
FAULT_SECONDS = 8.0
END_SECONDS = 16.0
#: ...and every detector must fire within this many windows of it.
DETECT_WITHIN_WINDOWS = 3
#: Each execution priced at 1 ms and planning deliberately expensive
#: beside it, so a disabled plan cache moves the latency needle the p99
#: detector watches (the collapse detector sees the counters regardless).
SERVICE = dataclasses.replace(
    WorkCostModel(), execution=dict.fromkeys(STRATEGIES, 1e-3),
    plan_miss=5e-3,
)
#: Healthy IVF probe width: recall ~0.87 on this gaussian workload.
#: The fault drops it to nprobe=1 (recall ~0.14) — a collapse the
#: latency series cannot see because scanning one cell is *faster*.
HEALTHY_NPROBE = 24
#: The rule-based selector plans every plain query through the IVF
#: index, so the healthy phase probes at HEALTHY_NPROBE and the fault
#: degrades the path it names; the cost-based selector would plan the
#: exact scan at 4 000 rows and never touch the index.
SELECTOR = "rule"


def detectors():
    """The default serving detector set, with the recall-drift margin
    widened to 0.1: at ~64 audits/window the healthy windowed mean
    recall has sigma ~0.02, so 0.1 is a 5-sigma fence against noise
    while the injected ~0.7 collapse clears it in the first window."""
    return [
        P99InflationDetector(),
        QueueWaitGrowthDetector(),
        RecallDriftDetector(drop=0.1, min_audits=20),
        PlanCacheCollapseDetector(),
        CacheHitRatioDetector(),
    ]


def tenant_specs():
    prod = TenantSpec(
        "prod", qps=200.0, burst=40.0, max_inflight=8, max_queue=256,
        priority=1,
    )
    replay = TenantSpec(
        "replay", qps=100.0, burst=20.0, max_inflight=4, max_queue=64,
        priority=2, cache_capacity=64,
    )
    return [prod, replay]


def make_trace(start_seconds):
    """One window-aligned 8s slice of the two-tenant workload."""
    prod = TrafficGenerator(
        ["prod"], DIM, rate=80.0, seed=7, query_pool=256,
        fresh_fraction=1.0, k=K,
    ).generate(8.0, start_seconds=start_seconds)
    # A pool of 8 verbatim-replayed queries: fully cached after the
    # first second, so the fault cannot touch this tenant.
    replay = TrafficGenerator(
        ["replay"], DIM, rate=30.0, seed=13, query_pool=8,
        fresh_fraction=0.0, k=K,
    ).generate(8.0, start_seconds=start_seconds)
    return sorted(prod + replay, key=lambda r: r.arrival_seconds)


def build_frontdoor():
    rng = np.random.default_rng(0)
    db = VectorDatabase(
        dim=DIM, selector=SELECTOR,
        observability=Observability(audit_fraction=1.0, audit_seed=0),
    )
    db.insert_many(rng.standard_normal((4000, DIM)).astype(np.float32))
    db.create_index(
        "ivf", "ivf_flat", nlist=64, nprobe=HEALTHY_NPROBE, seed=0
    )
    fd = ServingFrontDoor(
        db, tenant_specs(), workers=2, coalesce_max=8,
        cost_model=SERVICE, telemetry=True,
        window_seconds=WINDOW_SECONDS, detectors=detectors(),
    )
    return db, fd


def inject_fault(db):
    """The compound mid-run degradation the detectors must explain."""
    db.plan_cache = None  # every batch re-plans from scratch
    db.indexes["ivf"].nprobe = 1  # faster scans, collapsed recall


@pytest.fixture(scope="module")
def e24_scenario():
    db, fd = build_frontdoor()

    fd.run(make_trace(0.0))
    # Flush the final healthy window before the fault lands, so the
    # healthy/degraded split is exact at the window boundary.
    fd.monitor.tick(FAULT_SECONDS)
    healthy_anomalies = len(fd.monitor.anomalies)
    healthy_windows = fd.monitor.windows_seen

    inject_fault(db)
    fd.run(make_trace(FAULT_SECONDS))
    # Close the trailing window the last completion left open.
    fd.monitor.tick(END_SECONDS + WINDOW_SECONDS)

    return {
        "db": db,
        "fd": fd,
        "healthy_anomalies": healthy_anomalies,
        "healthy_windows": healthy_windows,
        "anomalies": list(fd.monitor.anomalies),
    }


def _by_detector(scenario):
    by = {}
    for anomaly in scenario["anomalies"]:
        by.setdefault(anomaly.detector, []).append(anomaly)
    return by


def test_e24_healthy_prefix_is_quiet(e24_scenario):
    """Zero false positives: 8 healthy windows, not one firing."""
    assert e24_scenario["healthy_anomalies"] == 0
    assert e24_scenario["healthy_windows"] >= 3  # past warmup, so the
    # quiet prefix is a real negative, not a not-armed-yet artifact.
    assert all(
        a.window_start >= FAULT_SECONDS for a in e24_scenario["anomalies"]
    )


def test_e24_detection_within_budget(e24_scenario):
    """Something fires within DETECT_WITHIN_WINDOWS of the fault."""
    anomalies = e24_scenario["anomalies"]
    assert anomalies, "the injected fault was never detected"
    first = min(a.window_end for a in anomalies)
    assert first <= FAULT_SECONDS + DETECT_WITHIN_WINDOWS * WINDOW_SECONDS


def test_e24_plan_cache_collapse_names_planning_and_prod(e24_scenario):
    """The disabled cache is seen despite emitting no probe counters,
    and journey attribution pins the planning phase on the tenant whose
    journeys actually contain planning time."""
    firings = _by_detector(e24_scenario).get("plan_cache_collapse")
    assert firings, "plan_cache_collapse never fired"
    first = min(firings, key=lambda a: a.window_end)
    assert first.window_end <= FAULT_SECONDS + DETECT_WITHIN_WINDOWS
    assert first.phase == "planning"
    assert first.tenant == "prod"
    assert first.value == 0.0  # zero probes while plans kept selecting


def test_e24_recall_drift_names_index_scan(e24_scenario):
    """The doctored nprobe is invisible to latency (scans got faster);
    only the audit series catches it — attributed to the index scan."""
    firings = _by_detector(e24_scenario).get("recall_drift")
    assert firings, "recall_drift never fired"
    first = min(firings, key=lambda a: a.window_end)
    assert first.window_end <= FAULT_SECONDS + DETECT_WITHIN_WINDOWS
    assert first.phase == "index_scan"
    assert first.value < first.baseline - 0.05


def test_e24_p99_inflation_names_the_affected_tenant(e24_scenario):
    """Re-planning every batch inflates prod's tail; replay rides its
    result cache and must not be blamed."""
    firings = _by_detector(e24_scenario).get("p99_inflation")
    assert firings, "p99_inflation never fired"
    tenants = {a.tenant for a in firings}
    assert "prod" in tenants
    assert "replay" not in tenants


def test_e24_exemplars_resolve_to_journeys(e24_scenario):
    """Every anomaly carries trace ids that resolve to full journeys of
    the blamed tenant — the report is one hop from the evidence."""
    fd = e24_scenario["fd"]
    for anomaly in e24_scenario["anomalies"]:
        assert anomaly.trace_ids, f"no exemplars on {anomaly!r}"
        journeys = [fd.journeys.get(t) for t in anomaly.trace_ids]
        assert all(j is not None for j in journeys)
        if anomaly.tenant is not None:
            assert any(j.tenant == anomaly.tenant for j in journeys)


def test_e24_span_links_well_formed(e24_scenario):
    """Coalescer fan-in: member roots and batch spans cross-link, and
    every link resolves both ways (validate_span_links is clean)."""
    tracer = e24_scenario["db"].observability.tracer
    assert validate_span_links(tracer.spans) == []
    batches = [s for s in tracer.spans if s.name == "serve_batch"]
    assert batches
    members = sum(len(s.links) for s in batches)
    assert members == sum(s.attributes["members"] for s in batches)


def test_e24_attribution_residual_is_zero(e24_scenario):
    """The explain-analyze invariant holds across the serving spans:
    each serve_request trace's stats partition exactly."""
    tracer = e24_scenario["db"].observability.tracer
    roots = [
        node
        for node in build_profile_tree(tracer.spans)
        if node.name == "serve_request"
    ]
    executed = [r for r in roots if r.stats_total is not None]
    assert executed, "no executed serve_request traces profiled"
    for root in executed:
        residual = QueryProfile(result=None, root=root).attribution_residual()
        assert all(v == 0 for v in residual.values()), (root, residual)


def test_e24_artifacts(e24_scenario):
    fd = e24_scenario["fd"]
    anomalies = e24_scenario["anomalies"]
    exemplars = []
    for anomaly in anomalies:
        for trace_id in anomaly.trace_ids:
            journey = fd.journeys.get(trace_id)
            if journey is not None and journey not in exemplars:
                exemplars.append(journey)
    data = {
        "health": fd.health().to_dict(),
        "windows": [w.to_dict() for w in fd.telemetry.last(8)],
        "journeys": [j.to_dict() for j in exemplars[:6]],
        "anomalies": fd.monitor.summary(),
    }
    (RESULTS_DIR / "e24_journey.json").write_text(json.dumps(data, indent=2))
    dashboard = render_report(data)
    detected = min(a.window_end for a in anomalies) - FAULT_SECONDS
    lines = [
        dashboard,
        "",
        f"fault injected at t={FAULT_SECONDS:g}s"
        f" (plan cache disabled + ivf nprobe {HEALTHY_NPROBE}->1);"
        f" first detection {detected:g}s later"
        f" (budget {DETECT_WITHIN_WINDOWS:g} windows)",
        f"healthy prefix: {e24_scenario['healthy_windows']} windows,"
        f" {e24_scenario['healthy_anomalies']} false positives",
    ]
    emit("e24_journey", "\n".join(lines))
    assert (RESULTS_DIR / "e24_journey.txt").exists()
    assert not math.isnan(detected)


def test_e24_telemetry_throughput(benchmark):
    """pytest-benchmark timing: wall cost of one fully-instrumented
    serving second (tracing + journeys + windowed scraping + detectors
    all on)."""
    rng = np.random.default_rng(1)
    db = VectorDatabase(
        dim=DIM, selector=SELECTOR,
        observability=Observability(audit_fraction=0.1, audit_seed=0),
    )
    db.insert_many(rng.standard_normal((2000, DIM)).astype(np.float32))
    db.create_index("ivf", "ivf_flat", nlist=32, nprobe=8, seed=0)
    trace = TrafficGenerator(
        ["prod"], DIM, rate=300.0, seed=5, k=K
    ).generate(1.0)

    def serve():
        fd = ServingFrontDoor(
            db, tenant_specs(), workers=2, coalesce_max=8,
            cost_model=SERVICE, telemetry=True,
            window_seconds=WINDOW_SECONDS,
        )
        answered = len(fd.run(trace))
        fd.monitor.tick(2.0)
        db.observability.tracer.clear()
        return answered

    answered = benchmark(serve)
    assert answered == len(trace)
