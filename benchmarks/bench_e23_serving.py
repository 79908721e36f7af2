"""E23 (serving front door): tenant isolation under burst overload.

The claim this experiment demonstrates numerically: with admission
control (priority dispatch, per-tenant in-flight caps, token buckets,
bounded queues), a low-priority tenant flooding the front door **keeps
its overload to itself** — the well-behaved interactive tenant's tail
latency stays where it was when it had the system alone.

Three runs over the same database, same seeds, same prices:

1. **alone** — the interactive tenant's trace by itself: the baseline
   tail latency the tenant "paid for".
2. **isolated** — the same interactive trace merged with an analytics
   tenant that bursts to ~10x the backend's capacity, through a front
   door where analytics has low priority (dispatched last) and a tight
   in-flight cap.  The flood queues, sheds, and gets throttled; the
   interactive p99 must stay within a small multiple of *alone*.
3. **unprotected** — the identical merged trace, but analytics gets the
   same priority and caps as everyone else (admission control in name
   only).  The interactive p99 collapses into the flood's queue — the
   before/after pair that makes run 2's number meaningful.

Everything is on the simulated clock (service time is a deterministic
function of the work counters each batch incurs), so the latency table
below is reproducible bit-for-bit.

Also demonstrated along the way: request coalescing under backlog
(mean batch size > 1 during the burst), per-tenant exact-result caching
(the interactive tenant's hot queries repeat), and the per-tenant p99
SLO burning through its budget for the abuser but not the victim.

Artifacts: ``results/e23_serving.txt`` (per-run latency table +
disposition counts; CI uploads it and sanity-checks the p999 ceiling).
"""

import dataclasses

import numpy as np
import pytest

from _util import RESULTS_DIR, emit
from repro.bench.reporting import format_table
from repro.core.cost import WorkCostModel
from repro.core.database import VectorDatabase
from repro.core.planner import STRATEGIES
from repro.serving import (
    Burst,
    DiurnalSchedule,
    ServingFrontDoor,
    TenantSpec,
    TrafficGenerator,
)

K = 10
DIM = 32
#: Interactive tenant's p999 must stay under this (simulated seconds)
#: in the isolated run — the CI sanity ceiling.
P999_CEILING = 0.25
#: Backend: 2 workers, each execution priced at 2 ms whatever its plan
#: -> ~1k solo batches/second.  The scenario keeps the slow backend it
#: was sized for; at the fitted prices alone a solo search here costs
#: ~0.6 ms and the contrast holds too (EXPERIMENTS.md E23).
SERVICE = dataclasses.replace(
    WorkCostModel(), execution=dict.fromkeys(STRATEGIES, 2e-3)
)


def interactive_spec(priority=1, max_inflight=8):
    return TenantSpec(
        "interactive", qps=200.0, burst=20.0, max_inflight=max_inflight,
        max_queue=64, priority=priority, slo_p99_seconds=0.05,
        slo_budget=0.01,
    )


def analytics_spec(priority, max_inflight):
    return TenantSpec(
        "analytics", qps=5000.0, burst=500.0, max_inflight=max_inflight,
        max_queue=400, priority=priority, cache_capacity=16,
        slo_p99_seconds=0.05, slo_budget=0.01,
    )


def make_traces():
    """One steady interactive trace + one bursting analytics flood."""
    steady = TrafficGenerator(
        ["interactive"], DIM, rate=40.0, seed=11, query_pool=16,
        fresh_fraction=0.5, k=K,
    ).generate(8.0)
    flood = TrafficGenerator(
        ["analytics"], DIM, rate=800.0, seed=23, query_pool=64,
        fresh_fraction=0.5, k=K,
        schedule=DiurnalSchedule(
            period_seconds=8.0, amplitude=0.0,
            bursts=(Burst(2.0, 3.0, 12.0),),
        ),
    ).generate(8.0)
    return steady, flood


@pytest.fixture(scope="module")
def e23_scenario():
    rng = np.random.default_rng(0)
    db = VectorDatabase(dim=DIM)
    db.insert_many(rng.standard_normal((4000, DIM)).astype(np.float32))
    db.create_index("hnsw", "hnsw", m=8, ef_construction=48, seed=0)
    steady, flood = make_traces()
    merged = sorted(steady + flood, key=lambda r: r.arrival_seconds)

    runs = {}
    # 1. The interactive tenant alone: its entitled tail latency.
    fd = ServingFrontDoor(
        db, [interactive_spec()], workers=2, coalesce_max=8,
        cost_model=SERVICE,
    )
    fd.run(steady)
    runs["alone"] = fd.report()

    # 2. Flood behind real admission control: low priority, tight cap.
    fd = ServingFrontDoor(
        db, [interactive_spec(), analytics_spec(priority=5, max_inflight=2)],
        workers=2, coalesce_max=8, cost_model=SERVICE,
    )
    fd.run(merged)
    runs["isolated"] = fd.report()
    runs["isolated_frontdoor"] = fd

    # 3. Same flood, no isolation: equal priority, generous cap.
    fd = ServingFrontDoor(
        db, [interactive_spec(), analytics_spec(priority=1, max_inflight=64)],
        workers=2, coalesce_max=8, cost_model=SERVICE,
    )
    fd.run(merged)
    runs["unprotected"] = fd.report()
    return runs


def _row(run_name, report, tenant):
    t = report.tenants[tenant]
    lat = t["latency_seconds"]
    return {
        "run": run_name,
        "tenant": tenant,
        "submitted": t["submitted"],
        "ok": t["executed"],
        "cached": t["cache_hits"],
        "rejected": sum(t["rejected"].values()),
        "shed": t["shed"],
        "p50_ms": f"{lat['p50'] * 1e3:.2f}",
        "p99_ms": f"{lat['p99'] * 1e3:.2f}",
        "p999_ms": f"{lat['p99.9'] * 1e3:.2f}",
    }


def test_e23_isolation_holds_the_interactive_tail(e23_scenario):
    """The headline number: the flood cannot buy the victim's p99."""
    alone = e23_scenario["alone"].tenants["interactive"]["latency_seconds"]
    isolated = e23_scenario["isolated"].tenants["interactive"][
        "latency_seconds"
    ]
    abuser = e23_scenario["isolated"].tenants["analytics"]["latency_seconds"]
    # The protected tenant's p99 stays within 3x of having the system
    # to itself, while the abuser's p99 is at least 10x worse than the
    # victim's — the overload stayed where it was created.
    assert isolated["p99"] <= 3.0 * alone["p99"]
    assert abuser["p99"] >= 10.0 * isolated["p99"]


def test_e23_unprotected_contrast(e23_scenario):
    """Without priorities/caps the same flood destroys the same tenant."""
    isolated = e23_scenario["isolated"].tenants["interactive"][
        "latency_seconds"
    ]
    unprotected = e23_scenario["unprotected"].tenants["interactive"][
        "latency_seconds"
    ]
    assert unprotected["p99"] >= 5.0 * isolated["p99"]


def test_e23_p999_sanity_ceiling(e23_scenario):
    """CI gate: the protected tenant's extreme tail stays bounded."""
    isolated = e23_scenario["isolated"].tenants["interactive"][
        "latency_seconds"
    ]
    p999 = isolated["p99.9"]
    assert p999 == p999  # sketch has data (not NaN)
    assert p999 <= P999_CEILING


def test_e23_overload_is_absorbed_by_backpressure(e23_scenario):
    """The flood is throttled/queued/shed, not silently served."""
    analytics = e23_scenario["isolated"].tenants["analytics"]
    refused = sum(analytics["rejected"].values()) + analytics["shed"]
    assert refused > 0.25 * analytics["submitted"]
    # Backpressure carried actionable retry-after signals.
    fd = e23_scenario["isolated_frontdoor"]
    rejected = [r for r in fd.responses if r.status == "rejected"]
    assert rejected and all(r.retry_after_seconds >= 0 for r in rejected)


def test_e23_coalescing_kicks_in_under_backlog(e23_scenario):
    totals = e23_scenario["isolated"].totals
    assert totals["mean_batch_size"] > 1.1
    assert totals["coalesced_fraction"] > 0.1


def test_e23_caches_absorb_hot_queries(e23_scenario):
    interactive = e23_scenario["isolated"].tenants["interactive"]
    assert interactive["cache_hits"] > 0
    assert interactive["cache"]["hit_ratio"] > 0.05


def test_e23_slo_burns_for_abuser_not_victim(e23_scenario):
    statuses = {s["name"]: s for s in e23_scenario["isolated"].slos}
    victim = statuses["serving:interactive:latency"]
    abuser = statuses["serving:analytics:latency"]
    assert victim["good_fraction"] >= abuser["good_fraction"]
    # The burn-rate alert fired for the abuser during the flood (it may
    # have cleared once the burst drained) and never for the victim.
    fd = e23_scenario["isolated_frontdoor"]
    fired = {a.slo for a in fd.slo.alerts}
    assert "serving:analytics:latency" in fired
    assert "serving:interactive:latency" not in fired


def test_e23_artifacts(e23_scenario):
    rows = []
    rows.append(_row("alone", e23_scenario["alone"], "interactive"))
    for tenant in ("interactive", "analytics"):
        rows.append(_row("isolated", e23_scenario["isolated"], tenant))
    for tenant in ("interactive", "analytics"):
        rows.append(_row("unprotected", e23_scenario["unprotected"], tenant))
    table = format_table(
        rows, title="E23: per-tenant latency under a low-priority flood"
    )
    totals = e23_scenario["isolated"].totals
    lines = [
        table,
        "",
        f"isolated run totals: batches={totals['batches']}"
        f" mean_batch_size={totals['mean_batch_size']:.2f}"
        f" coalesced_fraction={totals['coalesced_fraction']:.2f}"
        f" modes={totals['modes']}",
        f"p999 ceiling (interactive, isolated): {P999_CEILING * 1e3:.0f}ms",
    ]
    emit("e23_serving", "\n".join(lines))
    assert (RESULTS_DIR / "e23_serving.txt").exists()


def test_e23_frontdoor_throughput(benchmark):
    """pytest-benchmark timing: wall cost of serving one burst second
    (the event loop + coalesced execution, everything else simulated)."""
    rng = np.random.default_rng(1)
    db = VectorDatabase(dim=DIM)
    db.insert_many(rng.standard_normal((2000, DIM)).astype(np.float32))
    db.create_index("hnsw", "hnsw", m=8, ef_construction=48, seed=0)
    trace = TrafficGenerator(
        ["interactive"], DIM, rate=300.0, seed=5, k=K
    ).generate(1.0)

    def serve():
        fd = ServingFrontDoor(
            db, [interactive_spec()], workers=2, coalesce_max=8,
            cost_model=SERVICE,
        )
        return len(fd.run(trace))

    answered = benchmark(serve)
    assert answered == len(trace)
