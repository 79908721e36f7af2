"""Tests for the multi-tenant serving front door.

Covers the tiers bottom-up: token buckets and tenant specs, the
admission controller's rejection/shedding semantics, the coalescer's
solo-equal answers and exact stats-conservation contracts, per-tenant
result caches (bit-identical hits, structural invalidation), the event
loop end to end (determinism, isolation, SLOs, health report), and the
seeded traffic generator's distributional properties.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.cost import WorkCostModel
from repro.core.database import VectorDatabase
from repro.core.planner import STRATEGIES
from repro.core.types import Hits, SearchStats
from repro.observability.instrument import Observability
from repro.serving import (
    AdmissionController,
    AdmissionRejected,
    Burst,
    DiurnalSchedule,
    QueryResultCache,
    ServedResponse,
    ServingFrontDoor,
    ServingRequest,
    TenantSpec,
    TokenBucket,
    TrafficGenerator,
    execute_coalesced,
    result_cache_key,
    split_stats,
)
from repro.serving.coalescer import _SPLIT_COUNTERS


def make_db(n=400, dim=12, seed=3, index=True, observability=None, **db_kwargs):
    rng = np.random.default_rng(seed)
    db = VectorDatabase(
        dim=dim, observability=observability or Observability(), **db_kwargs
    )
    db.insert_many(rng.standard_normal((n, dim)).astype(np.float32))
    if index:
        db.create_index("hnsw", "hnsw", m=8, ef_construction=48, seed=0)
    return db


def req(tenant, vector, k=10, t=0.0, **kwargs):
    return ServingRequest(tenant, vector, k=k, arrival_seconds=t, **kwargs)


# ---------------------------------------------------------------------------
# Quota


class TestTokenBucket:
    def test_starts_full_then_throttles(self):
        bucket = TokenBucket(rate=10.0, capacity=3.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [True] * 3 + [False]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, capacity=3.0)
        for _ in range(3):
            bucket.try_take(0.0)
        assert not bucket.try_take(0.05)  # only half a token back
        assert bucket.try_take(0.1)

    def test_capacity_caps_refill(self):
        bucket = TokenBucket(rate=100.0, capacity=2.0)
        bucket.try_take(0.0)
        bucket._refill(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_retry_after_is_exact(self):
        bucket = TokenBucket(rate=4.0, capacity=1.0)
        assert bucket.try_take(0.0)
        wait = bucket.retry_after(0.0)
        assert wait == pytest.approx(0.25)
        assert not bucket.try_take(0.0 + wait * 0.9)
        assert bucket.try_take(0.0 + wait)

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=10.0, capacity=5.0)
        bucket.try_take(1.0)
        bucket._refill(0.5)  # stale timestamp must not refund tokens
        assert bucket.updated == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.5)


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("")
        with pytest.raises(ValueError):
            TenantSpec("t", qps=0)
        with pytest.raises(ValueError):
            TenantSpec("t", max_inflight=0)
        with pytest.raises(ValueError):
            TenantSpec("t", slo_p99_seconds=-1.0)
        with pytest.raises(ValueError):
            TenantSpec("t", slo_budget=1.5)


# ---------------------------------------------------------------------------
# Admission


class TestAdmission:
    def vec(self, seed=0, dim=4):
        return np.random.default_rng(seed).standard_normal(dim).astype(np.float32)

    def controller(self, **overrides):
        spec = dict(qps=10.0, burst=2.0, max_inflight=2, max_queue=3)
        spec.update(overrides)
        return AdmissionController({"a": TenantSpec("a", **spec)})

    def test_unknown_tenant(self):
        ctl = self.controller()
        with pytest.raises(AdmissionRejected) as exc:
            ctl.admit(req("ghost", self.vec()), now=0.0)
        assert exc.value.reason == "unknown_tenant"

    def test_throttle_carries_retry_after(self):
        ctl = self.controller(burst=1.0)
        ctl.admit(req("a", self.vec()), now=0.0)
        with pytest.raises(AdmissionRejected) as exc:
            ctl.admit(req("a", self.vec(1)), now=0.0)
        assert exc.value.reason == "throttled"
        assert exc.value.retry_after_seconds == pytest.approx(0.1)
        # Waiting the advertised time makes the retry succeed.
        ctl.admit(req("a", self.vec(1)), now=exc.value.retry_after_seconds)

    def test_queue_full(self):
        ctl = self.controller(burst=10.0, max_queue=2)
        ctl.admit(req("a", self.vec(0)), now=0.0)
        ctl.admit(req("a", self.vec(1)), now=0.0)
        with pytest.raises(AdmissionRejected) as exc:
            ctl.admit(req("a", self.vec(2)), now=0.0)
        assert exc.value.reason == "queue_full"
        assert exc.value.retry_after_seconds > 0

    def test_priority_dispatch_order(self):
        ctl = AdmissionController({
            "lo": TenantSpec("lo", priority=5, burst=8),
            "hi": TenantSpec("hi", priority=1, burst=8),
        })
        ctl.admit(req("lo", self.vec(0)), now=0.0)
        ctl.admit(req("hi", self.vec(1)), now=0.0)
        batch, shed = ctl.next_batch(0.0, coalesce_max=1, capacity=lambda t: 4)
        assert not shed
        assert [r.tenant for r in batch] == ["hi"]

    def test_deadline_shed_at_dispatch(self):
        ctl = self.controller(burst=10.0)
        ctl.admit(req("a", self.vec(0), t=0.0, deadline_seconds=0.5), now=0.0)
        ctl.admit(req("a", self.vec(1), t=0.0), now=0.0)
        batch, shed = ctl.next_batch(1.0, coalesce_max=1, capacity=lambda t: 4)
        assert len(shed) == 1 and shed[0].deadline_seconds == 0.5
        assert len(batch) == 1 and batch[0].deadline_seconds is None

    def test_inflight_cap_defers_without_losing(self):
        ctl = self.controller(burst=10.0)
        ctl.admit(req("a", self.vec(0)), now=0.0)
        batch, _ = ctl.next_batch(0.0, coalesce_max=4, capacity=lambda t: 0)
        assert batch == [] and ctl.pending() == 1
        batch, _ = ctl.next_batch(0.0, coalesce_max=4, capacity=lambda t: 2)
        assert len(batch) == 1 and ctl.pending() == 0

    def test_coalesces_same_key_in_arrival_order(self):
        ctl = self.controller(burst=10.0, max_queue=10)
        for i in range(4):
            ctl.admit(req("a", self.vec(i), t=float(i)), now=float(i))
        batch, _ = ctl.next_batch(3.0, coalesce_max=3, capacity=lambda t: 8)
        assert [r.arrival_seconds for r in batch] == [0.0, 1.0, 2.0]
        assert ctl.pending() == 1

    def test_coalesce_respects_capacity(self):
        ctl = self.controller(burst=10.0, max_queue=10)
        for i in range(4):
            ctl.admit(req("a", self.vec(i)), now=0.0)
        batch, _ = ctl.next_batch(0.0, coalesce_max=8, capacity=lambda t: 2)
        assert len(batch) == 2

    def test_different_k_not_coalesced(self):
        ctl = self.controller(burst=10.0, max_queue=10)
        ctl.admit(req("a", self.vec(0), k=5), now=0.0)
        ctl.admit(req("a", self.vec(1), k=7), now=0.0)
        batch, _ = ctl.next_batch(0.0, coalesce_max=8, capacity=lambda t: 8)
        assert len(batch) == 1 and batch[0].k == 5


# ---------------------------------------------------------------------------
# Coalescer


class TestSplitStats:
    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    def test_counters_sum_exactly(self, parts):
        total = SearchStats(
            distance_computations=1001, nodes_visited=37, page_reads=5,
            candidates_examined=998, predicate_evaluations=13,
            predicate_rejections=6, elapsed_seconds=0.5, plan_name="x",
        )
        shares = split_stats(total, parts)
        assert len(shares) == parts
        for name in ("distance_computations", "nodes_visited", "page_reads",
                     "candidates_examined", "predicate_evaluations",
                     "predicate_rejections"):
            assert sum(getattr(s, name) for s in shares) == getattr(total, name)
        assert sum(s.elapsed_seconds for s in shares) == pytest.approx(0.5)

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            split_stats(SearchStats(), 0)


class TestCoalescedExecution:
    @pytest.fixture(scope="class")
    def queries(self):
        return np.random.default_rng(5).standard_normal((32, 16)).astype(
            np.float32
        )

    @staticmethod
    def coalesce_and_solo(db, group):
        hits, stats, mode, strategy = execute_coalesced(
            db, [req("a", q) for q in group]
        )
        assert (mode, strategy) == ("batched_scan", "index_scan")
        solo = [db.search(q, k=10) for q in group]
        for member, alone in zip(hits, solo):
            assert member.ids.tolist() == alone.hits.ids.tolist()
            assert member.distances.tobytes() == alone.hits.distances.tobytes()
        return hits, stats, solo

    @staticmethod
    def graph_db():
        # Large enough that the planner prefers the graph index over a
        # brute-force scan (the coalescer follows the plan).
        return make_db(n=1000, dim=16, seed=11)

    def test_graph_path_matches_solo_within_bounded_recall(self, queries):
        db = self.graph_db()
        hits, _, solo = self.coalesce_and_solo(db, queries)
        # Members equal their solo searches, so recall against the exact
        # neighbours is the solo recall, with no batching loss at all.
        vectors = db.collection.vectors[: len(db.collection)]
        for q, member, alone in zip(queries, hits, solo):
            truth = set(np.argsort(np.linalg.norm(vectors - q, axis=1))[:10])
            assert len(set(member.ids.tolist()) & truth) == len(
                set(alone.hits.ids.tolist()) & truth
            )

    def test_graph_path_stats_sum_to_batch_total(self, queries):
        _, stats, solo = self.coalesce_and_solo(self.graph_db(), queries[:8])
        # Splitting conserves the solo searches' work, not a rescaled figure.
        for name in _SPLIT_COUNTERS:
            assert sum(getattr(s, name) for s in stats) == sum(
                getattr(r.stats, name) for r in solo
            ), name

    @pytest.mark.parametrize("state", ["tail", "tombstones"])
    def test_every_member_answers_as_its_solo_search(self, state, queries):
        db = self.graph_db()
        group = queries[:8]
        if state == "tail":
            db.insert_many(group[::2] + np.float32(0.01))
        elif state == "tombstones":
            for query in group[1::2]:
                db.delete(int(db.search(query, k=1).ids[0]))
        _, stats, solo = self.coalesce_and_solo(db, group)
        for name in _SPLIT_COUNTERS:
            assert sum(getattr(s, name) for s in stats) == sum(
                getattr(r.stats, name) for r in solo
            ), name

    def test_brute_force_fallback_splits_shared_stats(self, queries):
        db = make_db(n=120, dim=16, seed=2, index=False)
        requests = [req("a", q, k=5) for q in queries[:6]]
        hits, stats, mode, strategy = execute_coalesced(db, requests)
        assert mode == "batched_scan" and strategy == "brute_force"
        assert len(hits) == 6 and len(stats) == 6
        # Distinct objects per member (the executor shares one).
        assert len({id(s) for s in stats}) == 6
        totals = sum(s.distance_computations for s in stats)
        assert totals == 6 * 120

    def test_predicated_group_answers_within_the_predicate(self, queries):
        from repro.hybrid.predicates import Comparison

        rng = np.random.default_rng(6)
        db = VectorDatabase(dim=16)
        db.insert_many(
            rng.standard_normal((300, 16)).astype(np.float32),
            [{"group": i % 3} for i in range(300)],
        )
        db.create_index("hnsw", "hnsw", m=8, ef_construction=48, seed=0)
        pred = Comparison("group", "==", 1)
        requests = [req("a", q, predicate=pred) for q in queries[:3]]
        hits, _, mode, _ = execute_coalesced(db, requests)
        assert mode == "batched_scan"
        # ids were assigned in insertion order, so group == id % 3.
        assert hits[0] and all(h.id % 3 == 1 for h in hits[0])
        for request, member in zip(requests, hits):
            assert member == db.search(request.vector, k=10, predicate=pred).hits

    def test_singleton_runs_solo(self, queries):
        db = make_db(dim=16)
        hits, stats, mode, _ = execute_coalesced(db, [req("a", queries[0])])
        assert mode == "solo" and len(hits) == 1 and len(stats) == 1


# ---------------------------------------------------------------------------
# Result cache


class TestQueryResultCache:
    def test_a_reader_cannot_corrupt_the_entry(self):
        # The entry is shared, not copied: it is safe because Hits is immutable.
        cache = QueryResultCache(4)
        key = ("k",)
        cache.put(key, Hits([1, 2, 3], [0.1, 0.2, 0.3]))
        first = cache.get(key)
        with pytest.raises(ValueError):
            first.ids[0] = 99
        with pytest.raises(AttributeError):
            first.ids = np.array([99])
        assert not hasattr(first, "append")
        assert cache.get(key) is first
        assert cache.get(key).ids.tolist() == [1, 2, 3]

    def test_lru_eviction(self):
        cache = QueryResultCache(2)
        cache.put("a", [1])
        cache.put("b", [2])
        assert cache.get("a") == [1]  # refresh a
        cache.put("c", [3])  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == [1]

    def test_unhashable_key_uncacheable(self):
        vec = np.ones(4, dtype=np.float32)
        assert result_cache_key(0, vec, 5, params={"bad": [1]}) is None

    def test_generation_changes_key(self):
        vec = np.ones(4, dtype=np.float32)
        assert result_cache_key(0, vec, 5) != result_cache_key(1, vec, 5)

    def test_info_ratio(self):
        cache = QueryResultCache(2)
        cache.put("a", [1])
        cache.get("a")
        cache.get("zzz")
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_ratio"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Front door event loop


def overloaded(seconds):
    """The fitted prices with every execution slowed to ``seconds``: a
    door this slow builds the backlog these tests need."""
    return dataclasses.replace(
        WorkCostModel(), execution=dict.fromkeys(STRATEGIES, seconds)
    )


def run_frontdoor(db=None, tenants=None, trace=None, **kwargs):
    db = db or make_db(n=300, dim=12, seed=9)
    tenants = tenants or [TenantSpec("a", qps=500, burst=50, max_queue=200)]
    fd = ServingFrontDoor(db, tenants, **kwargs)
    responses = fd.run(trace)
    return fd, responses


class TestFrontDoor:
    def trace(self, n=40, dim=12, seed=1, tenant="a", spacing=0.001):
        rng = np.random.default_rng(seed)
        return [
            req(tenant, rng.standard_normal(dim).astype(np.float32),
                t=i * spacing)
            for i in range(n)
        ]

    def test_every_request_answered_once(self):
        trace = self.trace(50)
        fd, responses = run_frontdoor(trace=trace)
        assert len(responses) == 50
        assert all(r.status == "ok" for r in responses)
        assert fd.report().totals["executed"] == 50

    def test_cache_hit_bit_identical_to_cold(self):
        db = make_db(n=300, dim=12, seed=9)
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(12).astype(np.float32)
        trace = [req("a", vec.copy(), t=0.0), req("a", vec.copy(), t=0.5)]
        fd, responses = run_frontdoor(db=db, trace=trace)
        cold, warm = responses
        assert cold.status == "ok" and warm.status == "cache_hit"
        assert warm.hits == cold.hits  # SearchHit is frozen: == is exact
        assert warm.latency_seconds < cold.latency_seconds

    def test_mutation_invalidates_result_cache(self):
        db = make_db(n=300, dim=12, seed=9)
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(12).astype(np.float32)
        fd = ServingFrontDoor(
            db, [TenantSpec("a", qps=500, burst=50, max_queue=200)]
        )
        first = fd.run([req("a", vec.copy(), t=0.0)])
        db.insert(rng.standard_normal(12).astype(np.float32))
        again = fd.run([req("a", vec.copy(), t=10.0)])
        assert first[0].status == "ok"
        assert again[0].status == "ok"  # generation moved: not a cache hit

    def test_coalescing_under_backlog(self):
        # One worker and a slow base cost force a backlog; queued
        # same-shape requests must merge into multi-member batches.
        trace = self.trace(32, spacing=0.0001)
        fd, responses = run_frontdoor(
            trace=trace, workers=1, coalesce_max=8,
            cost_model=overloaded(5e-3),
        )
        report = fd.report()
        assert report.totals["batches"] < 32
        assert report.totals["mean_batch_size"] > 1.5
        assert max(r.batch_size for r in responses) > 1

    def test_stats_split_sums_across_batch(self):
        trace = self.trace(16, spacing=0.0001)
        fd, responses = run_frontdoor(
            trace=trace, workers=1, coalesce_max=8,
            cost_model=overloaded(5e-3),
        )
        by_size = {}
        for r in responses:
            if r.batch_size > 1:
                by_size.setdefault(r.batch_size, []).append(r)
        assert by_size, "expected at least one coalesced batch"
        for size, members in by_size.items():
            assert len(members) % size == 0

    def test_rejection_carries_retry_after(self):
        trace = self.trace(20, spacing=0.0)  # all at t=0: burst of 5 only
        fd, responses = run_frontdoor(
            tenants=[TenantSpec("a", qps=10, burst=5, max_queue=100)],
            trace=trace,
        )
        rejected = [r for r in responses if r.status == "rejected"]
        assert len(rejected) == 15
        assert all(r.reason == "throttled" for r in rejected)
        assert all(r.retry_after_seconds > 0 for r in rejected)

    def test_deadline_shedding_under_overload(self):
        trace = [
            req("a", v.vector, t=v.arrival_seconds) for v in self.trace(30)
        ]
        fd, responses = run_frontdoor(
            tenants=[TenantSpec("a", qps=1000, burst=100, max_queue=100,
                                deadline_seconds=0.002)],
            trace=trace, workers=1, coalesce_max=1,
            cost_model=overloaded(2e-3),
        )
        statuses = {r.status for r in responses}
        assert "shed" in statuses
        shed = [r for r in responses if r.status == "shed"]
        assert all(r.reason == "deadline" for r in shed)

    def test_deterministic_replay(self):
        def one_run():
            db = make_db(n=300, dim=12, seed=9)
            gen = TrafficGenerator(["a", "b"], 12, rate=400, seed=21)
            fd = ServingFrontDoor(
                db,
                [TenantSpec("a", qps=200, burst=20, max_queue=50),
                 TenantSpec("b", qps=100, burst=10, max_queue=50)],
                workers=1,
            )
            return [
                (r.status, r.latency_seconds, tuple(h.id for h in r.hits))
                for r in fd.run(gen.generate(1.0))
            ]

        assert one_run() == one_run()

    def test_isolation_low_priority_flood_spares_well_behaved(self):
        """A flooding low-priority tenant must not drag a light
        high-priority tenant's p99 with it (the E23 claim, in miniature).
        """
        db = make_db(n=300, dim=12, seed=9)
        rng = np.random.default_rng(8)
        trace = []
        # Flood: 400 abuser requests in 0.2s; light tenant: 20 spread out.
        for i in range(400):
            trace.append(req(
                "abuser", rng.standard_normal(12).astype(np.float32),
                t=i * 0.0005,
            ))
        for i in range(20):
            trace.append(req(
                "polite", rng.standard_normal(12).astype(np.float32),
                t=i * 0.01,
            ))
        fd = ServingFrontDoor(
            db,
            [TenantSpec("abuser", qps=10_000, burst=1000, max_queue=500,
                        priority=5, max_inflight=2),
             TenantSpec("polite", qps=100, burst=20, max_queue=50,
                        priority=1)],
            workers=1, coalesce_max=4,
            cost_model=overloaded(2e-3),
        )
        fd.run(trace)
        report = fd.report()
        polite = report.tenants["polite"]["latency_seconds"]["p99"]
        abuser = report.tenants["abuser"]["latency_seconds"]["p99"]
        assert polite < abuser / 5

    def test_slo_alert_fires_under_sustained_breach(self):
        trace = self.trace(80, spacing=0.0001)
        fd, _ = run_frontdoor(
            tenants=[TenantSpec("a", qps=5000, burst=500, max_queue=500,
                                slo_p99_seconds=1e-4, slo_budget=0.01)],
            trace=trace, workers=1,
            cost_model=overloaded(5e-3),
        )
        assert fd.slo is not None
        assert not fd.slo.ok
        assert fd.report().slos[0]["alerting"]

    def test_tenant_labels_reach_prometheus(self):
        db = make_db(n=200, dim=12, seed=9)
        trace = self.trace(5)
        fd, _ = run_frontdoor(db=db, trace=trace)
        text = db.observability.metrics.render_prometheus()
        assert 'tenant="a"' in text
        assert "vdbms_serving_requests_total" in text
        assert 'vdbms_queries_total{kind="serving"' in text

    def test_health_carries_serving_section(self):
        db = make_db(n=200, dim=12, seed=9)
        fd, _ = run_frontdoor(db=db, trace=self.trace(10))
        health = fd.health()
        assert health.serving is not None
        assert health.serving["totals"]["requests"] == 10
        assert "serving" in health.render()
        assert health.to_dict()["serving"]["tenants"]["a"]["submitted"] == 10

    def test_duplicate_tenants_rejected(self):
        db = make_db(n=50, dim=12, seed=9, index=False)
        with pytest.raises(ValueError):
            ServingFrontDoor(db, [TenantSpec("a"), TenantSpec("a")])

    def test_unknown_tenant_rejected_not_crashed(self):
        fd, responses = run_frontdoor(trace=[
            req("nobody", np.ones(12, dtype=np.float32))
        ])
        assert responses[0].status == "rejected"
        assert responses[0].reason == "unknown_tenant"


# ---------------------------------------------------------------------------
# Database.health satellite


class TestHealthSatellite:
    def test_plan_cache_and_slow_queries_in_health(self):
        obs = Observability(slow_query_seconds=0.0)  # everything is "slow"
        db = make_db(n=100, dim=8, seed=1, observability=obs)
        q = np.zeros(8, dtype=np.float32)
        db.search(vector=q, k=3)
        db.search(vector=q, k=3)
        info = db.health().database
        assert info["plan_cache"]["hits"] >= 1
        assert 0.0 < info["plan_cache"]["hit_ratio"] <= 1.0
        assert info["slow_queries"] >= 2

    def test_no_plan_cache_omits_key(self):
        db = make_db(n=50, dim=8, seed=1, index=False, plan_cache=False)
        assert "plan_cache" not in db.health().database


# ---------------------------------------------------------------------------
# Traffic generation


class TestTraffic:
    def test_same_seed_same_trace(self):
        def trace(seed):
            gen = TrafficGenerator(["a", "b"], 8, rate=200, seed=seed)
            return [
                (r.tenant, r.arrival_seconds, r.vector.tobytes())
                for r in gen.generate(2.0)
            ]

        assert trace(5) == trace(5)
        assert trace(5) != trace(6)

    def test_rate_is_respected(self):
        gen = TrafficGenerator(["a"], 8, rate=500, seed=0, fresh_fraction=0)
        n = len(gen.generate(4.0))
        assert 0.8 * 2000 < n < 1.2 * 2000

    def test_zipf_tenant_skew(self):
        gen = TrafficGenerator(["hot", "mid", "cold"], 8, rate=400, seed=2,
                               tenant_zipf_s=1.2)
        counts = {"hot": 0, "mid": 0, "cold": 0}
        for r in gen.generate(3.0):
            counts[r.tenant] += 1
        assert counts["hot"] > counts["mid"] > counts["cold"]

    def test_pool_repeats_enable_caching(self):
        gen = TrafficGenerator(["a"], 8, rate=400, seed=3, query_pool=8,
                               fresh_fraction=0.0)
        payloads = {r.vector.tobytes() for r in gen.generate(2.0)}
        assert len(payloads) <= 8

    def test_burst_concentrates_arrivals(self):
        schedule = DiurnalSchedule(
            period_seconds=100.0, amplitude=0.0,
            bursts=(Burst(1.0, 1.0, 8.0),),
        )
        gen = TrafficGenerator(["a"], 8, rate=100, seed=4, schedule=schedule)
        trace = gen.generate(3.0)
        inside = sum(1 for r in trace if 1.0 <= r.arrival_seconds < 2.0)
        outside = len(trace) - inside
        assert inside > 2 * (outside / 2)  # burst second beats others

    def test_diurnal_multiplier_bounds(self):
        schedule = DiurnalSchedule(period_seconds=10.0, amplitude=0.5,
                                   bursts=(Burst(0.0, 1.0, 3.0),))
        peak = schedule.peak()
        for t in np.linspace(0, 20, 500):
            assert schedule.multiplier(float(t)) <= peak + 1e-9

    def test_arrivals_sorted_and_in_window(self):
        gen = TrafficGenerator(["a"], 8, rate=300, seed=9)
        trace = gen.generate(1.5, start_seconds=4.0)
        times = [r.arrival_seconds for r in trace]
        assert times == sorted(times)
        assert all(4.0 <= t < 5.5 for t in times)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficGenerator([], 8)
        with pytest.raises(ValueError):
            TrafficGenerator(["a"], 8, rate=0)
        with pytest.raises(ValueError):
            DiurnalSchedule(amplitude=1.5)
        with pytest.raises(ValueError):
            Burst(0.0, 0.0)


# ---------------------------------------------------------------------------
# Report / response plumbing


class TestReporting:
    def test_served_response_repr_and_ok(self):
        r = ServedResponse(
            req("a", np.ones(4, dtype=np.float32)), "rejected",
            reason="throttled", retry_after_seconds=0.5,
        )
        assert not r.ok and "throttled" in repr(r)
        assert math.isnan(r.latency_seconds)

    def test_report_round_trips_dict(self):
        fd, _ = run_frontdoor(trace=[
            req("a", np.ones(12, dtype=np.float32))
        ])
        d = fd.report().to_dict()
        assert set(d) == {"tenants", "totals", "slos"}
        assert d["totals"]["requests"] == 1
