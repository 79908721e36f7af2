"""Seeded chaos tests for the reliability subsystem (§2.3 fault path).

Covers the acceptance scenario (replica kill at rf=2 vs rf=1), seeded
determinism of fault plans, monotone recall degradation with coverage,
circuit-breaker trip/recovery, deadlines, and storage I/O faults.
"""

import warnings

import numpy as np
import pytest

from repro.core.database import VectorDatabase
from repro.core.errors import (
    AllReplicasDownError,
    DeadlineExceededError,
    PageReadError,
    PartialResultWarning,
    ReplicaUnavailableError,
    VdbmsError,
)
from repro.core.planner import QueryPlan
from repro.distributed import (
    DistributedSearchCluster,
    UniformSharding,
)
from repro.reliability import (
    CRASH,
    FLAKY,
    PAGE_ERROR,
    SLOW,
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.storage.disk import SimulatedDisk


def _recall(hits, truth_row) -> float:
    truth = set(int(t) for t in truth_row)
    return len(truth.intersection(h.id for h in hits)) / len(truth)


def _cluster(data, shards=4, replicas=1, injector=None, **kwargs):
    cluster = DistributedSearchCluster(
        sharding=UniformSharding(shards), replication_factor=replicas,
        index_type="flat", injector=injector, **kwargs,
    )
    cluster.load(data)
    return cluster


# ------------------------------------------------------------ fault plans


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(FLAKY, probability=1.5)

    def test_target_wildcards(self):
        spec = FaultSpec(CRASH, target="shard0-*")
        assert spec.matches("shard0-replica1")
        assert not spec.matches("shard1-replica0")

    def test_deterministic_window(self):
        plan = FaultPlan((FaultSpec(CRASH, target="n", at_op=2,
                                    duration_ops=2),))
        inj = plan.injector()
        fired = [inj.on_request("n").crashed for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_same_seed_same_decisions(self):
        plan = FaultPlan((FaultSpec(FLAKY, probability=0.5),), seed=42)
        seq1 = [d.flaky for d in map(plan.injector().on_request, ["n"] * 50)]
        seq2 = [d.flaky for d in map(plan.injector().on_request, ["n"] * 50)]
        assert seq1 == seq2
        assert any(seq1) and not all(seq1)

    def test_probabilistic_crash_heals(self):
        plan = FaultPlan(
            (FaultSpec(CRASH, probability=1.0, duration_ops=3),), seed=0
        )
        inj = plan.injector()
        assert inj.on_request("n").crashed  # trips, heal counter = 3
        assert inj.is_down("n")
        inj.heal_all()
        assert not inj.is_down("n")

    def test_slow_decision_carries_slowdown(self):
        plan = FaultPlan((FaultSpec(SLOW, at_op=0, slowdown=25.0),))
        decision = plan.injector().on_request("n")
        assert decision.kind == SLOW
        assert decision.slowdown == 25.0


# --------------------------------------------------------- retry/deadline


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_seconds=0.001, multiplier=2.0,
                             max_delay_seconds=0.004, jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.001)
        assert policy.backoff(2) == pytest.approx(0.002)
        assert policy.backoff(4) == pytest.approx(0.004)  # capped
        assert policy.backoff(9) == pytest.approx(0.004)

    def test_jitter_is_seeded(self):
        a = RetryPolicy(jitter=0.5, seed=3)
        b = RetryPolicy(jitter=0.5, seed=3)
        assert [a.backoff(i) for i in range(1, 5)] == [
            b.backoff(i) for i in range(1, 5)
        ]

    def test_invalid_knobs(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_deadline_charge_and_check(self):
        deadline = Deadline(0.01)
        deadline.charge(0.005)
        assert not deadline.exceeded
        deadline.check()
        deadline.charge(0.006)
        assert deadline.exceeded
        with pytest.raises(DeadlineExceededError):
            deadline.check()


# --------------------------------------------------------- circuit breaker


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ops=2)
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()          # cooldown tick 1
        assert breaker.allow()              # cooldown done -> half-open probe
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_retrips(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ops=1)
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow()              # half-open
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2


# ----------------------------------------------------- acceptance scenario


class TestReplicaKillAcceptance:
    """ISSUE acceptance: one replica of every shard killed by a plan."""

    def test_rf2_survives_with_full_coverage(self, small_data, small_queries):
        plan = FaultPlan.kill_replicas(num_shards=4, replica=0, seed=7)
        cluster = _cluster(small_data, shards=4, replicas=2,
                           injector=plan.injector())
        failovers = 0
        for q in small_queries:
            result, dstats = cluster.search(q, 10)   # strict: must not raise
            assert dstats.coverage_fraction == 1.0
            assert not result.is_partial
            assert len(result) == 10
            failovers += dstats.failovers
        assert failovers > 0

    def test_rf2_matches_faultfree_results(self, small_data, small_queries):
        plan = FaultPlan.kill_replicas(num_shards=4, replica=0, seed=7)
        faulty = _cluster(small_data, shards=4, replicas=2,
                          injector=plan.injector())
        healthy = _cluster(small_data, shards=4, replicas=2)
        for q in small_queries:
            got, _ = faulty.search(q, 10)
            want, _ = healthy.search(q, 10)
            assert got.ids == want.ids

    def test_rf1_partial_in_nonstrict_mode(self, small_data, small_queries):
        plan = FaultPlan.kill_replicas(num_shards=4, replica=0, seed=7)
        cluster = _cluster(small_data, shards=4, replicas=1,
                           injector=plan.injector(), strict=False)
        with pytest.warns(PartialResultWarning):
            result, dstats = cluster.search(small_queries[0], 10)
        assert dstats.coverage_fraction < 1.0
        assert result.is_partial
        assert result.stats.partial
        assert dstats.shards_failed == 4
        assert dstats.skipped_shards == [0, 1, 2, 3]

    def test_rf1_raises_in_strict_mode(self, small_data, small_queries):
        plan = FaultPlan.kill_replicas(num_shards=4, replica=0, seed=7)
        cluster = _cluster(small_data, shards=4, replicas=1,
                           injector=plan.injector(), strict=True)
        with pytest.raises(AllReplicasDownError):
            cluster.search(small_queries[0], 10)

    def test_typed_error_is_backward_compatible(self, small_data,
                                                small_queries):
        cluster = _cluster(small_data, shards=4, replicas=1)
        cluster.fail_node(0, 0)
        with pytest.raises(VdbmsError, match="all replicas"):
            cluster.search(small_queries[0], 5)


# ----------------------------------------------------------- determinism


class TestSeededChaosDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_same_seed_identical_results(self, small_data, small_queries,
                                         seed):
        plan = FaultPlan.random_plan(
            seed=seed, crash_rate=0.05, flaky_rate=0.1, slow_rate=0.1,
            slowdown=5.0, crash_duration_ops=4,
        )

        def run():
            cluster = _cluster(small_data, shards=4, replicas=2,
                               injector=plan.injector(), strict=False)
            ids, coverage, latency = [], [], []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PartialResultWarning)
                for q in small_queries:
                    result, dstats = cluster.search(q, 10)
                    ids.append(tuple(result.ids))
                    coverage.append(dstats.coverage_fraction)
                    latency.append(round(dstats.simulated_latency_seconds, 12))
            return ids, coverage, latency

        assert run() == run()


# ------------------------------------------------- graceful degradation


class TestGracefulDegradation:
    def test_recall_degrades_monotonically_with_coverage(
        self, small_data, small_queries, ground_truth_10
    ):
        recalls, coverages = [], []
        for killed in range(5):
            cluster = _cluster(small_data, shards=4, replicas=1,
                               strict=False)
            for s in range(killed):
                cluster.fail_node(s, 0)
            per_query, cov = [], []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PartialResultWarning)
                for i, q in enumerate(small_queries):
                    result, dstats = cluster.search(q, 10)
                    per_query.append(_recall(result.hits, ground_truth_10[i]))
                    cov.append(dstats.coverage_fraction)
            recalls.append(float(np.mean(per_query)))
            coverages.append(float(np.mean(cov)))
        assert coverages == [1.0, 0.75, 0.5, 0.25, 0.0]
        for better, worse in zip(recalls, recalls[1:]):
            assert worse <= better + 1e-9
        assert recalls[0] == 1.0 and recalls[-1] == 0.0

    def test_partial_results_still_sorted(self, small_data, small_queries):
        cluster = _cluster(small_data, shards=4, replicas=1, strict=False)
        cluster.fail_node(2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialResultWarning)
            result, _ = cluster.search(small_queries[0], 10)
        distances = result.distances
        assert distances == sorted(distances)


# ------------------------------------------------------ breaker in cluster


class TestClusterBreaker:
    def test_breaker_trips_then_recovers(self, small_data, small_queries):
        cluster = _cluster(small_data, shards=4, replicas=2,
                           breaker_failure_threshold=2,
                           breaker_cooldown_ops=2)
        for s in range(4):
            cluster.fail_node(s, 0)
        skips = 0
        for _ in range(6):
            _, dstats = cluster.search(small_queries[0], 5)
            skips += dstats.breaker_skips
        health = cluster.health()
        assert health.tripped_replicas == 4
        assert skips > 0
        assert health.shards_at_risk() == []   # replica1 of each shard is up
        # Recover the nodes; cooldown elapses, probes succeed, breakers
        # close again.
        for s in range(4):
            cluster.recover_node(s, 0)
        for _ in range(8):
            cluster.search(small_queries[0], 5)
        health = cluster.health()
        assert health.tripped_replicas == 0
        assert health.healthy_replicas == 8

    def test_health_summary_mentions_risky_shards(self, small_data):
        cluster = _cluster(small_data, shards=2, replicas=1)
        cluster.fail_node(1, 0)
        assert "1" in cluster.health().summary()


# ------------------------------------------------------------- deadlines


class TestDeadlines:
    def _slow_cluster(self, data, **kwargs):
        plan = FaultPlan((FaultSpec(SLOW, at_op=0, slowdown=1000.0),))
        return _cluster(data, shards=4, replicas=1,
                        injector=plan.injector(), **kwargs)

    def test_deadline_raises_in_strict_mode(self, small_data, small_queries):
        cluster = self._slow_cluster(small_data, strict=True)
        with pytest.raises(DeadlineExceededError):
            cluster.search(small_queries[0], 10, deadline_seconds=0.01)

    def test_deadline_partial_in_nonstrict_mode(self, small_data,
                                                small_queries):
        cluster = self._slow_cluster(small_data, strict=False)
        with pytest.warns(PartialResultWarning):
            result, dstats = cluster.search(
                small_queries[0], 10, deadline_seconds=0.01
            )
        assert dstats.deadline_exceeded
        assert result.is_partial
        assert dstats.coverage_fraction < 1.0

    def test_generous_deadline_is_harmless(self, small_data, small_queries):
        cluster = _cluster(small_data, shards=4, replicas=1)
        result, dstats = cluster.search(
            small_queries[0], 10, deadline_seconds=60.0
        )
        assert len(result) == 10
        assert not dstats.deadline_exceeded


# --------------------------------------------------- retries and latency


class TestRetriesAndLatency:
    def test_flaky_replica_retried_then_failed_over(self, small_data,
                                                    small_queries):
        plan = FaultPlan(
            (FaultSpec(FLAKY, target="shard*-replica0", probability=1.0),)
        )
        cluster = _cluster(small_data, shards=4, replicas=2,
                           injector=plan.injector())
        cluster.search(small_queries[0], 5)            # replica1-first round
        _, dstats = cluster.search(small_queries[0], 5)  # replica0-first round
        assert dstats.retries > 0
        assert dstats.failovers > 0

    def test_failed_attempts_charge_the_simulated_clock(self, small_data,
                                                        small_queries):
        cluster = _cluster(small_data, shards=4, replicas=2)
        cluster.fail_node(0, 0)
        _, warm = cluster.search(small_queries[0], 5)   # replica1 first: clean
        _, fo = cluster.search(small_queries[0], 5)     # replica0 first: fails
        assert fo.failovers > 0
        assert (fo.simulated_latency_seconds
                > warm.simulated_latency_seconds)

    def test_failed_attempt_latency_overridable(self):
        cluster = DistributedSearchCluster(network_seconds=0.001,
                                           failed_attempt_seconds=0.05)
        assert cluster.failed_attempt_seconds == 0.05
        assert DistributedSearchCluster(network_seconds=0.001) \
            .failed_attempt_seconds == 0.001

    def test_node_raises_typed_transient_error(self, small_data):
        plan = FaultPlan((FaultSpec(FLAKY, probability=1.0),))
        cluster = _cluster(small_data, shards=1, replicas=1,
                           injector=plan.injector())
        node = cluster.nodes[0][0]
        with pytest.raises(ReplicaUnavailableError) as err:
            node.search(small_data[0], 1)
        assert err.value.transient


# ------------------------------------------------------- storage faults


class TestStorageFaults:
    def test_injected_page_error_raises_and_counts(self):
        plan = FaultPlan((FaultSpec(PAGE_ERROR, target="disk", at_op=0),))
        disk = SimulatedDisk(injector=plan.injector())
        page = disk.allocate()
        disk.write_page(page, b"abc")
        with pytest.raises(PageReadError):
            disk.read_page(page)
        assert disk.stats.read_errors == 1
        assert disk.stats.reads == 0

    @pytest.mark.parametrize("index_type,params", [
        ("diskann", dict(max_degree=8, build_beam_width=16, pq_m=4, pq_ks=16)),
        ("spann", dict(num_postings=8, nprobe=4)),
    ])
    def test_disk_index_page_error_raises_never_short(
        self, small_data, index_type, params
    ):
        """A page fault under a disk-resident index fails the search
        loudly, whether the index is searched directly or through a
        database plan naming it: no short answer is ever returned."""
        plan = FaultPlan((FaultSpec(PAGE_ERROR, target="disk", at_op=0),))
        disk = SimulatedDisk(page_size=4096, injector=plan.injector())
        db = VectorDatabase(dim=small_data.shape[1])
        db.insert_many(small_data[:200])
        index = db.create_index("disk", index_type, disk=disk, **params)
        assert disk.stats.read_errors == 0
        with pytest.raises(PageReadError):
            index.search(small_data[0], k=5)
        assert disk.stats.read_errors == 1
        with pytest.raises(PageReadError):
            db.search(small_data[0], k=5,
                      plan=QueryPlan("index_scan", "disk"))
        assert disk.stats.read_errors == 2
        assert disk.stats.reads == 0
