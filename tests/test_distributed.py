"""Tests for distributed scatter-gather search (§2.3)."""

import warnings
from itertools import chain

import numpy as np
import pytest

from repro.core.errors import VdbmsError
from repro.distributed import (
    DistributedSearchCluster,
    IndexGuidedSharding,
    SearchNode,
    UniformSharding,
)
from repro.index import FlatIndex
from repro.reliability import FaultPlan
from repro.scores import EuclideanScore


@pytest.fixture(scope="module")
def cluster_data(small_dataset):
    return small_dataset.train


class TestSharding:
    def test_uniform_balanced(self, cluster_data):
        strategy = UniformSharding(4)
        assignment = strategy.assign(cluster_data)
        counts = np.bincount(assignment, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_uniform_routes_everywhere(self, cluster_data):
        strategy = UniformSharding(4)
        assert strategy.route(cluster_data[0], 2) == [0, 1, 2, 3]

    def test_index_guided_respects_clusters(self, cluster_data):
        strategy = IndexGuidedSharding(4, cells_per_shard=2, seed=0)
        strategy.fit(cluster_data)
        # Points in the same tight cluster should mostly share a shard.
        assignment = strategy.assign(cluster_data)
        assert assignment.shape == (300,)

    def test_index_guided_routes_subset(self, cluster_data):
        strategy = IndexGuidedSharding(4, cells_per_shard=2, seed=0)
        strategy.fit(cluster_data)
        routed = strategy.route(cluster_data[0], nprobe=1)
        assert len(routed) == 1

    def test_index_guided_requires_fit_for_route(self, cluster_data):
        with pytest.raises(RuntimeError):
            IndexGuidedSharding(2).route(cluster_data[0], 1)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            UniformSharding(0)


class TestSearchNode:
    def test_node_search(self, cluster_data):
        node = SearchNode("n0", index_type="flat")
        node.load(cluster_data[:100], np.arange(100, dtype=np.int64))
        hits, latency, stats = node.search(cluster_data[5], 3)
        assert hits[0].id == 5
        assert latency > 0
        assert stats.distance_computations > 0

    def test_down_node_raises(self, cluster_data):
        node = SearchNode("n0", index_type="flat")
        node.load(cluster_data[:10], np.arange(10, dtype=np.int64))
        node.is_up = False
        with pytest.raises(ConnectionError):
            node.search(cluster_data[0], 1)

    def test_empty_node(self):
        node = SearchNode("n0", index_type="flat")
        node.load(np.empty((0, 4), dtype=np.float32), np.empty(0, dtype=np.int64))
        hits, _, _ = node.search(np.zeros(4, dtype=np.float32), 3)
        assert hits == []


class TestCluster:
    def _uniform_cluster(self, data, shards=4, replicas=1):
        cluster = DistributedSearchCluster(
            sharding=UniformSharding(shards), replication_factor=replicas,
            index_type="flat",
        )
        cluster.load(data)
        return cluster

    def test_results_match_single_node_exact(self, cluster_data, small_queries):
        cluster = self._uniform_cluster(cluster_data)
        oracle = FlatIndex(EuclideanScore()).build(cluster_data)
        for q in small_queries[:5]:
            result, _ = cluster.search(q, 10)
            expected = [h.id for h in oracle.search(q, 10)]
            assert result.ids == expected

    def test_gather_is_the_object_sort_of_the_shard_answers_under_faults(
        self, cluster_data, small_queries, monkeypatch
    ):
        """Differential: whatever shards a seeded fault plan lets answer,
        the gather equals sorting their SearchHit objects — id for id,
        bit for bit."""
        plan = FaultPlan.random_plan(seed=21, crash_rate=0.1, flaky_rate=0.3)
        cluster = DistributedSearchCluster(
            sharding=UniformSharding(4), replication_factor=2,
            index_type="flat", injector=plan.injector(), strict=False,
        )
        cluster.load(np.vstack([cluster_data, cluster_data[:40]]))  # exact ties
        answered = []
        search_shard = cluster._search_shard

        def recording(*args, **kwargs):
            out = search_shard(*args, **kwargs)
            answered.append(out[0])
            return out

        monkeypatch.setattr(cluster, "_search_shard", recording)
        partial = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for q in list(small_queries) * 3:
                answered.clear()
                result, dstats = cluster.search(q, 7)
                parts = [list(hits) for hits in answered if hits is not None]
                assert len(parts) == dstats.shards_ok
                expected = sorted(chain(*parts))[:7]
                assert result.hits == expected
                assert [np.float64(h.distance).tobytes() for h in result.hits] == [
                    np.float64(h.distance).tobytes() for h in expected]
                partial += dstats.partial
        assert 0 < partial < 3 * len(small_queries), "the plan bites, not always"

    def test_shard_sizes_cover_data(self, cluster_data):
        cluster = self._uniform_cluster(cluster_data)
        assert sum(cluster.shard_sizes()) == 300

    def test_replica_failover(self, cluster_data, small_queries):
        cluster = self._uniform_cluster(cluster_data, replicas=2)
        baseline, _ = cluster.search(small_queries[0], 5)
        cluster.fail_node(0, 0)
        result, dstats = cluster.search(small_queries[0], 5)
        assert result.ids == baseline.ids
        assert dstats.failovers >= 0  # failover only if shard 0 was routed

    def test_all_replicas_down_raises(self, cluster_data, small_queries):
        cluster = self._uniform_cluster(cluster_data, replicas=1)
        cluster.fail_node(0, 0)
        with pytest.raises(VdbmsError, match="all replicas"):
            cluster.search(small_queries[0], 5)

    def test_recovery(self, cluster_data, small_queries):
        cluster = self._uniform_cluster(cluster_data, replicas=1)
        cluster.fail_node(1, 0)
        cluster.recover_node(1, 0)
        result, _ = cluster.search(small_queries[0], 5)
        assert len(result) == 5

    def test_index_guided_contacts_fewer_shards(self, cluster_data,
                                                small_queries):
        guided = DistributedSearchCluster(
            sharding=IndexGuidedSharding(4, cells_per_shard=2, seed=0),
            index_type="flat",
        )
        guided.load(cluster_data)
        uniform = self._uniform_cluster(cluster_data)
        _, g = guided.search(small_queries[0], 5, route_nprobe=2)
        _, u = uniform.search(small_queries[0], 5)
        assert g.shards_contacted <= u.shards_contacted

    def test_latency_is_max_not_sum(self, cluster_data, small_queries):
        # A 10 ms network dwarfing the work, so a sum would show.
        cluster = DistributedSearchCluster(
            sharding=UniformSharding(4), index_type="flat", network_seconds=0.01
        )
        cluster.load(cluster_data)
        _, dstats = cluster.search(small_queries[0], 5)
        # 4 shards at 10ms each in parallel -> ~10ms, not 40ms.
        assert dstats.simulated_latency_seconds < 0.02

    def test_throughput_scales_with_guided_routing(self, cluster_data,
                                                   small_queries):
        guided = DistributedSearchCluster(
            sharding=IndexGuidedSharding(4, cells_per_shard=2, seed=0),
            index_type="flat",
        )
        guided.load(cluster_data)
        _, g = guided.search(small_queries[0], 5, route_nprobe=1)
        uniform = self._uniform_cluster(cluster_data)
        _, u = uniform.search(small_queries[0], 5)
        assert guided.throughput_estimate(g) >= uniform.throughput_estimate(u)

    def test_unloaded_cluster_rejected(self, small_queries):
        cluster = DistributedSearchCluster(num_shards=2, index_type="flat")
        with pytest.raises(VdbmsError, match="no data"):
            cluster.search(small_queries[0], 5)

    def test_invalid_replication(self):
        with pytest.raises(VdbmsError):
            DistributedSearchCluster(replication_factor=0)

    def test_round_robin_spreads_load(self, cluster_data, small_queries):
        cluster = self._uniform_cluster(cluster_data, replicas=2)
        for _ in range(10):
            cluster.search(small_queries[0], 3)
        served = [
            replica.queries_served
            for shard in cluster.nodes
            for replica in shard
        ]
        assert min(served) >= 3  # both replicas of each shard did work
