"""Tests for async replica writes and elastic scale-out (§2.3)."""

import numpy as np
import pytest

from repro.core.errors import VdbmsError
from repro.core.types import Hits
from repro.distributed import (
    DistributedSearchCluster,
    IndexGuidedSharding,
    UniformSharding,
)


@pytest.fixture
def cluster(small_data):
    cluster = DistributedSearchCluster(
        sharding=UniformSharding(4), replication_factor=2, index_type="flat"
    )
    cluster.load(small_data)
    return cluster


class TestAsyncReplication:
    def test_primary_sees_write_immediately(self, cluster, rng):
        new_vec = rng.standard_normal(12).astype(np.float32)
        shard = cluster.insert(new_vec, item_id=1000)
        primary = cluster.nodes[shard][0]
        hits, _, _ = primary.search(new_vec, 1)
        assert hits[0].id == 1000

    def test_replica_stale_until_sync(self, cluster, rng):
        new_vec = 100 + rng.standard_normal(12).astype(np.float32)
        shard = cluster.insert(new_vec, item_id=1000)
        assert cluster.pending_replication() == 1
        replica = cluster.nodes[shard][1]
        hits, _, _ = replica.search(new_vec, 1)
        assert hits[0].id != 1000  # not yet applied
        applied = cluster.sync_replicas()
        assert applied >= 1
        assert cluster.pending_replication() == 0
        hits, _, _ = replica.search(new_vec, 1)
        assert hits[0].id == 1000

    def test_search_finds_write_after_sync_regardless_of_replica(
        self, cluster, rng
    ):
        new_vec = 50 + rng.standard_normal(12).astype(np.float32)
        cluster.insert(new_vec, item_id=2000)
        cluster.sync_replicas()
        for _ in range(4):  # cycles through replicas round-robin
            result, _ = cluster.search(new_vec, 1)
            assert result.ids == [2000]

    def test_insert_requires_load(self):
        cluster = DistributedSearchCluster(num_shards=2, index_type="flat")
        with pytest.raises(VdbmsError):
            cluster.insert(np.zeros(4, np.float32), 1)

    def test_single_inserts_keep_every_replicas_id_map(self, small_data, rng):
        # 1 000 writes one at a time grow each node's id buffer many
        # times over; every replica must still map its local rows to the
        # cluster ids written to it, in row order.
        cluster = DistributedSearchCluster(
            sharding=UniformSharding(3), replication_factor=2, index_type="flat"
        )
        cluster.load(small_data)
        written = dict(enumerate(small_data))
        new = rng.standard_normal((1000, small_data.shape[1])).astype(np.float32)
        for offset, vector in enumerate(new):
            cluster.insert(vector, 10_000 + offset)
            written[10_000 + offset] = vector
        cluster.sync_replicas()
        for replicas in cluster.nodes:
            for node in replicas:
                rows = node.db.collection.vectors
                assert node.ids.shape == (rows.shape[0],)
                want = np.stack([written[i] for i in node.ids.tolist()])
                np.testing.assert_array_equal(rows, want)
        assert sum(cluster.shard_sizes()) == len(written)
        for query in np.vstack([new[::97], rng.standard_normal((5, 12))]):
            for _ in range(2):  # both replicas, round-robin
                result, _ = cluster.search(query.astype(np.float32), 10)
                assert result.ids == brute_force(written, query, 10)

    def test_index_guided_insert_routes_by_geometry(self, small_data, rng):
        sharding = IndexGuidedSharding(4, cells_per_shard=2, seed=0)
        cluster = DistributedSearchCluster(sharding=sharding, index_type="flat")
        cluster.load(small_data)
        # Insert a copy of an existing vector: must land on its shard.
        probe = small_data[0]
        expected = int(sharding.assign(probe[None, :])[0])
        got = cluster.insert(probe, item_id=5000)
        assert got == expected


class TestScaleOut:
    def test_results_identical_after_scale_out(self, cluster, small_data,
                                               small_queries):
        before, _ = cluster.search(small_queries[0], 10)
        moved = cluster.scale_out(8)
        after, dstats = cluster.search(small_queries[0], 10)
        assert after.ids == before.ids
        assert moved > 0
        assert dstats.shards_contacted == 8

    def test_shards_balanced_after_scale_out(self, cluster):
        cluster.scale_out(8)
        sizes = cluster.shard_sizes()
        assert len(sizes) == 8
        assert max(sizes) - min(sizes) <= 1

    def test_movement_bounded(self, cluster, small_data):
        """Modulo resharding moves at most all vectors; record it."""
        moved = cluster.scale_out(8)
        assert 0 < moved <= len(small_data)
        assert cluster.vectors_moved == moved

    def test_pending_writes_flushed_before_move(self, cluster, rng):
        cluster.insert(rng.standard_normal(12).astype(np.float32), 999)
        assert cluster.pending_replication() > 0
        cluster.scale_out(8)
        assert cluster.pending_replication() == 0
        # The write survives resharding.
        total = sum(cluster.shard_sizes())
        assert total == 301

    def test_validation(self, cluster):
        with pytest.raises(VdbmsError, match="more shards"):
            cluster.scale_out(4)
        guided = DistributedSearchCluster(
            sharding=IndexGuidedSharding(2, seed=0), index_type="flat"
        )
        guided.load(np.zeros((10, 4), dtype=np.float32))
        with pytest.raises(VdbmsError, match="UniformSharding"):
            guided.scale_out(4)


def brute_force(rows: dict[int, np.ndarray], query: np.ndarray, k: int) -> list[int]:
    """The ``k`` nearest written rows, by (distance, cluster id)."""
    ids = np.fromiter(rows, dtype=np.int64)
    dists = np.linalg.norm(np.stack([rows[i] for i in ids]) - query, axis=1)
    return ids[np.lexsort((ids, dists))[:k]].tolist()


@pytest.mark.parametrize("sharded", ["uniform", "index_guided"])
@pytest.mark.parametrize("index_type, kwargs", [
    ("flat", {}), ("hnsw", {"m": 8, "seed": 0}),
])
def test_writes_ride_each_replicas_database(index_type, kwargs, sharded):
    """load → inserts under arbitrary cluster ids → search → sync →
    search → scale-out → search: a replica answers for the rows it has
    applied, by cluster id, and for no other."""
    rng = np.random.default_rng(21)
    n, extra, k = 200, 20, 5
    vectors = rng.standard_normal((n + extra, 8)).astype(np.float32)
    ids = rng.choice(10**6, n + extra, replace=False).astype(np.int64)
    sharding = (
        UniformSharding(4) if sharded == "uniform"
        else IndexGuidedSharding(4, cells_per_shard=2, seed=0)
    )
    cluster = DistributedSearchCluster(
        sharding=sharding, replication_factor=2, index_type=index_type, **kwargs
    )
    cluster.load(vectors[:n], ids[:n])
    written = dict(zip(ids[:n].tolist(), vectors[:n]))
    shards = [set(primary.ids.tolist()) for primary, _ in cluster.nodes]
    assert set().union(*shards) == set(written)
    for vector, item_id in zip(vectors[n:], ids[n:].tolist()):
        shard = cluster.insert(vector, item_id)
        written[item_id] = vector
        assert item_id in cluster.nodes[shard][0].ids
    assert sum(cluster.shard_sizes()) == len(written)
    assert cluster.pending_replication() == extra
    queries = np.vstack([vectors[n:], rng.standard_normal((5, 8)).astype(np.float32)])

    def node_answers(replica: int, query) -> list[int]:
        parts = [nodes[replica].search(query, k)[0] for nodes in cluster.nodes]
        return Hits.merge(parts, k).ids.tolist()

    # Pending: the primaries hold every written row, the replicas only
    # what they loaded.
    loaded = set(ids[:n].tolist())
    for query in queries:
        primary = node_answers(0, query)
        stale = node_answers(1, query)
        assert set(stale) <= loaded
        if index_type == "flat":
            assert primary == brute_force(written, query, k)
            assert stale == brute_force(
                {i: written[i] for i in loaded}, query, k
            )
    for vector, item_id in zip(vectors[n:], ids[n:].tolist()):
        assert node_answers(0, vector)[0] == item_id

    def check_synced():
        for query in queries:
            assert node_answers(1, query) == node_answers(0, query)
            for primary, replica in cluster.nodes:
                assert replica.search(query, k)[0] == primary.search(query, k)[0]
            result, _ = cluster.search(query, k, route_nprobe=8)
            if index_type == "flat":
                assert result.ids == brute_force(written, query, k)
        for vector, item_id in zip(vectors[n:], ids[n:].tolist()):
            result, _ = cluster.search(vector, k, route_nprobe=8)
            assert (result.ids[0], result.distances[0]) == (item_id, 0.0)
        assert sum(cluster.shard_sizes()) == len(written)

    assert cluster.sync_replicas() == extra
    assert cluster.pending_replication() == 0
    check_synced()
    if sharded == "uniform":
        cluster.scale_out(6)
        assert max(cluster.shard_sizes()) - min(cluster.shard_sizes()) <= 1
        check_synced()
