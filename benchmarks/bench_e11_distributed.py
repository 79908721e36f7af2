"""E11 (§2.3 distributed search): shard scaling and routing.

Regenerates:

* simulated latency and aggregate-QPS bound vs shard count under
  scatter-gather (equal partitioning);
* index-guided vs uniform sharding: nodes contacted per query and
  throughput at matched recall;
* replica failover continuity.
"""

import dataclasses

import numpy as np
import pytest

from _util import emit, recall_of
from repro.bench.reporting import format_table
from repro.core.cost import WorkCostModel
from repro.distributed import (
    DistributedSearchCluster,
    IndexGuidedSharding,
    UniformSharding,
)

#: A 0.5 ms network and 2e-7 s per distance — distances dearer than
#: the fitted price, so that the shard work, not the fixed execution
#: price, sets the simulated latency at this data size.
PRICES = dict(
    cost_model=dataclasses.replace(WorkCostModel(), distance=2e-7),
    network_seconds=5e-4,
)


@pytest.fixture(scope="module")
def e11_scaling_table(workload, truth10):
    rows = []
    for shards in (1, 2, 4, 8, 16):
        cluster = DistributedSearchCluster(
            sharding=UniformSharding(shards), index_type="flat", **PRICES
        )
        cluster.load(workload.train)
        latencies, recalls, qps = [], [], []
        for i, q in enumerate(workload.queries):
            result, dstats = cluster.search(q, 10)
            latencies.append(dstats.simulated_latency_seconds)
            recalls.append(recall_of(result.hits, truth10[i]))
            qps.append(cluster.throughput_estimate(dstats))
        rows.append(
            {
                "shards": shards,
                "recall@10": round(float(np.mean(recalls)), 3),
                "sim_latency_ms": round(float(np.mean(latencies)) * 1e3, 3),
                "qps_bound": round(float(np.mean(qps)), 0),
            }
        )
    emit("e11_scaling", format_table(
        rows, "E11a: scatter-gather scaling with shard count (flat shards)"
    ))
    return rows


@pytest.fixture(scope="module")
def e11_routing_table(workload, truth10):
    rows = []
    uniform = DistributedSearchCluster(
        sharding=UniformSharding(8), index_type="flat", **PRICES
    )
    uniform.load(workload.train)
    guided = DistributedSearchCluster(
        sharding=IndexGuidedSharding(8, cells_per_shard=4, seed=0),
        index_type="flat", **PRICES,
    )
    guided.load(workload.train)
    for name, cluster, nprobe in (
        ("uniform", uniform, 8),
        ("index_guided(np=2)", guided, 2),
        ("index_guided(np=4)", guided, 4),
    ):
        contacted, recalls, qps = [], [], []
        for i, q in enumerate(workload.queries):
            result, dstats = cluster.search(q, 10, route_nprobe=nprobe)
            contacted.append(dstats.shards_contacted)
            recalls.append(recall_of(result.hits, truth10[i]))
            qps.append(cluster.throughput_estimate(dstats))
        rows.append(
            {
                "sharding": name,
                "shards_contacted": round(float(np.mean(contacted)), 2),
                "recall@10": round(float(np.mean(recalls)), 3),
                "qps_bound": round(float(np.mean(qps)), 0),
            }
        )
    emit("e11_routing", format_table(
        rows, "E11b: uniform vs index-guided sharding (8 shards)"
    ))
    return rows


@pytest.fixture(scope="module")
def e11_elastic_table(workload):
    """Elasticity: scale-out cost and benefit (§2.3 disaggregation)."""
    cluster = DistributedSearchCluster(
        sharding=UniformSharding(2), replication_factor=1, index_type="flat",
        **PRICES,
    )
    cluster.load(workload.train)
    rows = []
    for target in (2, 4, 8):
        if target > cluster.num_shards:
            moved = cluster.scale_out(target)
        else:
            moved = 0
        latencies = []
        for q in workload.queries[:10]:
            _, dstats = cluster.search(q, 10)
            latencies.append(dstats.simulated_latency_seconds)
        rows.append(
            {
                "shards": target,
                "vectors_moved": moved,
                "sim_latency_ms": round(float(np.mean(latencies)) * 1e3, 3),
            }
        )
    emit("e11_elastic", format_table(
        rows, "E11c: elastic scale-out (uniform resharding)"
    ))
    return rows


def test_e11_scale_out_reduces_latency(e11_elastic_table):
    latencies = [r["sim_latency_ms"] for r in e11_elastic_table]
    assert latencies[-1] < latencies[0]


def test_e11_scale_out_moves_bounded_fraction(e11_elastic_table):
    for row in e11_elastic_table:
        assert row["vectors_moved"] <= 4000


def test_e11_latency_drops_with_shards(e11_scaling_table):
    lat = [r["sim_latency_ms"] for r in e11_scaling_table]
    assert lat[-1] < lat[0]
    assert all(r["recall@10"] == 1.0 for r in e11_scaling_table)  # exact merge


def test_e11_qps_improves_with_shards(e11_scaling_table):
    """Full-scatter sharding buys throughput only via lower per-node
    work (latency), bounded below by the network RTT — the reason
    index-guided routing (E11b) matters."""
    qps = [r["qps_bound"] for r in e11_scaling_table]
    assert qps[-1] > 1.5 * qps[0]


def test_e11_guided_contacts_fewer(e11_routing_table):
    by_name = {r["sharding"]: r for r in e11_routing_table}
    assert (
        by_name["index_guided(np=2)"]["shards_contacted"]
        < by_name["uniform"]["shards_contacted"]
    )
    assert by_name["index_guided(np=4)"]["recall@10"] >= 0.9


def test_e11_failover_preserves_results(workload):
    cluster = DistributedSearchCluster(
        sharding=UniformSharding(4), replication_factor=2, index_type="flat",
        **PRICES,
    )
    cluster.load(workload.train)
    q = workload.queries[0]
    before, _ = cluster.search(q, 10)
    cluster.fail_node(0, 0)
    cluster.fail_node(2, 0)
    after, dstats = cluster.search(q, 10)
    assert after.ids == before.ids


def test_bench_e11_scatter_gather(benchmark, workload, e11_scaling_table,
                                  e11_routing_table, e11_elastic_table):
    cluster = DistributedSearchCluster(
        sharding=UniformSharding(8), index_type="flat", **PRICES
    )
    cluster.load(workload.train)
    q = workload.queries[0]
    benchmark(lambda: cluster.search(q, 10))


def test_bench_e11_guided_routing(benchmark, workload):
    cluster = DistributedSearchCluster(
        sharding=IndexGuidedSharding(8, cells_per_shard=4, seed=0),
        index_type="flat", **PRICES,
    )
    cluster.load(workload.train)
    q = workload.queries[0]
    benchmark(lambda: cluster.search(q, 10, route_nprobe=2))
