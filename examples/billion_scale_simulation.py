"""Scaling patterns: disk-resident indexes, distributed search, updates.

The paper's applications "may involve billions of vectors" — three
orders of magnitude beyond a laptop.  The *mechanisms* that make that
scale work are what this example exercises, on a simulated substrate
whose I/O and network costs are explicit:

1. memory-constrained serving with DiskANN and SPANN on the simulated
   page store (I/Os per query is the currency);
2. scatter-gather over a sharded, replicated cluster, with index-guided
   routing and a failure drill;
3. a sustained insert stream absorbed out-of-place — in the tail every
   search scans beside the built index, merged in bulk by a rebuild —
   while queries keep running.

Run:  python examples/billion_scale_simulation.py
"""

import dataclasses

import numpy as np

from repro import VectorDatabase, WorkCostModel
from repro.bench.datasets import gaussian_mixture
from repro.bench.metrics import exact_ground_truth, recall_at_k
from repro.core.types import SearchStats
from repro.distributed import (
    DistributedSearchCluster,
    IndexGuidedSharding,
    UniformSharding,
)
from repro.index import DiskAnnIndex, SpannIndex
from repro.scores import EuclideanScore


def disk_resident_serving(dataset, truth):
    print("=== 1. disk-resident indexes (RAM is the constraint) ===")
    raw_mb = dataset.train.nbytes / 1e6
    for name, index in (
        ("diskann", DiskAnnIndex(max_degree=24, build_beam_width=64,
                                 pq_m=16, pq_ks=64, beam_width=32, seed=0)),
        ("spann", SpannIndex(num_postings=64, closure_epsilon=0.25,
                             max_replicas=3, nprobe=6, seed=0)),
    ):
        index.build(dataset.train)
        stats = SearchStats()
        recalls = [
            recall_at_k([h.id for h in index.search(q, 10, stats=stats)],
                        truth[i])
            for i, q in enumerate(dataset.queries)
        ]
        print(
            f"  {name:8s} recall@10={np.mean(recalls):.3f}"
            f" pages/query={stats.page_reads / len(dataset.queries):5.1f}"
            f" RAM={index.memory_bytes() / 1e6:.2f}MB"
            f" (raw vectors: {raw_mb:.2f}MB)"
        )


def distributed_serving(dataset, truth):
    print("\n=== 2. distributed scatter-gather ===")
    # A 0.5 ms network and 2e-7 s per distance: distances dearer than the
    # fitted price, so that shard work sets the simulated latency here.
    prices = dict(
        cost_model=dataclasses.replace(WorkCostModel(), distance=2e-7),
        network_seconds=5e-4,
    )
    for label, sharding, nprobe in (
        ("uniform x8", UniformSharding(8), 8),
        ("index-guided x8", IndexGuidedSharding(8, cells_per_shard=4, seed=0), 2),
    ):
        cluster = DistributedSearchCluster(
            sharding=sharding, replication_factor=2, index_type="flat",
            **prices,
        )
        cluster.load(dataset.train)
        recalls, contacted, lat = [], [], []
        for i, q in enumerate(dataset.queries):
            result, dstats = cluster.search(q, 10, route_nprobe=nprobe)
            recalls.append(recall_at_k(result.ids, truth[i]))
            contacted.append(dstats.shards_contacted)
            lat.append(dstats.simulated_latency_seconds)
        print(
            f"  {label:16s} recall@10={np.mean(recalls):.3f}"
            f" shards/query={np.mean(contacted):.1f}"
            f" sim-latency={np.mean(lat) * 1e3:.2f}ms"
        )

    # Failure drill: kill one replica of every shard; service continues.
    cluster = DistributedSearchCluster(
        sharding=UniformSharding(4), replication_factor=2, index_type="flat",
        **prices,
    )
    cluster.load(dataset.train)
    before, _ = cluster.search(dataset.queries[0], 5)
    for shard in range(4):
        cluster.fail_node(shard, 0)
    after, dstats = cluster.search(dataset.queries[0], 5)
    print("  failure drill: results identical after killing 4 replicas:"
          f" {after.ids == before.ids} (failovers={dstats.failovers})")


def streaming_updates(dataset, truth):
    print("\n=== 3. sustained writes with out-of-place updates ===")
    base, stream = dataset.train[:3000], dataset.train[3000:]
    # Inserts land in the tail of the built index, which every search
    # scans exactly beside it; a rebuild every 400 is the bulk merge.
    db = VectorDatabase(dim=dataset.dim)
    db.insert_many(base)
    db.create_index("main", "hnsw", m=12, ef_construction=48, seed=0)
    import time

    start = time.perf_counter()
    checkpoints = []
    merges = 0
    for i, v in enumerate(stream):
        db.insert(v)
        if (i + 1) % 400 == 0:
            db.rebuild_indexes()
            merges += 1
        if (i + 1) % 250 == 0:
            recalls = [
                recall_at_k(db.search(q, k=10).ids, truth[j])
                for j, q in enumerate(dataset.queries)
            ]
            checkpoints.append((i + 1, float(np.mean(recalls))))
    elapsed = time.perf_counter() - start
    print(f"  ingested {len(stream)} inserts at"
          f" {len(stream) / elapsed:.0f} writes/s"
          f" ({merges} bulk merges)")
    for count, recall in checkpoints:
        print(f"    after {count:4d} inserts: recall@10={recall:.3f}")


def main() -> None:
    dataset = gaussian_mixture(n=4000, dim=32, num_clusters=32,
                               num_queries=20, seed=21)
    truth = exact_ground_truth(dataset.train, dataset.queries, 10,
                               EuclideanScore())
    disk_resident_serving(dataset, truth)
    distributed_serving(dataset, truth)
    streaming_updates(dataset, truth)


if __name__ == "__main__":
    main()
