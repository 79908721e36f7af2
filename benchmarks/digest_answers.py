"""Answer digests: "bit-identical to the parent" as one command.

Runs a fixed, seeded set of queries through every layer that produces or
forwards hits and prints one SHA-256 per cell over the ids, the float64
bits of the distances and the six ``SearchStats`` work counters:

* ``index/<name>/...`` — every registered index, ``search`` and
  ``range_search``, unmasked and under an ``allowed`` mask;
* ``exec/<kind>/<strategy>`` — the execution-contract matrix (every query
  kind under every strategy) plus ``multi_score``;
* ``freshness/<index>`` — inserts, deletes and a vector update after the
  build, read back through ``db.search``;
* ``entity``, ``batched_graph``, ``cursor``, ``secure`` — the producers
  outside the registry;
* ``cluster`` — a seeded scatter-gather under a seeded ``FaultPlan``,
  and the write path: inserts read while the replicas lag, after
  ``sync_replicas`` and after ``scale_out``;
* ``frontdoor`` — a seeded request trace replayed through
  ``ServingFrontDoor``;
* ``telemetry/frontdoor`` — what that trace leaves behind with
  ``Observability()`` and ``telemetry=True``: the Prometheus dump, every
  closed window, every journey and every span, minus wall-clock readings.

Run it on two checkouts and diff the output::

    PYTHONPATH=src python benchmarks/digest_answers.py > change.txt
    PYTHONPATH=../parent/src python benchmarks/digest_answers.py > parent.txt
    diff parent.txt change.txt

It reads hits only by iterating them, so it runs unchanged on trees
whose kernels return hit lists and on trees whose kernels return arrays.
"""

from __future__ import annotations

import hashlib
import re
import struct
import warnings

import numpy as np

from repro import Field, VectorDatabase
from repro.core.batched import batched_graph_search
from repro.core.multivector import MultiVectorEntityCollection
from repro.core.planner import QueryPlan
from repro.core.types import SearchStats
from repro.distributed import (
    DistributedSearchCluster,
    IndexGuidedSharding,
    UniformSharding,
)
from repro.index import available_indexes, make_index
from repro.observability import Observability
from repro.reliability import FaultPlan
from repro.security.dcpe import (
    DcpeKey,
    SecureKnnClient,
    SecureSearchServer,
    secure_knn_roundtrip,
)
from repro.serving import ServingFrontDoor, TenantSpec, TrafficGenerator
from repro.torture.zoo import make_torture_index, torture_dataset

COUNTERS = (
    "distance_computations", "nodes_visited", "page_reads",
    "candidates_examined", "predicate_evaluations", "predicate_rejections",
)
K, RADIUS = 5, 4.4


class Digest:
    """One cell: a running SHA-256 over hits and counters."""

    def __init__(self):
        self._sha = hashlib.sha256()

    def hits(self, hits) -> "Digest":
        pairs = [(int(h.id), float(h.distance)) for h in hits]
        self._sha.update(struct.pack("<q", len(pairs)))
        for item_id, distance in pairs:
            self._sha.update(struct.pack("<qd", item_id, distance))
        return self

    def stats(self, stats: SearchStats) -> "Digest":
        self._sha.update(
            struct.pack("<6q", *(int(getattr(stats, name)) for name in COUNTERS))
        )
        return self

    def text(self, value) -> "Digest":
        self._sha.update(repr(value).encode())
        return self

    def hex(self) -> str:
        return self._sha.hexdigest()


def index_cells():
    data = torture_dataset(seed=5)
    rows, queries = data.train, data.queries
    mask = np.arange(rows.shape[0]) % 3 != 0
    radius = float(np.median(np.linalg.norm(rows - queries[0], axis=1))) / 2
    for name in available_indexes():
        index = make_torture_index(name, seed=0).build(rows)
        for label, allowed in (("plain", None), ("masked", mask)):
            knn, ranged = Digest(), Digest()
            for query in queries:
                stats = SearchStats()
                knn.hits(index.search(query, K, allowed=allowed, stats=stats))
                knn.stats(stats)
                stats = SearchStats()
                ranged.hits(
                    index.range_search(query, radius, allowed=allowed, stats=stats)
                )
                ranged.stats(stats)
            yield f"index/{name}/search/{label}", knn
            yield f"index/{name}/range/{label}", ranged
        yield f"index/{name}/memory_bytes", Digest().text(index.memory_bytes())


def contract_database(n=400, dim=12):
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((n, dim)).astype(np.float32)
    db = VectorDatabase(dim=dim)
    db.insert_many(rows, [{"g": i % 8} for i in range(n)])
    db.create_index("flat", "flat")
    db.create_index("graph", "hnsw", m=8, seed=0)
    db.create_partitioned_index("byg", "flat", "g")
    return db, rows


PLANS = {
    "brute_force": QueryPlan("brute_force"),
    "index_scan": QueryPlan("index_scan", "flat"),
    "pre_filter": QueryPlan("pre_filter"),
    "block_first": QueryPlan("block_first", "flat"),
    "post_filter": QueryPlan("post_filter", "flat", oversample=8.0),
    "post_filter_adaptive": QueryPlan("post_filter", "flat"),
    "visit_first": QueryPlan("visit_first", "graph"),
    "partition": QueryPlan("partition", "byg"),
    "partition_in": QueryPlan("partition", "byg"),
}


def exec_cells():
    db, rows = contract_database()
    for victim in (9, 17):  # tombstones: every plan runs under a live mask
        db.delete(victim)
    vectors = rows[40:44] + 0.05
    for strategy, plan in PLANS.items():
        predicate = Field("g") == 1
        if strategy == "partition_in":
            predicate = Field("g").isin([1, 2, 5])
        common = dict(predicate=predicate, plan=plan)
        runs = {
            "search": lambda: [db.search(vectors[0], k=K, **common)],
            "range": lambda: [db.range_search(vectors[0], radius=RADIUS, **common)],
            "batch": lambda: db.batch_search(vectors, k=K, **common),
            "multivector": lambda: [
                db.multi_vector_search(vectors[:2], k=K, **common)
            ],
        }
        for kind, run in runs.items():
            cell = Digest()
            for result in run():
                cell.hits(result.hits).stats(result.stats)
            yield f"exec/{kind}/{strategy}", cell
    cell = Digest()
    for name, result in db.multi_score_search(vectors[0], k=K).items():
        cell.text(name).hits(result.hits).stats(result.stats)
    yield "exec/multi_score/brute_force", cell
    cursor = db.incremental_search(vectors[0], predicate=Field("g") == 1)
    cell = Digest()
    for _ in range(3):
        cell.hits(cursor.next_batch(4))
    yield "cursor/incremental", cell.stats(cursor.stats)


def freshness_cells():
    """Writes after the build, read back through the public API.  The
    rule-based selector prefers any index the planner offers: a tree
    that hides indexes behind the writes answers by the exact scan, one
    that merges index ∪ tail answers through the index — over ``flat``
    both are exact, so ``freshness/flat/hits`` is the same on either."""
    data = torture_dataset(seed=6)
    rows, queries = data.train, data.queries
    for index_type, kwargs in (("flat", {}), ("hnsw", {"m": 8, "seed": 0})):
        db = VectorDatabase(dim=rows.shape[1], selector="rule")
        db.insert_many(rows[:150])
        db.create_index("main", index_type, **kwargs)
        for row in rows[150:200]:
            db.insert(row)
        for victim in (3, 40, 160):
            db.delete(victim)
        db.update_vector(7, rows[201])
        ids, counters = Digest(), Digest()
        for query in queries:
            result = db.search(query, k=K)
            ids.hits(result.hits)
            counters.stats(result.stats)
        yield f"freshness/{index_type}/hits", ids
        yield f"freshness/{index_type}/counters", counters


def producer_cells():
    data = torture_dataset(seed=7)
    rows, queries = data.train, data.queries
    rng = np.random.default_rng(3)
    entities = MultiVectorEntityCollection(dim=rows.shape[1])
    for start in range(0, 200, 4):
        entities.insert(rows[start : start + int(rng.integers(1, 5))])
    entities.build_index()
    cell = Digest()
    for query in queries:
        for result in (
            entities.search_exact(query[None, :], K),
            entities.search(np.stack([query, queries[0]]), K),
        ):
            cell.hits(result.hits).stats(result.stats)
    yield "entity/exact+index", cell

    graph = make_index("hnsw", m=8, seed=0).build(rows)
    stats = SearchStats()
    cell = Digest()
    for hits in batched_graph_search(graph, queries, K, stats=stats, group_size=4):
        cell.hits(hits)
    yield "batched_graph/hnsw", cell.stats(stats)

    client = SecureKnnClient(DcpeKey.generate(rows.shape[1], seed=1), seed=2)
    server = SecureSearchServer("flat")
    yield "secure/roundtrip", Digest().hits(
        secure_knn_roundtrip(client, server, rows, queries[0], K)
    )


def cluster_cells():
    data = torture_dataset(seed=8, n=300)
    plan = FaultPlan.random_plan(seed=13, crash_rate=0.05, flaky_rate=0.2)
    cluster = DistributedSearchCluster(
        sharding=UniformSharding(4), replication_factor=2, index_type="flat",
        injector=plan.injector(), strict=False,
    )
    cluster.load(data.train)
    cell = Digest()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(4):
            for query in data.queries:
                result, dstats = cluster.search(query, K)
                cell.hits(result.hits).stats(result.stats)
                cell.text((dstats.shards_ok, dstats.shards_failed, dstats.retries))
    yield "cluster/faulty_gather", cell

    rows = data.train
    extra = torture_dataset(seed=9, n=20).train
    for index_type, kwargs in (("flat", {}), ("hnsw", {"m": 8, "seed": 0})):
        for sharded in ("uniform", "index_guided"):
            cluster = DistributedSearchCluster(
                sharding=UniformSharding(4) if sharded == "uniform"
                else IndexGuidedSharding(4, cells_per_shard=2, seed=0),
                replication_factor=2, index_type=index_type, **kwargs,
            )
            cluster.load(rows)
            cell = Digest()
            for offset, vector in enumerate(extra):
                cell.text(cluster.insert(vector, 1000 + 7 * offset))
            phases = ["pending", "synced"] + ["scaled"] * (sharded == "uniform")
            for phase in phases:
                if phase == "synced":
                    cell.text(cluster.sync_replicas())
                elif phase == "scaled":
                    cell.text(cluster.scale_out(6))
                for query in (*data.queries, *extra[:5]):
                    result, dstats = cluster.search(query, K, route_nprobe=2)
                    cell.hits(result.hits).stats(result.stats)
                    cell.text(dstats.simulated_latency_seconds)
                cell.text((cluster.shard_sizes(), cluster.pending_replication()))
            yield f"cluster/writes/{index_type}/{sharded}", cell


def frontdoor_cells():
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((3000, 12)).astype(np.float32)
    # One worker under a burst: the queue coalesces, so the batched scan
    # (flat) and the merged-frontier kernel (hnsw) both run, beside solo
    # executions and result-cache hits.
    for index_type, kwargs in (("flat", {}), ("hnsw", {"m": 8, "seed": 0})):
        db = VectorDatabase(dim=12)
        db.insert_many(rows)
        db.create_index("main", index_type, **kwargs)
        trace = TrafficGenerator(
            ["a", "b"], dim=12, rate=20000.0, seed=4, query_pool=16,
            fresh_fraction=0.5, k=K,
        ).generate(0.01)
        door = ServingFrontDoor(
            db, [TenantSpec(t, qps=50000, burst=500, max_queue=500) for t in "ab"],
            workers=1,
        )
        cell = Digest()
        for response in door.run(trace):
            cell.text(response.status).hits(response.hits)
            if response.stats is not None:
                cell.stats(response.stats)
        yield f"frontdoor/{index_type}", cell.text(sorted(door.modes.items()))


#: The executor's own latency series are wall-clock; everything else a
#: seeded front-door run records rides the simulated clock.
WALL_KINDS = ("search", "batch")


def _wall_series(name: str, labels) -> bool:
    return (
        name in ("vdbms_query_seconds_bucket", "vdbms_query_seconds_sum")
        and dict(labels).get("kind") in WALL_KINDS
    )


def _window_digest(window) -> dict:
    out = window.to_dict()
    for name, series in out["counters"].items():
        out["counters"][name] = [
            s for s in series if not _wall_series(name, s["labels"])
        ]
    return out


def telemetry_cells():
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((3000, 12)).astype(np.float32)
    for index_type, kwargs in (("flat", {}), ("hnsw", {"m": 8, "seed": 0})):
        obs = Observability()
        db = VectorDatabase(dim=12, observability=obs)
        db.insert_many(rows)
        db.create_index("main", index_type, **kwargs)
        trace = TrafficGenerator(
            ["a", "b"], dim=12, rate=20000.0, seed=4, query_pool=16,
            fresh_fraction=0.5, k=K,
        ).generate(0.01)
        # Tenant b is squeezed so the rejected and shed paths record too;
        # 2 ms windows so the 10 ms trace closes several.
        door = ServingFrontDoor(
            db,
            [
                TenantSpec("a", qps=50000, burst=500, max_queue=500),
                TenantSpec("b", qps=50000, burst=500, max_queue=6,
                           deadline_seconds=0.0015),
            ],
            workers=1, telemetry=True, window_seconds=0.002,
        )
        door.run(trace)
        cell = Digest()
        for line in obs.metrics.render_prometheus().splitlines():
            name, _, rest = line.partition("{")
            labels = re.findall(r'(\w+)="([^"]*)"', rest.partition("}")[0])
            if not _wall_series(name, labels):
                cell.text(line)
        for window in door.telemetry.windows:
            cell.text(_window_digest(window))
        for journey in door.journeys:
            cell.text(sorted(journey.to_dict().items()))
        by_id = {span.span_id: span for span in obs.tracer.spans}
        for span in obs.tracer.spans:
            parent = by_id.get(span.parent_id)
            cell.text((
                span.name, None if parent is None else parent.name,
                span.trace_id, sorted(span.attributes.items()),
                span.stats_delta,
                [(link.span_id, link.trace_id, sorted(link.attributes.items()))
                 for link in span.links],
                [(event.name, sorted(event.attributes.items()))
                 for event in span.events],
            ))
        statuses = sorted(r.status for r in door.responses)
        yield f"telemetry/frontdoor/{index_type}", cell.text(statuses)


def main() -> None:
    overall = hashlib.sha256()
    for cells in (
        index_cells, exec_cells, freshness_cells, producer_cells,
        cluster_cells, frontdoor_cells, telemetry_cells,
    ):
        for name, cell in cells():
            digest = cell.hex()
            overall.update(f"{name}:{digest}\n".encode())
            print(f"{name:<44} {digest[:16]}")
    print(f"{'ALL':<44} {overall.hexdigest()}")


if __name__ == "__main__":
    main()
