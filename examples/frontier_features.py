"""Frontier features: the paper's §2.6 open problems, working.

The tutorial closes with six open problems.  This example drives the
library's prototype answer to each:

1. score selection — diagnostics + multi-score querying (§2.6(1));
2. operator/index design — stitched filtered graphs (§2.6(2));
3. cost estimation — a least-squares fit of the one work→time model (§2.6(3));
4. security — DCPE secure k-NN on an untrusted server (§2.6(4));
5. incremental search — resumable pagination (§2.6(5));
6. multi-vector search — entities with several facet vectors (§2.6(6)).

Run:  python examples/frontier_features.py
"""

import time

import numpy as np

from repro.bench.datasets import gaussian_mixture, multi_vector_entities
from repro.core.cost import WorkCostModel
from repro.core.database import VectorDatabase
from repro.core.incremental import IncrementalSearcher
from repro.core.multivector import MultiVectorEntityCollection
from repro.core.planner import QueryPlan
from repro.index import FilteredHnswIndex, HnswIndex
from repro.scores import recommend_score
from repro.security import DcpeKey, SecureKnnClient, SecureSearchServer


def main() -> None:
    rng = np.random.default_rng(0)
    ds = gaussian_mixture(n=2000, dim=24, num_queries=5, seed=8)
    q = ds.queries[0]

    # --- 1. score selection -------------------------------------------------
    print("=== 1. score selection (§2.6(1)) ===")
    rec = recommend_score(ds.train.astype(np.float64))
    print(f"  recommended: {rec.score.name} — {rec.reason[:70]}")
    db = VectorDatabase(dim=ds.dim)
    db.insert_many(ds.train)
    per_score = db.multi_score_search(q, k=3, scores=["l2", "cosine", "ip"])
    for name, result in per_score.items():
        print(f"  {name:7s} top-3: {result.ids}")

    # --- 2. attribute-aware graph construction ------------------------------
    print("\n=== 2. stitched filtered graph (§2.6(2)) ===")
    labels = rng.integers(50, size=len(ds.train))  # selectivity ~2%
    stitched = FilteredHnswIndex(m=12, label_k=6, seed=0).build_with_labels(
        ds.train, labels
    )
    from repro.core.types import SearchStats

    s_stats, b_stats = SearchStats(), SearchStats()
    plain = HnswIndex(m=12, seed=0).build(ds.train)
    stitched.search(q, 10, label=7, stats=s_stats)
    plain.search(q, 10, allowed=(labels == 7), stats=b_stats)
    print(f"  stitched label-subgraph search: {s_stats.distance_computations} dists")
    print(f"  bitmask blocking on plain HNSW: {b_stats.distance_computations} dists")

    # --- 3. fitted work→time model ------------------------------------------
    print("\n=== 3. fitted cost model (§2.6(3)) ===")
    db.create_index("g", "hnsw", m=12, seed=0)
    strategies, stats, seconds = [], [], []
    for query in ds.queries:
        for plan in (QueryPlan("brute_force"), QueryPlan("index_scan", "g")):
            start = time.perf_counter()
            result = db.search(query, k=10, plan=plan)
            seconds.append(time.perf_counter() - start)
            strategies.append(plan.strategy)
            stats.append(result.stats)
    model = WorkCostModel().fit(strategies, stats, seconds)
    print(f"  fitted prices: distance={model.distance:.2e}s,"
          f" node visit={model.node_visit:.2e}s,"
          f" fixed brute_force={model.execution['brute_force']:.2e}s,"
          f" index_scan={model.execution['index_scan']:.2e}s")

    # --- 4. secure k-NN ------------------------------------------------------
    print("\n=== 4. secure k-NN via DCPE (§2.6(4)) ===")
    key = DcpeKey.generate(ds.dim, scale=3.0, noise_radius=0.05, seed=1)
    client = SecureKnnClient(key, seed=2)
    server = SecureSearchServer("hnsw", m=12, seed=0)
    server.load(client.encrypt(ds.train))  # server only ever sees ciphertexts
    hits = server.search(client.encrypt(q)[0], 5)
    plain_hits = db.search(q, k=5, plan=QueryPlan("brute_force"))
    overlap = len(set(h.id for h in hits) & set(plain_hits.ids))
    print(f"  encrypted-search overlap with plaintext top-5: {overlap}/5"
          f" (comparison slack {client.comparison_slack():.3f})")

    # --- 5. incremental search ----------------------------------------------
    print("\n=== 5. incremental search (§2.6(5)) ===")
    inc = IncrementalSearcher(db.indexes["g"], q)
    for page in range(3):
        batch = inc.next_batch(5)
        marks = inc.stats.distance_computations
        print(f"  page {page + 1}: {[h.id for h in batch]}"
              f" (cumulative dists: {marks})")

    # --- 6. multi-vector entities -------------------------------------------
    print("\n=== 6. multi-vector entity search (§2.6(6)) ===")
    entities, queries = multi_vector_entities(
        num_entities=500, vectors_per_entity=4, dim=24, num_queries=3,
        query_vectors=2, seed=3,
    )
    coll = MultiVectorEntityCollection(
        dim=24, index_factory=lambda: HnswIndex(m=8, seed=0)
    )
    coll.insert_many(entities)
    coll.build_index()
    exact = coll.search_exact(queries[0], k=5)
    accel = coll.search(queries[0], k=5)
    print(f"  exact entity top-5:       {exact.ids}")
    print(f"  index-accelerated top-5:  {accel.ids}")
    print(f"  (aggregated {accel.stats.candidates_examined} of {len(coll)}"
          " entities)")


if __name__ == "__main__":
    main()
