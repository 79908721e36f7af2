"""What each per-layer metric is, where it is measured, what it should move.

``BENCHMARK.json`` fixes every metric's name, unit and direction (and
the end-to-end bounds); its format has no room for the rest, so this
table carries it: the workloads a layer metric is measured on, the
end-to-end metric it should move there (``None``: none, by design), and
whether it is an exact count that must repeat for a seed.  The smoke
test checks the two files against each other and against a real run.

A layer metric that is not measured on a workload is left out of that
workload's section of the ``--out`` document; the one-line result a
``--workload`` run ends with must carry every declared name, and reports
it there as 0.
"""

from __future__ import annotations

KNN, HYBRID, CHURN, SERVING = (
    "knn_hnsw", "hybrid_ivf", "churn_mixed", "serving_frontdoor")
DIRECT = (KNN, HYBRID, CHURN)
EVERY = (KNN, HYBRID, CHURN, SERVING)

#: name -> (unit, better, workloads, moves, exact)
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...], str | None, bool]] = {
    # ---- core: planner, plan cache, executor, DML
    "core.plan_warm_us": ("us", "lower", (KNN, HYBRID), "search_qps", False),
    "core.plan_cold_us": ("us", "lower", (HYBRID,), "search_qps", False),
    "core.plan_cache_hit_ratio": ("ratio", "higher", (KNN, HYBRID), "search_qps", True),
    "core.plan_mix.brute_force": ("count", "lower", DIRECT, "search_qps", True),
    "core.plan_mix.index_scan": ("count", "higher", DIRECT, "search_qps", True),
    "core.plan_mix.pre_filter": ("count", "lower", DIRECT, "search_qps", True),
    "core.plan_mix.block_first": ("count", "lower", DIRECT, "search_qps", True),
    "core.plan_mix.post_filter": ("count", "lower", DIRECT, "search_qps", True),
    "core.plan_mix.visit_first": ("count", "lower", DIRECT, "search_qps", True),
    "core.plan_mix.partition": ("count", "higher", DIRECT, "search_qps", True),
    "core.execute_us": ("us", "lower", DIRECT, "search_p50_ms", False),
    "core.execute_overhead_us": ("us", "lower", EVERY, "search_qps", False),
    "core.predicate_mask_us": ("us", "lower", (HYBRID,), "search_qps", False),
    "core.selectivity_us": ("us", "lower", (HYBRID,), "search_qps", False),
    "core.batch_us_per_query": ("us", "lower", (KNN,), None, False),
    "batch_qps": ("1/s", "higher", (KNN,), None, False),
    "core.search_fresh_qps": ("1/s", "higher", (CHURN,), "search_qps", False),
    "core.search_stale_qps": ("1/s", "higher", (CHURN,), "search_qps", False),
    "core.stale_query_share": ("ratio", "lower", (CHURN,), "search_qps", True),
    "core.insert_us": ("us", "lower", (CHURN,), None, False),
    "core.insert_many_us_per_row": ("us", "lower", (CHURN,), None, False),
    "core.delete_us": ("us", "lower", (CHURN,), None, False),
    "write_ops_per_s": ("1/s", "higher", (CHURN,), None, False),
    "rebuild_s": ("s", "lower", (CHURN,), None, False),
    # ---- index
    "index.build_s": ("s", "lower", EVERY, "setup_s", False),
    "index.build_us_per_vector": ("us", "lower", EVERY, "setup_s", False),
    "index.search_us": ("us", "lower", EVERY, "search_qps", False),
    "index.distance_computations_per_query": ("count", "lower", EVERY, "search_qps", True),
    "index.nodes_visited_per_query": ("count", "lower", EVERY, "search_qps", True),
    "index.candidates_examined_per_query": ("count", "lower", EVERY, "search_qps", True),
    "index.memory_bytes": ("bytes", "lower", EVERY, "peak_rss_mb", True),
    "index.qps_over_flat_roofline": ("ratio", "higher", (KNN,), "search_qps", False),
    # ---- the machine yardstick (not a metric of the program)
    "roofline.flat_scan_qps": ("1/s", "higher", (KNN, HYBRID), None, False),
    "roofline.flat_batched_qps": ("1/s", "higher", (KNN, HYBRID), None, False),
    # ---- scores
    "scores.distances_us_per_call_32": ("us", "lower", DIRECT, "search_qps", False),
    "scores.distances_ns_per_vector_full": ("ns", "lower", DIRECT, "search_qps", False),
    # ---- hybrid operators
    "hybrid.index_scan_us": ("us", "lower", (HYBRID,), "search_qps", False),
    "hybrid.partition_us": ("us", "lower", (HYBRID,), "search_qps", False),
    "hybrid.post_filter_us": ("us", "lower", (HYBRID,), "search_p99_ms", False),
    "hybrid.pre_filter_us": ("us", "lower", (HYBRID,), "search_qps", False),
    "hybrid.predicate_evaluations_per_query": ("count", "lower", (HYBRID,), "search_qps", True),
    "hybrid.candidate_yield": ("ratio", "higher", (HYBRID,), "search_qps", True),
    "hybrid.short_result_share": ("ratio", "lower", (HYBRID,), "recall_at_10", True),
    # ---- storage
    "snapshot_save_s": ("s", "lower", (CHURN,), None, False),
    "snapshot_load_s": ("s", "lower", (CHURN,), None, False),
    "stored_bytes_per_user_byte": ("ratio", "lower", (CHURN,), None, True),
    "storage.snapshot_bytes": ("bytes", "lower", (CHURN,), None, True),
    "storage.save_mb_per_s": ("MB/s", "higher", (CHURN,), None, False),
    "storage.load_mb_per_s": ("MB/s", "higher", (CHURN,), None, False),
    # ---- serving front door
    "serving.wall_us_per_request": ("us", "lower", (SERVING,), "search_qps", False),
    "serving.overhead_us_per_request": ("us", "lower", (SERVING,), "search_qps", False),
    "serving.result_cache_hit_ratio": ("ratio", "higher", (SERVING,), "search_qps", True),
    "serving.mean_batch_size": ("count", "higher", (SERVING,), "search_qps", True),
    "serving.mode_share.solo": ("ratio", "lower", (SERVING,), "search_qps", True),
    "serving.mode_share.batched_scan": ("ratio", "higher", (SERVING,), "search_qps", True),
    "serving.rejected": ("count", "lower", (SERVING,), None, True),
    "serving.shed": ("count", "lower", (SERVING,), None, True),
    "serving.sim_p50_ms": ("ms", "lower", (SERVING,), None, True),
    "serving.sim_p99_ms": ("ms", "lower", (SERVING,), None, True),
    "serving.sim_busy_over_wall": ("ratio", "higher", (SERVING,), None, False),
    # ---- the program's own telemetry, and the benchmark's
    "observability.enabled_overhead_pct": ("%", "lower", (HYBRID,), None, False),
    "observability.frontdoor_telemetry_overhead_pct": ("%", "lower", (SERVING,), "search_qps", False),
    "observability.spans_per_request": ("count", "lower", (SERVING,), "search_qps", True),
    "trace.overhead_pct": ("%", "lower", EVERY, None, False),
    "yardstick.slowdown": ("ratio", "lower", EVERY, None, False),
}
