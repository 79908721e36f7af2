"""repro — a vector database management system.

A from-scratch Python reproduction of the system landscape surveyed in
*Vector Database Management Techniques and Systems* (Pan, Wang, Li;
SIGMOD-Companion 2024): similarity scores, every index family (table /
tree / graph, in-memory and disk-resident), quantization, hybrid query
operators, plan enumeration and selection, batched and distributed
execution, out-of-place updates, and an ANN-benchmarks-style harness.

Quickstart::

    import numpy as np
    from repro import VectorDatabase, Field

    rng = np.random.default_rng(0)   # seeded: every run is reproducible
    db = VectorDatabase(dim=32, score="l2")
    db.insert_many(rng.random((1000, 32), dtype=np.float32),
                   [{"category": i % 5, "price": float(i), "rating": 3}
                    for i in range(1000)])
    db.create_index("main", "hnsw", m=16)
    result = db.search(rng.random(32, dtype=np.float32), k=5,
                       predicate=(Field("category") == 2) & (Field("price") < 500))
    for hit in result:
        print(hit.id, hit.distance)
"""

from .core import (
    AllReplicasDownError,
    BatchQuery,
    CostModel,
    DeadlineExceededError,
    EmpiricalCostModel,
    Hits,
    IncrementalSearcher,
    MultiVectorEntityCollection,
    MultiVectorQuery,
    PartialResultWarning,
    QueryPlan,
    RangeQuery,
    ReplicaUnavailableError,
    SearchHit,
    SearchQuery,
    SearchResult,
    SearchStats,
    VdbmsError,
    VectorCollection,
    VectorDatabase,
    execute_sql,
    parse_sql,
)
from .hybrid import Field, Predicate
from .index import VectorIndex, available_indexes, make_index
from .observability import (
    SLO,
    HealthReport,
    Observability,
    QuantileSketch,
    QueryProfile,
    RecallAuditor,
    SLOMonitor,
    SlowQueryLog,
    validate_span_tree,
    write_metrics_text,
    write_trace_jsonl,
)
from .reliability import CircuitBreaker, FaultInjector, FaultPlan, RetryPolicy
from .scores import Score, available_scores, get_score

__version__ = "1.0.0"

__all__ = [
    "AllReplicasDownError",
    "BatchQuery",
    "CircuitBreaker",
    "CostModel",
    "DeadlineExceededError",
    "FaultInjector",
    "FaultPlan",
    "PartialResultWarning",
    "ReplicaUnavailableError",
    "RetryPolicy",
    "EmpiricalCostModel",
    "Field",
    "Hits",
    "IncrementalSearcher",
    "MultiVectorEntityCollection",
    "HealthReport",
    "MultiVectorQuery",
    "Observability",
    "Predicate",
    "QuantileSketch",
    "QueryPlan",
    "QueryProfile",
    "RangeQuery",
    "RecallAuditor",
    "SLO",
    "SLOMonitor",
    "SlowQueryLog",
    "Score",
    "SearchHit",
    "SearchQuery",
    "SearchResult",
    "SearchStats",
    "VdbmsError",
    "VectorCollection",
    "VectorDatabase",
    "VectorIndex",
    "available_indexes",
    "available_scores",
    "execute_sql",
    "get_score",
    "make_index",
    "parse_sql",
    "validate_span_tree",
    "write_metrics_text",
    "write_trace_jsonl",
    "__version__",
]
