"""Core of the VDBMS: collection, queries, planner, optimizer, executor."""

from .batched import batched_graph_search
from .collection import VectorCollection
from .cost import CostModel, CostWeights, EmpiricalCostModel, WorkEstimate
from .database import VectorDatabase
from .errors import (
    AllReplicasDownError,
    CollectionError,
    DeadlineExceededError,
    DimensionMismatchError,
    IndexNotBuiltError,
    PageReadError,
    PartialResultWarning,
    PlanningError,
    PredicateError,
    QueryError,
    ReplicaUnavailableError,
    SqlError,
    StorageError,
    UnknownIndexError,
    UnknownScoreError,
    VdbmsError,
)
from .executor import QueryExecutor
from .incremental import IncrementalSearcher, RestartIncrementalSearcher
from .multivector import MultiVectorEntityCollection
from .optimizer import (
    CostBasedSelector,
    FirstPlanSelector,
    PlanSelector,
    RuleBasedSelector,
)
from .planner import AutomaticPlanner, PlanCache, PredefinedPlanner, QueryPlan
from .query import BatchQuery, MultiVectorQuery, RangeQuery, SearchQuery, satisfies_ck
from .sql import ParsedQuery, execute_sql, parse_sql
from .types import Hits, SearchHit, SearchResult, SearchStats

__all__ = [
    "AllReplicasDownError",
    "AutomaticPlanner",
    "BatchQuery",
    "CollectionError",
    "DeadlineExceededError",
    "PageReadError",
    "PartialResultWarning",
    "ReplicaUnavailableError",
    "CostBasedSelector",
    "CostModel",
    "CostWeights",
    "DimensionMismatchError",
    "EmpiricalCostModel",
    "FirstPlanSelector",
    "Hits",
    "IncrementalSearcher",
    "IndexNotBuiltError",
    "MultiVectorEntityCollection",
    "RestartIncrementalSearcher",
    "batched_graph_search",
    "MultiVectorQuery",
    "ParsedQuery",
    "PlanSelector",
    "PlanningError",
    "PlanCache",
    "PredefinedPlanner",
    "PredicateError",
    "QueryError",
    "QueryExecutor",
    "QueryPlan",
    "RangeQuery",
    "RuleBasedSelector",
    "SearchHit",
    "SearchQuery",
    "SearchResult",
    "SearchStats",
    "SqlError",
    "StorageError",
    "UnknownIndexError",
    "UnknownScoreError",
    "VdbmsError",
    "VectorCollection",
    "VectorDatabase",
    "WorkEstimate",
    "execute_sql",
    "parse_sql",
    "satisfies_ck",
]
