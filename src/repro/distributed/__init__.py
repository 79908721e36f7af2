"""Distributed search: sharding, replicas, scatter-gather (§2.3)."""

from ..reliability import (
    CircuitBreaker,
    ClusterHealth,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from .cluster import DistributedQueryStats, DistributedSearchCluster
from .node import SearchNode
from .shard import IndexGuidedSharding, ShardingStrategy, UniformSharding

__all__ = [
    "CircuitBreaker",
    "ClusterHealth",
    "DistributedQueryStats",
    "DistributedSearchCluster",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "IndexGuidedSharding",
    "RetryPolicy",
    "SearchNode",
    "ShardingStrategy",
    "UniformSharding",
]
