"""Hybrid (predicated) query processing: operators of §2.3."""

from .blockfirst import blocked_index_scan, online_bitmask, prefilter_scan
from .partitioned import AttributePartitionedIndex
from .postfilter import AdaptiveResult, adaptive_postfilter_scan, postfilter_scan
from .predicates import (
    And,
    Between,
    ColumnStore,
    Comparison,
    Field,
    In,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from .visitfirst import visit_first_scan

__all__ = [
    "AdaptiveResult",
    "And",
    "AttributePartitionedIndex",
    "Between",
    "ColumnStore",
    "Comparison",
    "Field",
    "In",
    "Not",
    "Or",
    "Predicate",
    "TruePredicate",
    "adaptive_postfilter_scan",
    "blocked_index_scan",
    "online_bitmask",
    "postfilter_scan",
    "prefilter_scan",
    "visit_first_scan",
]
