"""Plan enumeration (§2.3).

A query plan names a filtering strategy plus (optionally) the index it
scans.  The strategies are exactly the tutorial's taxonomy:

* ``brute_force`` — full table scan (always available; exact).
* ``index_scan`` — unrestricted index scan (non-predicated queries).
* ``pre_filter`` — predicate first, exact scan of survivors.
* ``block_first`` — online bitmask + masked index scan.
* ``post_filter`` — unrestricted scan of a·k, filter after.
* ``visit_first`` — single-stage predicate-aware graph traversal
  (enumerated for :class:`~repro.index.graph_base.GraphIndex` instances).
* ``partition`` — offline blocking through an attribute-partitioned
  index.

Two enumeration modes mirror §2.3(1)-(2): :class:`PredefinedPlanner`
maps each query type to one fixed plan (Vearch/Weaviate style), and
:class:`AutomaticPlanner` enumerates every applicable combination for a
selector to choose from (pgvector/PASE style, via the relational-ish
optimizer).

:class:`PlanCache` memoizes the selector's decision per prepared query
shape: repeat queries (same k/c/predicate/params against an unchanged
collection and index set) skip enumeration, selectivity estimation, and
selection entirely — the pure-Python dispatch cost that dominates
sub-millisecond ANN scans.  Entries are keyed by the collection's
mutation generation plus the database's index epoch, so any insert,
delete, vector update, or index DDL makes every previously cached plan
unreachable rather than merely flushed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable

from ..index.graph_base import GraphIndex
from .errors import PlanningError

STRATEGIES = (
    "brute_force",
    "index_scan",
    "pre_filter",
    "block_first",
    "post_filter",
    "visit_first",
    "partition",
)


@dataclass
class QueryPlan:
    """One executable plan choice."""

    strategy: str
    index_name: str | None = None
    oversample: float | None = None  # post_filter's a
    params: dict[str, Any] = field(default_factory=dict)
    estimated_cost: float | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise PlanningError(
                f"unknown strategy {self.strategy!r}; known: {STRATEGIES}"
            )

    def describe(self) -> str:
        index = f" via {self.index_name}" if self.index_name else ""
        cost = (
            f" (est. cost {self.estimated_cost:.3g})"
            if self.estimated_cost is not None
            else ""
        )
        extra = f" a={self.oversample:g}" if self.oversample else ""
        return f"{self.strategy}{index}{extra}{cost}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly view (used by EXPLAIN ANALYZE exports)."""
        return {
            "strategy": self.strategy,
            "index_name": self.index_name,
            "oversample": self.oversample,
            "params": dict(self.params),
            "estimated_cost": self.estimated_cost,
        }


class PlanCache:
    """LRU cache of (chosen plan, candidate plans) per prepared query.

    Keys are built by the owner (:meth:`VectorDatabase.plan`) and must
    embed every input the planning decision depends on — query shape,
    ``k``/``c``, the predicate, search params, the collection's mutation
    ``generation``, and the database's index ``epoch``.  Because stale
    state changes the key instead of the cached value, invalidation is
    structural: a mutated collection simply never produces the old key
    again, and the dead entries age out of the LRU.

    The cache never stores unhashable keys (the owner skips caching for
    those queries) and is bounded by ``capacity`` with least-recently-
    used eviction.
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise PlanningError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, tuple[QueryPlan, tuple[QueryPlan, ...]]]
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> tuple[QueryPlan, tuple[QueryPlan, ...]] | None:
        """Return the cached (chosen, candidates) or None; counts the probe."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(
        self, key: Hashable, chosen: QueryPlan, candidates: list[QueryPlan]
    ) -> None:
        self._entries[key] = (chosen, tuple(candidates))
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> dict[str, int]:
        """Counters + occupancy, as surfaced by ``explain_analyze``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "capacity": self.capacity,
        }


class AutomaticPlanner:
    """Enumerate every applicable plan for a query (§2.3 Automatic)."""

    def enumerate(
        self,
        is_hybrid: bool,
        indexes: dict[str, Any],
        partitioned: dict[str, Any] | None = None,
        predicate=None,
    ) -> list[QueryPlan]:
        plans: list[QueryPlan] = []
        if not is_hybrid:
            plans.append(QueryPlan("brute_force"))
            plans.extend(QueryPlan("index_scan", name) for name in indexes)
            return plans
        plans.append(QueryPlan("pre_filter"))
        for name, index in indexes.items():
            plans.append(QueryPlan("block_first", name))
            plans.append(QueryPlan("post_filter", name))
            if isinstance(index, GraphIndex):  # the traversal surface, not the family
                plans.append(QueryPlan("visit_first", name))
        for name, part in (partitioned or {}).items():
            if predicate is not None and part.covers(predicate):
                plans.append(QueryPlan("partition", name))
        return plans


class PredefinedPlanner:
    """One fixed plan per query shape (§2.3 Predefined).

    Parameters
    ----------
    plain_plan / hybrid_plan:
        Templates applied to non-predicated / predicated searches.  The
        index name ``"*"`` resolves to the first registered index.
    """

    def __init__(
        self,
        plain_plan: QueryPlan | None = None,
        hybrid_plan: QueryPlan | None = None,
    ):
        self.plain_plan = plain_plan or QueryPlan("index_scan", "*")
        self.hybrid_plan = hybrid_plan or QueryPlan("post_filter", "*")

    def _resolve(self, template: QueryPlan, indexes: dict[str, Any]) -> QueryPlan:
        name = template.index_name
        if name == "*":
            if not indexes:
                return QueryPlan(
                    "brute_force" if template.strategy == "index_scan" else "pre_filter"
                )
            name = next(iter(indexes))
        return QueryPlan(
            template.strategy, name, template.oversample, dict(template.params)
        )

    def enumerate(
        self,
        is_hybrid: bool,
        indexes: dict[str, Any],
        partitioned: dict[str, Any] | None = None,
        predicate=None,
    ) -> list[QueryPlan]:
        template = self.hybrid_plan if is_hybrid else self.plain_plan
        return [self._resolve(template, indexes)]
