"""Per-tenant exact query-result caches with structural invalidation.

Serving workloads are heavy-tailed: a few hot queries (popular search
strings, dashboard refreshes) repeat verbatim.  An exact-match result
cache answers those without touching the executor at all.

Correctness follows the plan cache's structural-invalidation idiom
(:class:`repro.core.planner.PlanCache`): the key embeds the collection's
mutation ``generation``, so any insert / delete / update makes every
previously cached entry unreachable — there is no flush path to get
wrong.  The value is the immutable :class:`Hits` the cold execution
produced, shared rather than copied, so a hit is bit-identical to
re-running the query (asserted by the serving tests).

The cache is *per tenant* on purpose: capacity is part of the tenant's
serving contract, one tenant's churn cannot evict another's hot set,
and hit-rate accounting stays attributable.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

import numpy as np

from ..core.types import Hits

__all__ = ["QueryResultCache", "result_cache_key"]


def result_cache_key(
    generation: int,
    vector: np.ndarray,
    k: int,
    predicate: Any = None,
    params: dict[str, Any] | None = None,
) -> Hashable | None:
    """Hashable identity of one exact query against one collection state.

    ``vector.tobytes()`` keys on the exact float32 payload (no epsilon:
    approximate matches are the coalescer's job, not the cache's).
    Predicates are frozen dataclasses and hash structurally; queries
    carrying unhashable params are simply not cacheable (returns None),
    mirroring the plan cache's contract.
    """
    try:
        key = (
            generation,
            vector.tobytes(),
            k,
            predicate,
            tuple(sorted(params.items())) if params else (),
        )
        hash(key)
        return key
    except TypeError:
        return None


class QueryResultCache:
    """LRU cache of exact (collection-state, query) -> result hits."""

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Hits] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable | None) -> Hits | None:
        """Cached hits for ``key``, or None; counts the probe."""
        if key is None:
            self.misses += 1
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable | None, hits: Hits) -> None:
        if key is None:
            return
        self._entries[key] = hits
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        """Fraction of probes served from cache (0.0 before any probe)."""
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def info(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "size": len(self._entries),
            "capacity": self.capacity,
        }
