"""Offline blocking: attribute-partitioned indexes (§2.3).

Milvus [6, 79] pre-partitions the collection along frequently filtered
attributes so an equality-predicated query searches only the matching
partition — blocking is free at query time.  The cost: one sub-index
per distinct value, and predicates outside the partitioning attribute
fall back to online blocking.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..core.errors import PlanningError
from ..core.types import Hits, SearchStats
from ..hybrid.predicates import Comparison, In, Predicate
from ..observability.tracing import NOOP_SPAN


class AttributePartitionedIndex:
    """One sub-index per distinct value of a partitioning attribute.

    Parameters
    ----------
    index_factory:
        Zero-arg callable producing an unbuilt :class:`VectorIndex` for
        each partition.
    attribute:
        The partitioning attribute; must be low-cardinality.
    """

    def __init__(self, index_factory: Callable[[], Any], attribute: str):
        self.index_factory = index_factory
        self.attribute = attribute
        #: ``(registry name, kwargs)`` the factory stands for, set by
        #: ``VectorDatabase.create_partitioned_index`` so a snapshot can
        #: record it; an opaque factory (None) cannot be saved.
        self.definition: tuple[str, dict[str, Any]] | None = None
        #: ``collection.stamp()`` at the last :meth:`build`: what the
        #: collection's ``tail`` is asked with (see ``VectorIndex.built_at``).
        self.built_at: tuple[int, int] | None = None
        self._partitions: dict[Any, Any] = {}
        self._built = False

    def build(self, collection) -> "AttributePartitionedIndex":
        values = collection.columns.get(self.attribute)
        if values is None:
            raise PlanningError(
                f"collection has no attribute {self.attribute!r} to partition on"
            )
        self._partitions = {}
        for value in np.unique(values):
            positions = np.flatnonzero((values == value) & collection.alive)
            index = self.index_factory()
            index.build(collection.vectors[positions], ids=positions.astype(np.int64))
            self._partitions[value if not isinstance(value, np.generic) else value.item()] = index
        self._built = True
        self.built_at = collection.stamp()
        return self

    @property
    def partition_values(self) -> list:
        return sorted(self._partitions, key=repr)

    def covers(self, predicate: Predicate | None) -> bool:
        """Whether offline blocking fully answers this predicate."""
        if predicate is None:
            return False
        if isinstance(predicate, Comparison):
            return predicate.attribute == self.attribute and predicate.op == "=="
        if isinstance(predicate, In):
            return predicate.attribute == self.attribute
        return False

    def _selected(self, predicate: Predicate):
        """The built sub-indexes ``predicate`` selects, as (value, index)."""
        if not self._built:
            raise PlanningError("AttributePartitionedIndex has not been built")
        if not self.covers(predicate):
            raise PlanningError(
                f"predicate {predicate!r} is not an equality/IN over"
                f" {self.attribute!r}; use online blocking instead"
            )
        # Covered: an equality (one value) or an IN (several) over the attribute.
        for value in (
            [predicate.value] if isinstance(predicate, Comparison) else predicate.values
        ):
            index = self._partitions.get(value)
            if index is not None:
                yield value, index

    def search(
        self,
        query: np.ndarray,
        k: int,
        predicate: Predicate,
        allowed: np.ndarray | None = None,
        stats: SearchStats | None = None,
        span: Any = None,
        **params: Any,
    ) -> Hits:
        """Search only the partitions the predicate selects; ``allowed``
        (by id, as on a plain index) keeps out rows deleted since the
        sub-indexes copied them."""
        stats = stats if stats is not None else SearchStats()
        span = span if span is not None else NOOP_SPAN
        parts = []
        for value, index in self._selected(predicate):
            with span.child(
                "partition", partition=value, attribute=self.attribute
            ).attach_stats(stats) as part_span:
                parts.append(index.search(
                    query, k, allowed=allowed, stats=stats, span=part_span,
                    **params,
                ))
        return Hits.merge(parts, k)

    def range_search(self, query, radius, predicate, allowed=None, stats=None, **params):
        """Every hit within ``radius`` in the partitions the predicate
        selects, which are disjoint."""
        return Hits.merge(
            index.range_search(query, radius, allowed=allowed, stats=stats, **params)
            for _, index in self._selected(predicate)
        )

    def partition_sizes(self) -> dict[Any, int]:
        return {value: len(idx) for value, idx in self._partitions.items()}

    def __len__(self) -> int:
        return sum(self.partition_sizes().values())
