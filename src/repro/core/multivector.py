"""Multi-vector *entities* (§2.1 query variants, §2.6(6)).

"In a multi-vector query, multiple feature vectors are used to
represent either the query, each entity, or both."  The executor
handles the query side; this module adds the entity side: a collection
where each entity owns several facet vectors (a person with many face
shots, a product with multiple images), searched at the *entity* level.

Search follows the decomposition [79] uses: a facet-level index
retrieves candidate facets per query vector, candidates are grouped to
entities, and surviving entities are re-ranked with the exact aggregate
score over all their facets.  ``search_exact`` provides the
brute-force oracle the decomposition is measured against.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.errors import CollectionError, QueryError
from ..core.types import Hits, SearchResult, SearchStats, as_matrix
from ..scores import AggregateScore, Score, get_score
from ..scores.aggregate import WeightedSumAggregator


class MultiVectorEntityCollection:
    """Entities with multiple facet vectors, searched by aggregate score.

    Parameters
    ----------
    dim:
        Facet vector dimensionality.
    score:
        Per-facet score; combined per entity by the query's aggregator.
    index_factory:
        Zero-arg callable producing the facet-level index (defaults to
        flat/exact).  Call :meth:`build_index` after loading.
    """

    def __init__(
        self,
        dim: int,
        score: Score | str = "l2",
        index_factory: Callable[[], Any] | None = None,
    ):
        if dim <= 0:
            raise CollectionError("dim must be positive")
        self.dim = dim
        self.score = get_score(score)
        if index_factory is None:
            from ..index.flat import FlatIndex

            index_factory = lambda: FlatIndex(self.score)  # noqa: E731
        self.index_factory = index_factory
        self._entity_vectors: list[np.ndarray] = []
        self._entity_attributes: list[dict[str, Any]] = []
        self._facet_matrix: np.ndarray | None = None
        self._facet_entity: np.ndarray | None = None  # facet row -> entity id
        self._index = None

    # ------------------------------------------------------------------- DML

    def insert(
        self,
        vectors: np.ndarray,
        attributes: Mapping[str, Any] | None = None,
    ) -> int:
        """Insert one entity with one or more facet vectors."""
        matrix = as_matrix(vectors, self.dim)
        if matrix.shape[0] == 0:
            raise CollectionError("an entity needs at least one facet vector")
        entity_id = len(self._entity_vectors)
        self._entity_vectors.append(matrix)
        self._entity_attributes.append(dict(attributes or {}))
        self._facet_matrix = None  # invalidate
        self._index = None
        return entity_id

    def insert_many(
        self,
        entities: Sequence[np.ndarray],
        attributes: Sequence[Mapping[str, Any]] | None = None,
    ) -> list[int]:
        if attributes is not None and len(attributes) != len(entities):
            raise CollectionError("one attribute dict per entity is required")
        return [
            self.insert(vectors, attributes[i] if attributes else None)
            for i, vectors in enumerate(entities)
        ]

    def __len__(self) -> int:
        return len(self._entity_vectors)

    @property
    def num_facets(self) -> int:
        return sum(v.shape[0] for v in self._entity_vectors)

    def entity_vectors(self, entity_id: int) -> np.ndarray:
        return self._entity_vectors[entity_id]

    def attributes(self, entity_id: int) -> dict[str, Any]:
        return self._entity_attributes[entity_id]

    # ----------------------------------------------------------------- index

    def _facets(self) -> tuple[np.ndarray, np.ndarray]:
        if self._facet_matrix is None:
            if not self._entity_vectors:
                self._facet_matrix = np.empty((0, self.dim), dtype=np.float32)
                self._facet_entity = np.empty(0, dtype=np.int64)
            else:
                self._facet_matrix = np.vstack(self._entity_vectors)
                self._facet_entity = np.concatenate([
                    np.full(v.shape[0], e, dtype=np.int64)
                    for e, v in enumerate(self._entity_vectors)
                ])
        return self._facet_matrix, self._facet_entity

    def build_index(self) -> "MultiVectorEntityCollection":
        """(Re)build the facet-level index over all facets."""
        matrix, _ = self._facets()
        self._index = self.index_factory()
        if matrix.shape[0]:
            self._index.build(matrix)
        return self

    # ---------------------------------------------------------------- search

    def _aggregator(self, aggregator, weights):
        if weights is not None:
            return AggregateScore(self.score, WeightedSumAggregator(weights))
        return AggregateScore(self.score, aggregator)

    def search_exact(
        self,
        query_vectors: np.ndarray,
        k: int,
        aggregator: Any = "mean",
        weights: np.ndarray | None = None,
    ) -> SearchResult:
        """Brute-force entity ranking (the oracle)."""
        queries = as_matrix(query_vectors, self.dim)
        agg = self._aggregator(aggregator, weights)
        stats = SearchStats(plan_name="entity_exact")
        distances = agg.distances(queries, self._entity_vectors)
        stats.distance_computations = self.num_facets * queries.shape[0]
        hits = Hits.topk(np.arange(distances.shape[0]), distances, k)
        return SearchResult(hits=hits, stats=stats)

    def search(
        self,
        query_vectors: np.ndarray,
        k: int,
        aggregator: Any = "mean",
        weights: np.ndarray | None = None,
        facet_fetch: int | None = None,
    ) -> SearchResult:
        """Index-accelerated entity search (candidate union + rerank).

        ``facet_fetch`` controls how many facet hits each query vector
        contributes to the candidate set (default 4k).
        """
        if self._index is None:
            raise QueryError("call build_index() before searching")
        queries = as_matrix(query_vectors, self.dim)
        if queries.shape[0] == 0:
            raise QueryError("at least one query vector is required")
        fetch = facet_fetch if facet_fetch is not None else max(4 * k, 20)
        _, facet_entity = self._facets()
        stats = SearchStats(plan_name="entity_index_union")
        entity_ids = np.unique(facet_entity[np.concatenate(
            [self._index.search(q, fetch, stats=stats).ids for q in queries]
        )])
        if entity_ids.size == 0:
            return SearchResult(hits=Hits.EMPTY, stats=stats)
        agg = self._aggregator(aggregator, weights)
        distances = agg.distances(
            queries, [self._entity_vectors[e] for e in entity_ids]
        )
        stats.distance_computations += int(
            sum(self._entity_vectors[e].shape[0] for e in entity_ids)
            * queries.shape[0]
        )
        stats.candidates_examined += entity_ids.size
        return SearchResult(hits=Hits.topk(entity_ids, distances, k), stats=stats)
