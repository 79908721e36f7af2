"""Tests for multi-vector entity collections."""

import numpy as np
import pytest

from repro.bench.datasets import multi_vector_entities
from repro.core.errors import CollectionError, QueryError
from repro.core.multivector import MultiVectorEntityCollection
from repro.index import HnswIndex


@pytest.fixture(scope="module")
def entity_collection():
    entities, queries = multi_vector_entities(
        num_entities=200, vectors_per_entity=3, dim=16, num_queries=10,
        query_vectors=2, seed=6,
    )
    coll = MultiVectorEntityCollection(
        dim=16, index_factory=lambda: HnswIndex(m=8, ef_construction=48, seed=0)
    )
    coll.insert_many(entities, [{"group": i % 4} for i in range(len(entities))])
    coll.build_index()
    return coll, queries


class TestEntityCollection:
    def test_counts(self, entity_collection):
        coll, _ = entity_collection
        assert len(coll) == 200
        assert coll.num_facets == 600

    def test_exact_finds_target_entity(self, entity_collection):
        coll, queries = entity_collection
        # Queries were generated around entity centers with matching seed
        # ordering; the nearest entity should appear at rank 1 most times.
        top1 = [coll.search_exact(group, k=1).ids[0] for group in queries]
        assert len(set(top1)) > 1  # sanity: not a degenerate answer

    def test_index_matches_exact(self, entity_collection):
        coll, queries = entity_collection
        agree = 0
        for group in queries:
            exact = coll.search_exact(group, k=5).ids
            accel = coll.search(group, k=5).ids
            agree += len(set(exact) & set(accel))
        assert agree >= 0.8 * 5 * len(queries)

    def test_index_touches_fewer_facets(self, entity_collection):
        coll, queries = entity_collection
        exact = coll.search_exact(queries[0], k=5)
        accel = coll.search(queries[0], k=5)
        assert accel.stats.candidates_examined < len(coll)
        assert exact.stats.distance_computations > 0

    def test_aggregators_change_ranking(self, entity_collection):
        coll, queries = entity_collection
        mean = coll.search_exact(queries[0], k=20, aggregator="mean").ids
        maxa = coll.search_exact(queries[0], k=20, aggregator="max").ids
        assert mean != maxa

    def test_weighted_query(self, entity_collection):
        coll, queries = entity_collection
        result = coll.search_exact(queries[0], k=3, weights=[10.0, 0.1])
        assert len(result) == 3

    def test_entity_accessors(self, entity_collection):
        coll, _ = entity_collection
        assert coll.entity_vectors(0).shape == (3, 16)
        assert coll.attributes(7) == {"group": 3}

    def test_validation(self):
        coll = MultiVectorEntityCollection(dim=4)
        with pytest.raises(CollectionError):
            coll.insert(np.empty((0, 4), dtype=np.float32))
        with pytest.raises(QueryError):
            coll.search(np.zeros((1, 4)), k=1)  # index not built
        with pytest.raises(CollectionError):
            MultiVectorEntityCollection(dim=0)

    def test_variable_facet_counts(self):
        coll = MultiVectorEntityCollection(dim=4)
        rng = np.random.default_rng(0)
        coll.insert(rng.standard_normal((1, 4)))
        coll.insert(rng.standard_normal((5, 4)))
        coll.build_index()
        assert coll.num_facets == 6
        result = coll.search(rng.standard_normal((2, 4)), k=2)
        assert set(result.ids) <= {0, 1}

    def test_insert_invalidates_index(self, entity_collection):
        coll = MultiVectorEntityCollection(dim=4)
        rng = np.random.default_rng(0)
        coll.insert(rng.standard_normal((2, 4)))
        coll.build_index()
        coll.insert(rng.standard_normal((2, 4)))
        with pytest.raises(QueryError):
            coll.search(np.zeros((1, 4)), k=1)
