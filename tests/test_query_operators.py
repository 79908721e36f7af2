"""Tests for query types and basic physical operators."""

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.core.operators import (
    IndexScan,
    TableScan,
    batched_table_scan,
    similarity_projection,
)
from repro.core.query import (
    BatchQuery,
    MultiVectorQuery,
    RangeQuery,
    SearchQuery,
    satisfies_ck,
)
from repro.core.types import Hits, SearchStats
from repro.hybrid.predicates import Field
from repro.scores import EuclideanScore


class TestQueryValidation:
    def test_search_query_validates(self):
        with pytest.raises(QueryError):
            SearchQuery(np.zeros(4), k=0)
        with pytest.raises(QueryError):
            SearchQuery(np.zeros(4), k=5, c=-0.1)

    def test_hybrid_flag(self):
        plain = SearchQuery(np.zeros(4), k=1)
        hybrid = SearchQuery(np.zeros(4), k=1, predicate=Field("x") == 1)
        assert not plain.is_hybrid
        assert hybrid.is_hybrid

    def test_exactness_flag(self):
        assert SearchQuery(np.zeros(4), k=1).is_exact
        assert not SearchQuery(np.zeros(4), k=1, c=0.5).is_exact

    def test_range_query_validates(self):
        with pytest.raises(QueryError):
            RangeQuery(np.zeros(4), radius=-1.0)

    def test_batch_explodes(self):
        batch = BatchQuery(np.zeros((3, 4)), k=2, c=0.1)
        singles = batch.queries()
        assert len(singles) == 3
        assert all(q.k == 2 and q.c == 0.1 for q in singles)
        assert len(batch) == 3

    def test_multivector_validates(self):
        with pytest.raises(QueryError):
            MultiVectorQuery(np.zeros((0, 4)).reshape(0, 4), k=1)
        with pytest.raises(QueryError):
            MultiVectorQuery(np.zeros((2, 4)), k=1, weights=[1.0])

    def test_satisfies_ck(self):
        # true kth distance 1.0; c=0.5 allows up to 1.5
        assert satisfies_ck([0.9, 1.4], 1.0, 0.5)
        assert not satisfies_ck([0.9, 1.6], 1.0, 0.5)
        assert not satisfies_ck([], 1.0, 0.5)
        assert satisfies_ck([1.0], 1.0, 0.0)


class TestOperators:
    def test_similarity_projection_counts(self, small_data):
        stats = SearchStats()
        d = similarity_projection(
            small_data[0], small_data, EuclideanScore(), stats
        )
        assert d.shape == (300,)
        assert stats.distance_computations == 300

    def test_top_k_operator(self):
        hits = Hits.topk(np.array([7, 8, 9]), np.array([0.3, 0.1, 0.2]), 2)
        assert [h.id for h in hits] == [8, 9]

    def test_table_scan_exact(self, small_data, flat_oracle, small_queries):
        scan = TableScan(small_data, np.arange(300), EuclideanScore())
        got = scan.run(small_queries[0], 10)
        expected = flat_oracle.search(small_queries[0], 10)
        assert [h.id for h in got] == [h.id for h in expected]

    def test_table_scan_mask(self, small_data, small_queries):
        mask = np.zeros(300, dtype=bool)
        mask[:50] = True
        scan = TableScan(small_data, np.arange(300), EuclideanScore())
        stats = SearchStats()
        hits = scan.run(small_queries[0], 10, mask=mask, stats=stats)
        assert all(h.id < 50 for h in hits)
        assert stats.predicate_rejections == 250
        assert stats.distance_computations == 50

    def test_table_scan_empty_mask(self, small_data, small_queries):
        scan = TableScan(small_data, np.arange(300), EuclideanScore())
        assert scan.run(small_queries[0], 5, mask=np.zeros(300, bool)) == []

    def test_index_scan_delegates(self, flat_oracle, small_queries):
        scan = IndexScan(flat_oracle)
        hits = scan.run(small_queries[0], 5)
        assert len(hits) == 5

    def test_batched_scan_matches_singles(self, small_data, small_queries,
                                          flat_oracle):
        per_query = batched_table_scan(
            small_queries, small_data, np.arange(300), EuclideanScore(), 10
        )
        for qi, hits in enumerate(per_query):
            expected = flat_oracle.search(small_queries[qi], 10)
            assert [h.id for h in hits] == [h.id for h in expected]

    def test_batched_scan_mask(self, small_data, small_queries):
        mask = np.zeros(300, dtype=bool)
        mask[100:] = True
        per_query = batched_table_scan(
            small_queries[:3], small_data, np.arange(300), EuclideanScore(), 5,
            mask=mask,
        )
        assert all(h.id >= 100 for hits in per_query for h in hits)
