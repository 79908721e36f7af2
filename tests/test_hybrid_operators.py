"""Tests for the hybrid scan operators (§2.3)."""

import pytest

from repro.core.collection import VectorCollection
from repro.core.types import SearchStats
from repro.hybrid import (
    AttributePartitionedIndex,
    adaptive_postfilter_scan,
    blocked_index_scan,
    online_bitmask,
    postfilter_scan,
    prefilter_scan,
    visit_first_scan,
)
from repro.hybrid.predicates import Field
from repro.index import FlatIndex, HnswIndex, IvfFlatIndex
from repro.scores import EuclideanScore


@pytest.fixture(scope="module")
def hybrid_coll(hybrid_dataset):
    coll = VectorCollection(hybrid_dataset.dim)
    coll.insert_many(hybrid_dataset.train, hybrid_dataset.attributes)
    return coll


@pytest.fixture(scope="module")
def graph_index(hybrid_dataset):
    return HnswIndex(m=8, ef_construction=48, seed=0).build(hybrid_dataset.train)


@pytest.fixture(scope="module")
def flat_index(hybrid_dataset):
    return FlatIndex(EuclideanScore()).build(hybrid_dataset.train)


def exact_filtered(coll, flat, query, k, predicate):
    mask = coll.predicate_mask(predicate)
    return [h.id for h in flat.search(query, k, allowed=mask)]


class TestBlockFirst:
    def test_matches_exact_filtered_results(self, hybrid_coll, graph_index,
                                            flat_index, hybrid_dataset):
        predicate = Field("category") == 2
        q = hybrid_dataset.queries[0]
        expected = exact_filtered(hybrid_coll, flat_index, q, 5, predicate)
        got = [
            h.id
            for h in blocked_index_scan(
                graph_index, hybrid_coll, q, 5, predicate, ef_search=128
            )
        ]
        # Graph search is approximate; demand >= 4/5 overlap and full
        # predicate compliance.
        assert len(set(got) & set(expected)) >= 4
        cats = hybrid_coll.columns["category"]
        assert all(cats[i] == 2 for i in got)

    def test_bitmask_counts_stats(self, hybrid_coll, graph_index, hybrid_dataset):
        stats = SearchStats()
        blocked_index_scan(
            graph_index, hybrid_coll, hybrid_dataset.queries[0], 5,
            Field("rating") >= 3, stats=stats,
        )
        assert stats.predicate_evaluations >= hybrid_coll.capacity

    def test_online_bitmask(self, hybrid_coll):
        mask = online_bitmask(hybrid_coll, Field("price") < 20)
        assert mask.dtype == bool
        assert mask.sum() == (hybrid_coll.columns["price"] < 20).sum()


class TestPreFilter:
    def test_exact_under_any_selectivity(self, hybrid_coll, flat_index,
                                         hybrid_dataset):
        for predicate in (Field("category") == 0, Field("price") < 15,
                          Field("rating") >= 2):
            q = hybrid_dataset.queries[1]
            expected = exact_filtered(hybrid_coll, flat_index, q, 5, predicate)
            got = [
                h.id
                for h in prefilter_scan(
                    hybrid_coll, q, 5, predicate, EuclideanScore()
                )
            ]
            assert got == expected

    def test_cost_proportional_to_selectivity(self, hybrid_coll, hybrid_dataset):
        stats = SearchStats()
        prefilter_scan(
            hybrid_coll, hybrid_dataset.queries[0], 5, Field("category") == 1,
            EuclideanScore(), stats=stats,
        )
        expected_survivors = int(hybrid_coll.predicate_mask(Field("category") == 1).sum())
        assert stats.distance_computations == expected_survivors

    def test_empty_result_when_nothing_matches(self, hybrid_coll, hybrid_dataset):
        hits = prefilter_scan(
            hybrid_coll, hybrid_dataset.queries[0], 5, Field("price") < -1,
            EuclideanScore(),
        )
        assert hits == []


class TestPostFilter:
    def test_may_return_fewer_than_k(self, hybrid_coll, flat_index,
                                     hybrid_dataset):
        """The §2.6(3) hazard: without oversampling, a selective filter
        starves the result set."""
        predicate = Field("category") == 0  # ~20% selectivity
        q = hybrid_dataset.queries[0]
        hits = postfilter_scan(
            flat_index, hybrid_coll, q, 10, predicate, oversample=1.0
        )
        assert len(hits) < 10

    def test_oversampling_fills_result(self, hybrid_coll, flat_index,
                                       hybrid_dataset):
        predicate = Field("category") == 0
        q = hybrid_dataset.queries[0]
        hits = postfilter_scan(
            flat_index, hybrid_coll, q, 10, predicate, oversample=20.0
        )
        assert len(hits) == 10

    def test_adaptive_retries_until_k(self, hybrid_coll, flat_index,
                                      hybrid_dataset):
        predicate = Field("rating") == 1  # ~20%
        q = hybrid_dataset.queries[2]
        result = adaptive_postfilter_scan(
            flat_index, hybrid_coll, q, 10, predicate,
            selectivity_hint=1.0,  # deliberately wrong: forces retries
        )
        assert len(result.hits) == 10
        assert result.attempts >= 2
        assert result.final_oversample > 1.0

    def test_adaptive_first_try_with_good_hint(self, hybrid_coll, flat_index,
                                               hybrid_dataset):
        predicate = Field("rating") >= 2  # ~80%
        result = adaptive_postfilter_scan(
            flat_index, hybrid_coll, hybrid_dataset.queries[0], 10, predicate
        )
        assert result.attempts == 1

    def test_results_satisfy_predicate(self, hybrid_coll, flat_index,
                                       hybrid_dataset):
        predicate = Field("price") > 30
        hits = postfilter_scan(
            flat_index, hybrid_coll, hybrid_dataset.queries[0], 10, predicate,
            oversample=8.0,
        )
        prices = hybrid_coll.columns["price"]
        assert all(prices[h.id] > 30 for h in hits)


class TestVisitFirst:
    def test_returns_only_passing(self, hybrid_coll, graph_index, hybrid_dataset):
        predicate = Field("category") == 3
        hits = visit_first_scan(
            graph_index, hybrid_coll, hybrid_dataset.queries[0], 5, predicate
        )
        cats = hybrid_coll.columns["category"]
        assert all(cats[h.id] == 3 for h in hits)
        assert len(hits) > 0

    def test_quality_close_to_exact(self, hybrid_coll, graph_index, flat_index,
                                    hybrid_dataset):
        predicate = Field("rating") >= 3
        q = hybrid_dataset.queries[1]
        expected = exact_filtered(hybrid_coll, flat_index, q, 5, predicate)
        hits = visit_first_scan(
            graph_index, hybrid_coll, q, 5, predicate, ef=96
        )
        assert len(set(h.id for h in hits) & set(expected)) >= 3

    def test_traverses_through_blocked_nodes(self, hybrid_coll, graph_index,
                                             hybrid_dataset):
        # A very selective predicate still finds results because blocked
        # nodes remain traversable.
        predicate = (Field("category") == 1) & (Field("rating") == 5)
        sel = hybrid_coll.selectivity(predicate)
        assert sel < 0.1
        hits = visit_first_scan(
            graph_index, hybrid_coll, hybrid_dataset.queries[0], 3, predicate,
            ef=64,
        )
        expected = int(hybrid_coll.predicate_mask(predicate).sum())
        assert len(hits) == min(3, expected) or len(hits) > 0

    def test_mask_narrower_than_the_beam_is_scanned_exactly(
        self, hybrid_coll, graph_index, flat_index, hybrid_dataset
    ):
        # Fewer passing rows than ef: a beam could never fill its pool,
        # so it would have no bound and walk the whole graph.
        predicate = (Field("category") == 1) & (Field("rating") == 5)
        passing = int(hybrid_coll.predicate_mask(predicate).sum())
        assert 5 <= passing <= 64
        q = hybrid_dataset.queries[0]
        stats = SearchStats()
        hits = visit_first_scan(
            graph_index, hybrid_coll, q, 5, predicate, ef=64, stats=stats
        )
        assert [h.id for h in hits] == exact_filtered(
            hybrid_coll, flat_index, q, 5, predicate
        )
        assert stats.nodes_visited == 0
        assert stats.distance_computations == passing

    def test_requires_graph_index(self, hybrid_coll, hybrid_dataset):
        ivf = IvfFlatIndex(nlist=8).build(hybrid_dataset.train)
        with pytest.raises(TypeError, match="graph index"):
            visit_first_scan(
                ivf, hybrid_coll, hybrid_dataset.queries[0], 5,
                Field("category") == 0,
            )

    def test_works_on_plain_graph_index(self, hybrid_coll, hybrid_dataset):
        from repro.index import VamanaIndex

        vamana = VamanaIndex(max_degree=10, beam_width=32, seed=0).build(
            hybrid_dataset.train
        )
        hits = visit_first_scan(
            vamana, hybrid_coll, hybrid_dataset.queries[0], 5,
            Field("category") == 2,
        )
        cats = hybrid_coll.columns["category"]
        assert all(cats[h.id] == 2 for h in hits)


class TestPartitioned:
    def test_offline_blocking_exact_per_partition(self, hybrid_coll, flat_index,
                                                  hybrid_dataset):
        part = AttributePartitionedIndex(
            lambda: FlatIndex(EuclideanScore()), "category"
        ).build(hybrid_coll)
        predicate = Field("category") == 2
        q = hybrid_dataset.queries[0]
        expected = exact_filtered(hybrid_coll, flat_index, q, 5, predicate)
        got = [h.id for h in part.search(q, 5, predicate)]
        assert got == expected

    def test_partition_sizes_cover_collection(self, hybrid_coll):
        part = AttributePartitionedIndex(
            lambda: FlatIndex(EuclideanScore()), "category"
        ).build(hybrid_coll)
        assert sum(part.partition_sizes().values()) == len(hybrid_coll)

    def test_covers_only_equality_and_in(self, hybrid_coll):
        part = AttributePartitionedIndex(
            lambda: FlatIndex(EuclideanScore()), "category"
        ).build(hybrid_coll)
        assert part.covers(Field("category") == 1)
        assert part.covers(Field("category").isin([1, 2]))
        assert not part.covers(Field("category") > 1)
        assert not part.covers(Field("price") == 1)
        assert not part.covers(None)

    def test_in_predicate_searches_multiple_partitions(self, hybrid_coll,
                                                       flat_index,
                                                       hybrid_dataset):
        part = AttributePartitionedIndex(
            lambda: FlatIndex(EuclideanScore()), "category"
        ).build(hybrid_coll)
        predicate = Field("category").isin([0, 4])
        q = hybrid_dataset.queries[3]
        expected = exact_filtered(hybrid_coll, flat_index, q, 5, predicate)
        got = [h.id for h in part.search(q, 5, predicate)]
        assert got == expected

    def test_uncovered_predicate_rejected(self, hybrid_coll, hybrid_dataset):
        from repro.core.errors import PlanningError

        part = AttributePartitionedIndex(
            lambda: FlatIndex(EuclideanScore()), "category"
        ).build(hybrid_coll)
        with pytest.raises(PlanningError):
            part.search(hybrid_dataset.queries[0], 5, Field("price") < 10)

    def test_missing_attribute_rejected(self, hybrid_coll):
        from repro.core.errors import PlanningError

        part = AttributePartitionedIndex(
            lambda: FlatIndex(EuclideanScore()), "brand"
        )
        with pytest.raises(PlanningError):
            part.build(hybrid_coll)
