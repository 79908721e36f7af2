"""Tests for multi-vector entity collections and batched graph search."""

import numpy as np
import pytest
from oracles import as_pairs, batched_graph_search_reference, key_aux

from repro.bench.datasets import multi_vector_entities
from repro.core.batched import batched_graph_search
from repro.core.errors import CollectionError, QueryError
from repro.core.multivector import MultiVectorEntityCollection
from repro.core.types import SearchStats
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


class TestBatchedGraphSearch:
    @pytest.fixture(scope="class")
    def graph(self, small_data):
        return HnswIndex(m=8, ef_construction=64, seed=0).build(small_data)

    def test_matches_individual_search_quality(self, graph, small_data,
                                               small_queries, ground_truth_10):
        batched = batched_graph_search(graph, small_queries, 10, ef_search=64)
        recalls = []
        for qi, hits in enumerate(batched):
            truth = set(int(t) for t in ground_truth_10[qi])
            recalls.append(len(truth & set(h.id for h in hits)) / 10)
        assert float(np.mean(recalls)) >= 0.9

    def test_results_sorted(self, graph, small_queries):
        batched = batched_graph_search(graph, small_queries, 5)
        for hits in batched:
            d = [h.distance for h in hits]
            assert d == sorted(d)

    def test_batch_order_preserved(self, graph, small_queries):
        batched = batched_graph_search(graph, small_queries, 1, ef_search=64)
        # Each query's top-1 should match its own individual search.
        agree = sum(
            batched[i][0].id == graph.search(q, 1, ef_search=64)[0].id
            for i, q in enumerate(small_queries)
        )
        assert agree >= len(small_queries) - 2

    def test_sharing_saves_work_on_similar_queries(self, graph, small_data):
        # A batch of 16 near-duplicate queries: shared entries should cut
        # total distance computations vs independent searches.
        rng = np.random.default_rng(1)
        base = small_data[0]
        batch = base + 0.01 * rng.standard_normal((16, small_data.shape[1]))
        batch = batch.astype(np.float32)

        shared = SearchStats()
        batched_graph_search(graph, batch, 10, ef_search=48, stats=shared,
                             group_size=16)
        independent = SearchStats()
        for q in batch:
            graph.search(q, 10, ef_search=48, stats=independent)
        assert shared.distance_computations < independent.distance_computations * 1.1

    def test_empty_batch(self, graph):
        assert batched_graph_search(graph, np.empty((0, 12), np.float32), 5) == []

    def test_works_on_plain_graph(self, small_data, small_queries):
        from repro.index import VamanaIndex

        vamana = VamanaIndex(max_degree=10, beam_width=32, seed=0).build(small_data)
        batched = batched_graph_search(vamana, small_queries[:4], 5)
        assert all(len(hits) == 5 for hits in batched)


class TestMergedFrontierDifferential:
    """Merged-frontier kernel vs the per-member oracle (tests/oracles.py).

    The merged traversal is deliberately not bitwise-identical to
    per-member beams (its bound is the loosest member's solo bound), so
    the contract tested here is the bounded-recall one the module
    docstring states: deterministic output, pools sorted by exact
    distance, and recall on clustered batches at or above the
    per-member oracle.
    """

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(9)
        centers = rng.standard_normal((8, 24)) * 4.0
        data = (
            centers[rng.integers(0, 8, size=1200)]
            + rng.standard_normal((1200, 24))
        ).astype(np.float32)
        graph = HnswIndex(m=8, ef_construction=64, seed=0).build(data)
        base = data[rng.integers(0, 1200, size=6)]
        queries = (
            base[rng.integers(0, 6, size=24)]
            + 0.02 * rng.standard_normal((24, 24))
        ).astype(np.float32)
        return graph, data, queries

    @staticmethod
    def _recall(results, data, queries, k):
        hits = 0
        for qi, pairs in enumerate(results):
            truth = np.argsort(
                np.sum((data - queries[qi]) ** 2, axis=1), kind="stable"
            )[:k]
            hits += len(set(int(t) for t in truth) & {h.id for h in pairs})
        return hits / (len(queries) * k)

    def test_recall_not_below_reference(self, workload):
        graph, data, queries = workload
        k = 10
        merged = batched_graph_search(
            graph, queries, k, ef_search=48, group_size=8
        )
        reference = batched_graph_search_reference(
            graph, queries, k, ef_search=48, group_size=8
        )
        merged_recall = self._recall(merged, data, queries, k)
        ref_recall = self._recall(reference, data, queries, k)
        assert merged_recall >= ref_recall
        # Returned distances are the exact re-score of each member's pool.
        for query, hits in zip(queries, merged):
            exact = graph.score.distances(query, data[[h.id for h in hits]])
            assert [h.distance for h in hits] == exact.tolist()

    def test_deterministic(self, workload):
        graph, _, queries = workload
        a = batched_graph_search(graph, queries, 10, ef_search=48, group_size=8)
        b = batched_graph_search(graph, queries, 10, ef_search=48, group_size=8)
        for ha, hb in zip(a, b):
            assert [h.id for h in ha] == [h.id for h in hb]
            assert [h.distance for h in ha] == [h.distance for h in hb]

    def test_group_expansions_counted_once(self, workload):
        graph, _, queries = workload
        merged_stats = SearchStats()
        batched_graph_search(
            graph, queries, 10, ef_search=48, group_size=8, stats=merged_stats
        )
        ref_stats = SearchStats()
        batched_graph_search_reference(
            graph, queries, 10, ef_search=48, group_size=8, stats=ref_stats
        )
        # nodes_visited counts *group* expansions: on a clustered batch
        # the shared frontier must expand far fewer nodes than the
        # per-member loops do in aggregate — that reduction is the win.
        assert merged_stats.nodes_visited < ref_stats.nodes_visited

    def test_kernel_allowed_mask(self, workload):
        from repro.index._graph import batched_beam_search

        graph, data, queries = workload
        surface, entries = graph.slots, [graph.entry_point]
        allowed = np.zeros(data.shape[0], dtype=bool)
        allowed[::2] = True
        results = as_pairs(*batched_beam_search(
            queries[:6], graph._vectors, surface, entries, 16, graph.score,
            allowed=allowed,
        ), len(data))
        assert len(results) == 6
        for pairs in results:
            assert pairs, "allowed mask should not empty the pools"
            assert all(node % 2 == 0 for _, node in pairs)
            d = [dist for dist, _ in pairs]
            assert d == sorted(d)

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_kernel_keys_are_certified_per_member(self, workload, offset):
        """Ranked by ``Score.keys``, the group kernel returns exact
        distances in (distance, position) order and charges one
        computation per key; rows far from the origin fail the
        certificate and the group is answered by ``distances`` — the
        answer of a call without ``aux``."""
        from repro.index._graph import batched_beam_search

        graph, data, queries = workload
        rows = (data + np.float32(offset)).astype(np.float32)
        group = (queries[:5] + np.float32(offset)).astype(np.float32)
        entries = [graph.entry_point, 5, 5]
        keyed, by_distance = SearchStats(), SearchStats()
        got = as_pairs(*batched_beam_search(
            group, rows, graph.adjacency, entries, 16, graph.score,
            stats=keyed, aux=key_aux(graph.score, rows),
        ), len(rows))
        want = as_pairs(*batched_beam_search(
            group, rows, graph.adjacency, entries, 16, graph.score,
            stats=by_distance,
        ), len(rows))
        for query, pairs in zip(group, got):
            positions = [p for _, p in pairs]
            assert len(set(positions)) == len(pairs) == 16
            assert pairs == sorted(pairs)
            exact = graph.score.distances(query, rows[positions])
            assert [d for d, _ in pairs] == exact.tolist()
        if offset:
            assert got == want
            assert keyed.distance_computations > by_distance.distance_computations
        else:
            overlap = sum(
                len({p for _, p in a} & {p for _, p in b}) for a, b in zip(got, want)
            )
            assert overlap >= 0.95 * 16 * len(group)
            assert keyed.distance_computations % len(group) == 0

    def test_kernel_empty_and_degenerate_inputs(self, workload):
        from repro.index._graph import batched_beam_search

        graph, _, queries = workload
        surface, entries = graph.slots, [graph.entry_point]
        n = len(graph._vectors)
        assert as_pairs(*batched_beam_search(
            np.empty((0, 24), np.float32), graph._vectors, surface, entries,
            8, graph.score,
        ), n) == []
        out = as_pairs(*batched_beam_search(
            queries[:3], graph._vectors, surface, entries, 0, graph.score
        ), n)
        assert out == [[], [], []]
        out = as_pairs(*batched_beam_search(
            queries[:2], graph._vectors, surface, [], 8, graph.score
        ), n)
        assert out == [[], []]
