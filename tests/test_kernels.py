"""Differential tests for the vectorized search kernels.

The contract under test: :func:`repro.index._graph.beam_search` (bitmap
visited-set, CSR adjacency, batched scoring) is *behavior-preserving*
with respect to :func:`repro.index._graph.beam_search_reference` (the
original scalar implementation) — identical (distance, position) pairs
and identical ``SearchStats`` counts on any adjacency, seed, entry set,
and ``allowed``-mask configuration.  Plus unit coverage for the CSR
packing, the partition-based top-k kernel, and float32/C-contiguous
ingest enforcement.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collection import VectorCollection
from repro.core.types import SearchStats
from repro.index import (
    FanngIndex,
    FilteredHnswIndex,
    GraphIndex,
    HnswIndex,
    KnngIndex,
    NgtIndex,
    NnDescentIndex,
    NsgIndex,
    NswIndex,
    VamanaIndex,
    available_indexes,
    make_index,
)
from repro.index._graph import beam_search, beam_search_reference
from repro.index._kernels import CSRAdjacency, ensure_f32c, topk_indices
from repro.scores import EuclideanScore


def random_adjacency(n, degree, rng):
    """Random directed graph as the builders' list-of-arrays form."""
    adjacency = []
    for v in range(n):
        d = int(rng.integers(0, degree + 1))
        if d == 0:
            adjacency.append(np.empty(0, dtype=np.int64))
        else:
            adjacency.append(rng.integers(0, n, size=d).astype(np.int64))
    return adjacency


def run_both(vectors, adjacency, entries, ef, score, allowed=None, ids=None):
    """(vectorized pairs+stats, reference pairs+stats) on identical input."""
    s_vec, s_ref = SearchStats(), SearchStats()
    csr = CSRAdjacency.from_lists(adjacency)
    got = beam_search(
        vectors[0], vectors, csr, entries, ef, score,
        stats=s_vec, allowed=allowed, ids=ids,
    )
    want = beam_search_reference(
        vectors[0], vectors, adjacency, entries, ef, score,
        stats=s_ref, allowed=allowed, ids=ids,
    )
    return (got, s_vec), (want, s_ref)


class TestCSRAdjacency:
    def test_round_trip_matches_lists(self):
        rng = np.random.default_rng(0)
        adjacency = random_adjacency(40, 6, rng)
        csr = CSRAdjacency.from_lists(adjacency)
        assert len(csr) == len(adjacency)
        assert csr.num_edges == sum(len(a) for a in adjacency)
        for node, expected in enumerate(adjacency):
            np.testing.assert_array_equal(csr[node], expected)
            np.testing.assert_array_equal(csr(node), expected)  # callable form
        np.testing.assert_array_equal(
            csr.degrees(), [len(a) for a in adjacency]
        )
        for back, expected in zip(csr.to_lists(), adjacency):
            np.testing.assert_array_equal(back, expected)

    def test_empty_graph(self):
        csr = CSRAdjacency.from_lists([])
        assert len(csr) == 0 and csr.num_edges == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CSRAdjacency(np.array([0, 3]), np.array([1]))


class TestTopkKernel:
    @given(
        n=st.integers(min_value=1, max_value=300),
        k=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_stable_argsort(self, n, k, seed):
        rng = np.random.default_rng(seed)
        d = rng.random(n)  # ties have probability ~0
        got = topk_indices(d, k)
        want = np.argsort(d, kind="stable")[:k]
        np.testing.assert_array_equal(got, want)

    def test_with_ties_returns_k_smallest_values(self):
        d = np.array([1.0, 0.0, 1.0, 0.0, 2.0, 1.0])
        got = topk_indices(d, 3)
        assert sorted(d[got]) == [0.0, 0.0, 1.0]
        assert list(d[got]) == sorted(d[got])

    def test_unsorted_selection(self):
        rng = np.random.default_rng(3)
        d = rng.random(100)
        got = topk_indices(d, 10, sort=False)
        assert set(d[got]) == set(np.sort(d)[:10])

    def test_k_exceeds_n(self):
        d = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(topk_indices(d, 10), [1, 2, 0])


class TestBeamSearchDifferential:
    """Vectorized vs reference traversal on randomized graphs."""

    @given(
        n=st.integers(min_value=1, max_value=80),
        degree=st.integers(min_value=0, max_value=8),
        ef=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=1000),
        masked=st.booleans(),
        permute_ids=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_identical_results_and_stats(
        self, n, degree, ef, seed, masked, permute_ids
    ):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n, 6)).astype(np.float32)
        adjacency = random_adjacency(n, degree, rng)
        entries = list(rng.integers(0, n, size=int(rng.integers(1, 4))))
        entries += entries[:1]  # exercise entry-point dedup
        ids = rng.permutation(n).astype(np.int64) if permute_ids else None
        allowed = None
        if masked:
            allowed = rng.random(n) < 0.6
        (got, s_vec), (want, s_ref) = run_both(
            vectors, adjacency, entries, ef, EuclideanScore(),
            allowed=allowed, ids=ids,
        )
        assert [(round(d, 6), p) for d, p in got] == [
            (round(d, 6), p) for d, p in want
        ]
        assert s_vec.distance_computations == s_ref.distance_computations
        assert s_vec.nodes_visited == s_ref.nodes_visited

    def test_distances_within_tolerance_on_fixed_seed(self):
        rng = np.random.default_rng(1234)
        vectors = rng.standard_normal((200, 16)).astype(np.float32)
        adjacency = random_adjacency(200, 12, rng)
        (got, _), (want, _) = run_both(
            vectors, adjacency, [0, 7], 48, EuclideanScore()
        )
        assert [p for _, p in got] == [p for _, p in want]
        assert np.allclose(
            [d for d, _ in got], [d for d, _ in want], atol=1e-5
        )

    def test_empty_entry_and_zero_ef(self):
        vectors = np.zeros((4, 2), dtype=np.float32)
        adjacency = random_adjacency(4, 2, np.random.default_rng(0))
        assert beam_search(
            vectors[0], vectors, CSRAdjacency.from_lists(adjacency),
            [], 4, EuclideanScore(),
        ) == []
        assert beam_search(
            vectors[0], vectors, CSRAdjacency.from_lists(adjacency),
            [0], 0, EuclideanScore(),
        ) == []

    def test_callable_adjacency_still_supported(self):
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((30, 4)).astype(np.float32)
        adjacency = random_adjacency(30, 4, rng)
        got = beam_search(
            vectors[0], vectors, lambda v: adjacency[v], [0], 8,
            EuclideanScore(),
        )
        want = beam_search_reference(
            vectors[0], vectors, adjacency, [0], 8, EuclideanScore()
        )
        assert got == want


GRAPH_FACTORIES = [
    ("nsw", lambda: NswIndex(connections=4, ef_construction=16, seed=0)),
    ("knng", lambda: KnngIndex(graph_k=6, seed=0)),
    ("vamana", lambda: VamanaIndex(max_degree=8, beam_width=16, seed=0)),
    ("nsg", lambda: NsgIndex(max_degree=8, candidate_pool=16, knng_k=6, seed=0)),
    ("ngt", lambda: NgtIndex(edge_size=4, max_degree=8, ef_construction=16, seed=0)),
    ("hnsw", lambda: HnswIndex(m=6, ef_construction=24, ef_search=24, seed=0)),
    ("filtered_hnsw",
     lambda: FilteredHnswIndex(m=6, ef_construction=24, label_k=4, seed=0)),
    ("fanng", lambda: FanngIndex(max_degree=8, init_knng_k=6, seed=0)),
    ("nndescent", lambda: NnDescentIndex(graph_k=6, seed=0)),
]


def build_graph(factory, seed=7, n=90, dim=8):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dim)).astype(np.float32)
    index = factory()
    if isinstance(index, FilteredHnswIndex):
        return index.build_with_labels(data, np.arange(n) % 3), data
    return index.build(data), data


def parametrize_graphs(keep=lambda index: True):
    chosen = [(n, f) for n, f in GRAPH_FACTORIES if keep(f())]
    return pytest.mark.parametrize(
        "factory", [f for _, f in chosen], ids=[n for n, _ in chosen]
    )


@parametrize_graphs()
class TestGraphIndexDifferential:
    """The vectorized kernel over every graph index's real adjacency."""

    @pytest.mark.parametrize("query_seed", [0, 1, 2])
    def test_csr_equals_reference_on_index_graph(self, factory, query_seed):
        index, data = build_graph(factory)
        rng = np.random.default_rng(query_seed)
        query = rng.standard_normal(data.shape[1]).astype(np.float32)
        entries = index._entry_points(query)
        for allowed in (None, rng.random(data.shape[0]) < 0.5):
            s_vec, s_ref = SearchStats(), SearchStats()
            got = beam_search(
                query, index._vectors, index.csr_adjacency, entries, 24,
                index.score, stats=s_vec, allowed=allowed, ids=index._ids,
            )
            want = beam_search_reference(
                query, index._vectors, index.adjacency, entries, 24,
                index.score, stats=s_ref, allowed=allowed, ids=index._ids,
            )
            assert [p for _, p in got] == [p for _, p in want]
            assert np.allclose(
                [d for d, _ in got], [d for d, _ in want], atol=1e-5
            )
            assert s_vec.distance_computations == s_ref.distance_computations
            assert s_vec.nodes_visited == s_ref.nodes_visited

    @pytest.mark.parametrize("query_seed", [0, 1, 2])
    def test_search_equals_reference(self, factory, query_seed):
        """``index.search`` is the scalar reference run over the index's
        own adjacency from the index's own seeds — for HNSW, the bottom
        layer from where its upper-layer descent ends."""
        index, data = build_graph(factory, seed=3, n=120)
        rng = np.random.default_rng(query_seed)
        query = rng.standard_normal(data.shape[1]).astype(np.float32)
        for allowed in (None, rng.random(data.shape[0]) < 0.5):
            hits = index.search(query, 8, ef_search=24, allowed=allowed)
            want = beam_search_reference(
                query, index._vectors, index.adjacency,
                index._entry_points(query), 24, index.score,
                allowed=allowed, ids=index._ids,
            )[:8]
            assert [h.id for h in hits] == [p for _, p in want]
            assert np.allclose(
                [h.distance for h in hits], [d for d, _ in want], atol=1e-5
            )

    def test_search_respects_mask(self, factory):
        index, data = build_graph(factory)
        mask = np.zeros(data.shape[0], dtype=bool)
        mask[::3] = True
        hits = index.search(data[1], 5, allowed=mask)
        assert all(h.id % 3 == 0 for h in hits)


@parametrize_graphs(lambda index: index.supports_updates)
def test_add_invalidates_packed_adjacency(factory):
    index, data = build_graph(factory, seed=3, n=40)
    index.search(data[0], 3)  # materialize the CSR cache
    extra = np.random.default_rng(9).standard_normal((5, data.shape[1]))
    index.add(extra.astype(np.float32), np.arange(40, 45))
    # New nodes must be reachable through the rebuilt packed adjacency.
    assert len(index.csr_adjacency) == 45
    hits = index.search(extra[0].astype(np.float32), 1)
    assert hits and hits[0].id == 40


@parametrize_graphs(
    lambda index: type(index)._entry_points is GraphIndex._entry_points
)
def test_seeded_restarts_are_the_per_query_draw(factory):
    """The base draws the restarts once per build / ``add`` — the nodes
    a fresh ``default_rng(seed)`` per query used to draw every time."""

    def per_query_draw(index):
        n = len(index)
        draws = np.random.default_rng(index.seed).choice(
            n, min(index.num_entry_points, n), replace=False
        )
        return [index.entry_point, *draws.tolist()]

    index, data = build_graph(factory)
    assert index._entry_points(data[0]) == per_query_draw(index)
    if index.supports_updates:
        extra = np.random.default_rng(9).standard_normal((30, data.shape[1]))
        index.add(extra.astype(np.float32), np.arange(90, 120))
        assert index._entry_points(data[0]) == per_query_draw(index)
        assert len(per_query_draw(index)) == 1 + index.num_entry_points


def test_hnsw_layer_adjacency_covers_every_row():
    index, data = build_graph(dict(GRAPH_FACTORIES)["hnsw"], n=120)
    bottom = index.layer_adjacency(0)
    assert sorted(bottom) == list(range(120))
    assert all(len(nbrs) <= index.max_degree0 for nbrs in bottom.values())
    assert all(np.array_equal(bottom[v], index.adjacency[v]) for v in bottom)
    for layer in range(1, index.num_layers):
        assert all(len(nbrs) <= index.m for nbrs in index.layer_adjacency(layer).values())


class TestStatsAccounting:
    def test_shared_stats_predicate_accounting_is_linear(self):
        """predicate_evaluations must charge per-search deltas, not the
        cumulative nodes_visited of a shared stats object (the pre-fix
        behavior over-charged every search after the first)."""
        rng = np.random.default_rng(0)
        data = rng.standard_normal((60, 6)).astype(np.float32)
        index = NswIndex(connections=4, ef_construction=16, seed=0).build(data)
        mask = rng.random(60) < 0.7

        single = SearchStats()
        index.search(data[0], 5, allowed=mask, stats=single)

        shared = SearchStats()
        index.search(data[0], 5, allowed=mask, stats=shared)
        index.search(data[0], 5, allowed=mask, stats=shared)
        assert shared.predicate_evaluations == 2 * single.predicate_evaluations
        assert shared.nodes_visited == 2 * single.nodes_visited
        assert shared.distance_computations == 2 * single.distance_computations

    @pytest.mark.parametrize("name", [
        name for name in available_indexes()
        if isinstance(make_index(name), GraphIndex)
    ])
    def test_masked_search_charges_its_masked_beam(self, name):
        """One rule for every registered graph index: a masked search is
        charged one predicate evaluation per node its masked beam
        expanded — HNSW's unmasked descent is not predicate work — as a
        per-search delta, and an unmasked search none."""
        rng = np.random.default_rng(0)
        data = rng.standard_normal((60, 6)).astype(np.float32)
        index = make_index(name, seed=0).build(data)
        mask = rng.random(60) < 0.7

        single = SearchStats()
        index.search(data[0], 5, allowed=mask, stats=single)
        beam = SearchStats()
        beam_search(
            data[0], index._vectors, index.csr_adjacency,
            index._entry_points(data[0]), index.ef_search, index.score,
            stats=beam, allowed=mask, ids=index._ids,
        )
        assert single.predicate_evaluations == beam.nodes_visited > 0

        shared = SearchStats()
        index.search(data[0], 5, allowed=mask, stats=shared)
        index.search(data[0], 5, allowed=mask, stats=shared)
        assert shared.predicate_evaluations == 2 * single.predicate_evaluations
        assert shared.nodes_visited == 2 * single.nodes_visited
        assert shared.distance_computations == 2 * single.distance_computations
        index.search(data[0], 5, stats=shared)
        assert shared.predicate_evaluations == 2 * single.predicate_evaluations

    def test_label_path_charges_by_the_same_rule(self):
        index, data = build_graph(dict(GRAPH_FACTORIES)["filtered_hnsw"])
        stats = SearchStats()
        mask = np.random.default_rng(0).random(data.shape[0]) < 0.7
        assert index.search(data[0], 5, allowed=mask, label=1, stats=stats)
        assert stats.predicate_evaluations == stats.nodes_visited > 0

    def test_ngt_seed_scoring_is_charged(self):
        """The tree-chosen candidates NGT scores to pick its seeds are
        distance computations like any other."""
        index, data = build_graph(dict(GRAPH_FACTORIES)["ngt"])
        total, beam, seeding = SearchStats(), SearchStats(), SearchStats()
        index.search(data[0], 5, stats=total)
        beam_search(
            data[0], index._vectors, index.csr_adjacency,
            index._entry_points(data[0]), index.ef_search, index.score,
            stats=beam,
        )
        assert total.distance_computations > beam.distance_computations
        index._entry_points(data[0], seeding)
        assert total.distance_computations == (
            beam.distance_computations + seeding.distance_computations
        )

    def test_batched_and_scalar_kernels_charge_identically(self):
        """The vectorized kernel used by the batched path must charge the
        counts the scalar reference would for the same traversal."""
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((80, 6)).astype(np.float32)
        adjacency = random_adjacency(80, 6, rng)
        csr = CSRAdjacency.from_lists(adjacency)
        for entries in ([0], [0, 3, 3, 9]):
            s_vec, s_ref = SearchStats(), SearchStats()
            beam_search(
                vectors[2], vectors, csr, entries, 16,
                EuclideanScore(), stats=s_vec,
            )
            beam_search_reference(
                vectors[2], vectors, adjacency, entries, 16,
                EuclideanScore(), stats=s_ref,
            )
            assert s_vec.distance_computations == s_ref.distance_computations
            assert s_vec.nodes_visited == s_ref.nodes_visited


class TestLayoutEnforcement:
    def test_collection_ingest_is_f32_contiguous(self):
        coll = VectorCollection(dim=4)
        sloppy = np.asfortranarray(
            np.random.default_rng(0).standard_normal((10, 4))
        )  # float64, F-order
        coll.insert_many(sloppy)
        assert coll.vectors.dtype == np.float32
        assert coll.vectors.flags["C_CONTIGUOUS"]

    def test_index_build_is_f32_contiguous(self):
        data = np.asfortranarray(
            np.random.default_rng(1).standard_normal((30, 4))
        )
        index = NswIndex(connections=3, ef_construction=8).build(data)
        assert index._vectors.dtype == np.float32
        assert index._vectors.flags["C_CONTIGUOUS"]

    def test_ensure_f32c_no_copy_when_already_conforming(self):
        good = np.zeros((5, 3), dtype=np.float32)
        assert ensure_f32c(good) is good
        assert ensure_f32c(good.astype(np.float64)).dtype == np.float32
