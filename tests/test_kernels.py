"""Differential tests for the graph search kernels.

The contract under test, in three parts:

(i) :func:`repro.index._graph.beam_search` at ``width=1`` under a score
    whose keys *are* its distances (Minkowski p = 1, Hamming — or any
    score when no ``aux`` is passed) is **the scalar oracle**
    (``tests/oracles.py``): identical (distance, position) pairs and
    identical ``SearchStats`` counts on any adjacency form, seed, entry
    set and ``allowed``-mask configuration.
(ii) At the default round width, keyed by ``Score.keys``: recall against
    brute force at or above the oracle's on the same graph and seeds, no
    blocked id returned, returned distances bit-for-bit
    ``score.distances``, answers and counters deterministic, ``allowed``
    traversed *through*.
(iii) The block-wise :func:`~repro.index._graph.robust_prune` keeps
    exactly what the scalar occlusion loop keeps, so the same candidates
    build the same graph.

Plus unit coverage for the CSR packing, the partition-based top-k
kernel, and float32/C-contiguous ingest enforcement.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import beam_search_reference, key_aux, robust_prune_reference

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
from repro.index._graph import batched_beam_search, beam_search, robust_prune
from repro.index._kernels import CSRAdjacency, ensure_f32c, topk_indices
from repro.scores import EuclideanScore, HammingScore, MinkowskiScore, get_score

#: Scores whose ranking keys are their distances (no GEMV form): under
#: them ``width=1`` must be the oracle even through ties — Hamming
#: distances are small integers, so ties are the common case.
DISTANCE_KEYED = {"l1": MinkowskiScore(1.0), "hamming": HammingScore()}
ADJACENCY_FORMS = {
    "csr": CSRAdjacency.from_lists,
    "list": lambda adjacency: adjacency,
    "callable": lambda adjacency: lambda v: adjacency[v],
}


def random_adjacency(n, degree, rng):
    """Random directed graph as the builders' list-of-arrays form (a
    simple graph: no neighbor repeats within a list, as in every built
    index)."""
    adjacency = []
    for v in range(n):
        d = min(int(rng.integers(0, degree + 1)), n)
        adjacency.append(rng.choice(n, size=d, replace=False).astype(np.int64))
    return adjacency


def run_both(
    query, vectors, adjacency, entries, ef, score, allowed=None, ids=None,
    form="csr",
):
    """(kernel at width=1 pairs+stats, oracle pairs+stats), same input."""
    s_vec, s_ref = SearchStats(), SearchStats()
    got = beam_search(
        query, vectors, ADJACENCY_FORMS[form](adjacency), entries, ef, score,
        stats=s_vec, allowed=allowed, ids=ids, width=1,
    )
    want = beam_search_reference(
        query, vectors, adjacency, entries, ef, score,
        stats=s_ref, allowed=allowed, ids=ids,
    )
    return (got, s_vec), (want, s_ref)


def assert_is_oracle(got, want):
    (pairs, s_vec), (want_pairs, s_ref) = got, want
    assert pairs == want_pairs
    assert s_vec.distance_computations == s_ref.distance_computations
    assert s_vec.nodes_visited == s_ref.nodes_visited


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
    """Contract (i) on randomized graphs: width=1 is the oracle."""

    @given(
        n=st.integers(min_value=1, max_value=80),
        degree=st.integers(min_value=0, max_value=8),
        ef=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=1000),
        masked=st.booleans(),
        permute_ids=st.booleans(),
        score=st.sampled_from(sorted(DISTANCE_KEYED)),
        form=st.sampled_from(sorted(ADJACENCY_FORMS)),
    )
    @settings(max_examples=160, deadline=None)
    def test_identical_results_and_stats(
        self, n, degree, ef, seed, masked, permute_ids, score, form
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
        got, want = run_both(
            vectors[0], vectors, adjacency, entries, ef, DISTANCE_KEYED[score],
            allowed=allowed, ids=ids, form=form,
        )
        assert_is_oracle(got, want)

    def test_distances_within_tolerance_on_fixed_seed(self):
        """Called without ``aux``, any score ranks by its distances —
        l2 included."""
        rng = np.random.default_rng(1234)
        vectors = rng.standard_normal((200, 16)).astype(np.float32)
        adjacency = random_adjacency(200, 12, rng)
        (got, _), (want, _) = run_both(
            vectors[0], vectors, adjacency, [0, 7], 48, EuclideanScore()
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
        got, want = run_both(
            vectors[0], vectors, adjacency, [0], 8, EuclideanScore(),
            form="callable",
        )
        assert_is_oracle(got, want)

    @pytest.mark.parametrize("width", [1, 8])
    def test_repeated_neighbors_are_scored_and_returned_once(self, width):
        """A neighbor list that repeats a node (or two lists of one round
        sharing it) is de-duplicated before scoring: the answer and the
        counters are those of the simple graph."""
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((40, 4)).astype(np.float32)
        simple = random_adjacency(40, 6, rng)
        doubled = [np.concatenate([a, a[::-1]]) for a in simple]
        s_simple, s_doubled = SearchStats(), SearchStats()
        want = beam_search(
            vectors[3], vectors, simple, [0, 5], 12, MinkowskiScore(1.0),
            stats=s_simple, width=width,
        )
        got = beam_search(
            vectors[3], vectors, doubled, [0, 5], 12, MinkowskiScore(1.0),
            stats=s_doubled, width=width,
        )
        assert sorted(got) == sorted(want)
        assert len({p for _, p in got}) == len(got)
        assert s_doubled.distance_computations == s_simple.distance_computations

    @pytest.mark.parametrize("score", ["l2", "cosine", "l1"])
    def test_allowed_is_traversed_through(self, score):
        """A mask whose induced subgraph is disconnected: blocked nodes
        are expanded (never returned), so the far component is reached —
        by the solo and by the group kernel."""
        n = 12
        vectors = np.zeros((n, 3), dtype=np.float32)
        vectors[:, 0] = np.arange(1, n + 1)
        vectors[:, 1] = 1.0 + np.arange(n) ** 2  # distinct directions for cosine
        chain = [
            np.array([v for v in (i - 1, i + 1) if 0 <= v < n], dtype=np.int64)
            for i in range(n)
        ]
        allowed = np.zeros(n, dtype=bool)
        allowed[[0, 1, n - 2, n - 1]] = True
        score = get_score(score)
        aux = key_aux(score, vectors)
        query = vectors[n - 1]
        solo = beam_search(
            query, vectors, chain, [0], 2, score, allowed=allowed, aux=aux
        )
        group = batched_beam_search(
            query[None, :], vectors, chain, [0], 2, score, allowed=allowed, aux=aux
        )[0]
        assert [p for _, p in solo] == [p for _, p in group] == [n - 1, n - 2]


GRAPH_FACTORIES = [
    ("nsw", lambda score="l2": NswIndex(
        score, connections=4, ef_construction=16, seed=0)),
    ("knng", lambda score="l2": KnngIndex(score, graph_k=6, seed=0)),
    ("vamana", lambda score="l2": VamanaIndex(
        score, max_degree=8, beam_width=16, seed=0)),
    ("nsg", lambda score="l2": NsgIndex(
        score, max_degree=8, candidate_pool=16, knng_k=6, seed=0)),
    ("ngt", lambda score="l2": NgtIndex(
        score, edge_size=4, max_degree=8, ef_construction=16, seed=0)),
    ("hnsw", lambda score="l2": HnswIndex(
        score, m=6, ef_construction=24, ef_search=24, seed=0)),
    ("filtered_hnsw", lambda score="l2": FilteredHnswIndex(
        score, m=6, ef_construction=24, label_k=4, seed=0)),
    ("fanng", lambda score="l2": FanngIndex(
        score, max_degree=8, init_knng_k=6, seed=0)),
    ("nndescent", lambda score="l2": NnDescentIndex(score, graph_k=6, seed=0)),
]


def build_graph(factory, seed=7, n=90, dim=8, score="l2"):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dim)).astype(np.float32)
    index = factory(score)
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
    """The kernel over every graph index's real adjacency."""

    @pytest.mark.parametrize("query_seed", [0, 1, 2])
    def test_csr_equals_reference_on_index_graph(self, factory, query_seed):
        """Contract (i): width=1 is the oracle — under the index's own
        score without ``aux``, and under the distance-keyed scores —
        over the packed and the list form, masked and not."""
        index, data = build_graph(factory)
        rng = np.random.default_rng(query_seed)
        query = rng.standard_normal(data.shape[1]).astype(np.float32)
        entries = index._entry_points(query)
        for allowed in (None, rng.random(data.shape[0]) < 0.5):
            for score in (index.score, *DISTANCE_KEYED.values()):
                for form in ("csr", "list"):
                    got, want = run_both(
                        query, index._vectors, index.adjacency, entries, 24,
                        score, allowed=allowed, ids=index._ids, form=form,
                    )
                    assert_is_oracle(got, want)

    @pytest.mark.parametrize("query_seed", [0, 1, 2])
    def test_search_equals_reference(self, factory, query_seed):
        """Contract (ii): ``index.search`` — default round width, ranked
        by ``Score.keys`` — against the scalar oracle run over the
        index's own adjacency from the index's own seeds (for HNSW, the
        bottom layer from where its upper-layer descent ends): recall
        against brute force no lower, no blocked id, exact distances,
        answers and counters that repeat."""
        k, ef = 8, 24
        for score in ("l2", "cosine", "ip"):
            index, data = build_graph(factory, seed=3, n=120, score=score)
            rng = np.random.default_rng(query_seed)
            queries = rng.standard_normal((12, data.shape[1])).astype(np.float32)
            for allowed in (None, rng.random(data.shape[0]) < 0.5):
                live = np.arange(120) if allowed is None else np.flatnonzero(allowed)
                found = {"search": 0, "oracle": 0}
                for query in queries:
                    exact = index.score.distances(query, data[live])
                    truth = set(live[np.argsort(exact, kind="stable")[:k]].tolist())
                    stats = SearchStats()
                    hits = index.search(
                        query, k, ef_search=ef, allowed=allowed, stats=stats
                    )
                    again = SearchStats()
                    assert hits == index.search(
                        query, k, ef_search=ef, allowed=allowed, stats=again
                    )
                    assert again == stats
                    ids = [h.id for h in hits]
                    assert len(set(ids)) == len(ids)
                    assert allowed is None or allowed[ids].all()
                    # The pool is re-scored exactly: einsum scores return
                    # the bits of a plain scan; BLAS-backed ones may move
                    # by the one ulp a different GEMV shape rounds to.
                    plain = index.score.distances(query, data[ids])
                    returned = np.array([h.distance for h in hits])
                    if score == "l2":
                        assert np.array_equal(returned, plain.astype(np.float64))
                    else:
                        assert np.allclose(returned, plain, rtol=1e-6, atol=1e-7)
                    assert list(returned) == sorted(returned)
                    want = beam_search_reference(
                        query, index._vectors, index.adjacency,
                        index._entry_points(query), ef, index.score,
                        allowed=allowed, ids=index._ids,
                    )[:k]
                    found["search"] += len(truth & set(ids))
                    found["oracle"] += len(truth & {p for _, p in want})
                # A directed k-NN graph is not navigable: which local
                # minimum a route ends in is luck either way, so there
                # the comparison gets 3 % of slack.
                slack = 0.03 * k * len(queries) * isinstance(
                    index, (KnngIndex, NnDescentIndex)
                )
                assert found["search"] >= found["oracle"] - slack

    def test_search_respects_mask(self, factory):
        index, data = build_graph(factory)
        mask = np.zeros(data.shape[0], dtype=bool)
        mask[::3] = True
        hits = index.search(data[1], 5, allowed=mask)
        assert all(h.id % 3 == 0 for h in hits)

    def test_memory_bytes_does_not_depend_on_a_search_having_run(self, factory):
        """One rule for the family: the list form (plus HNSW's upper
        layers); the packed copy and the key auxiliary are caches."""
        index, data = build_graph(factory)
        before = index.memory_bytes()
        assert before > 0
        index.search(data[0], 3)
        assert index.memory_bytes() == before
        assert len(index.csr_adjacency) == len(data) and index._key_aux() is not None
        assert index.memory_bytes() == before


@parametrize_graphs(
    lambda index: type(index)._entry_points is GraphIndex._entry_points
)
def test_seeded_restarts_are_the_per_query_draw(factory):
    """The base draws the restarts once per build — the nodes a fresh
    ``default_rng(seed)`` per query used to draw every time."""

    def per_query_draw(index):
        n = len(index)
        draws = np.random.default_rng(index.seed).choice(
            n, min(index.num_entry_points, n), replace=False
        )
        return [index.entry_point, *draws.tolist()]

    index, data = build_graph(factory)
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
            data[0], index._vectors, index.adjacency,
            index._entry_points(data[0]), index.ef_search, index.score,
            stats=beam, allowed=mask, ids=index._ids, aux=index._key_aux(),
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
            data[0], index._vectors, index.adjacency,
            index._entry_points(data[0]), index.ef_search, index.score,
            stats=beam, aux=index._key_aux(),
        )
        assert total.distance_computations > beam.distance_computations
        index._entry_points(data[0], seeding)
        assert total.distance_computations == (
            beam.distance_computations + seeding.distance_computations
        )

    def test_batched_and_scalar_kernels_charge_identically(self):
        """The round kernel at width 1 must charge the counts the scalar
        oracle would for the same traversal."""
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((80, 6)).astype(np.float32)
        adjacency = random_adjacency(80, 6, rng)
        for entries in ([0], [0, 3, 3, 9]):
            (_, s_vec), (_, s_ref) = run_both(
                vectors[2], vectors, adjacency, entries, 16, EuclideanScore()
            )
            assert s_vec.distance_computations == s_ref.distance_computations
            assert s_vec.nodes_visited == s_ref.nodes_visited

    @pytest.mark.parametrize("score", ["l2", "cosine", "ip", "l1"])
    def test_one_charge_per_key_and_per_expansion(self, score):
        """The family's one rule at any width: a distance computation per
        key computed, a node visit per expansion, the exact re-score of
        the final pool uncharged."""

        class Counting(type(get_score(score))):
            scored = 0

            def keys(self, query, vectors, aux):
                type(self).scored += len(vectors)
                return super().keys(query, vectors, aux)

            def distances(self, query, vectors):
                if self.row_aux(vectors) is None:  # the keys themselves
                    type(self).scored += len(vectors)
                return super().distances(query, vectors)

        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((150, 6)).astype(np.float32)
        adjacency = random_adjacency(150, 6, rng)
        counting = Counting(1.0) if score == "l1" else Counting()
        expanded = []

        def neighbors_of(v):
            expanded.append(v)
            return adjacency[v]

        stats = SearchStats()
        pairs = beam_search(
            vectors[1], vectors, neighbors_of, [0, 9], 16, counting,
            stats=stats, aux=key_aux(counting, vectors),
        )
        assert len(pairs) == 16
        assert stats.distance_computations == Counting.scored
        assert stats.nodes_visited == len(expanded) == len(set(expanded))


class TestRobustPrune:
    """Contract (iii): the block-wise prune is the scalar loop."""

    @given(
        seed=st.integers(min_value=0, max_value=500),
        count=st.integers(min_value=0, max_value=40),
        max_degree=st.sampled_from([1, 4, 64]),
        alpha=st.sampled_from([1.0, 1.2]),
        duplicates=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_keeps_what_the_scalar_loop_keeps(
        self, seed, count, max_degree, alpha, duplicates
    ):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((60, 5)).astype(np.float32)
        if duplicates:  # repeated rows: tied candidate distances, d = 0 pairs
            vectors[30:] = vectors[:30]
        score = EuclideanScore()
        candidates = rng.choice(np.arange(1, 60), size=count, replace=False)
        distances = score.distances(vectors[0], vectors[candidates])
        got = robust_prune(candidates, distances, vectors, max_degree, score, alpha)
        want = robust_prune_reference(
            candidates, distances, vectors, max_degree, score, alpha
        )
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert len(got) <= max(1, min(max_degree, count))

    @pytest.mark.parametrize("score", ["l2", "sqeuclidean", "l1"])
    def test_same_candidates_build_the_same_graph(self, monkeypatch, score):
        """An HNSW built over the oracle's beams has the same adjacency,
        on every layer, whichever prune selects its edges."""
        import repro.index._graph as graph_module
        import repro.index.hnsw as hnsw_module

        def oracle_beam(*args, aux=None, **kwargs):
            return beam_search_reference(*args, **kwargs)

        monkeypatch.setattr(hnsw_module, "beam_search", oracle_beam)
        rng = np.random.default_rng(8)
        data = rng.standard_normal((260, 10)).astype(np.float32)
        built = {}
        for name, prune in (("block", robust_prune), ("scalar", robust_prune_reference)):
            monkeypatch.setattr(graph_module, "robust_prune", prune)
            built[name] = HnswIndex(score, m=8, ef_construction=48, seed=0).build(data)
        block, scalar = built["block"], built["scalar"]
        assert block.num_layers == scalar.num_layers > 1
        for layer in range(block.num_layers):
            ours, theirs = block.layer_adjacency(layer), scalar.layer_adjacency(layer)
            assert sorted(ours) == sorted(theirs)
            assert all(np.array_equal(ours[v], theirs[v]) for v in ours)


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
