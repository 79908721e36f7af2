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
    build the same graph; so does the wave form,
    :func:`~repro.index._graph.robust_prune_wave`, list by list.

Plus unit coverage for the slot-matrix packing, the partition-based
top-k kernel, and float32/C-contiguous ingest enforcement.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import as_pairs, beam_search_reference, key_aux, robust_prune_reference

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
from repro.index._graph import (
    _penalised,
    beam_search,
    link,
    lockstep_beam_search,
    pack_slots,
    robust_prune,
    robust_prune_wave,
    scatter_links,
)
from repro.index._kernels import ensure_f32c, topk_indices
from repro.scores import EuclideanScore, HammingScore, MinkowskiScore, get_score

#: Scores whose ranking keys are their distances (no GEMV form): under
#: them ``width=1`` must be the oracle even through ties — Hamming
#: distances are small integers, so ties are the common case.
DISTANCE_KEYED = {"l1": MinkowskiScore(1.0), "hamming": HammingScore()}


#: The built form (a slot matrix) and the build-time list form.
ADJACENCY_FORMS = {
    "list": lambda adjacency: adjacency,
    "matrix": lambda adjacency: pack_slots(adjacency)[0],
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
    form="matrix",
):
    """(kernel at width=1 pairs+stats, oracle pairs+stats), same input."""
    s_vec, s_ref = SearchStats(), SearchStats()
    got = as_pairs(*beam_search(
        query, vectors, ADJACENCY_FORMS[form](adjacency), entries, ef, score,
        stats=s_vec, allowed=allowed, ids=ids, width=1,
    ))
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


def test_pack_slots_holds_the_rows():
    rng = np.random.default_rng(0)
    adjacency = random_adjacency(40, 6, rng)
    slots, degree = pack_slots(adjacency)
    assert slots.dtype == degree.dtype == np.int32
    assert slots.shape == (40, max(map(len, adjacency)))
    for row, d, expected in zip(slots, degree, adjacency):
        assert np.array_equal(row[:d], expected) and (row[d:] == 40).all()
    for rows in ([], [np.empty(0, dtype=np.int64)] * 3):
        slots, degree = pack_slots(rows)
        assert slots.shape == (len(rows), 0) and not degree.any()


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
        slots = pack_slots(adjacency)[0]
        for entries, ef in (([], 4), ([0], 0)):
            dists, positions = beam_search(
                vectors[0], vectors, slots, entries, ef, EuclideanScore()
            )
            assert dists.size == positions.size == 0

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
        want = as_pairs(*beam_search(
            vectors[3], vectors, simple, [0, 5], 12, MinkowskiScore(1.0),
            stats=s_simple, width=width,
        ))
        got = as_pairs(*beam_search(
            vectors[3], vectors, doubled, [0, 5], 12, MinkowskiScore(1.0),
            stats=s_doubled, width=width,
        ))
        assert sorted(got) == sorted(want)
        assert len({p for _, p in got}) == len(got)
        assert s_doubled.distance_computations == s_simple.distance_computations

    @pytest.mark.parametrize("score", ["l2", "cosine", "l1"])
    def test_allowed_is_traversed_through(self, score):
        """A mask whose induced subgraph is disconnected: blocked nodes
        are expanded (never returned), so the far component is reached."""
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
        _, solo = beam_search(
            query, vectors, chain, [0], 2, score, allowed=allowed, aux=aux
        )
        assert solo.tolist() == [n - 1, n - 2]


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


class TestLockstepBeamSearch:
    """g independent beams in one call against g solo calls: the same
    graph, seeds, ``ef``, width and keys."""

    @staticmethod
    def graph_and_queries(score, offset=0.0):
        rng = np.random.default_rng(11)
        centers = rng.standard_normal((8, 16))
        rows = centers[rng.integers(8, size=700)] + rng.standard_normal((700, 16))
        queries = centers[rng.integers(8, size=40)] + rng.standard_normal((40, 16))
        index = HnswIndex(score, m=8, ef_construction=48, seed=0).build(
            (rows + offset).astype(np.float32)
        )
        entries = [
            [index.entry_point] if i % 3 else [index.entry_point, 7 * i, 3]
            for i in range(len(queries))
        ]
        return index, (queries + offset).astype(np.float32), entries

    @staticmethod
    def solo(index, queries, entries, ef, width):
        return [
            as_pairs(*beam_search(
                q, index._vectors, index.adjacency, e, ef, index.score,
                aux=index._key_aux(), width=width,
            ))
            for q, e in zip(queries, entries)
        ]

    @staticmethod
    def lockstep(index, queries, entries, ef, width):
        return as_pairs(
            *lockstep_beam_search(
                queries, index._vectors, index.adjacency, entries, ef,
                index.score, aux=index._key_aux(), width=width,
            ),
            len(index._vectors),
        )

    @pytest.mark.parametrize("width", [1, 8])
    @pytest.mark.parametrize("score", ["l2", "cosine"])
    def test_members_match_their_solo_beams(self, score, width):
        index, queries, entries = self.graph_and_queries(score)
        ef = 32
        solo = self.solo(index, queries, entries, ef, width)
        got = self.lockstep(index, queries, entries, ef, width)
        recalls = [
            len({p for _, p in a} & {p for _, p in b}) / len(b)
            for a, b in zip(got, solo)
        ]
        assert min(recalls) >= 0.9 and np.mean(recalls) >= 0.99
        for query, pairs in zip(queries, got):
            assert len(pairs) == ef and pairs == sorted(pairs)
            distances, positions = zip(*pairs)
            exact = index.score.distances(query, index._vectors[list(positions)])
            assert list(distances) == exact.tolist()

    @pytest.mark.parametrize("width", [1, 8])
    def test_distance_keyed_members_are_their_solo_beams(self, width):
        """Keys that are the distances leave nothing to round: each
        member is its solo beam exactly, at any group size."""
        index, queries, entries = self.graph_and_queries("l1")
        assert index._key_aux() is None
        solo = self.solo(index, queries, entries, 24, width)
        for g in (2, 7, len(queries)):
            got = []
            for a in range(0, len(queries), g):
                got += self.lockstep(
                    index, queries[a : a + g], entries[a : a + g], 24, width
                )
            assert got == solo

    def test_failed_certificate_redoes_the_member_by_distances(self, monkeypatch):
        """A planted row far from the origin widens every query's key
        margin past its pool's spread: each member is searched again by
        ``distances`` and answers as the solo kernel does."""
        import repro.index._graph as graph_module

        index, queries, entries = self.graph_and_queries("l2")
        vectors = index._vectors.copy()
        vectors[5] = 1e4  # planted: still in the graph, never near a query
        index._vectors, index._aux = vectors, None
        redone = []
        solo_kernel = graph_module.beam_search

        def spy(*args, aux=None, **kwargs):
            if aux is None:
                redone.append(args[0])
            return solo_kernel(*args, aux=aux, **kwargs)

        monkeypatch.setattr(graph_module, "beam_search", spy)
        got = self.lockstep(index, queries, entries, 24, 8)
        assert len(redone) == len(queries)
        monkeypatch.setattr(graph_module, "beam_search", solo_kernel)
        assert got == self.solo(index, queries, entries, 24, 8)

    def test_degenerate_groups(self):
        index, queries, entries = self.graph_and_queries("l2")
        one = self.lockstep(index, queries[:1], entries[:1], 16, 8)
        assert one == self.solo(index, queries[:1], entries[:1], 16, 8)
        got = self.lockstep(index, queries[:3], [[], entries[1], []], 16, 8)
        assert got[0] == got[2] == [] and len(got[1]) == 16
        assert self.lockstep(index, queries[:3], entries[:3], 0, 8) == [[], [], []]

    @pytest.mark.parametrize("score", ["l2", "cosine"])
    def test_tied_distances_order_by_position(self, score):
        """Repeated rows tie exactly; pools order them by position."""
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((300, 8)).astype(np.float32)
        rows[150:] = rows[:150]
        index = HnswIndex(score, m=6, ef_construction=32, seed=0).build(rows)
        queries = rows[[3, 160, 299]] + np.float32(0.01)
        got = self.lockstep(index, queries, [[index.entry_point]] * 3, 40, 8)
        for pairs in got:
            assert pairs == sorted(pairs)
            assert len({d for d, _ in pairs}) < len(pairs)  # ties present


@parametrize_graphs()
class TestGraphIndexDifferential:
    """The kernel over every graph index's real adjacency."""

    @pytest.mark.parametrize("query_seed", [0, 1, 2])
    def test_csr_equals_reference_on_index_graph(self, factory, query_seed):
        """Contract (i): width=1 is the oracle — under the index's own
        score without ``aux``, and under the distance-keyed scores —
        over the slot matrix and the list form, masked and not."""
        index, data = build_graph(factory)
        rng = np.random.default_rng(query_seed)
        query = rng.standard_normal(data.shape[1]).astype(np.float32)
        entries = index._entry_points(query)
        for allowed in (None, rng.random(data.shape[0]) < 0.5):
            for score in (index.score, *DISTANCE_KEYED.values()):
                for form in ("matrix", "list"):
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
        """One rule for the family: the slot matrix (plus HNSW's upper
        layers); the row views and the key auxiliary are not counted."""
        index, data = build_graph(factory)
        before = index.memory_bytes()
        assert before > 0
        index.search(data[0], 3)
        assert index.memory_bytes() == before
        assert len(index.adjacency) == len(data) and index._key_aux() is not None
        assert index.memory_bytes() == before


#: Every registered graph index, and what its ``memory_bytes`` counts
#: beside its slot matrix and degree vector.
REGISTRY_GRAPHS = [
    name for name in available_indexes() if isinstance(make_index(name), GraphIndex)
]
MEMORY_EXTRAS = {
    "hnsw": lambda index: sum(
        a.nbytes + 16 for table in index._upper for a in table.values()
    ),
    "ngt": lambda index: index._tree.nbytes,
}
MEMORY_EXTRAS["filtered_hnsw"] = lambda index: (
    MEMORY_EXTRAS["hnsw"](index)
    + index._label_slots.nbytes + index._label_degree.nbytes
)


def build_registry_graph(name, score):
    rng = np.random.default_rng(8)
    data = rng.standard_normal((240, 8)).astype(np.float32)
    index = make_index(name, score=score, seed=0)
    if isinstance(index, FilteredHnswIndex):
        return index.build_with_labels(data, np.arange(240) % 5), data
    return index.build(data), data


@pytest.mark.parametrize("score", ["l2", "cosine"])
@pytest.mark.parametrize("name", REGISTRY_GRAPHS)
def test_slot_matrix_beam_is_the_list_beam(name, score):
    """The built form against the build-time one: over every registered
    graph index, the beam over ``slots`` returns the positions, the
    distance bits and the six counters of the beam over its rows as a
    Python list, plain and masked."""
    index, data = build_registry_graph(name, score)
    rows = list(index.adjacency)
    rng = np.random.default_rng(1)
    for query in rng.standard_normal((8, data.shape[1])).astype(np.float32):
        entries = index._entry_points(query)
        for allowed in (None, rng.random(len(data)) < 0.5):
            answers = []
            for adjacency in (index.slots, rows):
                stats = SearchStats()
                dists, positions = beam_search(
                    query, index._vectors, adjacency, entries, 32, index.score,
                    stats=stats, allowed=allowed, ids=index._ids,
                    aux=index._key_aux(),
                )
                answers.append((positions.tolist(), dists.tobytes(), stats))
            assert answers[0] == answers[1]


@pytest.mark.parametrize("name", REGISTRY_GRAPHS)
def test_memory_bytes_is_the_slot_matrix_plus_listed_extras(name):
    index, _ = build_registry_graph(name, "l2")
    extra = MEMORY_EXTRAS.get(name, lambda index: 0)(index)
    slots, degree = index.slots, index._degree
    assert slots.dtype == degree.dtype == np.int32
    assert slots.shape[1] == (
        index.max_degree0 if isinstance(index, HnswIndex) else degree.max()
    )
    assert index.memory_bytes() == slots.nbytes + degree.nbytes + extra


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


class _ReadOrder(list):
    """A list-form adjacency that records the order its rows are read
    in — the order the beam expands nodes."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, v):
        self.read.append(int(v))
        return super().__getitem__(v)


#: Per score: a query, a far entry (row 0) and two rows at exactly equal
#: distance from the query — row 1 (blocked) and row 2 (passing).
#: Under ``ip`` the tied distances are negative.
TIED_ROWS = {
    "l2": ([0.0, 0.0], [[5.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
    "cosine": ([1.0, 0.0], [[-1.0, 0.2], [1.0, 1.0], [1.0, -1.0]]),
    "ip": ([1.0, 0.0], [[-3.0, 0.0], [2.0, 0.0], [2.0, 5.0]]),
}


class TestPenalisedKeys:
    """Visit-first's frontier keys: a blocked node's key is inflated by
    ``(penalty - 1) * |key|``, so it never sorts before its true key,
    whatever the sign of the distances."""

    def test_penalised_key_never_sorts_before_the_true_key(self):
        keys = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        ok = np.array([False, True, False, False, True])
        got = _penalised(keys, ok, 1.5)
        assert (got[ok] == keys[ok]).all()
        assert (got[~ok] > keys[~ok]).sum() == 2 and (got >= keys).all()
        np.testing.assert_array_equal(got[~ok], [-1.0, 0.0, 0.75])

    @pytest.mark.parametrize("score", sorted(TIED_ROWS))
    def test_passing_node_is_expanded_before_a_tied_blocked_one(self, score):
        query, rows = TIED_ROWS[score]
        query = np.asarray(query, dtype=np.float32)
        vectors = np.asarray(rows, dtype=np.float32)
        d = get_score(score).distances(query, vectors[1:])
        assert d[0] == d[1]
        adjacency = [np.array([1, 2]), np.empty(0, np.int64), np.empty(0, np.int64)]
        allowed = np.array([True, False, True])
        for penalty, order in ((1.0, [0, 1, 2]), (1.5, [0, 2, 1])):
            rows_read = _ReadOrder(adjacency)
            dists, positions = beam_search(
                query, vectors, rows_read, [0], 10, get_score(score),
                allowed=allowed, penalty=penalty,
            )
            # Ties pop by position, so only the penalty puts row 2 first.
            assert rows_read.read == order
            assert positions.tolist() == [2, 0]


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

    @pytest.mark.parametrize("name", REGISTRY_GRAPHS)
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

        class Recording(list):
            def __getitem__(self, v):
                expanded.append(v)
                return super().__getitem__(v)

        stats = SearchStats()
        _, positions = beam_search(
            vectors[1], vectors, Recording(adjacency), [0, 9], 16, counting,
            stats=stats, aux=key_aux(counting, vectors),
        )
        assert len(positions) == 16
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

    @given(
        seed=st.integers(min_value=0, max_value=500),
        counts=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
        max_degree=st.sampled_from([1, 4, 64]),
        alpha=st.sampled_from([1.0, 1.2]),
        duplicates=st.booleans(),
        score=st.sampled_from(["l2", "sqeuclidean", "cosine"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_wave_keeps_what_the_scalar_loop_keeps_per_list(
        self, seed, counts, max_degree, alpha, duplicates, score
    ):
        """One lockstep selection over a wave of lists (ragged, padded
        with n) keeps, list by list, what the scalar loop keeps.  Cosine
        has no paired form and runs the block-wise prune per list; its
        GEMV need not score a pair alike in both orientations, so it is
        held to that prune."""
        oracle = robust_prune if score == "cosine" else robust_prune_reference
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((60, 5)).astype(np.float32)
        if duplicates:  # repeated rows: tied candidate distances, d = 0 pairs
            vectors[30:] = vectors[:30]
        score = get_score(score)
        positions = np.full((len(counts), max(counts) + 2), 60, dtype=np.int64)
        dists = np.full(positions.shape, np.inf)
        wants = []
        for row, count in enumerate(counts):
            candidates = rng.choice(np.arange(1, 60), size=count, replace=False)
            distances = score.distances(vectors[row], vectors[candidates])
            positions[row, :count], dists[row, :count] = candidates, distances
            wants.append(
                oracle(candidates, dists[row, :count], vectors, max_degree, score, alpha)
            )
        got = robust_prune_wave(positions, dists, vectors, max_degree, score, alpha)
        assert got.shape == (len(counts), max_degree) and got.dtype == np.int64
        for row, want in zip(got, wants):
            assert np.array_equal(row[: want.size], want)
            assert (row[want.size :] == 60).all()

    def test_wave_of_short_lists(self):
        """Lists of 0, 1 and 2 rows beside a list longer than the
        degree bound, with tied distances."""
        vectors = np.array([[0, 0], [1, 0], [1, 0], [0, 1], [2, 0], [0, 2]], np.float32)
        score = EuclideanScore()
        positions = np.array(
            [[6, 6, 6, 6, 6], [1, 6, 6, 6, 6], [3, 1, 6, 6, 6], [2, 1, 3, 4, 5]]
        )
        dists = np.where(positions < 6, 1.0, np.inf)
        dists[3] = score.distances(vectors[0], vectors[positions[3]])
        got = robust_prune_wave(positions, dists, vectors, 2, score)
        assert got.tolist() == [[6, 6], [1, 6], [3, 1], [2, 3]]

    @pytest.mark.parametrize("seed", range(4))
    def test_scattered_links_are_one_link_per_edge(self, seed):
        """Reverse links as slot scatters, overflowing rows re-selected:
        the rows one ``link`` per edge, in order, leaves."""
        rng = np.random.default_rng(seed)
        n, width = 50, 6
        vectors = rng.standard_normal((n, 4)).astype(np.float32)
        score = EuclideanScore()
        degree = rng.integers(0, width + 1, size=n)
        slots = np.full((n, width), n, dtype=np.int64)
        for v in range(n):
            slots[v, : degree[v]] = rng.choice(n, size=degree[v], replace=False)
        lists = [slots[v, : degree[v]].copy() for v in range(n)]
        nodes = rng.integers(0, 12, size=40)
        neighbors = rng.integers(12, n, size=40)
        scatter_links(slots, degree, nodes, neighbors, vectors, score)
        for node, neighbor in zip(nodes.tolist(), neighbors.tolist()):
            link(lists, node, neighbor, vectors, width, score)
        assert [slots[v, : degree[v]].tolist() for v in range(n)] == [
            row.tolist() for row in lists
        ]
        assert all((slots[v, degree[v] :] == n).all() for v in range(n))

    @pytest.mark.parametrize("score", ["l2", "sqeuclidean", "l1"])
    def test_same_candidates_build_the_same_graph(self, monkeypatch, score):
        """An HNSW built over the oracle's beams has the same adjacency,
        on every layer, whichever prune selects its edges."""
        import repro.index._graph as graph_module
        import repro.index.hnsw as hnsw_module

        def oracle_beam(*args, aux=None, **kwargs):
            pairs = beam_search_reference(*args, **kwargs)
            return (
                np.array([d for d, _ in pairs]),
                np.array([p for _, p in pairs], dtype=np.int64),
            )

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
