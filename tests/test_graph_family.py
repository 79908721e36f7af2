"""One meaning of "graph index": ``isinstance(index, GraphIndex)``.

Whoever needs a graph's traversal surface — visit-first scans,
incremental cursors, and the planner / database that choose them —
reads ``slots`` (or its row views, ``adjacency``) and ``entry_point``
off a :class:`GraphIndex`.  DiskANN carries the graph *cost shape* (``family == "graph"``) but keeps its adjacency on disk
pages, so none of them may pick it: the three regressions below each
raised ``TypeError: visit-first scan requires a graph index, got
DiskAnnIndex`` when "is a graph" was decided by the family string.
"""

import numpy as np
import pytest
from oracles import HnswReference

from repro import Field, VectorDatabase
from repro.core.collection import VectorCollection
from repro.core.errors import PlanningError
from repro.core.incremental import IncrementalSearcher
from repro.core.planner import AutomaticPlanner, QueryPlan
from repro.core.types import SearchStats
from repro.hybrid.visitfirst import visit_first_scan
from repro.index import FlatIndex, GraphIndex, HnswIndex, available_indexes, make_index
from repro.observability import STAT_FIELDS, Observability
from repro.observability.profiler import QueryProfile, build_profile_tree
from repro.serving import ServingRequest, execute_coalesced

GRAPH_INDEXES = [
    name for name in available_indexes() if isinstance(make_index(name), GraphIndex)
]
#: Directed k-NN graphs "are not guaranteed navigable" (knng.py): their
#: own search restarts from several seeds, and a consumer that follows one
#: route through them is promised well-formed answers, not recall.
KNN_GRAPHS = {"knng", "nndescent"}
#: NSW and NGT escape local minima with seeds (random restarts, a tree)
#: that a cursor walking from the one entry point does not have.
MULTI_SEED = {"nsw", "ngt"}


def test_every_registered_graph_family_index_is_covered():
    assert set(GRAPH_INDEXES) == {
        "hnsw", "filtered_hnsw", "nsw", "ngt", "knng", "nndescent", "nsg",
        "vamana", "fanng",
    }
    assert make_index("diskann").family == "graph"  # the cost shape only


# ----------------------------------------- every GraphIndex, every consumer


@pytest.fixture(scope="module", params=GRAPH_INDEXES)
def graph(request, small_data):
    return request.param, make_index(request.param, seed=0).build(small_data)


def test_incremental_searcher_on_every_graph_index(
    graph, small_queries, flat_oracle
):
    name, index = graph
    q = small_queries[1]
    cursor = IncrementalSearcher(index, q)
    pages = cursor.next_batch(10) + cursor.next_batch(10)
    got = [h.id for h in pages]
    assert len(got) == len(set(got)) == 20
    if name not in KNN_GRAPHS | MULTI_SEED:
        exact = [h.id for h in flat_oracle.search(q, 20)]
        assert len(set(got) & set(exact)) >= 18


def test_visit_first_scan_on_every_graph_index(graph, hybrid_dataset):
    name, _ = graph
    index = make_index(name, seed=0).build(hybrid_dataset.train)
    coll = VectorCollection(hybrid_dataset.dim)
    coll.insert_many(hybrid_dataset.train, hybrid_dataset.attributes)
    predicate = Field("rating") >= 3
    mask = coll.predicate_mask(predicate)
    q = hybrid_dataset.queries[1]
    hits = visit_first_scan(index, coll, q, 5, predicate, ef=96)
    assert hits and all(mask[h.id] for h in hits)
    if name not in KNN_GRAPHS:
        exact = FlatIndex().build(hybrid_dataset.train).search(q, 5, allowed=mask)
        assert len({h.id for h in hits} & {h.id for h in exact}) >= 3


def test_penalty_one_is_the_masked_beam_bit_for_bit(graph, small_queries):
    name, index = graph
    mask = np.arange(len(index)) % 3 != 1
    q = small_queries[2]
    plain, biased = SearchStats(), SearchStats()
    want = index.search(q, 10, allowed=mask, stats=plain)
    got = index.search(q, 10, allowed=mask, stats=biased, penalty=1)
    assert got.ids.tolist() == want.ids.tolist()
    assert got.distances.tobytes() == want.distances.tobytes()
    for field in STAT_FIELDS:
        assert getattr(biased, field) == getattr(plain, field), field
    visit_first = index.search(q, 10, allowed=mask, penalty=1.5)
    assert len(visit_first) == 10 and mask[visit_first.ids].all()


# -------------------------------------- DiskANN: graph cost, no graph surface


@pytest.fixture()
def diskann_db():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((300, 16)).astype(np.float32)
    db = VectorDatabase(dim=16, selector="rule")
    db.insert_many(rows, [{"g": i % 5} for i in range(300)])
    db.create_index("d", "diskann", seed=0)
    return db, rows


def test_planner_offers_visit_first_to_graph_index_instances_only():
    indexes = {"h": make_index("hnsw"), "d": make_index("diskann")}
    plans = AutomaticPlanner().enumerate(True, indexes)
    assert [p.index_name for p in plans if p.strategy == "visit_first"] == ["h"]
    assert QueryPlan("block_first", "d").describe() in {p.describe() for p in plans}


def test_rule_selected_hybrid_search_over_diskann_answers(diskann_db):
    db, rows = diskann_db
    predicate = Field("g") == 1  # selectivity 0.2: the rule's visit/block band
    db.delete(6)
    result = db.search(rows[0], k=5, predicate=predicate)
    assert result.stats.plan_name.startswith("block_first")
    assert len(result.ids) == 5
    assert all(i % 5 == 1 and i != 6 for i in result.ids)


def test_coalesced_batch_over_diskann_runs_as_a_batched_scan(diskann_db):
    db, rows = diskann_db
    group = [ServingRequest("t", rows[i], k=5) for i in range(3)]
    hits, stats, mode, strategy = execute_coalesced(db, group)
    assert (mode, strategy) == ("batched_scan", "index_scan")
    assert [len(h) for h in hits] == [5, 5, 5] and len(stats) == 3


def test_incremental_search_names_the_usable_indexes(diskann_db):
    db, rows = diskann_db
    with pytest.raises(PlanningError, match="graph index"):
        db.incremental_search(rows[0])
    with pytest.raises(PlanningError, match="graph index"):
        db.incremental_search(rows[0], index="d")
    both = VectorDatabase(dim=16)
    both.insert_many(rows)
    both.create_index("d", "diskann", seed=0)
    both.create_index("h", "hnsw", m=8, seed=0)
    with pytest.raises(PlanningError, match=r"usable here: \['h'\]"):
        both.incremental_search(rows[0], index="d")
    assert len(both.incremental_search(rows[0]).next_batch(3)) == 3


# ------------------------------------------------ accounting through the plan


@pytest.mark.parametrize("strategy", ["block_first", "visit_first"])
def test_explain_analyze_attributes_masked_hnsw_plans_exactly(strategy):
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((400, 12)).astype(np.float32)
    db = VectorDatabase(dim=12)
    db.insert_many(rows, [{"g": i % 8} for i in range(400)])
    db.create_index("graph", "hnsw", m=8, seed=0)
    profile = db.explain_analyze(
        vector=rows[7], k=5, predicate=Field("g") == 1,
        plan=QueryPlan(strategy, "graph"),
    )
    assert profile.attribution_residual() == {f: 0 for f in STAT_FIELDS}
    if strategy == "block_first":
        # The bitmask costs one evaluation per row; the masked beam's own
        # expansions come on top of it (HNSW charged none before).
        assert profile.result.stats.predicate_evaluations > 400


@pytest.fixture(scope="module")
def hnsw_db():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((400, 12)).astype(np.float32)
    db = VectorDatabase(dim=12)
    db.insert_many(rows, [{"g": i % 8} for i in range(400)])
    db.create_index("graph", "hnsw", m=8, seed=0)
    return db, rows


@pytest.mark.parametrize("strategy,masked", [
    ("index_scan", False), ("post_filter", False),
    ("index_scan", True), ("block_first", True), ("post_filter", True),
])
def test_explain_analyze_attributes_every_hnsw_plan_exactly(
    hnsw_db, strategy, masked
):
    """The keyed beam charges through the family's one rule (a distance
    computation per key, a node visit per expansion, the pool re-score
    uncharged), so every counter is attributed to exactly one operator —
    for a lone search and for every member of ``db.batch_search``."""
    db, rows = hnsw_db
    predicate = (Field("g") == 1) if masked else None
    plan = QueryPlan(strategy, "graph")
    profile = db.explain_analyze(vector=rows[7], k=5, predicate=predicate, plan=plan)
    assert profile.attribution_residual() == {f: 0 for f in STAT_FIELDS}
    stats = profile.result.stats
    assert stats.distance_computations > stats.nodes_visited > 0

    observed = Observability()
    previous = db.observability
    db.set_observability(observed)
    try:
        batch = db.batch_search(rows[:3], k=5, predicate=predicate, plan=plan)
    finally:
        db.set_observability(previous)
    root = build_profile_tree(observed.tracer.spans)[0]
    members = [node for node in root.children if node.name == "query"]
    assert len(members) == len(batch) == 3
    for node, result, vector in zip(members, batch, rows):
        assert QueryProfile(result, node).attribution_residual() == {
            f: 0 for f in STAT_FIELDS}
        assert result.ids == db.search(
            vector, k=5, predicate=predicate, plan=plan
        ).ids


# ------------------------------------------- the key contract's edges (PR 20)


def _recall_at_10(index, rows, queries):
    found = 0
    for query in queries:
        truth = np.argsort(index.score.distances(query, rows), kind="stable")[:10]
        found += len(set(truth.tolist()) & {h.id for h in index.search(query, 10)})
    return found / (10 * len(queries))


@pytest.mark.parametrize("name,params", [
    ("hnsw", dict(m=8, ef_construction=48)),
    ("vamana", dict(max_degree=12, beam_width=48)),
])
def test_rows_far_from_the_origin_are_not_ranked_by_their_keys(
    name, params, monkeypatch
):
    """At offset 1e4 the l2 keys ``|v|^2 - 2 v.q`` round away every
    difference between neighbors; the certificate sends those queries
    (and the builder's) to ``distances``.  Trusted blindly, they answer
    from noise — which the last assertion shows this data does."""
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((12, 24))  # overlapping: navigable for both
    rows = (centers[rng.integers(12, size=900)]
            + rng.standard_normal((900, 24))).astype(np.float32)
    queries = (centers[rng.integers(12, size=40)]
               + rng.standard_normal((40, 24))).astype(np.float32)
    recall = {}
    for offset in (0.0, 1e2, 1e4):
        shift = np.float32(offset)
        index = make_index(name, seed=0, ef_search=48, **params).build(rows + shift)
        recall[offset] = _recall_at_10(index, rows + shift, queries + shift)
    assert recall[0.0] >= 0.9
    assert recall[1e2] >= recall[0.0] - 0.02
    assert recall[1e4] >= recall[0.0] - 0.02
    monkeypatch.setattr("repro.index._graph.KEY_TRUST", 0.0)  # certify anything
    assert _recall_at_10(index, rows + shift, queries + shift) < recall[0.0] - 0.02


def test_cosine_keys_with_zero_rows_and_a_zero_query():
    """Zero rows are orthogonal to everything (distance 1, key 0) and a
    zero query ties every row at distance 1: both rank and re-score
    without a NaN, and the keyed answer carries ``distances`` exactly."""
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((300, 8)).astype(np.float32)
    rows[::25] = 0.0
    index = make_index("hnsw", score="cosine", m=8, seed=0).build(rows)
    for query in (rows[3], np.zeros(8, dtype=np.float32)):
        hits = index.search(query, 10)
        assert len({h.id for h in hits}) == 10
        exact = index.score.distances(query, rows[[h.id for h in hits]])
        assert np.allclose([h.distance for h in hits], exact, rtol=1e-6, atol=1e-7)
        assert np.isfinite(exact).all()
    assert index.search(rows[3], 1)[0].id == 3
    assert all(h.distance == 1.0 for h in index.search(np.zeros(8, np.float32), 10))


def test_degenerate_beams_answer_like_any_other(small_data):
    """ef below k, ef = 1, one row, no seed, a seed named twice."""
    from repro.index._graph import beam_search

    index = make_index("hnsw", m=8, seed=0).build(small_data)
    query, aux = small_data[17] + 0.01, index._key_aux()
    full = index.search(query, 10, ef_search=64)
    narrow = index.search(query, 10, ef_search=1)  # ef < k: the beam is k wide
    assert len(narrow) == 10 and narrow[0] == full[0]

    def beam(entries, ef):
        return beam_search(
            query, index._vectors, index.adjacency, entries, ef, index.score,
            aux=aux,
        )

    seed = index._entry_points(query)
    (distance,), (position,) = beam(seed, 1)
    assert distance == float(index.score.distances(query, small_data[[position]])[0])
    assert all(column.size == 0 for column in beam([], 8))
    twice, once = beam(seed * 2 + [5, 5], 8), beam(seed + [5], 8)
    assert all(np.array_equal(a, b) for a, b in zip(twice, once))

    lone = make_index("hnsw", seed=0).build(small_data[:1])
    assert [h.id for h in lone.search(query, 10)] == [0]
    assert [h.id for h in lone.search(query, 10, allowed=np.array([False]))] == []



# ------------------------------------------------------------ wave insertion


WAVE_BUILT = {
    "hnsw": dict(m=8, ef_construction=48),
    "nsw": dict(connections=8, ef_construction=32),
    "ngt": dict(edge_size=8, ef_construction=32),
}


def _sequential_insertion(self, adjacency, ef):
    """The one-at-a-time construction: one solo beam per row over the
    graph as every earlier row left it.  HNSW's beams rank by keys;
    NSW's and NGT's one-at-a-time builds ranked by ``distances``."""
    from repro.index._graph import beam_search

    aux = self._key_aux() if self.name == "hnsw" else None
    for pos in range(self._vectors.shape[0]):
        dists, positions = beam_search(
            self._vectors[pos], self._vectors, adjacency,
            self._insert_entries(pos), ef, self.score, aux=aux,
        )
        if positions.size:  # linked as a wave of one
            self._insert_wave(adjacency, pos, dists[None], positions[None])


def _graph_of(index):
    layers = [dict(enumerate(index.adjacency))]
    if index.name == "hnsw":
        layers += [index.layer_adjacency(l) for l in range(1, index.num_layers)]
    return [{v: nbrs.tolist() for v, nbrs in layer.items()} for layer in layers]


@pytest.mark.parametrize("name", sorted(WAVE_BUILT))
def test_waves_of_one_are_the_sequential_build(name, small_data, monkeypatch):
    monkeypatch.setattr("repro.index.graph_base.WAVE_CAP", 1)
    waves = make_index(name, seed=3, **WAVE_BUILT[name]).build(small_data)
    monkeypatch.setattr(GraphIndex, "_insert_in_waves", _sequential_insertion)
    sequential = make_index(name, seed=3, **WAVE_BUILT[name]).build(small_data)
    assert _graph_of(waves) == _graph_of(sequential)
    if name == "hnsw":
        assert waves.level_histogram() == sequential.level_histogram()
        assert waves.entry_point == sequential.entry_point


@pytest.mark.parametrize("name", sorted(WAVE_BUILT))
def test_wave_builds_are_deterministic(name, small_data, small_queries, monkeypatch):
    """At the default cap: the same seed builds the same graph, HNSW
    draws the sequential build's levels, and the graph still answers."""
    first, second = (
        make_index(name, seed=3, **WAVE_BUILT[name]).build(small_data)
        for _ in range(2)
    )
    assert _graph_of(first) == _graph_of(second)
    monkeypatch.setattr(GraphIndex, "_insert_in_waves", _sequential_insertion)
    sequential = make_index(name, seed=3, **WAVE_BUILT[name]).build(small_data)
    if name == "hnsw":
        assert first.level_histogram() == sequential.level_histogram()
    assert _recall_at_10(first, small_data, small_queries) >= (
        _recall_at_10(sequential, small_data, small_queries) - 0.05
    )


# ------------------------------------------------ HNSW layer 0, wave at a time


def _identity_data(duplicated: bool) -> np.ndarray:
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((12, 24)) * 3
    rows = centers[rng.integers(12, size=1200)] + rng.standard_normal((1200, 24))
    if duplicated:  # repeated rows: tied distances, zero-distance pairs
        rows[600:] = rows[rng.integers(600, size=600)]
    return rows.astype(np.float32)


@pytest.mark.parametrize("duplicated", [False, True])
@pytest.mark.parametrize("m", [4, 16])
@pytest.mark.parametrize("score", ["l2", "cosine", "ip"])
def test_hnsw_waves_build_the_per_member_graph(score, m, duplicated):
    """Layer 0 as a slot matrix, every wave's edges selected in one
    lockstep pass and its reverse links scattered: the same layers,
    levels and entry point as the per-member ``select_edges`` + ``link``
    build over list adjacency (``tests/oracles.py``), at the default
    ``WAVE_CAP``.  ``m = 4`` overflows Mmax0 on most links."""
    data = _identity_data(duplicated)
    params = dict(m=m, ef_construction=48, seed=5)
    built = HnswIndex(score, **params).build(data)
    reference = HnswReference(score, **params).build(data)
    assert _graph_of(built) == _graph_of(reference)
    assert built._levels == reference._levels
    assert built.entry_point == reference.entry_point
    degree = np.array([len(row) for row in built.adjacency])
    assert np.array_equal(degree, built._degree)
    assert (built._slots[np.arange(built._slots.shape[1]) >= degree[:, None]] == len(data)).all()
