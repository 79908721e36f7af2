"""One exact scan per candidate-index query.

An index whose answer is an exact scan of rows it names
(``VectorIndex.candidates``: flat, IVF-Flat, the trees, LSH, a re-ranked
quantizer, a partitioned index of them) has those rows ranked together
with its tail — the rows written since its build — in one scan of the
collection's rows.  Held to the merged path it replaced
(``tests/oracles.py::merged_scan_reference``): the same ids in the same
order, the same distance bytes, the same six counters — except that a
rewritten row the index holds among its candidates is scored once, where
the merged path scored it from the index and again from the tail, and
that of rows tied at the k-th distance (duplicate rows) the one scan
keeps the lowest ids, where the merged path kept those its index's scan
order reached first.
"""

import copy

import numpy as np
import pytest

from repro import Field, VectorDatabase
from repro.core.executor import QueryExecutor
from repro.core.planner import QueryPlan
from repro.index import make_index
from repro.torture.zoo import build_kwargs

from oracles import merged_scan_reference

N, DIM, K, RADIUS = 600, 12, 10, 3.2
COUNTERS = (
    "distance_computations", "nodes_visited", "page_reads",
    "candidates_examined", "predicate_evaluations", "predicate_rejections",
)
#: name -> (index type, kwargs).  ``sq`` re-ranks a shortlist of exactly
#: ``max(k, rerank)`` = k rows: it must be sized for k + the held rows.
INDEXES = {
    name: (name, build_kwargs(name))
    for name in (
        "flat", "ivf_flat", "kdtree", "annoy", "randkd_forest", "rp_tree",
        "pca_tree", "lsh", "pq",
    )
}
INDEXES["sq"] = ("sq", {"rerank": K})
PREDICATE = Field("g") == 1
#: The row ``update_vector`` rewrites (it passes PREDICATE); queries near
#: its old vector probe the cell, leaf or bucket that holds it.
UPDATED = 201
DUPLICATED = slice(100, 110)
STATES = ("none", "inserts", "deletes", "update", "all")


def plans():
    for name in INDEXES:
        yield QueryPlan("index_scan", name), None
        yield QueryPlan("block_first", name), PREDICATE
    yield QueryPlan("partition", "byg"), PREDICATE


PLANS = list(plans())


@pytest.fixture(scope="module")
def rows() -> np.ndarray:
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((N, DIM)).astype(np.float32)
    rows[N - 60:] = rows[:60]  # duplicate rows: exact distance ties
    return rows


@pytest.fixture(scope="module")
def databases(rows) -> dict[str, VectorDatabase]:
    """One built database per write state."""
    db = VectorDatabase(dim=DIM)
    db.insert_many(rows, [{"g": i % 4} for i in range(N)])
    for name, (kind, kwargs) in INDEXES.items():
        db.create_index(name, kind, **kwargs)
    db.create_partitioned_index("byg", "ivf_flat", "g", **build_kwargs("ivf_flat"))
    rng = np.random.default_rng(8)
    out = {}
    for state in STATES:
        written = copy.deepcopy(db)
        if state in ("inserts", "all"):
            fresh = np.concatenate([
                rng.standard_normal((10, DIM)).astype(np.float32),
                rows[DUPLICATED],  # ties between a tail row and an indexed one
            ])
            written.insert_many(fresh, [{"g": i % 4} for i in range(20)])
        if state in ("deletes", "all"):
            for victim in (1, 2, 5, 61, 105):
                written.delete(victim)
        if state in ("update", "all"):
            written.update_vector(UPDATED, rows[UPDATED] + 0.05)
        out[state] = written
    return out


@pytest.fixture(scope="module")
def queries(rows) -> np.ndarray:
    rng = np.random.default_rng(9)
    near = np.concatenate([
        np.repeat(rows[[UPDATED]], 3, axis=0),
        rows[[101, 105, 109]],
        rows[[40, 300]],
    ])
    return (near + 0.02 * rng.standard_normal(near.shape)).astype(np.float32)


def counters(stats) -> np.ndarray:
    return np.array([getattr(stats, name) for name in COUNTERS])


def answers(db, plan, predicate, queries):
    return [
        (db.search(q, k=K, plan=plan, predicate=predicate),
         db.range_search(q, radius=RADIUS, plan=plan, predicate=predicate))
        for q in queries
    ]


def held_candidates(db, plan, predicate, query) -> int:
    """The rewritten rows among the index's candidates for ``query``:
    the merged path scored each twice, the one scan once."""
    index = db.index_for(plan)
    tail = db.collection.tail(index.built_at)
    if tail is None or not tail[1]:
        return 0
    positions, held = tail
    collection = db.collection
    params = {}
    if plan.strategy == "partition":
        params["predicate"] = predicate
        allowed = None if collection.alive.all() else collection.alive
    elif predicate is not None:
        allowed = collection.predicate_mask(predicate)
    else:
        allowed = None if collection.alive.all() else collection.alive
    ids = index.candidates(query, K + held, allowed=allowed, **params)
    return int(np.isin(positions[:held], ids).sum())


def assert_same_answer(have, want, has_tail):
    """Id for id and distance byte for byte — but for the rows tied with
    a full answer's last distance: the merged path cut such a tie where
    its index's scan order fell, the one scan keeps its lowest ids."""
    assert have.distances.tobytes() == want.distances.tobytes()
    inside = np.ones(len(want), dtype=bool)
    if len(want) == K:
        inside = want.distances < want.distances[-1]
    assert np.array_equal(have.ids[inside], want.ids[inside])
    assert np.all(np.sort(have.ids[~inside]) <= np.sort(want.ids[~inside]))
    if has_tail:  # ranked as a merge ranks: (distance, id)
        order = np.lexsort((have.ids, have.distances))
        assert np.array_equal(order, np.arange(len(have)))


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize(
    "plan,predicate", PLANS, ids=[f"{p.strategy}-{p.index_name}" for p, _ in PLANS]
)
def test_one_scan_answers_as_the_merged_path(
    plan, predicate, state, databases, queries, monkeypatch
):
    db = databases[state]
    with monkeypatch.context() as patch:
        patch.setattr(QueryExecutor, "_scan", merged_scan_reference)
        expected = answers(db, plan, predicate, queries)
    got = answers(db, plan, predicate, queries)
    has_tail = db.collection.tail(db.index_for(plan).built_at) is not None
    for query, (want_knn, want_range), (knn, ranged) in zip(queries, expected, got):
        for want, have in ((want_knn, knn), (want_range, ranged)):
            assert_same_answer(have.hits, want.hits, has_tail)
        assert np.array_equal(counters(ranged.stats), counters(want_range.stats))
        twice = held_candidates(db, plan, predicate, query)
        saved = np.zeros(len(COUNTERS), dtype=np.int64)
        saved[[COUNTERS.index("distance_computations"),
               COUNTERS.index("candidates_examined")]] = twice
        assert np.array_equal(counters(want_knn.stats) - counters(knn.stats), saved)


@pytest.mark.parametrize("state", ("update", "all"))
def test_a_rewritten_row_in_a_probed_cell_is_scored_once(
    state, databases, queries
):
    db = databases[state]
    for name in ("flat", "ivf_flat", "kdtree"):
        plan = QueryPlan("index_scan", name)
        assert held_candidates(db, plan, None, queries[0]) == 1, name
        hits = db.search(queries[0], k=K, plan=plan).hits
        assert UPDATED in hits.ids.tolist()  # at its new vector, once


def test_an_index_placed_by_hand_keeps_the_merged_path(rows):
    """Its ids need not name this collection's rows: here they name the
    rows of another matrix, so ranking them over the collection's would
    answer from the wrong rows."""
    db = VectorDatabase(dim=DIM)
    db.insert_many(rows)
    other = rows[::-1].copy()
    index = make_index("ivf_flat", **build_kwargs("ivf_flat")).build(other)
    assert index.built_at is None
    db.indexes["hand"] = index
    db.insert(rows[3] + 0.01)
    plan = QueryPlan("index_scan", "hand")
    for query in rows[[3, 200, 450]] + 0.02:
        got = db.search(query, k=K, plan=plan).hits
        want = index.search(query, K)
        assert np.array_equal(got.ids, want.ids)
        assert got.distances.tobytes() == want.distances.tobytes()


def test_an_index_built_over_no_live_row_keeps_the_merged_path(rows, monkeypatch):
    db = VectorDatabase(dim=DIM)
    db.create_index("ivf", "ivf_flat", **build_kwargs("ivf_flat"))
    db.insert_many(rows[:50])
    plan = QueryPlan("index_scan", "ivf")
    assert len(db.indexes["ivf"]) == 0 and db.tail_rows(db.indexes["ivf"]) == 50
    for query in rows[[3, 20, 44]] + 0.02:
        with monkeypatch.context() as patch:
            patch.setattr(QueryExecutor, "_scan", merged_scan_reference)
            want = db.search(query, k=K, plan=plan)
        got = db.search(query, k=K, plan=plan)
        exact = db.search(query, k=K, plan=QueryPlan("brute_force")).hits
        assert got.hits == want.hits == exact
        assert np.array_equal(counters(got.stats), counters(want.stats))
