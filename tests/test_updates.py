"""Tests for out-of-place updates (§2.3) through ``VectorDatabase``: a
write lands in the tail of every built index, every search merges
index ∪ tail, and ``rebuild_indexes()`` is the bulk merge."""

import numpy as np
import pytest

from repro import VectorDatabase
from repro.core.errors import CollectionError
from repro.core.planner import QueryPlan
from repro.core.types import SearchStats
from repro.index import FlatIndex, HnswIndex
from repro.scores import EuclideanScore

VIA_INDEX = QueryPlan("index_scan", "main")


def make_buffered(index_type="flat", **kwargs):
    """A database whose one index was built before any row arrived, so
    every insert is buffered (in the tail) until a merge (a rebuild)."""
    db = VectorDatabase(dim=8)
    db.create_index("main", index_type, **kwargs)
    return db


def buffered_count(db):
    return db.health().database["index_freshness"]["main"]["tail_rows"]


def search(db, query, k, **kwargs):
    return db.search(query, k=k, plan=VIA_INDEX, **kwargs)


@pytest.fixture
def vectors(rng):
    return rng.standard_normal((120, 8)).astype(np.float32)


class TestInsertSearch:
    def test_search_sees_buffered_items_immediately(self, vectors):
        db = make_buffered()
        ids = [db.insert(v) for v in vectors[:20]]
        hits = search(db, vectors[5], 3)
        assert hits[0].id == ids[5]
        assert buffered_count(db) == 20  # nothing merged yet
        assert db.has_stale_indexes

    def test_search_merges_index_and_buffer(self, vectors):
        db = make_buffered()
        db.insert_many(vectors[:50])
        db.rebuild_indexes()
        late_ids = [db.insert(v) for v in vectors[50:60]]
        # A query equal to a late (buffered) vector must find it first.
        hits = search(db, vectors[55], 1)
        assert hits[0].id == late_ids[5]
        # And an early (indexed) vector is still findable.
        hits = search(db, vectors[3], 1)
        assert hits[0].id == 3

    def test_results_globally_sorted(self, vectors):
        db = make_buffered()
        db.insert_many(vectors[:60])
        db.rebuild_indexes()
        db.insert_many(vectors[60:])
        hits = search(db, vectors[0], 10)
        d = [h.distance for h in hits]
        assert d == sorted(d)
        assert {h.id < 60 for h in hits} == {True, False}  # both sides answer

    def test_matches_flat_oracle_exactly(self, vectors):
        """With a flat inner index, index ∪ tail must be exact."""
        db = make_buffered()
        db.insert_many(vectors[:80])
        db.rebuild_indexes()
        db.insert_many(vectors[80:])
        oracle = FlatIndex(EuclideanScore()).build(vectors)
        q = vectors[77] + 0.01
        got = [h.id for h in search(db, q, 10)]
        expected = [h.id for h in oracle.search(q, 10)]
        assert got == expected

    def test_buffer_scan_is_charged_as_every_exact_scan_is(self, vectors):
        """Each tail row scanned is one distance computation *and* one
        candidate examined, on top of what the inner index charged — but
        the rewritten row the flat index names among its candidates is
        scored once, at its new vector."""
        db = make_buffered()
        db.insert_many(vectors[:50])
        db.rebuild_indexes()
        db.insert_many(vectors[50:70])
        db.delete(60)
        db.update_vector(7, vectors[100])
        inner = SearchStats()
        db.indexes["main"].search(  # k + the one row it holds at an old vector
            vectors[0], 5 + 1, allowed=db.collection.alive, stats=inner
        )
        result = search(db, vectors[0], 5)
        assert len(result) == 5
        stats = result.stats
        # 20 inserted - 1 deleted + 1 rewritten, which the index charged
        assert stats.distance_computations == inner.distance_computations + 19
        assert stats.candidates_examined == inner.candidates_examined + 19


class TestMerge:
    def test_manual_merge_empties_buffer(self, vectors):
        db = make_buffered()
        db.insert_many(vectors[:20])
        assert buffered_count(db) == 20
        db.rebuild_indexes()
        assert buffered_count(db) == 0
        assert not db.has_stale_indexes
        assert len(db) == len(db.indexes["main"]) == 20

    def test_merge_time_recorded(self, vectors):
        db = make_buffered()
        db.insert_many(vectors[:10])
        assert db.indexes["main"].build_seconds == 0
        db.rebuild_indexes()
        assert db.indexes["main"].build_seconds > 0


class TestDeleteUpdate:
    def test_delete_hides_item(self, vectors):
        db = make_buffered()
        ids = db.insert_many(vectors[:30])
        db.rebuild_indexes()
        db.delete(ids[7])
        hits = search(db, vectors[7], 5)
        assert ids[7] not in [h.id for h in hits]
        with pytest.raises(CollectionError):
            db.get(ids[7])
        assert len(db) == 29

    def test_update_replaces_vector(self, vectors):
        db = make_buffered()
        ids = db.insert_many(vectors[:30])
        db.rebuild_indexes()
        db.update_vector(ids[3], vectors[100])
        np.testing.assert_array_equal(db.get(ids[3])[0], vectors[100])
        hits = search(db, vectors[100], 1)
        assert hits[0].id == ids[3] and hits[0].distance == 0
        # ...and it no longer answers for the vector it had.
        assert search(db, vectors[3], 1)[0].id != ids[3]

    def test_delete_survives_merge(self, vectors):
        db = make_buffered()
        ids = db.insert_many(vectors[:30])
        db.delete(ids[0])
        db.rebuild_indexes()
        with pytest.raises(CollectionError):
            db.get(ids[0])
        assert ids[0] not in search(db, vectors[0], 5).ids
        assert len(db) == 29

    def test_update_survives_merge(self, vectors):
        db = make_buffered()
        ids = db.insert_many(vectors[:30])
        db.update_vector(ids[1], vectors[110])
        db.rebuild_indexes()
        np.testing.assert_array_equal(db.get(ids[1])[0], vectors[110])
        assert search(db, vectors[110], 1)[0].id == ids[1]

    def test_delete_unmerged_buffered_item(self, vectors):
        db = make_buffered()
        item = db.insert(vectors[0])
        db.delete(item)
        with pytest.raises(CollectionError):
            db.get(item)
        assert len(db) == 0
        assert search(db, vectors[0], 3).ids == []


class TestWithGraphIndex:
    def test_graph_backed_buffer(self, vectors):
        db = make_buffered("hnsw", m=8, ef_construction=32, seed=0)
        ids = []
        for i, v in enumerate(vectors):
            ids.append(db.insert(v))
            if (i + 1) % 64 == 0:
                db.rebuild_indexes()
        assert len(db.indexes["main"]) == 64 and buffered_count(db) == 56
        hits = search(db, vectors[10], 5)
        assert ids[10] in [h.id for h in hits]
        assert search(db, vectors[100], 1)[0].id == ids[100]

    def test_write_throughput_advantage(self, vectors):
        """Buffered inserts must be much cheaper than rebuild-per-insert
        (the whole point of out-of-place updates)."""
        import time

        db = make_buffered("hnsw", m=8, ef_construction=32, seed=0)
        start = time.perf_counter()
        for v in vectors[:60]:
            db.insert(v)
        buffered_time = time.perf_counter() - start

        start = time.perf_counter()
        grown = []
        for v in vectors[:15]:  # 4x fewer inserts for the naive baseline
            grown.append(v)
            HnswIndex(m=8, ef_construction=32, seed=0).build(np.vstack(grown))
        naive_time = (time.perf_counter() - start) * 4  # scale to 60

        assert buffered_time < naive_time
