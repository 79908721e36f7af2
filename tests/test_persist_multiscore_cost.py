"""Tests for persistence and multi-score querying."""

import numpy as np
import pytest

from repro.core.database import VectorDatabase
from repro.core.errors import StorageError
from repro.storage import (
    load_collection,
    load_database,
    save_collection,
    save_database,
)


@pytest.fixture
def db(hybrid_dataset):
    db = VectorDatabase(dim=hybrid_dataset.dim)
    db.insert_many(hybrid_dataset.train[:200], hybrid_dataset.attributes[:200])
    db.create_index("g", "hnsw", m=8, ef_construction=48, seed=0)
    return db


class TestPersistence:
    def test_collection_roundtrip(self, db, tmp_path):
        save_collection(db.collection, tmp_path)
        restored = load_collection(tmp_path)
        assert len(restored) == len(db.collection)
        np.testing.assert_array_equal(restored.vectors, db.collection.vectors)
        assert restored.attributes(7) == db.collection.attributes(7)

    def test_tombstones_survive(self, db, tmp_path):
        db.delete(3)
        save_collection(db.collection, tmp_path)
        restored = load_collection(tmp_path)
        assert not restored.alive[3]
        assert len(restored) == len(db.collection)

    def test_database_roundtrip_identical_results(self, db, tmp_path,
                                                  hybrid_dataset):
        save_database(db, tmp_path)
        restored = load_database(tmp_path)
        q = hybrid_dataset.queries[0]
        assert restored.search(q, k=10).ids == db.search(q, k=10).ids
        assert set(restored.indexes) == {"g"}
        assert restored.score.name == db.score.name

    def test_index_kwargs_restored(self, db, tmp_path):
        save_database(db, tmp_path)
        restored = load_database(tmp_path)
        assert restored.indexes["g"].m == 8
        assert restored.indexes["g"].seed == 0

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(StorageError):
            load_collection(tmp_path / "nope")
        with pytest.raises(StorageError):
            load_database(tmp_path / "nope")

    def test_attributeless_collection_roundtrip(self, tmp_path, rng):
        from repro.core.collection import VectorCollection

        coll = VectorCollection(4)
        coll.insert_many(rng.standard_normal((5, 4)).astype(np.float32))
        save_collection(coll, tmp_path)
        restored = load_collection(tmp_path)
        assert len(restored) == 5
        assert restored.attribute_names == ()


class TestMultiScore:
    def test_returns_all_requested_scores(self, db, hybrid_dataset):
        out = db.multi_score_search(
            hybrid_dataset.queries[0], k=5, scores=["l2", "cosine"]
        )
        assert set(out) == {"l2", "cosine"}
        assert all(len(r) == 5 for r in out.values())

    def test_results_differ_between_scores(self, db, hybrid_dataset):
        out = db.multi_score_search(hybrid_dataset.queries[0], k=10)
        assert out["l2"].ids != out["ip"].ids

    def test_each_score_result_is_exact(self, db, hybrid_dataset):
        from repro.index.flat import FlatIndex
        from repro.scores import get_score

        q = hybrid_dataset.queries[1]
        out = db.multi_score_search(q, k=5, scores=["cosine"])
        live = np.flatnonzero(db.collection.alive)
        oracle = FlatIndex(get_score("cosine")).build(
            db.collection.vectors[live], ids=live.astype(np.int64)
        )
        assert out["cosine"].ids == [h.id for h in oracle.search(q, 5)]
