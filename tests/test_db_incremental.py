"""Tests for the database incremental-search facade."""

import pytest

from repro.core.database import VectorDatabase
from repro.core.errors import PlanningError
from repro.hybrid.predicates import Field


@pytest.fixture
def db(hybrid_dataset):
    db = VectorDatabase(dim=hybrid_dataset.dim)
    db.insert_many(hybrid_dataset.train, hybrid_dataset.attributes)
    db.create_index("g", "hnsw", m=8, ef_construction=48, seed=0)
    return db


class TestDbIncremental:
    def test_pages_continue_ranking(self, db, hybrid_dataset):
        q = hybrid_dataset.queries[0]
        cursor = db.incremental_search(q)
        first = cursor.next_batch(5)
        second = cursor.next_batch(5)
        one_shot = db.search(q, k=10)
        paged_ids = [h.id for h in first + second]
        assert len(set(paged_ids) & set(one_shot.ids)) >= 8

    def test_with_predicate(self, db, hybrid_dataset):
        cursor = db.incremental_search(
            hybrid_dataset.queries[1], predicate=Field("rating") >= 3
        )
        page = cursor.next_batch(8)
        ratings = db.collection.columns["rating"]
        assert all(ratings[h.id] >= 3 for h in page)

    def test_named_index(self, db, hybrid_dataset):
        cursor = db.incremental_search(hybrid_dataset.queries[0], index="g")
        assert len(cursor.next_batch(3)) == 3

    def test_unknown_index(self, db, hybrid_dataset):
        with pytest.raises(PlanningError, match="no index named"):
            db.incremental_search(hybrid_dataset.queries[0], index="nope")

    def test_requires_graph_index(self, hybrid_dataset):
        db = VectorDatabase(dim=hybrid_dataset.dim)
        db.insert_many(hybrid_dataset.train[:50], hybrid_dataset.attributes[:50])
        db.create_index("ivf", "ivf_flat", nlist=4)
        with pytest.raises(PlanningError, match="graph index"):
            db.incremental_search(hybrid_dataset.queries[0])

    def test_result_repr(self, db, hybrid_dataset):
        result = db.search(hybrid_dataset.queries[0], k=8)
        text = repr(result)
        assert "SearchResult" in text
        assert "+3" in text  # 8 hits, 5 previewed


class TestCursorLivenessAndFreshness:
    """The cursor obeys the one freshness rule: the graph answers for the
    rows it was built on, the tail is scored exactly when the cursor opens."""

    ATTRS = {"category": 0, "price": 1.0, "rating": 3}

    def test_deleted_nearest_row_never_reported(self, db, hybrid_dataset):
        q = hybrid_dataset.queries[0]
        nearest = db.incremental_search(q).next_batch(1)[0].id
        db.delete(nearest)
        cursor = db.incremental_search(q)  # no predicate: alive alone masks
        pages = cursor.next_batch(3) + cursor.next_batch(50)
        assert nearest not in [h.id for h in pages]
        assert pages[0].id == db.search(q, k=1).ids[0]

    def test_row_inserted_after_the_build_is_reported_in_its_place(
        self, db, hybrid_dataset
    ):
        q = hybrid_dataset.queries[0]
        before = db.incremental_search(q).next_batch(4)
        # Between the 2nd and 3rd neighbour, by construction of the distance.
        target = (before[1].distance + before[2].distance) / 2
        direction = hybrid_dataset.train[before[3].id] - q
        direction /= (direction @ direction) ** 0.5
        new_id = db.insert(q + direction * target, self.ATTRS)
        page = db.incremental_search(q).next_batch(4)
        assert [h.id for h in page][:2] == [h.id for h in before[:2]]
        assert page[2].id == new_id
        assert page[2].distance == pytest.approx(target, rel=1e-4)
        assert [h.distance for h in page] == sorted(h.distance for h in page)
        # A predicate the new row fails keeps it out.
        masked = db.incremental_search(q, predicate=Field("rating") > 3)
        assert new_id not in [h.id for h in masked.next_batch(20)]

    def test_rewritten_row_answers_with_its_new_vector_only(self, db, hybrid_dataset):
        q = hybrid_dataset.queries[0]
        first = db.incremental_search(q).next_batch(1)[0]
        far = q + 100.0
        db.update_vector(first.id, far)
        near_pages = db.incremental_search(q).next_batch(30)
        assert first.id not in [h.id for h in near_pages]  # not at its old distance
        moved = db.incremental_search(far).next_batch(1)[0]
        assert (moved.id, moved.distance) == (first.id, 0.0)

    def test_no_id_twice_across_pages(self, db, hybrid_dataset):
        q = hybrid_dataset.queries[2]
        db.insert_many(hybrid_dataset.queries[:6] + 0.01, [self.ATTRS] * 6)
        for victim in db.search(q, k=3).ids:
            db.update_vector(victim, q + 0.02 * (victim + 1))
        db.delete(db.search(q, k=1).ids[0])
        cursor = db.incremental_search(q)
        seen, distances = [], []
        while not cursor.exhausted:
            page = cursor.next_batch(37)
            seen += [h.id for h in page]
            distances += [h.distance for h in page]
        assert len(seen) == len(set(seen)) == len(db)
        exact = db.search(q, k=5, plan=None).ids
        assert seen[:5] == exact
        # (deeper pages of an approximate graph may locally mis-order)
        assert distances[:10] == sorted(distances[:10])
