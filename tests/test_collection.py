"""Tests for the vector collection."""

import numpy as np
import pytest

from repro.core.collection import VectorCollection
from repro.core.errors import CollectionError
from repro.hybrid.predicates import Field


@pytest.fixture
def coll(rng):
    c = VectorCollection(dim=4)
    vectors = rng.standard_normal((10, 4)).astype(np.float32)
    attrs = [{"cat": i % 3, "price": float(i)} for i in range(10)]
    c.insert_many(vectors, attrs)
    return c


class TestInsert:
    def test_dense_ids(self, coll):
        assert len(coll) == 10
        new_id = coll.insert(np.zeros(4), {"cat": 1, "price": 2.0})
        assert new_id == 10

    def test_schema_enforced(self, coll):
        with pytest.raises(CollectionError, match="schema"):
            coll.insert(np.zeros(4), {"cat": 1})  # missing price
        with pytest.raises(CollectionError, match="schema"):
            coll.insert(np.zeros(4), {"cat": 1, "price": 1.0, "extra": 2})

    def test_dim_enforced(self, coll):
        from repro.core.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            coll.insert(np.zeros(5), {"cat": 1, "price": 1.0})

    def test_attribute_count_mismatch(self):
        c = VectorCollection(dim=2)
        with pytest.raises(CollectionError):
            c.insert_many(np.zeros((3, 2)), [{"a": 1}] * 2)

    def test_attributeless_collection(self):
        c = VectorCollection(dim=2)
        ids = c.insert_many(np.zeros((3, 2)))
        assert ids == [0, 1, 2]
        assert c.attribute_names == ()

    def test_invalid_dim(self):
        with pytest.raises(CollectionError):
            VectorCollection(dim=0)


class TestReads:
    def test_vector_roundtrip(self, coll, rng):
        v = rng.standard_normal(4).astype(np.float32)
        item = coll.insert(v, {"cat": 0, "price": 0.0})
        np.testing.assert_array_equal(coll.vector(item), v)

    def test_attributes_roundtrip(self, coll):
        assert coll.attributes(4) == {"cat": 1, "price": 4.0}

    def test_columns_are_arrays(self, coll):
        cols = coll.columns
        assert cols["cat"].shape == (10,)
        assert cols["price"].dtype.kind == "f"

    def test_columns_cache_invalidated_on_insert(self, coll):
        _ = coll.columns
        coll.insert(np.zeros(4), {"cat": 0, "price": 99.0})
        assert coll.columns["price"].shape == (11,)

    def test_iter_yields_live_ids(self, coll):
        coll.delete(3)
        assert 3 not in list(coll)
        assert len(list(coll)) == 9


class TestDelete:
    def test_tombstone(self, coll):
        coll.delete(2)
        assert len(coll) == 9
        assert coll.capacity == 10
        with pytest.raises(CollectionError):
            coll.vector(2)

    def test_double_delete_rejected(self, coll):
        coll.delete(2)
        with pytest.raises(CollectionError):
            coll.delete(2)

    def test_out_of_range(self, coll):
        with pytest.raises(CollectionError):
            coll.delete(99)

    def test_compact_redenses(self, coll):
        coll.delete(0)
        coll.delete(5)
        fresh = coll.compact()
        assert len(fresh) == 8
        assert fresh.capacity == 8
        # Attribute alignment preserved.
        assert fresh.attributes(0) == coll.attributes(1)

    @pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
    def test_a_copy_writes_to_its_own_rows(self, coll, clone):
        import copy
        import pickle

        other = (
            copy.deepcopy(coll) if clone == "deepcopy"
            else pickle.loads(pickle.dumps(coll))
        )
        other.delete(2)
        other.update_vector(3, np.ones(4))
        other.insert(np.zeros(4), {"cat": 0, "price": 0.0})  # re-views the buffers
        assert not other.alive[2] and len(other) == 10
        assert other.vector(3).tolist() == [1.0] * 4
        assert other.tail((0, 0))[0].tolist() == list(range(11))
        assert coll.alive[2] and len(coll) == 10  # the original is untouched


class TestWriteStamps:
    """An index keeps the ``stamp()`` it was built at; its ``tail`` is
    what was written since — rewritten rows first, then inserted ones."""

    def test_nothing_written_no_tail(self, coll):
        stamp = coll.stamp()
        assert coll.tail(stamp) is None
        coll.delete(4)  # a delete writes no vector
        assert coll.tail(stamp) is None
        assert coll.tail(None) is None  # an index no database built

    def test_inserted_and_rewritten_rows(self, coll, rng):
        stamp = coll.stamp()
        coll.insert_many(
            rng.standard_normal((3, 4)), [{"cat": 0, "price": 0.0}] * 3)
        positions, held = coll.tail(stamp)
        assert (positions.tolist(), held) == ([10, 11, 12], 0)
        coll.update_vector(7, np.ones(4))
        coll.update_vector(11, np.ones(4))
        positions, held = coll.tail(stamp)
        assert (positions.tolist(), held) == ([7, 10, 11, 12], 1)
        later = coll.stamp()
        assert coll.tail(later) is None
        coll.update_vector(7, np.zeros(4))
        assert coll.tail(later)[0].tolist() == [7] and coll.tail(later)[1] == 1
        assert coll.tail(stamp)[0].tolist() == [7, 10, 11, 12]

    def test_stamps_survive_buffer_growth_and_rebinding(self, coll, rng):
        from repro.scores import get_score

        stamp = coll.stamp()
        coll.update_vector(1, np.ones(4))
        coll.insert_many(
            rng.standard_normal((40, 4)), [{"cat": 0, "price": 0.0}] * 40)
        assert coll.tail(stamp)[0].tolist() == [1, *range(10, 50)]
        # Adopting a row store anew is a write of every row.
        coll.bind_score(get_score("cosine"))
        positions, held = coll.tail(stamp)
        assert (positions.tolist(), held) == (list(range(50)), 10)


class TestPredicateMask:
    def test_mask_matches_predicate(self, coll):
        mask = coll.predicate_mask(Field("cat") == 0)
        expected = [i % 3 == 0 for i in range(10)]
        assert mask.tolist() == expected

    def test_mask_excludes_deleted(self, coll):
        coll.delete(0)
        mask = coll.predicate_mask(Field("cat") == 0)
        assert not mask[0]

    def test_none_predicate_is_liveness(self, coll):
        coll.delete(1)
        mask = coll.predicate_mask(None)
        assert mask.sum() == 9

    def test_selectivity(self, coll):
        assert coll.selectivity(Field("cat") == 0) == pytest.approx(0.4)
        assert coll.selectivity(None) == 1.0

    def test_selectivity_accounts_for_deletes(self, coll):
        coll.delete(0)  # cat==0 row
        assert coll.selectivity(Field("cat") == 0) == pytest.approx(3 / 9)

    def test_update_vector(self, coll):
        coll.update_vector(1, np.ones(4))
        np.testing.assert_array_equal(coll.vector(1), np.ones(4, dtype=np.float32))
