"""Tests for out-of-place updates (BufferedVectorIndex, §2.3)."""

import numpy as np
import pytest

from repro.core.types import SearchStats
from repro.core.updates import BufferedVectorIndex
from repro.index import FlatIndex, HnswIndex
from repro.scores import EuclideanScore


def make_buffered(merge_threshold=50, factory=None):
    factory = factory or (lambda: FlatIndex(EuclideanScore()))
    return BufferedVectorIndex(factory, dim=8, merge_threshold=merge_threshold)


@pytest.fixture
def vectors(rng):
    return rng.standard_normal((120, 8)).astype(np.float32)


class TestInsertSearch:
    def test_search_sees_buffered_items_immediately(self, vectors):
        buf = make_buffered(merge_threshold=None)
        ids = [buf.insert(v) for v in vectors[:20]]
        hits = buf.search(vectors[5], 3)
        assert hits[0].id == ids[5]
        assert buf.merges == 0  # nothing merged yet

    def test_search_merges_index_and_buffer(self, vectors):
        buf = make_buffered(merge_threshold=None)
        for v in vectors[:50]:
            buf.insert(v)
        buf.merge()
        late_ids = [buf.insert(v) for v in vectors[50:60]]
        # A query equal to a late (buffered) vector must find it first.
        hits = buf.search(vectors[55], 1)
        assert hits[0].id == late_ids[5]
        # And an early (indexed) vector is still findable.
        hits = buf.search(vectors[3], 1)
        assert hits[0].id == 3

    def test_results_globally_sorted(self, vectors):
        buf = make_buffered(merge_threshold=60)
        for v in vectors:
            buf.insert(v)
        hits = buf.search(vectors[0], 10)
        d = [h.distance for h in hits]
        assert d == sorted(d)

    def test_matches_flat_oracle_exactly(self, vectors):
        """With a flat inner index, buffered search must be exact."""
        buf = make_buffered(merge_threshold=40)
        for v in vectors:
            buf.insert(v)
        oracle = FlatIndex(EuclideanScore()).build(vectors)
        q = vectors[77] + 0.01
        got = [h.id for h in buf.search(q, 10)]
        expected = [h.id for h in oracle.search(q, 10)]
        assert got == expected

    def test_buffer_scan_is_charged_as_every_exact_scan_is(self, vectors):
        """Each buffered row scanned is one distance computation *and* one
        candidate examined, on top of what the inner index charged."""
        buf = make_buffered(merge_threshold=None)
        for v in vectors[:50]:
            buf.insert(v)
        buf.merge()
        for v in vectors[50:70]:
            buf.insert(v)
        buf.delete(60)
        inner, stats = SearchStats(), SearchStats()
        buf.index.search(vectors[0], 5 + 1, stats=inner)  # k + the one shadowed id
        hits = buf.search(vectors[0], 5, stats=stats)
        assert len(hits) == 5
        assert stats.distance_computations == inner.distance_computations + 19
        assert stats.candidates_examined == inner.candidates_examined + 19


class TestMerge:
    def test_auto_merge_at_threshold(self, vectors):
        buf = make_buffered(merge_threshold=30)
        for v in vectors[:65]:
            buf.insert(v)
        assert buf.merges >= 2
        assert buf.buffered_count < 30

    def test_manual_merge_empties_buffer(self, vectors):
        buf = make_buffered(merge_threshold=None)
        for v in vectors[:20]:
            buf.insert(v)
        buf.merge()
        assert buf.buffered_count == 0
        assert len(buf) == 20

    def test_merge_time_recorded(self, vectors):
        buf = make_buffered(merge_threshold=None)
        for v in vectors[:10]:
            buf.insert(v)
        buf.merge()
        assert buf.merge_seconds > 0


class TestDeleteUpdate:
    def test_delete_hides_item(self, vectors):
        buf = make_buffered(merge_threshold=None)
        ids = [buf.insert(v) for v in vectors[:30]]
        buf.merge()
        buf.delete(ids[7])
        hits = buf.search(vectors[7], 5)
        assert ids[7] not in [h.id for h in hits]
        assert buf.get(ids[7]) is None
        assert len(buf) == 29

    def test_update_replaces_vector(self, vectors):
        buf = make_buffered(merge_threshold=None)
        ids = [buf.insert(v) for v in vectors[:30]]
        buf.merge()
        buf.update(ids[3], vectors[100])
        np.testing.assert_array_equal(buf.get(ids[3]), vectors[100])
        hits = buf.search(vectors[100], 1)
        assert hits[0].id == ids[3]

    def test_delete_survives_merge(self, vectors):
        buf = make_buffered(merge_threshold=None)
        ids = [buf.insert(v) for v in vectors[:30]]
        buf.delete(ids[0])
        buf.merge()
        assert buf.get(ids[0]) is None
        assert len(buf) == 29

    def test_update_survives_merge(self, vectors):
        buf = make_buffered(merge_threshold=None)
        ids = [buf.insert(v) for v in vectors[:30]]
        buf.update(ids[1], vectors[110])
        buf.merge()
        np.testing.assert_array_equal(buf.get(ids[1]), vectors[110])

    def test_delete_unmerged_buffered_item(self, vectors):
        buf = make_buffered(merge_threshold=None)
        item = buf.insert(vectors[0])
        buf.delete(item)
        assert buf.get(item) is None
        assert len(buf) == 0


class TestWithGraphIndex:
    def test_graph_backed_buffer(self, vectors):
        buf = BufferedVectorIndex(
            lambda: HnswIndex(m=8, ef_construction=32, seed=0),
            dim=8,
            merge_threshold=64,
        )
        ids = [buf.insert(v) for v in vectors]
        assert buf.merges >= 1
        hits = buf.search(vectors[10], 5)
        assert ids[10] in [h.id for h in hits]

    def test_write_throughput_advantage(self, vectors):
        """Buffered inserts must be much cheaper than rebuild-per-insert
        (the whole point of out-of-place updates)."""
        import time

        buffered = BufferedVectorIndex(
            lambda: HnswIndex(m=8, ef_construction=32, seed=0),
            dim=8, merge_threshold=None,
        )
        start = time.perf_counter()
        for v in vectors[:60]:
            buffered.insert(v)
        buffered_time = time.perf_counter() - start

        start = time.perf_counter()
        grown = []
        for v in vectors[:15]:  # 4x fewer inserts for the naive baseline
            grown.append(v)
            HnswIndex(m=8, ef_construction=32, seed=0).build(np.vstack(grown))
        naive_time = (time.perf_counter() - start) * 4  # scale to 60

        assert buffered_time < naive_time
