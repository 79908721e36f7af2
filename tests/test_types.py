"""Tests for core value types."""

import copy
import pickle
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import DimensionMismatchError
from repro.core.types import (
    Hits,
    SearchHit,
    SearchResult,
    SearchStats,
    as_matrix,
    as_vector,
)


class TestAsMatrix:
    def test_single_vector_becomes_row(self):
        out = as_matrix([1.0, 2.0, 3.0])
        assert out.shape == (1, 3)
        assert out.dtype == np.float32

    def test_list_of_vectors(self):
        out = as_matrix([[1, 2], [3, 4]])
        assert out.shape == (2, 2)

    def test_dim_check(self):
        with pytest.raises(DimensionMismatchError):
            as_matrix([[1, 2, 3]], dim=2)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_contiguous(self):
        arr = np.zeros((4, 6), dtype=np.float32)[:, ::2]
        out = as_matrix(arr)
        assert out.flags["C_CONTIGUOUS"]


class TestAsVector:
    def test_row_matrix_squeezed(self):
        out = as_vector(np.zeros((1, 5)))
        assert out.shape == (5,)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 5)))

    def test_dim_mismatch_reports_both(self):
        with pytest.raises(DimensionMismatchError) as excinfo:
            as_vector(np.zeros(4), dim=8)
        assert excinfo.value.expected == 8
        assert excinfo.value.actual == 4


class TestSearchHit:
    def test_ordering_by_distance(self):
        assert SearchHit(1, 0.5) < SearchHit(2, 0.7)

    def test_ordering_ties_break_by_id(self):
        assert SearchHit(1, 0.5) < SearchHit(2, 0.5)

    def test_sorting_list(self):
        hits = [SearchHit(3, 2.0), SearchHit(1, 1.0), SearchHit(2, 1.5)]
        assert [h.id for h in sorted(hits)] == [1, 2, 3]


class TestSearchResult:
    def test_accessors(self):
        result = SearchResult([SearchHit(4, 0.1), SearchHit(9, 0.2)])
        assert result.ids == [4, 9]
        assert result.distances == [0.1, 0.2]
        assert len(result) == 2
        assert result[0].id == 4
        assert [h.id for h in result] == [4, 9]


class TestSearchStats:
    def test_merge_accumulates(self):
        a = SearchStats(distance_computations=5, page_reads=2)
        b = SearchStats(distance_computations=3, page_reads=1,
                        predicate_rejections=4)
        a.merge(b)
        assert a.distance_computations == 8
        assert a.page_reads == 3
        assert a.predicate_rejections == 4


class TestTopK:
    def test_returns_k_smallest_sorted(self):
        ids = np.arange(100)
        dists = np.arange(100)[::-1].astype(float)  # id 99 is closest
        hits = Hits.topk(ids, dists, 3)
        assert [h.id for h in hits] == [99, 98, 97]
        assert [h.distance for h in hits] == [0.0, 1.0, 2.0]

    def test_k_larger_than_n(self):
        hits = Hits.topk([1, 2], np.array([0.2, 0.1]), 10)
        assert [h.id for h in hits] == [2, 1]

    def test_k_zero_or_empty(self):
        assert Hits.topk([], np.array([]), 5) == []
        assert Hits.topk([1], np.array([1.0]), 0) == []

    def test_matches_full_sort(self, rng):
        dists = rng.standard_normal(500)
        ids = rng.permutation(500)
        hits = Hits.topk(ids, dists, 25)
        expected = [int(ids[i]) for i in np.argsort(dists, kind="stable")[:25]]
        assert [h.id for h in hits] == expected


# Distances drawn from a small pool (so ties are common, including the
# -0.0 / 0.0 pair) or anywhere; ids from a small range (so the same id
# turns up in several parts).
_distance = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.5]) | st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, width=32)
_part = st.lists(st.tuples(st.integers(0, 8), _distance), max_size=12).map(
    lambda pairs: sorted(SearchHit(i, d) for i, d in pairs))


def _bits(hits):
    return [(h.id, np.float64(h.distance).tobytes()) for h in hits]


class TestHits:
    @given(parts=st.lists(_part, max_size=5),
           k=st.none() | st.integers(min_value=0, max_value=80))
    @settings(max_examples=200, deadline=None)
    def test_merge_is_the_object_sort(self, parts, k):
        """concatenate + lexsort == sorted(SearchHit objects), id for id
        and bit for bit — ties, repeated ids, empty parts, k >= total."""
        merged = Hits.merge([Hits.from_hits(part) for part in parts], k)
        expected = sorted(chain(*parts))[:k]
        assert _bits(merged) == _bits(expected)
        assert merged == expected and expected == merged
        assert merged.ids.dtype == np.int64 and merged.distances.dtype == np.float64

    @given(pairs=st.lists(st.tuples(st.integers(0, 10**6), _distance),
                          max_size=40, unique_by=lambda p: p[0]),
           k=st.integers(0, 50), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_where_slicing_and_topk_keep_ids_and_distances_aligned(
        self, pairs, k, data
    ):
        distance_of = dict(pairs)
        ids = np.array([i for i, _ in pairs], dtype=np.int64)
        dists = np.array([d for _, d in pairs], dtype=np.float64)
        top = Hits.topk(ids, dists, k)
        assert len(top) == min(k, len(pairs))
        assert top.distances.tolist() == sorted(dists.tolist())[:k]
        keep = np.array(data.draw(
            st.lists(st.booleans(), min_size=len(top), max_size=len(top))), dtype=bool)
        lo, hi = sorted(data.draw(st.tuples(st.integers(0, 50), st.integers(0, 50))))
        for derived, want_ids in (
            (top, top.ids.tolist()),
            (top.where(keep), top.ids[keep].tolist()),
            (top[lo:hi], top.ids.tolist()[lo:hi]),
        ):
            assert isinstance(derived, Hits)
            assert derived.ids.tolist() == want_ids
            assert _bits(derived) == [
                (i, np.float64(distance_of[i]).tobytes()) for i in want_ids]
            assert derived.distances.tolist() == sorted(derived.distances.tolist())

    def test_is_an_immutable_sequence_of_search_hits(self):
        hits = Hits(np.array([7, 3, 5]), np.array([0.25, 0.5, 0.5], dtype=np.float32))
        assert len(hits) == 3 and hits and not Hits.EMPTY
        assert hits[0] == SearchHit(7, 0.25) and hits[-1] == SearchHit(5, 0.5)
        assert isinstance(hits[0].id, int) and isinstance(hits[0].distance, float)
        assert list(hits) == [SearchHit(7, 0.25), SearchHit(3, 0.5), SearchHit(5, 0.5)]
        assert SearchHit(3, 0.5) in hits and hits.index(SearchHit(5, 0.5)) == 2
        for column in (hits.ids, hits.distances, hits[1:].ids, Hits.EMPTY.ids):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[:1] = 0
        with pytest.raises(AttributeError):
            hits.ids = np.array([1, 2, 3])
        for clone in (copy.deepcopy(hits), pickle.loads(pickle.dumps(hits))):
            assert clone == hits and not clone.ids.flags.writeable

    def test_does_not_freeze_the_arrays_it_was_given(self):
        ids, dists = np.array([1, 2]), np.array([0.1, 0.2])
        Hits(ids, dists)
        ids[0], dists[0] = 9, 0.0  # the caller's arrays stay its own

    def test_rejects_misaligned_columns(self):
        with pytest.raises(ValueError):
            Hits([1, 2], [0.5])
        with pytest.raises(ValueError):
            Hits([[1, 2]], [[0.5, 0.6]])

    def test_equality_with_lists_and_round_trip(self):
        as_list = [SearchHit(4, 0.1), SearchHit(9, 0.2)]
        hits = Hits.from_hits(as_list)
        assert hits == as_list and as_list == hits
        assert [] == Hits.EMPTY and Hits.EMPTY == [] and hits != [] and hits != as_list[:1]
        assert hits != [SearchHit(4, 0.1), SearchHit(9, 0.25)]
        assert Hits.from_hits(list(hits)) == hits and Hits.from_hits(hits) is hits
        assert Hits.from_hits(iter(as_list)) == hits
        assert SearchResult(as_list).hits == hits and SearchResult(hits).hits is hits
