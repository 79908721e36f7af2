"""Tests for attribute-aware (stitched) graph construction (§2.3)."""

import numpy as np
import pytest
from oracles import _label_edges_reference, label_search_reference

from repro.core.types import SearchStats
from repro.index import FilteredHnswIndex, HnswIndex
from repro.index.flat import FlatIndex
from repro.scores import EuclideanScore


@pytest.fixture(scope="module")
def labeled(small_data):
    rng = np.random.default_rng(4)
    labels = rng.integers(8, size=small_data.shape[0])
    index = FilteredHnswIndex(
        m=8, ef_construction=48, label_k=6, seed=0
    ).build_with_labels(small_data, labels)
    return index, labels


class TestFilteredHnsw:
    def test_label_search_only_returns_label(self, labeled, small_queries):
        index, labels = labeled
        hits = index.search(small_queries[0], 5, label=3)
        assert all(labels[h.id] == 3 for h in hits)
        assert len(hits) == 5

    def test_label_search_matches_per_label_oracle(self, labeled, small_data,
                                                   small_queries):
        index, labels = labeled
        for label in (0, 4, 7):
            members = np.flatnonzero(labels == label)
            oracle = FlatIndex(EuclideanScore()).build(
                small_data[members], ids=members.astype(np.int64)
            )
            for q in small_queries[:4]:
                expected = set(h.id for h in oracle.search(q, 5))
                got = set(h.id for h in index.search(q, 5, label=label, ef_search=64))
                assert len(got & expected) >= 4, (label,)

    def test_unknown_label_returns_empty(self, labeled, small_queries):
        index, _ = labeled
        assert index.search(small_queries[0], 5, label=99) == []

    def test_unfiltered_search_still_works(self, labeled, small_queries,
                                           ground_truth_10):
        index, _ = labeled
        recalls = []
        for qi, q in enumerate(small_queries):
            hits = index.search(q, 10)
            truth = set(int(t) for t in ground_truth_10[qi])
            recalls.append(len(truth & set(h.id for h in hits)) / 10)
        assert float(np.mean(recalls)) >= 0.9

    def test_stitched_edges_exist(self, labeled):
        index, _ = labeled
        assert index.stitched_edge_count() > 0

    def test_label_subgraph_connected(self, labeled, small_data):
        """Every same-label node must be reachable from the label entry
        through same-label stitched edges — the property online blocking
        destroys and stitching restores."""
        index, labels = labeled
        for label in np.unique(labels):
            members = set(int(m) for m in np.flatnonzero(labels == label))
            key = int(label)
            entry = index._label_entries[key]
            seen = {entry}
            stack = [entry]
            while stack:
                node = stack.pop()
                for nb in index._label_slots[node, : index._label_degree[node]]:
                    nb = int(nb)
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            assert seen == members, f"label {label} subgraph disconnected"

    def test_beats_bitmask_blocking_at_low_selectivity(self, small_data,
                                                       small_queries):
        """The [3, 43, 87] motivation: with rare labels, bitmask blocking
        on a plain graph loses recall to disconnection/dead-ends, while
        the stitched index stays accurate."""
        rng = np.random.default_rng(9)
        # 30 labels over 300 points -> selectivity ~3%.
        labels = rng.integers(30, size=small_data.shape[0])
        stitched = FilteredHnswIndex(
            m=8, ef_construction=48, label_k=4, seed=0
        ).build_with_labels(small_data, labels)
        plain = HnswIndex(m=8, ef_construction=48, seed=0).build(small_data)

        def recall(searcher):
            total, hit = 0, 0
            for label in range(10):
                members = np.flatnonzero(labels == label)
                if members.size == 0:
                    continue
                oracle = FlatIndex(EuclideanScore()).build(
                    small_data[members], ids=members.astype(np.int64)
                )
                for q in small_queries[:3]:
                    expected = set(h.id for h in oracle.search(q, 3))
                    got = set(h.id for h in searcher(q, label))
                    hit += len(got & expected)
                    total += len(expected)
            return hit / max(1, total)

        mask_by_label = {
            label: labels == label for label in range(10)
        }
        stitched_recall = recall(
            lambda q, label: stitched.search(q, 3, label=label, ef_search=32)
        )
        blocked_recall = recall(
            lambda q, label: plain.search(
                q, 3, allowed=mask_by_label[label], ef_search=32
            )
        )
        assert stitched_recall >= blocked_recall - 0.02

    def test_build_with_labels_validates_length(self, small_data):
        with pytest.raises(ValueError):
            FilteredHnswIndex(m=8).build_with_labels(small_data, [1, 2, 3])

    def test_label_search_without_labels_raises(self, small_data,
                                                small_queries):
        index = FilteredHnswIndex(m=8, seed=0).build(small_data)
        with pytest.raises(ValueError, match="without labels"):
            index.search(small_queries[0], 5, label=1)

    def test_allowed_mask_composes_with_label(self, labeled, small_queries):
        index, labels = labeled
        allowed = np.zeros(300, dtype=bool)
        allowed[::2] = True
        hits = index.search(small_queries[0], 5, label=3, allowed=allowed)
        assert all(labels[h.id] == 3 and h.id % 2 == 0 for h in hits)


#: The counters a search charges.
COUNTERS = (
    "distance_computations", "nodes_visited", "page_reads",
    "candidates_examined", "predicate_evaluations", "predicate_rejections",
)


@pytest.mark.parametrize("num_labels", [4, 20, 100])
def test_label_rows_search_as_the_per_query_closure(num_labels):
    """The label slot matrix, built once, answers every label search with
    the hits and counters of the per-query closure it replaced
    (``tests/oracles.py``), unmasked and under an ``allowed`` mask."""
    rng = np.random.default_rng(num_labels)
    rows = rng.standard_normal((500, 12)).astype(np.float32)
    labels = rng.integers(num_labels, size=500)
    index = FilteredHnswIndex(
        m=6, ef_construction=32, label_k=4, seed=0
    ).build_with_labels(rows, labels)
    edges = _label_edges_reference(index)
    assert index.stitched_edge_count() == sum(e.size for e in edges.values())
    queries = rng.standard_normal((4, 12)).astype(np.float32)
    for allowed in (None, rng.random(500) < 0.6):
        for label in [*np.unique(labels).tolist(), num_labels + 1]:
            for query in queries:
                got_stats, want_stats = SearchStats(), SearchStats()
                got = index.search(
                    query, 5, allowed=allowed, label=label, stats=got_stats
                )
                want = label_search_reference(
                    index, query, 5, label, allowed=allowed, stats=want_stats,
                    label_edges=edges,
                )
                assert np.array_equal(got.ids, want.ids)
                assert got.distances.tobytes() == want.distances.tobytes()
                for counter in COUNTERS:
                    assert getattr(got_stats, counter) == getattr(want_stats, counter)
