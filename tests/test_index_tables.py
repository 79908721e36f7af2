"""Behavioral tests specific to table-based indexes (§2.2)."""

import numpy as np
import pytest

from repro.core.types import SearchStats
from repro.index import (
    ItqHashIndex,
    IvfFlatIndex,
    IvfSqIndex,
    LshIndex,
    SpectralHashIndex,
)
from repro.index.l2h import hamming_to_all, pack_bits


class TestLsh:
    def test_more_tables_higher_recall(self, small_data, small_queries,
                                       ground_truth_10):
        def recall(num_tables):
            index = LshIndex(num_tables=num_tables, hashes_per_table=6, seed=0)
            index.build(small_data)
            got = []
            for qi, q in enumerate(small_queries):
                hits = index.search(q, 10)
                truth = set(int(t) for t in ground_truth_10[qi])
                got.append(len(truth.intersection(h.id for h in hits)) / 10)
            return float(np.mean(got))

        assert recall(24) >= recall(2)

    def test_more_hashes_smaller_buckets(self, small_data):
        small_k = LshIndex(num_tables=4, hashes_per_table=2, seed=0).build(small_data)
        large_k = LshIndex(num_tables=4, hashes_per_table=10, seed=0).build(small_data)
        assert np.mean(large_k.bucket_sizes()) < np.mean(small_k.bucket_sizes())

    def test_pstable_family(self, small_data, small_queries):
        index = LshIndex(
            hash_family="pstable", num_tables=8, hashes_per_table=4,
            bucket_width=6.0, seed=0,
        ).build(small_data)
        hits = index.search(small_queries[0], 5)
        assert len(hits) > 0

    def test_invalid_family(self):
        with pytest.raises(ValueError):
            LshIndex(hash_family="quantum")

    def test_multiprobe_raises_recall(self, small_data, small_queries,
                                      ground_truth_10):
        index = LshIndex(num_tables=4, hashes_per_table=8, seed=0)
        index.build(small_data)

        def recall(probes):
            got = []
            for qi, q in enumerate(small_queries):
                hits = index.search(q, 10, num_probes=probes)
                truth = set(int(t) for t in ground_truth_10[qi])
                got.append(len(truth.intersection(h.id for h in hits)) / 10)
            return float(np.mean(got))

        assert recall(8) >= recall(1)

    def test_multiprobe_pstable(self, small_data, small_queries):
        index = LshIndex(
            hash_family="pstable", num_tables=4, hashes_per_table=4,
            bucket_width=5.0, num_probes=4, seed=0,
        ).build(small_data)
        hits = index.search(small_queries[0], 5)
        assert len(hits) == 5

    def test_multiprobe_superset_of_single_probe(self, small_data,
                                                 small_queries):
        index = LshIndex(num_tables=4, hashes_per_table=8, seed=0)
        index.build(small_data)
        q = small_queries[0]
        single = index._candidates(q.astype(np.float64), 1)
        multi = index._candidates(q.astype(np.float64), 6)
        assert set(single.tolist()) <= set(multi.tolist())

    def test_invalid_num_probes(self):
        with pytest.raises(ValueError):
            LshIndex(num_probes=0)

    def test_candidates_come_from_buckets(self, small_data):
        index = LshIndex(num_tables=4, hashes_per_table=8, seed=0).build(small_data)
        stats = SearchStats()
        index.search(small_data[0], 5, stats=stats)
        # Candidates examined should be far fewer than the collection.
        assert stats.candidates_examined < len(small_data)


class TestIvfFlat:
    def test_nprobe_recall_monotonic(self, small_data, small_queries,
                                     ground_truth_10):
        index = IvfFlatIndex(nlist=16, seed=0).build(small_data)

        def recall(nprobe):
            got = []
            for qi, q in enumerate(small_queries):
                hits = index.search(q, 10, nprobe=nprobe)
                truth = set(int(t) for t in ground_truth_10[qi])
                got.append(len(truth.intersection(h.id for h in hits)) / 10)
            return float(np.mean(got))

        r1, r4, rall = recall(1), recall(4), recall(16)
        assert r1 <= r4 + 1e-9 <= rall + 2e-9
        assert rall == pytest.approx(1.0)

    def test_full_probe_is_exact(self, small_data, small_queries, flat_oracle):
        index = IvfFlatIndex(nlist=10, seed=0).build(small_data)
        exact = [h.id for h in flat_oracle.search(small_queries[0], 10)]
        got = [h.id for h in index.search(small_queries[0], 10, nprobe=10)]
        assert got == exact

    def test_cells_partition_collection(self, small_data):
        index = IvfFlatIndex(nlist=16, seed=0).build(small_data)
        assert sum(index.cell_sizes()) == len(small_data)

    def test_nlist_clamped_to_n(self):
        data = np.random.default_rng(0).standard_normal((5, 4)).astype(np.float32)
        index = IvfFlatIndex(nlist=64).build(data)
        assert len(index.cell_sizes()) == 5


class TestIvfSq:
    def test_probed_cells_counted(self, small_data, small_queries):
        index = IvfSqIndex(nlist=12, seed=0).build(small_data)
        stats = SearchStats()
        index.search(small_queries[0], 5, nprobe=3, stats=stats)
        assert stats.nodes_visited == 3

    def test_memory_less_than_flat_ivf(self, small_data):
        sq = IvfSqIndex(nlist=12, seed=0).build(small_data)
        # Codes are uint8: 1/4 the bytes of float32 vectors.
        assert sq.memory_bytes() < small_data.nbytes


class TestBinaryHashes:
    def test_pack_and_hamming(self):
        bits = np.array([[1, 0, 1, 0, 1, 0, 1, 0], [1, 1, 1, 1, 0, 0, 0, 0]])
        codes = pack_bits(bits)
        d = hamming_to_all(codes[0], codes)
        assert d[0] == 0
        assert d[1] == 4

    @pytest.mark.parametrize("cls", [SpectralHashIndex, ItqHashIndex])
    def test_similar_vectors_similar_codes(self, cls, small_data):
        index = cls(nbits=24).build(small_data)
        base = index.encode(small_data[0])[0]
        near = index.encode(small_data[0] + 0.01)[0]
        far = index.encode(small_data[0] + 10.0)[0]
        d_near = hamming_to_all(base, near[None, :])[0]
        d_far = hamming_to_all(base, far[None, :])[0]
        assert d_near <= d_far

    def test_itq_rotation_orthogonal(self, small_data):
        index = ItqHashIndex(nbits=12, iterations=5).build(small_data)
        r = index._rotation
        np.testing.assert_allclose(r @ r.T, np.eye(r.shape[0]), atol=1e-8)

    def test_rerank_budget_controls_exactness(self, small_data, small_queries,
                                              ground_truth_10):
        def recall(budget):
            index = SpectralHashIndex(nbits=24, rerank=budget).build(small_data)
            got = []
            for qi, q in enumerate(small_queries):
                hits = index.search(q, 10)
                truth = set(int(t) for t in ground_truth_10[qi])
                got.append(len(truth.intersection(h.id for h in hits)) / 10)
            return float(np.mean(got))

        assert recall(300) >= recall(15)  # full rerank = exact
        assert recall(300) == pytest.approx(1.0)
