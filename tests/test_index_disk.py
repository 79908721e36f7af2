"""Tests for disk-resident indexes: DiskANN and SPANN (§2.2)."""

import numpy as np
import pytest

from repro.bench.datasets import gaussian_mixture
from repro.bench.metrics import exact_ground_truth
from repro.core.types import SearchStats
from repro.index import DiskAnnIndex, SpannIndex, make_index
from repro.scores import EuclideanScore
from repro.storage import SimulatedDisk


@pytest.fixture(scope="module")
def diskann(small_data):
    return DiskAnnIndex(
        max_degree=10, build_beam_width=32, pq_m=4, pq_ks=32, beam_width=12, seed=0
    ).build(small_data)


class TestDiskAnn:
    def test_page_reads_counted(self, diskann, small_queries):
        stats = SearchStats()
        diskann.search(small_queries[0], 5, stats=stats)
        assert stats.page_reads > 0
        # One page per expanded node.
        assert stats.page_reads == stats.nodes_visited

    def test_beam_width_bounds_io(self, diskann, small_queries):
        narrow, wide = SearchStats(), SearchStats()
        diskann.search(small_queries[0], 5, beam_width=5, stats=narrow)
        diskann.search(small_queries[0], 5, beam_width=40, stats=wide)
        assert narrow.page_reads <= wide.page_reads
        assert narrow.page_reads <= 4 * 5 + 1

    def test_io_much_less_than_full_scan(self, diskann, small_queries, small_data):
        stats = SearchStats()
        diskann.search(small_queries[0], 5, stats=stats)
        assert stats.page_reads < len(small_data) / 4

    def test_memory_excludes_full_vectors(self, diskann, small_data):
        # RAM footprint (PQ codes etc.) must be well below raw vectors.
        assert diskann.memory_bytes() < small_data.nbytes

    def test_results_use_exact_rerank(self, diskann, small_data, flat_oracle):
        # Top-1 of a member query should match exact search most of the time;
        # check distance values are true distances, not PQ estimates.
        hits = diskann.search(small_data[3], 1)
        exact = flat_oracle.search(small_data[3], 1)
        assert hits[0].distance == pytest.approx(exact[0].distance, abs=1e-5)

    def test_shared_disk_accumulates(self, small_data, small_queries):
        disk = SimulatedDisk(page_size=8192)
        index = DiskAnnIndex(
            max_degree=8, build_beam_width=24, pq_m=4, pq_ks=16, disk=disk, seed=0
        ).build(small_data)
        disk.stats.reset()
        index.search(small_queries[0], 5)
        assert disk.stats.reads > 0

    @pytest.mark.parametrize("score", ["l2", "sqeuclidean", "cosine", "ip", "l1"])
    def test_refuses_scores_its_adc_keys_cannot_order(self, score):
        # The ADC keys estimate squared L2: under ``ip`` they steer the
        # beam to recall ~0.1.
        if score in ("l2", "sqeuclidean"):
            assert DiskAnnIndex(score=score).score.name == score
        else:
            with pytest.raises(ValueError, match="PQ keys order only"):
                DiskAnnIndex(score=score)

    def test_defaults_clear_the_e7_recall_floor(self):
        # E7's workload shape (clustered, d = 32) at a tier-1 size, where
        # degree 16 and L = 16 read recall 0.49.
        ds = gaussian_mixture(n=1500, dim=32, num_clusters=24, num_queries=20,
                              seed=11)
        truth = exact_ground_truth(ds.train, ds.queries, 10, EuclideanScore())
        index = make_index("diskann").build(ds.train)
        recall = np.mean([
            len(set(index.search(q, 10).ids.tolist()) & set(t.tolist())) / 10
            for q, t in zip(ds.queries, truth)
        ])
        assert recall >= 0.8


class TestSpann:
    def test_closure_replicates_boundary_vectors(self, small_data):
        plain = SpannIndex(num_postings=12, closure_epsilon=0.0, seed=0).build(
            small_data
        )
        closure = SpannIndex(
            num_postings=12, closure_epsilon=0.5, max_replicas=3, seed=0
        ).build(small_data)
        assert plain.replication_factor == pytest.approx(1.0)
        assert closure.replication_factor > 1.0

    def test_replication_capped(self, small_data):
        index = SpannIndex(
            num_postings=12, closure_epsilon=10.0, max_replicas=2, seed=0
        ).build(small_data)
        assert index.replication_factor <= 2.0

    def test_no_duplicate_results_despite_replication(self, small_data,
                                                      small_queries):
        index = SpannIndex(
            num_postings=12, closure_epsilon=0.6, max_replicas=3, seed=0
        ).build(small_data)
        hits = index.search(small_queries[0], 10, nprobe=6)
        ids = [h.id for h in hits]
        assert len(ids) == len(set(ids))

    def test_page_reads_scale_with_nprobe(self, small_data, small_queries):
        index = SpannIndex(num_postings=12, seed=0).build(small_data)
        one, many = SearchStats(), SearchStats()
        index.search(small_queries[0], 5, nprobe=1, stats=one)
        index.search(small_queries[0], 5, nprobe=8, stats=many)
        assert one.page_reads < many.page_reads

    def test_closure_improves_recall_at_fixed_nprobe(self, small_data,
                                                     small_queries,
                                                     ground_truth_10):
        def recall(eps):
            index = SpannIndex(
                num_postings=16, closure_epsilon=eps, max_replicas=3, seed=0
            ).build(small_data)
            got = []
            for qi, q in enumerate(small_queries):
                hits = index.search(q, 10, nprobe=2)
                truth = set(int(t) for t in ground_truth_10[qi])
                got.append(len(truth.intersection(h.id for h in hits)) / 10)
            return float(np.mean(got))

        assert recall(0.5) >= recall(0.0) - 1e-9

    def test_query_pruning_reduces_io(self, small_data, small_queries):
        pruned = SpannIndex(
            num_postings=16, prune_epsilon=0.1, seed=0
        ).build(small_data)
        unpruned = SpannIndex(num_postings=16, prune_epsilon=None, seed=0).build(
            small_data
        )
        p_stats, u_stats = SearchStats(), SearchStats()
        for q in small_queries:
            pruned.search(q, 5, nprobe=8, stats=p_stats)
            unpruned.search(q, 5, nprobe=8, stats=u_stats)
        assert p_stats.page_reads <= u_stats.page_reads

    def test_memory_is_centroids_not_vectors(self, small_data):
        index = SpannIndex(num_postings=12, seed=0).build(small_data)
        assert index.memory_bytes() < small_data.nbytes
