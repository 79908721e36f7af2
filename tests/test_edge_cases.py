"""Edge-case coverage across modules: the paths regressions hide in."""

import numpy as np
import pytest

from repro.core.incremental import IncrementalSearcher
from repro.index import (
    FlatIndex,
    HnswIndex,
    IvfFlatIndex,
    KdTreeIndex,
    available_indexes,
    index_families,
    make_index,
)
from repro.scores import EuclideanScore


class TestTinyCollections:
    """Indexes must behave on 1- and 2-item collections."""

    @pytest.mark.parametrize("name", ["flat", "hnsw", "nsw", "ivf_flat",
                                      "kdtree", "annoy", "lsh", "ngt"])
    def test_single_item(self, name):
        data = np.ones((1, 4), dtype=np.float32)
        index = make_index(name, seed=0) if name != "flat" else make_index(name)
        index.build(data)
        hits = index.search(np.ones(4, dtype=np.float32), 5)
        assert [h.id for h in hits] == [0]

    @pytest.mark.parametrize("name", ["flat", "hnsw", "kdtree", "ivf_flat"])
    def test_two_items(self, name):
        data = np.array([[0, 0], [10, 10]], dtype=np.float32)
        index = make_index(name)
        index.build(data)
        hits = index.search(np.array([1, 1], dtype=np.float32), 2)
        assert hits[0].id == 0
        assert len(hits) == 2

    def test_duplicate_vectors(self):
        data = np.ones((20, 3), dtype=np.float32)
        index = HnswIndex(m=4, seed=0).build(data)
        hits = index.search(np.ones(3, dtype=np.float32), 5)
        assert len(hits) == 5
        assert all(h.distance == pytest.approx(0.0, abs=1e-6) for h in hits)


class TestIncrementalSlack:
    def test_slack_improves_ordering(self, small_data, small_queries,
                                     flat_oracle):
        index = HnswIndex(m=8, ef_construction=48, seed=0).build(small_data)
        q = small_queries[0]
        exact = [h.id for h in flat_oracle.search(q, 20)]
        loose = IncrementalSearcher(index, q, slack=1.0)
        tight = IncrementalSearcher(index, q, slack=1.5)
        loose_ids = [h.id for h in loose.next_batch(20)]
        tight_ids = [h.id for h in tight.next_batch(20)]

        def kendall_agreement(got):
            pos = {e: i for i, e in enumerate(exact)}
            ranked = [pos[g] for g in got if g in pos]
            inversions = sum(
                1
                for i in range(len(ranked))
                for j in range(i + 1, len(ranked))
                if ranked[i] > ranked[j]
            )
            return inversions

        assert kendall_agreement(tight_ids) <= kendall_agreement(loose_ids) + 2


class TestHnswKnobs:
    def test_custom_level_multiplier(self, small_data):
        flat_ish = HnswIndex(m=8, level_multiplier=0.01, seed=0).build(small_data)
        assert flat_ish.num_layers <= 2  # nearly no upper layers

    def test_level_multiplier_default_from_m(self):
        import math

        index = HnswIndex(m=10)
        assert index.level_multiplier == pytest.approx(1 / math.log(10))


class TestRegistryConsistency:
    def test_every_registered_index_instantiable(self):
        for name in available_indexes():
            index = make_index(name)
            assert index is not None

    def test_families_cover_all_names(self):
        families = index_families()
        listed = {name for names in families.values() for name in names}
        assert listed == set(available_indexes())

    def test_figure1_index_names_present(self):
        """Every index named in the paper's Figure 1 exists here."""
        figure1 = {"lsh", "ivf_flat", "kdtree", "rp_tree", "knng",
                   "nndescent",  # KGraph; EFANNA = init="forest"
                   "nsg", "randkd_forest",  # FLANN
                   "annoy", "fanng", "hnsw", "ngt"}
        assert figure1 <= set(available_indexes())


class TestIvfEdge:
    def test_nprobe_zero_clamped(self, small_data, small_queries):
        index = IvfFlatIndex(nlist=8, seed=0).build(small_data)
        hits = index.search(small_queries[0], 5, nprobe=0)
        assert len(hits) == 5  # clamped to 1 probe

    def test_nprobe_exceeds_nlist(self, small_data, small_queries):
        index = IvfFlatIndex(nlist=8, seed=0).build(small_data)
        hits = index.search(small_queries[0], 5, nprobe=1000)
        assert len(hits) == 5


class TestKdTreeEdge:
    def test_all_identical_points(self):
        data = np.full((30, 4), 2.0, dtype=np.float32)
        index = KdTreeIndex(leaf_size=8).build(data)
        hits = index.search(np.full(4, 2.0, dtype=np.float32), 3)
        assert len(hits) == 3

    def test_one_dimensional_variation(self, rng):
        data = np.zeros((50, 4), dtype=np.float32)
        data[:, 2] = rng.standard_normal(50)
        index = KdTreeIndex(leaf_size=4).build(data)
        flat = FlatIndex(EuclideanScore()).build(data)
        q = data[7] + 0.01
        assert [h.id for h in index.search(q, 5)] == [
            h.id for h in flat.search(q, 5)
        ]
