"""Behavioral tests specific to tree-based indexes (§2.2)."""

import numpy as np
import pytest
from oracles import (
    best_first_search_reference,
    build_pca_tree_reference,
    build_tree_reference,
)

from repro.bench.datasets import gaussian_mixture
from repro.core.types import SearchStats
from repro.index import (
    AnnoyIndex,
    FlatIndex,
    KdTreeIndex,
    PcaTreeIndex,
    RandomizedKdForestIndex,
    RpTreeIndex,
)
from repro.index._tree import best_first_search, build_forest
from repro.index.rptree import rp_split

kd_split = KdTreeIndex().choose_split


def kd_forest(data, leaf_size):
    return build_forest(
        data.astype(np.float64), kd_split, leaf_size, [np.random.default_rng(0)]
    )


class TestTreeMachinery:
    def test_build_respects_leaf_size(self, small_data):
        forest = kd_forest(small_data, leaf_size=10)
        assert np.diff(forest.offsets).max() <= 10
        assert forest.stats()[0]["mean_leaf_size"] <= 10

    def test_leaves_partition_points(self, small_data):
        forest = kd_forest(small_data, leaf_size=10)
        seen = np.concatenate(forest.leaves())
        assert sorted(seen.tolist()) == list(range(300))

    def test_identical_points_become_leaf(self):
        forest = kd_forest(np.ones((50, 4)), leaf_size=8)
        assert forest.roots.tolist() == [~0]
        assert forest.w.shape == (0, 4)

    def test_best_first_budget_respected(self, small_data):
        forest = kd_forest(small_data, leaf_size=8)
        _, leaves = best_first_search(forest, small_data[0].astype(np.float64), 3)
        assert leaves <= 3

    def test_memory_is_the_forest_arrays(self, small_data):
        index = RpTreeIndex(num_trees=3, leaf_size=8, seed=0)
        assert index.memory_bytes() == 0
        forest = index.build(small_data)._forest
        assert index.memory_bytes() == sum(
            getattr(forest, name).nbytes for name in forest.__slots__
        )
        assert forest.positions.shape == (3 * 300,)


# Every split rule the library grows trees with, as choose_split(rows, rng, depth).
SPLIT_RULES = {
    "kdtree": kd_split,
    "randkd_forest": RandomizedKdForestIndex().choose_split,
    "rp_tree": RpTreeIndex().choose_split,
    "annoy": AnnoyIndex().choose_split,
    "ngt": lambda rows, rng, depth: rp_split(rows, rng, 0.15),
}


@pytest.fixture(scope="module")
def oracle_data():
    ds = gaussian_mixture(n=1200, dim=10, num_clusters=8, num_queries=8, seed=11)
    return ds.train, ds.queries.astype(np.float64)


def _forests(data, rule, num_trees):
    """The parent's pointer trees and the array forest from one rule."""
    data64 = data.astype(np.float64)
    if rule.startswith("pca_tree"):
        index = PcaTreeIndex(leaf_size=8, rotate=rule.endswith("rotate")).build(data)
        roots = [build_pca_tree_reference(data64, index.axes, 8, index.rotate)]
        return roots, index._forest
    split = SPLIT_RULES[rule]
    positions = np.arange(data.shape[0], dtype=np.int64)
    roots = [
        build_tree_reference(
            positions, data64, lambda rows, rng: split(rows, rng, 0), 8,
            np.random.default_rng(i),
        )
        for i in range(num_trees)
    ]
    rngs = [np.random.default_rng(i) for i in range(num_trees)]
    return roots, build_forest(data64, split, 8, rngs)


@pytest.mark.parametrize(
    "rule,num_trees",
    [(rule, trees) for rule in SPLIT_RULES for trees in (1, 3)]
    + [("pca_tree/rotate", 1), ("pca_tree/strongest", 1)],
)
def test_array_forest_searches_as_pointer_trees(oracle_data, rule, num_trees):
    """The oracle: same leaves visited, same candidates, under every
    budget and in exact mode (where a forest repeats each row per tree),
    with and without a mask on the exact bound."""
    data, queries = oracle_data
    roots, forest = _forests(data, rule, num_trees)
    data64 = data.astype(np.float64)
    masks = [None, np.random.default_rng(5).random(data.shape[0]) < 0.3]
    for q in queries:
        for budget in (1, 8, 64):
            want = best_first_search_reference(roots, q, budget)
            got = best_first_search(forest, q, budget)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1], budget
        for eligible in masks:
            for k in (1, 10):
                want = best_first_search_reference(
                    roots, q, None, exact_l2_k=(data64, k), eligible=eligible
                )
                got = best_first_search(forest, q, None, (data, k), eligible)
                assert np.array_equal(got[0], want[0]) and got[1] == want[1], k


class TestKdTree:
    def test_exact_mode_matches_flat(self, small_data, small_queries, flat_oracle):
        index = KdTreeIndex(leaf_size=8).build(small_data)
        for q in small_queries[:5]:
            exact = [h.id for h in flat_oracle.search(q, 10)]
            got = [h.id for h in index.search(q, 10)]
            assert got == exact

    def test_exact_mode_with_mask_matches_flat(self, small_data, small_queries,
                                               flat_oracle):
        allowed = np.zeros(300, dtype=bool)
        allowed[::2] = True
        index = KdTreeIndex(leaf_size=8).build(small_data)
        q = small_queries[0]
        exact = [h.id for h in flat_oracle.search(q, 8, allowed=allowed)]
        got = [h.id for h in index.search(q, 8, allowed=allowed)]
        assert got == exact

    @pytest.mark.parametrize("score", ["cosine", "ip", "l1"])
    def test_exact_mode_refuses_a_score_l2_does_not_order(self, score):
        """The exact bound prunes by L2 distance; under cosine or inner
        product, on rows whose norms vary, it would drop true neighbors
        of flat's answer, so the index refuses to be built that way."""
        with pytest.raises(ValueError, match="max_leaves"):
            KdTreeIndex(score)
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((300, 8)) * rng.uniform(0.1, 10, (300, 1))
        index = KdTreeIndex(score, max_leaves=8).build(rows.astype(np.float32))
        assert len(index.search(rows[0], 10)) == 10

    @pytest.mark.parametrize("score", ["l2", "sqeuclidean"])
    def test_exact_mode_keeps_l2_ordered_scores(self, score, small_data,
                                                small_queries):
        index = KdTreeIndex(score, leaf_size=8).build(small_data)
        flat = FlatIndex(score).build(small_data)
        for q in small_queries[:3]:
            assert [h.id for h in index.search(q, 10)] == [
                h.id for h in flat.search(q, 10)
            ]

    def test_approximate_mode_cheaper(self, small_data, small_queries):
        index = KdTreeIndex(leaf_size=8).build(small_data)
        exact_stats, approx_stats = SearchStats(), SearchStats()
        index.search(small_queries[0], 10, stats=exact_stats)
        index.search(small_queries[0], 10, max_leaves=2, stats=approx_stats)
        assert approx_stats.distance_computations < exact_stats.distance_computations

    def test_logarithmic_depth(self, rng):
        data = rng.standard_normal((2048, 8)).astype(np.float32)
        index = KdTreeIndex(leaf_size=8).build(data)
        [stats] = index.stats()
        # Median splits give depth ~= log2(2048/8) = 8; allow slack.
        assert stats["max_depth"] <= 14

    def test_leaf_budget_recall_monotonic(self, small_data, small_queries,
                                          ground_truth_10):
        index = KdTreeIndex(leaf_size=8).build(small_data)

        def recall(budget):
            got = []
            for qi, q in enumerate(small_queries):
                hits = index.search(q, 10, max_leaves=budget)
                truth = set(int(t) for t in ground_truth_10[qi])
                got.append(len(truth.intersection(h.id for h in hits)) / 10)
            return float(np.mean(got))

        assert recall(32) >= recall(1)


class TestForests:
    @pytest.mark.parametrize(
        "cls,budget_kw",
        [
            (RpTreeIndex, "max_leaves"),
            (RandomizedKdForestIndex, "max_leaves"),
            (AnnoyIndex, "search_k"),
        ],
    )
    def test_more_trees_help_recall(self, cls, budget_kw, small_data,
                                    small_queries, ground_truth_10):
        def recall(num_trees):
            index = cls(num_trees=num_trees, seed=0)
            index.build(small_data)
            got = []
            for qi, q in enumerate(small_queries):
                hits = index.search(q, 10, **{budget_kw: 24})
                truth = set(int(t) for t in ground_truth_10[qi])
                got.append(len(truth.intersection(h.id for h in hits)) / 10)
            return float(np.mean(got))

        assert recall(8) >= recall(1) - 0.05

    def test_trees_are_distinct(self, small_data):
        forest = RpTreeIndex(num_trees=3, seed=0).build(small_data)._forest
        # Different random seeds per tree -> different first splits.
        assert (forest.roots >= 0).all()
        ws = forest.w[forest.roots]
        assert not np.allclose(ws[0], ws[1])

    def test_forest_stats_per_tree(self, small_data):
        index = AnnoyIndex(num_trees=4, seed=0).build(small_data)
        assert len(index.stats()) == 4

    def test_annoy_budget_keyword(self, small_data, small_queries):
        index = AnnoyIndex(num_trees=2, seed=0).build(small_data)
        assert index.max_leaves == 64
        stats = SearchStats()
        index.search(small_queries[0], 5, search_k=3, stats=stats)
        assert stats.nodes_visited == 3
        with pytest.raises(TypeError):
            index.search(small_queries[0], 5, max_leaves=3)


class TestPcaTree:
    def test_axes_are_orthonormal(self, small_data):
        index = PcaTreeIndex(num_axes=4, seed=0).build(small_data)
        gram = index.axes @ index.axes.T
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-6)

    def test_rotate_vs_local_choice(self, small_data, small_queries):
        for rotate in (True, False):
            index = PcaTreeIndex(rotate=rotate, seed=0).build(small_data)
            hits = index.search(small_queries[0], 5)
            assert len(hits) == 5

    def test_first_split_is_top_component(self, rng):
        # Data stretched along one axis: the root split must use it.
        data = np.zeros((200, 4), dtype=np.float32)
        data[:, 2] = rng.standard_normal(200) * 10
        data[:, 0] = rng.standard_normal(200) * 0.1
        index = PcaTreeIndex(num_axes=2, rotate=True, seed=0).build(data)
        forest = index._forest
        w = forest.w[forest.roots[0]]
        assert abs(w[2]) > 0.9
