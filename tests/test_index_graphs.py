"""Behavioral tests specific to graph-based indexes (§2.2)."""

import numpy as np
import pytest

from repro.index import (
    FanngIndex,
    HnswIndex,
    KnngIndex,
    NnDescentIndex,
    NsgIndex,
    VamanaIndex,
    brute_force_knng,
    knng_recall,
    nn_descent,
)
from repro.index._graph import (
    beam_search,
    ensure_connected,
    graph_degree_stats,
    greedy_walk,
    medoid,
    robust_prune,
)
from repro.scores import EuclideanScore


class TestGraphMachinery:
    def test_medoid_is_central(self):
        data = np.array([[0.0, 0], [1, 0], [0, 1], [10, 10]], dtype=np.float32)
        # Mean is pulled toward (10,10); closest point to mean is tested.
        m = medoid(data)
        center = data.mean(axis=0)
        dists = np.linalg.norm(data - center, axis=1)
        assert m == int(dists.argmin())

    def test_greedy_walk_descends(self, small_data):
        adjacency = brute_force_knng(small_data, 8, EuclideanScore())
        q = small_data[17]
        node, dist, path = greedy_walk(q, small_data, adjacency, 0, EuclideanScore())
        # Distances along the path must strictly decrease.
        score = EuclideanScore()
        path_d = [float(score.distances(q, small_data[p:p+1])[0]) for p in path]
        assert all(a > b for a, b in zip(path_d, path_d[1:]))
        assert dist == pytest.approx(path_d[-1])

    def test_beam_search_wider_ef_superset_quality(self, small_data, small_queries):
        adjacency = brute_force_knng(small_data, 8, EuclideanScore())
        q = small_queries[0]
        narrow, _ = beam_search(q, small_data, adjacency, [0], 4, EuclideanScore())
        wide, _ = beam_search(q, small_data, adjacency, [0], 32, EuclideanScore())
        assert wide[0] <= narrow[0] + 1e-9  # best can only improve

    def test_beam_search_respects_allowed(self, small_data):
        adjacency = brute_force_knng(small_data, 8, EuclideanScore())
        allowed = np.zeros(300, dtype=bool)
        allowed[:150] = True
        _, positions = beam_search(
            small_data[0], small_data, adjacency, [299], 16, EuclideanScore(),
            allowed=allowed, ids=np.arange(300),
        )
        assert positions.size and (positions < 150).all()

    def test_robust_prune_occlusion(self):
        # Three collinear candidates: the middle one occludes the far one.
        vectors = np.array(
            [[0.0, 0], [1, 0], [2, 0], [0, 5]], dtype=np.float32
        )
        cands = np.array([1, 2, 3])
        dists = np.array([1.0, 2.0, 5.0])
        kept = robust_prune(cands, dists, vectors, 3, EuclideanScore(), alpha=1.0)
        assert 1 in kept
        assert 2 not in kept  # occluded by 1 (d(1,2)=1 < d(0,2)=2)
        assert 3 in kept  # different direction survives

    def test_robust_prune_alpha_keeps_more(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((50, 4)).astype(np.float32)
        dists = np.linalg.norm(vectors - vectors[0], axis=1)
        cands = np.arange(1, 50)
        tight = robust_prune(cands, dists[1:], vectors, 32, EuclideanScore(), 1.0)
        loose = robust_prune(cands, dists[1:], vectors, 32, EuclideanScore(), 1.5)
        assert len(loose) >= len(tight)

    def test_robust_prune_degree_cap(self, small_data):
        dists = np.linalg.norm(
            small_data.astype(np.float64) - small_data[0].astype(np.float64), axis=1
        )
        kept = robust_prune(
            np.arange(1, 300), dists[1:], small_data, 5, EuclideanScore(), 1.2
        )
        assert len(kept) <= 5

    def test_ensure_connected_repairs(self):
        vectors = np.random.default_rng(0).standard_normal((10, 3)).astype(np.float32)
        # Two islands: 0-4 and 5-9.
        adjacency = [np.array([(i + 1) % 5], dtype=np.int64) for i in range(5)]
        adjacency += [np.array([5 + (i + 1) % 5], dtype=np.int64) for i in range(5)]
        added = ensure_connected(adjacency, vectors, 0, EuclideanScore())
        assert added >= 1
        # Everything reachable from 0 now.
        seen = {0}
        stack = [0]
        while stack:
            for nb in adjacency[stack.pop()]:
                if int(nb) not in seen:
                    seen.add(int(nb))
                    stack.append(int(nb))
        assert seen == set(range(10))

    def test_degree_stats(self):
        adjacency = [np.array([1, 2]), np.array([0]), np.array([], dtype=np.int64)]
        stats = graph_degree_stats(adjacency)
        assert stats["mean_degree"] == pytest.approx(1.0)
        assert stats["max_degree"] == 2
        assert stats["num_edges"] == 3


class TestKnng:
    def test_brute_force_edges_exact(self, small_data, flat_oracle):
        adjacency = brute_force_knng(small_data, 5, EuclideanScore())
        # Node 0's neighbors = its 5 exact NNs (excluding itself).
        exact = [h.id for h in flat_oracle.search(small_data[0], 6)]
        exact = [e for e in exact if e != 0][:5]
        assert adjacency[0].tolist() == exact

    def test_no_self_edges(self, small_data):
        adjacency = brute_force_knng(small_data, 5, EuclideanScore())
        for i, nbrs in enumerate(adjacency):
            assert i not in nbrs

    def test_member_neighbors_o1(self, small_data):
        index = KnngIndex(graph_k=5).build(small_data)
        nbrs = index.member_neighbors(10)
        assert len(nbrs) == 5

    def test_k_larger_than_n(self):
        data = np.random.default_rng(0).standard_normal((4, 3)).astype(np.float32)
        adjacency = brute_force_knng(data, 10, EuclideanScore())
        assert all(len(a) == 3 for a in adjacency)


class TestNnDescent:
    def test_converges_to_high_graph_recall(self, small_data):
        exact = brute_force_knng(small_data, 10, EuclideanScore())
        result = nn_descent(small_data, 10, EuclideanScore(), max_iterations=8,
                            seed=0)
        assert knng_recall(result.neighbor_ids, exact) > 0.9

    def test_cheaper_than_brute_force(self):
        """NN-Descent's cost advantage is asymptotic: the local join costs
        ~n*K^2 per effective round, so it needs n >> K^2 to win."""
        from repro.bench.datasets import gaussian_mixture

        n = 600
        data = gaussian_mixture(n=n, dim=12, num_clusters=6, seed=7).train
        result = nn_descent(data, 8, EuclideanScore(), max_iterations=8, seed=0)
        assert result.distance_computations < n * n

    def test_forest_init_starts_better(self, small_data):
        exact = brute_force_knng(small_data, 8, EuclideanScore())
        random_init = nn_descent(small_data, 8, EuclideanScore(),
                                 max_iterations=1, init="random", seed=0)
        forest_init = nn_descent(small_data, 8, EuclideanScore(),
                                 max_iterations=1, init="forest", seed=0)
        assert knng_recall(forest_init.neighbor_ids, exact) >= knng_recall(
            random_init.neighbor_ids, exact
        ) - 0.02

    def test_neighbor_lists_sorted(self, small_data):
        result = nn_descent(small_data, 6, EuclideanScore(), max_iterations=3)
        for row in result.neighbor_dists:
            assert (np.diff(row) >= -1e-9).all()

    def test_updates_decay(self, small_data):
        result = nn_descent(small_data, 8, EuclideanScore(), max_iterations=8,
                            seed=0)
        ups = result.updates_per_iteration
        assert ups[-1] < ups[0]

    def test_invalid_init(self, small_data):
        with pytest.raises(ValueError):
            nn_descent(small_data, 4, EuclideanScore(), init="psychic")

    def test_index_wrapper(self, small_data, small_queries):
        index = NnDescentIndex(graph_k=8, max_iterations=4).build(small_data)
        assert index.result.iterations >= 1
        assert len(index.search(small_queries[0], 5)) == 5


class TestNswHnsw:
    def test_hnsw_level_distribution_decays(self, small_data):
        index = HnswIndex(m=8, seed=0).build(small_data)
        hist = index.level_histogram()
        assert hist[0] > hist.get(1, 0) > hist.get(2, -1)

    def test_hnsw_layer0_contains_all(self, small_data):
        index = HnswIndex(m=8, seed=0).build(small_data)
        assert len(index.layer_adjacency(0)) == 300

    def test_hnsw_degree_bounded(self, small_data):
        index = HnswIndex(m=8, seed=0).build(small_data)
        for node, nbrs in index.layer_adjacency(0).items():
            assert len(nbrs) <= index.max_degree0

    def test_hnsw_ef_recall_monotonic(self, small_data, small_queries,
                                      ground_truth_10):
        index = HnswIndex(m=8, ef_construction=48, seed=0).build(small_data)

        def recall(ef):
            got = []
            for qi, q in enumerate(small_queries):
                hits = index.search(q, 10, ef_search=ef)
                truth = set(int(t) for t in ground_truth_10[qi])
                got.append(len(truth.intersection(h.id for h in hits)) / 10)
            return float(np.mean(got))

        assert recall(64) >= recall(10) - 1e-9

    def test_hnsw_rejects_m1(self):
        with pytest.raises(ValueError):
            HnswIndex(m=1)


class TestNgt:
    def test_tree_seeds_are_near_query(self, small_data, small_queries):
        from repro.index import NgtIndex

        index = NgtIndex(edge_size=8, seed=0).build(small_data)
        entries = index._entry_points(small_queries[0])
        assert 1 <= len(entries) <= 3
        # Seeds should be closer than a random node on average.
        from repro.scores import EuclideanScore

        score = EuclideanScore()
        seed_d = score.distances(
            small_queries[0], small_data[np.asarray(entries)]
        ).mean()
        all_d = score.distances(small_queries[0], small_data).mean()
        assert seed_d < all_d

    def test_degree_capped(self, small_data):
        from repro.index import NgtIndex

        index = NgtIndex(edge_size=8, max_degree=12, seed=0).build(small_data)
        assert index.degree_stats()["max_degree"] <= 12

    def test_validation(self):
        from repro.index import NgtIndex

        with pytest.raises(ValueError):
            NgtIndex(edge_size=0)


class TestMsnFamily:
    def test_nsg_connected_from_navigating_node(self, small_data):
        index = NsgIndex(max_degree=10, knng_k=10, seed=0).build(small_data)
        seen = {index.entry_point}
        stack = [index.entry_point]
        while stack:
            for nb in index.adjacency[stack.pop()]:
                if int(nb) not in seen:
                    seen.add(int(nb))
                    stack.append(int(nb))
        assert len(seen) == 300

    def test_nsg_degree_bounded(self, small_data):
        index = NsgIndex(max_degree=10, knng_k=10, seed=0).build(small_data)
        assert index.degree_stats()["max_degree"] <= 10 + 1  # +1 connectivity repair

    def test_vamana_alpha_validation(self):
        with pytest.raises(ValueError):
            VamanaIndex(alpha=0.5)

    def test_vamana_alpha_keeps_more_edges(self, small_data):
        """alpha > 1 relaxes the occlusion rule, so fewer candidates are
        pruned and the graph is denser (DiskANN's long-edge retention)."""
        tight = VamanaIndex(max_degree=10, alpha=1.0, seed=0).build(small_data)
        loose = VamanaIndex(max_degree=10, alpha=1.4, seed=0).build(small_data)
        assert (
            loose.degree_stats()["mean_degree"]
            >= tight.degree_stats()["mean_degree"] * 0.95
        )

    def test_fanng_trials_improve_monotonicity(self, small_data):
        few = FanngIndex(num_trials=50, init_knng_k=4, seed=0).build(small_data)
        many = FanngIndex(num_trials=2000, init_knng_k=4, seed=0).build(small_data)
        assert many.monotonicity_rate(100) >= few.monotonicity_rate(100) - 0.05

    def test_fanng_records_failures(self, small_data):
        index = FanngIndex(num_trials=500, init_knng_k=4, seed=0).build(small_data)
        assert index.edges_added == index.failed_trials
