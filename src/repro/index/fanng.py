"""FANNG [47] — MSN construction by random search trials (§2.2).

Where NSG routes every construction search through one navigating node,
FANNG "performs a large number of search trials over random node pairs":
pick random (source, target), run greedy best-first from the source
toward the target's vector, and if the search gets stuck before reaching
the target, add an edge from the stuck node to the target.  New edges
are kept in occlusion-pruned order so degree stays bounded.

The trial count trades construction time for monotonicity; bench E6
sweeps it.
"""

from __future__ import annotations

import numpy as np

from ..scores import Score
from ._graph import greedy_walk, link, pack_slots
from .graph_base import GraphIndex
from .nndescent import nn_descent


class FanngIndex(GraphIndex):
    """Search-trial-constructed MSN approximation.

    Parameters
    ----------
    max_degree:
        Degree cap enforced by occlusion pruning.
    num_trials:
        Random (source, target) search trials.  The paper runs a large
        multiple of N; we default to 4N (set at build time when None).
    init_knng_k:
        Seed graph width (a small NN-Descent KNNG); 0 starts empty.
    """

    name = "fanng"
    num_entry_points = 2  # searches restart from two random nodes beside the medoid

    def __init__(
        self,
        score: Score | str = "l2",
        max_degree: int = 16,
        num_trials: int | None = None,
        init_knng_k: int = 8,
        ef_search: int = 64,
        seed: int = 0,
    ):
        super().__init__(score, ef_search=ef_search, seed=seed)
        self.max_degree = max_degree
        self.num_trials = num_trials
        self.init_knng_k = init_knng_k
        self.failed_trials = 0
        self.edges_added = 0

    def _build_graph(self) -> tuple[np.ndarray, np.ndarray]:
        n = self._vectors.shape[0]
        if n <= 1:
            return pack_slots([np.empty(0, dtype=np.int64)] * n)
        if self.init_knng_k > 0:
            adjacency = nn_descent(
                self._vectors,
                min(self.init_knng_k, n - 1),
                self.score,
                seed=self.seed,
            ).to_adjacency()
        else:
            adjacency = [np.empty(0, dtype=np.int64) for _ in range(n)]

        rng = np.random.default_rng(self.seed)
        trials = self.num_trials if self.num_trials is not None else 4 * n
        self.failed_trials = 0
        for _ in range(trials):
            source = int(rng.integers(n))
            target = int(rng.integers(n))
            if source == target:
                continue
            stuck, _, _ = greedy_walk(
                self._vectors[target], self._vectors, adjacency, source, self.score
            )
            if stuck != target:
                # No monotonic path: patch the graph where the walk stalled.
                self.failed_trials += 1
                link(
                    adjacency, stuck, target, self._vectors, self.max_degree,
                    self.score,
                )
                self.edges_added += 1
        return pack_slots(adjacency)

    def monotonicity_rate(self, num_trials: int = 200, seed: int = 1) -> float:
        """Fraction of random pairs with a working greedy path (diagnostic)."""
        self._require_built()
        n = self._vectors.shape[0]
        if n <= 1:
            return 1.0
        rng = np.random.default_rng(seed)
        ok = 0
        for _ in range(num_trials):
            source, target = int(rng.integers(n)), int(rng.integers(n))
            if source == target:
                ok += 1
                continue
            stuck, _, _ = greedy_walk(
                self._vectors[target], self._vectors, self._adjacency, source, self.score
            )
            ok += stuck == target
        return ok / num_trials
