"""NN-Descent (KGraph [36]) and EFANNA-style initialization (§2.2).

NN-Descent approximates the KNNG far below the O(N^2) brute-force cost
by iterative refinement: "a neighbor of a neighbor is likely a
neighbor".  Each round performs a *local join* — for every node, pairs
drawn from its current neighbors (and reverse neighbors) are compared
and better edges replace worse ones — until updates dry up.

EFANNA's improvement is the starting point: instead of a random graph,
initialize from a forest of randomized k-d trees (points sharing a leaf
are likely neighbors), which cuts the rounds needed to converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scores import Score
from ._graph import Adjacency
from ._kernels import topk_indices
from ._tree import build_tree
from .graph_base import GraphIndex
from .randkd import _random_top_axis_split


@dataclass
class NnDescentResult:
    """Adjacency plus convergence diagnostics."""

    neighbor_ids: np.ndarray  # (n, k) sorted by distance
    neighbor_dists: np.ndarray  # (n, k)
    iterations: int
    distance_computations: int
    updates_per_iteration: list[int]

    def to_adjacency(self) -> Adjacency:
        return [np.asarray(row, dtype=np.int64) for row in self.neighbor_ids]


def _random_init(
    n: int, k: int, vectors: np.ndarray, score: Score, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    comps = 0
    for i in range(n):
        choices = rng.choice(n - 1, size=k, replace=False)
        choices[choices >= i] += 1  # skip self
        d = score.distances(vectors[i], vectors[choices])
        comps += k
        order = np.argsort(d, kind="stable")
        ids[i] = choices[order]
        dists[i] = d[order]
    return ids, dists, comps


def _forest_init(
    n: int,
    k: int,
    vectors: np.ndarray,
    score: Score,
    rng: np.random.Generator,
    num_trees: int,
    leaf_size: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """EFANNA-style: neighbors initialized from kd-forest leaf co-members."""
    candidate_sets: list[set[int]] = [set() for _ in range(n)]
    split = _random_top_axis_split(top_axes=5)
    positions = np.arange(n, dtype=np.int64)
    for t in range(num_trees):
        tree_rng = np.random.default_rng(rng.integers(2**31))
        root = build_tree(positions, vectors.astype(np.float64), split, leaf_size, tree_rng)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                members = node.positions
                for m in members:
                    candidate_sets[int(m)].update(int(x) for x in members if x != m)
            else:
                stack.extend((node.left, node.right))

    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    comps = 0
    for i in range(n):
        cands = np.fromiter(candidate_sets[i], dtype=np.int64, count=len(candidate_sets[i]))
        if cands.size < k:  # pad with random distinct nodes
            pad = rng.choice(n - 1, size=k - cands.size + 1, replace=False)
            pad[pad >= i] += 1
            cands = np.unique(np.concatenate([cands, pad]))
            cands = cands[cands != i]
        d = score.distances(vectors[i], vectors[cands])
        comps += cands.size
        order = topk_indices(d, k)
        ids[i] = cands[order]
        dists[i] = d[order]
    return ids, dists, comps


def nn_descent(
    vectors: np.ndarray,
    k: int,
    score: Score,
    max_iterations: int = 10,
    sample_rate: float = 1.0,
    termination_delta: float = 0.001,
    init: str = "random",
    num_trees: int = 4,
    leaf_size: int = 16,
    seed: int = 0,
) -> NnDescentResult:
    """Approximate the KNNG by iterative local joins.

    Parameters
    ----------
    sample_rate:
        Fraction of each node's neighborhood joined per round (rho in
        the paper); 1.0 joins the full neighborhood.
    termination_delta:
        Stop when updates per round fall below ``delta * n * k``.
    init:
        ``"random"`` (KGraph) or ``"forest"`` (EFANNA).
    """
    vectors = np.asarray(vectors)
    n = vectors.shape[0]
    if n == 0:
        return NnDescentResult(
            np.empty((0, 0), np.int64), np.empty((0, 0)), 0, 0, []
        )
    k = min(k, n - 1)
    if k <= 0:
        return NnDescentResult(
            np.empty((n, 0), np.int64), np.empty((n, 0)), 0, 0, []
        )
    rng = np.random.default_rng(seed)
    if init == "forest":
        ids, dists, comps = _forest_init(
            n, k, vectors, score, rng, num_trees, leaf_size
        )
    elif init == "random":
        ids, dists, comps = _random_init(n, k, vectors, score, rng)
    else:
        raise ValueError(f"unknown init {init!r}")

    is_new = np.ones((n, k), dtype=bool)
    updates_history: list[int] = []
    iterations = 0

    def try_insert(node: int, cand: int, dist: float) -> int:
        """Insert cand into node's sorted list if it improves; dedupe."""
        row_ids = ids[node]
        if dist >= dists[node, -1] or cand == node:
            return 0
        if cand in row_ids:
            return 0
        pos = int(np.searchsorted(dists[node], dist))
        ids[node, pos + 1 :] = ids[node, pos:-1]
        dists[node, pos + 1 :] = dists[node, pos:-1]
        is_new[node, pos + 1 :] = is_new[node, pos:-1]
        ids[node, pos] = cand
        dists[node, pos] = dist
        is_new[node, pos] = True
        return 1

    for iterations in range(1, max_iterations + 1):
        # Reverse neighborhoods for the general join, split by edge
        # freshness (Dong et al.'s new/old distinction — joining only
        # pairs with at least one *new* member is what keeps rounds
        # cheap once the graph has mostly converged).
        reverse_new: list[list[int]] = [[] for _ in range(n)]
        reverse_old: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j, fresh in zip(ids[i], is_new[i]):
                (reverse_new if fresh else reverse_old)[int(j)].append(i)

        total_updates = 0
        for i in range(n):
            fwd_new = ids[i][is_new[i]]
            fwd_old = ids[i][~is_new[i]]
            rev_new = np.asarray(reverse_new[i], dtype=np.int64)
            rev_old = np.asarray(reverse_old[i], dtype=np.int64)
            if sample_rate < 1.0:
                if rev_new.size:
                    take = max(1, int(rev_new.size * sample_rate))
                    rev_new = rng.choice(rev_new, size=take, replace=False)
                if rev_old.size:
                    take = max(1, int(rev_old.size * sample_rate))
                    rev_old = rng.choice(rev_old, size=take, replace=False)
            new_part = np.unique(np.concatenate([fwd_new, rev_new]))
            old_part = np.unique(np.concatenate([fwd_old, rev_old]))
            old_part = np.setdiff1d(old_part, new_part, assume_unique=True)
            is_new[i] = False
            if new_part.size == 0:
                continue
            # Local join: new x new and new x old.
            for group in (new_part, old_part):
                if group.size == 0:
                    continue
                dmat = score.pairwise(vectors[new_part], vectors[group])
                comps += dmat.size
                for a_idx, a in enumerate(new_part):
                    for b_idx, b in enumerate(group):
                        a_i, b_i = int(a), int(b)
                        if a_i >= b_i and group is new_part:
                            continue  # each unordered pair once
                        if a_i == b_i:
                            continue
                        d = float(dmat[a_idx, b_idx])
                        total_updates += try_insert(a_i, b_i, d)
                        total_updates += try_insert(b_i, a_i, d)
        updates_history.append(total_updates)
        if total_updates <= termination_delta * n * k:
            break

    return NnDescentResult(
        neighbor_ids=ids,
        neighbor_dists=dists,
        iterations=iterations,
        distance_computations=comps,
        updates_per_iteration=updates_history,
    )


def knng_recall(approx_ids: np.ndarray, exact: Adjacency) -> float:
    """Fraction of true KNNG edges recovered by an approximate graph."""
    hits = 0
    total = 0
    for i, truth in enumerate(exact):
        t = set(int(x) for x in truth)
        if not t:
            continue
        hits += len(t.intersection(int(x) for x in approx_ids[i][: len(t)]))
        total += len(t)
    return hits / total if total else 1.0


class NnDescentIndex(GraphIndex):
    """A searchable index over the NN-Descent graph.

    Parameters
    ----------
    graph_k:
        Neighbor-list width.
    init:
        ``"random"`` (KGraph) or ``"forest"`` (EFANNA initialization).
    """

    name = "nndescent"

    def __init__(
        self,
        score: Score | str = "l2",
        graph_k: int = 16,
        max_iterations: int = 10,
        init: str = "random",
        ef_search: int = 64,
        num_entry_points: int = 4,
        seed: int = 0,
    ):
        super().__init__(score, ef_search=ef_search, seed=seed)
        self.graph_k = graph_k
        self.max_iterations = max_iterations
        self.init = init
        self.num_entry_points = num_entry_points
        self.result: NnDescentResult | None = None

    def _build_graph(self) -> Adjacency:
        self.result = nn_descent(
            self._vectors,
            self.graph_k,
            self.score,
            max_iterations=self.max_iterations,
            init=self.init,
            seed=self.seed,
        )
        return self.result.to_adjacency()
