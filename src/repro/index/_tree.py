"""Shared machinery for tree-based indexes (§2.2, tree-based).

Every tree index in the tutorial — k-d tree, PCA/PKD tree, FLANN's
randomized k-d forest, RP-tree, ANNOY — is a recursive binary space
partition differing only in *how a split is chosen*.  This module
factors the common parts:

* :class:`TreeNode` — internal nodes hold a hyperplane ``(w, t)`` (go
  left when ``x.w < t``); leaves hold row positions.  Axis-aligned
  splits are the special case ``w = e_axis``.
* :func:`build_tree` — generic recursive builder parameterized by a
  ``choose_split`` strategy.
* :func:`best_first_search` — priority-queue ("defeatist with
  backtracking") search: descend to the query's leaf, queue the far
  side of every split keyed by its plane distance, and keep popping
  until ``max_leaves`` leaves are visited — or, in exact mode, until
  the nearest queued plane is farther than the current k-th neighbor
  (branch-and-bound, valid for metric L2).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

# A split strategy returns (w, t) for a set of rows, or None to force a
# leaf (e.g. all points identical).
SplitFn = Callable[[np.ndarray, np.random.Generator], "tuple[np.ndarray, float] | None"]


@dataclass(slots=True)
class TreeNode:
    """One tree node; ``positions is not None`` marks a leaf."""

    positions: np.ndarray | None = None
    w: np.ndarray | None = None
    t: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.positions is not None


def build_tree(
    positions: np.ndarray,
    vectors: np.ndarray,
    choose_split: SplitFn,
    leaf_size: int,
    rng: np.random.Generator,
) -> TreeNode:
    """Recursively partition ``positions`` into a binary tree."""
    if positions.shape[0] <= leaf_size:
        return TreeNode(positions=positions)
    split = choose_split(vectors[positions], rng)
    if split is None:
        return TreeNode(positions=positions)
    w, t = split
    proj = vectors[positions] @ w
    go_left = proj < t
    # Degenerate split (all points one side): fall back to a leaf rather
    # than recursing forever.
    if go_left.all() or not go_left.any():
        return TreeNode(positions=positions)
    return TreeNode(
        w=w,
        t=t,
        left=build_tree(positions[go_left], vectors, choose_split, leaf_size, rng),
        right=build_tree(positions[~go_left], vectors, choose_split, leaf_size, rng),
    )


def tree_stats(root: TreeNode) -> dict[str, float]:
    """Depth and leaf statistics (benches E5 checks logarithmic depth)."""
    depths: list[int] = []
    leaf_sizes: list[int] = []

    def walk(node: TreeNode, depth: int) -> None:
        if node.is_leaf:
            depths.append(depth)
            leaf_sizes.append(len(node.positions))
        else:
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(root, 0)
    return {
        "num_leaves": float(len(depths)),
        "max_depth": float(max(depths)),
        "mean_depth": float(np.mean(depths)),
        "mean_leaf_size": float(np.mean(leaf_sizes)),
    }


def count_nodes(root: TreeNode) -> int:
    if root.is_leaf:
        return 1
    return 1 + count_nodes(root.left) + count_nodes(root.right)


def tree_bytes(roots: list[TreeNode], vectors: np.ndarray | None) -> int:
    """Approximate resident size of the trees under ``roots``, built over
    ``vectors`` (None: unbuilt, 0): per node a float64 hyperplane, its
    threshold and two pointers."""
    if vectors is None:
        return 0
    return sum(map(count_nodes, roots)) * (vectors.shape[1] * 8 + 32)


def best_first_search(
    roots: list[TreeNode],
    query: np.ndarray,
    max_leaves: int | None,
    exact_l2_k: "tuple[np.ndarray, int] | None" = None,
    eligible: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Collect candidate positions from one or more trees.

    Parameters
    ----------
    roots:
        Tree roots (a forest searches them through one shared queue, as
        FLANN and ANNOY do, so leaf budget flows to the most promising
        tree).
    max_leaves:
        Leaf-visit budget; ``None`` means unbounded (exact mode must set
        ``exact_l2_k``).
    exact_l2_k:
        ``(vectors, k)`` for branch-and-bound termination under L2: stop
        when the nearest unexplored plane distance exceeds the current
        k-th nearest candidate distance.
    eligible:
        Boolean mask by row position: under a predicate mask only the
        rows it keeps may tighten the exact-mode bound (the k-th
        *allowed* neighbor is what the search owes).

    Returns
    -------
    (positions, leaves_visited):
        Unique candidate row positions and the number of leaves visited.
    """
    counter = itertools.count()  # tiebreak heap entries
    heap: list[tuple[float, int, TreeNode]] = []
    for root in roots:
        heapq.heappush(heap, (0.0, next(counter), root))

    candidates: list[np.ndarray] = []
    leaves_visited = 0
    # Branch-and-bound state for exact mode.
    best_dists: np.ndarray | None = None
    if exact_l2_k is not None:
        vectors, k = exact_l2_k

    while heap:
        bound, _, node = heapq.heappop(heap)
        if exact_l2_k is not None and best_dists is not None:
            if best_dists.shape[0] >= k and bound > best_dists[k - 1]:
                break
        while not node.is_leaf:
            margin = float(query @ node.w - node.t)
            near, far = (node.left, node.right) if margin < 0 else (node.right, node.left)
            # |margin| / ||w|| is the distance to the splitting plane and a
            # lower bound on reaching anything on the far side; builders
            # keep ||w|| == 1 so no division is needed.
            heapq.heappush(heap, (max(bound, abs(margin)), next(counter), far))
            node = near
        candidates.append(node.positions)
        leaves_visited += 1
        if exact_l2_k is not None:
            gathered = np.unique(np.concatenate(candidates))
            if eligible is not None:
                gathered = gathered[eligible[gathered]]
            diff = vectors[gathered] - query
            d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            best_dists = np.sort(d)
        if max_leaves is not None and leaves_visited >= max_leaves:
            break

    if not candidates:
        return np.empty(0, dtype=np.int64), 0
    return np.unique(np.concatenate(candidates)), leaves_visited


def unit(w: np.ndarray) -> np.ndarray:
    """Normalize a direction vector (zero vectors pass through)."""
    norm = np.linalg.norm(w)
    return w / norm if norm > 0 else w
