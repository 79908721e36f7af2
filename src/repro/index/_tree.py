"""The tree family (§2.2, tree-based): one index over array forests.

Every tree index in the tutorial — k-d tree, PCA/PKD tree, FLANN's
randomized k-d forest, RP-tree, ANNOY — is a recursive binary space
partition differing only in *how a split is chosen*.  This module holds
everything else:

* :class:`Forest` — one or more trees as flat arrays.  Internal node
  ``v >= 0`` holds a hyperplane ``(w[v], t[v])`` (go left when
  ``x.w < t``) and ``children[v] = (left, right)``; a child reference
  ``c < 0`` is leaf ``~c``, whose rows are
  ``positions[offsets[~c]:offsets[~c + 1]]``.  Axis-aligned splits are
  the special case ``w = e_axis``.
* :func:`build_forest` — grows each tree from a ``choose_split`` rule.
* :func:`best_first_search` — priority-queue ("defeatist with
  backtracking") search: descend to the query's leaf, queue the far
  side of every split keyed by its plane distance, and keep popping
  until ``max_leaves`` leaves are visited — or, in exact mode, until
  the nearest queued plane is farther than the current k-th neighbor
  (branch-and-bound, valid for metric L2).
* :class:`TreeIndex` — the one tree index; a named tree index is its
  :meth:`~TreeIndex.choose_split` rule.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.types import SearchStats
from ..scores import Score
from .base import VectorIndex

# A split rule maps (a node's rows, the tree's generator, the node's depth)
# to (w, t), or to None to force a leaf (e.g. all points identical).
SplitFn = Callable[[np.ndarray, np.random.Generator, int], Any]


@dataclass(frozen=True, slots=True)
class Forest:
    """Trees as arrays (int64 references; see the module docstring)."""

    w: np.ndarray  # (internal nodes, d) float64 split directions
    t: np.ndarray  # (internal nodes,) float64 thresholds
    children: np.ndarray  # (internal nodes, 2) node references
    roots: np.ndarray  # (trees,) each tree's root reference
    tree_leaves: np.ndarray  # (trees + 1,) tree i's leaves start at tree_leaves[i]
    offsets: np.ndarray  # (leaves + 1,) leaf l's rows start at offsets[l]
    positions: np.ndarray  # leaf rows, leaf after leaf
    depths: np.ndarray  # (leaves,) depth of each leaf (root: 0)

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name in self.__slots__)

    def leaves(self) -> list[np.ndarray]:
        """Each leaf's rows, left to right, tree after tree."""
        return np.split(self.positions, self.offsets[1:-1])

    def stats(self) -> list[dict[str, float]]:
        """Depth and leaf statistics, one entry per tree (bench E5 checks
        logarithmic depth)."""
        return [
            {
                "num_leaves": float(hi - lo),
                "max_depth": float(self.depths[lo:hi].max()),
                "mean_depth": float(np.mean(self.depths[lo:hi])),
                "mean_leaf_size": float(np.mean(np.diff(self.offsets[lo : hi + 1]))),
            }
            for lo, hi in zip(self.tree_leaves[:-1], self.tree_leaves[1:])
        ]


def build_forest(
    vectors: np.ndarray, choose_split: SplitFn, leaf_size: int, rngs: list
) -> Forest:
    """Grow one tree over all rows of ``vectors`` per generator in
    ``rngs``.  Each tree grows left-first — a node draws its split from
    the tree's generator before either subtree does — so the draws come
    in the order of a recursive build.  A node of at most ``leaf_size``
    rows, one the rule declines, or one whose split sends every row one
    way (which would recurse forever) is a leaf."""
    w, t, children, roots, leaf_rows, depths = [], [], [], [], [], []
    tree_leaves = [0]
    every_row = np.arange(vectors.shape[0], dtype=np.int64)
    for rng in rngs:
        roots.append(0)
        # (rows, depth, the list holding this node's reference, its slot)
        stack = [(every_row, 0, roots, len(roots) - 1)]
        while stack:
            positions, depth, parent, slot = stack.pop()
            go_left = None
            if positions.shape[0] > leaf_size:
                rows = vectors[positions]
                split = choose_split(rows, rng, depth)
                if split is not None:
                    go_left = rows @ split[0] < split[1]
                    if go_left.all() or not go_left.any():
                        go_left = None
            if go_left is None:
                parent[slot] = ~len(leaf_rows)
                leaf_rows.append(positions)
                depths.append(depth)
                continue
            parent[slot] = len(w)
            w.append(split[0])
            t.append(split[1])
            children.append([0, 0])
            stack.append((positions[~go_left], depth + 1, children[-1], 1))
            stack.append((positions[go_left], depth + 1, children[-1], 0))
        tree_leaves.append(len(leaf_rows))
    sizes = [rows.shape[0] for rows in leaf_rows]
    return Forest(
        w=np.array(w, dtype=np.float64).reshape(len(w), vectors.shape[1]),
        t=np.array(t, dtype=np.float64),
        children=np.array(children, dtype=np.int64).reshape(len(children), 2),
        roots=np.array(roots, dtype=np.int64),
        tree_leaves=np.array(tree_leaves, dtype=np.int64),
        offsets=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        positions=np.concatenate(leaf_rows),
        depths=np.array(depths, dtype=np.int64),
    )


def best_first_search(
    forest: Forest,
    query: np.ndarray,
    max_leaves: int | None,
    exact_l2_k: "tuple[np.ndarray, int] | None" = None,
    eligible: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """``(positions, leaves_visited)``: the unique candidate row positions
    from the trees of ``forest`` and the number of leaves visited.  All
    trees share one queue, as FLANN and ANNOY do, so the leaf budget
    flows to the most promising tree.

    ``max_leaves`` is the leaf-visit budget; None means unbounded (exact
    mode must set ``exact_l2_k``).  ``exact_l2_k = (vectors, k)`` stops
    the search under L2 once the nearest unexplored plane is farther than
    the k-th nearest candidate (branch-and-bound).  Only the k nearest
    distances are kept; each leaf merges in its rows not seen before (a
    forest holds every row once per tree).  Under ``eligible`` (a boolean
    mask by row position) only the rows it keeps may tighten that bound:
    the k-th *allowed* neighbor is what the search owes.
    """
    counter = itertools.count()  # tiebreak heap entries
    heap = [(0.0, next(counter), int(root)) for root in forest.roots]
    w, threshold, child = forest.w, forest.t.item, forest.children.item
    offsets = forest.offsets
    exact = exact_l2_k is not None
    if exact:
        vectors, k = exact_l2_k
        seen = np.zeros(vectors.shape[0], dtype=bool)
        best = np.empty(0)  # the k nearest eligible distances, ascending

    candidates: list[np.ndarray] = []
    while heap:
        bound, _, node = heapq.heappop(heap)
        if exact and best.shape[0] >= k and bound > best[k - 1]:
            break
        while node >= 0:
            margin = float(query @ w[node]) - threshold(node)
            side = 0 if margin < 0 else 1  # the near child: left when x.w < t
            # |margin| / ||w|| is the distance to the splitting plane and a
            # lower bound on reaching anything on the far side; split rules
            # keep ||w|| == 1 so no division is needed.
            far = child(node, 1 - side)
            heapq.heappush(heap, (max(bound, abs(margin)), next(counter), far))
            node = child(node, side)
        rows = forest.positions[offsets[~node] : offsets[~node + 1]]
        candidates.append(rows)
        if exact:
            keep = ~seen[rows]
            seen[rows] = True
            if eligible is not None:
                keep &= eligible[rows]
            diff = vectors.take(rows[keep], axis=0) - query
            d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            best = np.sort(np.concatenate([best, d]))[:k]
        if max_leaves is not None and len(candidates) >= max_leaves:
            break
    return np.unique(np.concatenate(candidates)), len(candidates)


def unit(w: np.ndarray) -> np.ndarray:
    """Normalize a direction vector (zero vectors pass through)."""
    norm = np.linalg.norm(w)
    return w / norm if norm > 0 else w


class TreeIndex(VectorIndex):
    """A forest of ``num_trees`` hyperplane trees (tree ``i`` draws from
    ``np.random.default_rng(seed + i)``) with at most ``leaf_size`` rows a
    leaf, searched through one queue under a budget of ``max_leaves``
    leaves a query (None: exact branch-and-bound, L2 only).  Subclasses
    give the split rule (:meth:`choose_split`); build, search, stats and
    memory are shared here.
    """

    family = "tree"
    #: the search keyword that overrides ``max_leaves`` for one query
    budget_param = "max_leaves"

    def __init__(self, score: Score | str, num_trees: int, leaf_size: int,
                 max_leaves: int | None, seed: int):
        super().__init__(score)
        if num_trees <= 0:
            raise ValueError("num_trees must be positive")
        if leaf_size <= 0:
            raise ValueError("leaf_size must be positive")
        if max_leaves is None and self.score.name not in ("l2", "sqeuclidean"):
            # The exact bound prunes by L2 distance to the split planes:
            # under any other order it drops true neighbors.
            raise ValueError(
                f"max_leaves=None (exact search) needs an L2-ordered score, "
                f"not {self.score.name!r}: give max_leaves a leaf budget"
            )
        self.num_trees = num_trees
        self.leaf_size = leaf_size
        self.max_leaves = max_leaves
        self.seed = seed
        self._forest: Forest | None = None

    @abc.abstractmethod
    def choose_split(self, rows: np.ndarray, rng: np.random.Generator, depth: int):
        """The split of a node holding ``rows`` (float64) at ``depth``: a
        unit direction and a threshold, or None for a leaf (a :data:`SplitFn`)."""

    def _prepare(self, data: np.ndarray) -> None:
        """Hook run on the float64 rows before the trees grow."""

    def _build(self) -> None:
        data = self._vectors.astype(np.float64)
        self._prepare(data)
        rngs = [np.random.default_rng(self.seed + i) for i in range(self.num_trees)]
        self._forest = build_forest(data, self.choose_split, self.leaf_size, rngs)

    def _probe(self, query: np.ndarray, k: int, allowed: np.ndarray | None,
               stats: SearchStats, **params: Any):
        budget = params.pop(self.budget_param, None)
        if params:
            raise TypeError(f"{type(self).__name__}.search got unknown params {sorted(params)}")
        budget = self.max_leaves if budget is None else budget
        q = query.astype(np.float64)
        if budget is None:
            # Branch-and-bound needs a metric; only L2 qualifies here.
            # Under a predicate mask the bound is the k-th *allowed*
            # neighbor, so only rows the mask keeps may tighten it.
            eligible = None if allowed is None else allowed[self._ids]
            positions, leaves = best_first_search(
                self._forest, q, None, (self._vectors, k), eligible
            )
        else:
            positions, leaves = best_first_search(self._forest, q, max(1, budget))
        stats.nodes_visited += leaves
        return positions, None, 0

    def stats(self) -> list[dict[str, float]]:
        """Tree shape statistics, one entry per tree (depth should be
        ~log2(n/leaf_size))."""
        self._require_built()
        return self._forest.stats()

    def memory_bytes(self) -> int:
        return 0 if self._forest is None else self._forest.nbytes
