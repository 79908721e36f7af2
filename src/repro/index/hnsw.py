"""Hierarchical navigable small world graph (HNSW) [58] (§2.2).

HNSW fixes NSW's local-minimum problem with layers: each node draws a
maximum layer from an exponentially decaying distribution, upper layers
form sparse long-range graphs, and a query greedily descends layer by
layer before running a beam search on the dense bottom layer.  Degree
explosion is avoided by capping per-layer degree and pruning with the
*heuristic neighbor selection* of Algorithm 4 (an occlusion rule, the
same idea NSG/Vamana use).

This is the index most VDBMSs ship as their default (§2.4), so it also
backs our system presets.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..core.types import SearchHit, SearchStats
from ..scores import Score
from ._graph import beam_search, greedy_walk
from ._kernels import CSRAdjacency
from .base import VectorIndex

# A layer's adjacency: node position -> neighbor positions.
Layer = dict[int, np.ndarray]


class HnswIndex(VectorIndex):
    """Hierarchical NSW with heuristic neighbor selection.

    Parameters
    ----------
    m:
        Target degree (M).  Layer 0 allows 2M (Mmax0, as in the paper).
    ef_construction:
        Beam width while inserting.
    ef_search:
        Default beam width at query time (>= k).
    level_multiplier:
        mL; defaults to 1/ln(M) per the paper.
    """

    name = "hnsw"
    family = "graph"
    supports_updates = True

    def __init__(
        self,
        score: Score | str = "l2",
        m: int = 16,
        ef_construction: int = 100,
        ef_search: int = 64,
        level_multiplier: float | None = None,
        seed: int = 0,
    ):
        super().__init__(score)
        if m <= 1:
            raise ValueError("m must be > 1")
        self.m = m
        self.max_degree0 = 2 * m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.level_multiplier = (
            level_multiplier if level_multiplier is not None else 1.0 / math.log(m)
        )
        self.seed = seed
        self._layers: list[Layer] = []
        self._node_levels: np.ndarray | None = None
        self._entry: int = -1
        self._csr0: CSRAdjacency | None = None
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ build

    def _draw_level(self) -> int:
        u = float(self._rng.uniform(1e-12, 1.0))
        return int(-math.log(u) * self.level_multiplier)

    def _select_neighbors_heuristic(
        self, candidates: list[tuple[float, int]], max_degree: int
    ) -> list[int]:
        """Algorithm 4: keep a candidate only if it is closer to the base
        point than to every neighbor already kept (occlusion pruning)."""
        kept: list[int] = []
        kept_vecs: list[np.ndarray] = []
        for dist, cand in sorted(candidates):
            if len(kept) >= max_degree:
                break
            if kept:
                d_to_kept = self.score.distances(
                    self._vectors[cand], np.asarray(kept_vecs)
                )
                if (d_to_kept < dist).any():
                    continue
            kept.append(cand)
            kept_vecs.append(self._vectors[cand])
        if not kept and candidates:  # never leave a node isolated
            kept = [min(candidates)[1]]
        return kept

    def _layer_neighbors(self, layer: int):
        table = self._layers[layer]
        empty = np.empty(0, dtype=np.int64)
        return lambda node: table.get(node, empty)

    def _bottom_csr(self) -> CSRAdjacency:
        """Layer 0 packed as CSR (built lazily, dropped on insert)."""
        if self._csr0 is None:
            table = self._layers[0] if self._layers else {}
            empty = np.empty(0, dtype=np.int64)
            self._csr0 = CSRAdjacency.from_lists(
                [table.get(i, empty) for i in range(self._vectors.shape[0])]
            )
        return self._csr0

    def _shrink(self, node: int, layer: int, max_degree: int) -> None:
        """Re-prune a node whose degree overflowed after a back-edge."""
        table = self._layers[layer]
        neighbors = table[node]
        if neighbors.shape[0] <= max_degree:
            return
        dists = self.score.distances(self._vectors[node], self._vectors[neighbors])
        pairs = [(float(d), int(p)) for d, p in zip(dists, neighbors)]
        table[node] = np.asarray(
            self._select_neighbors_heuristic(pairs, max_degree), dtype=np.int64
        )

    def _insert(self, pos: int) -> None:
        level = self._draw_level()
        while len(self._layers) <= level:
            self._layers.append({})
        self._levels_list.append(level)
        for l in range(level + 1):
            self._layers[l].setdefault(pos, np.empty(0, dtype=np.int64))

        if self._entry < 0:
            self._entry = pos
            self._top_level = level
            return

        query = self._vectors[pos]
        current = self._entry
        # Phase 1: greedy descent through layers above the node's level.
        for l in range(self._top_level, level, -1):
            current, _, _ = greedy_walk(
                query, self._vectors, self._layer_neighbors(l), current, self.score
            )
        # Phase 2: beam search + connect on each layer from min(level, top) down.
        for l in range(min(level, self._top_level), -1, -1):
            pairs = beam_search(
                query,
                self._vectors,
                self._layer_neighbors(l),
                [current],
                self.ef_construction,
                self.score,
            )
            max_degree = self.max_degree0 if l == 0 else self.m
            chosen = self._select_neighbors_heuristic(
                [(d, p) for d, p in pairs if p != pos], self.m
            )
            table = self._layers[l]
            table[pos] = np.asarray(chosen, dtype=np.int64)
            for nb in chosen:
                table[nb] = np.append(table.get(nb, np.empty(0, dtype=np.int64)), pos)
                if table[nb].shape[0] > max_degree:
                    self._shrink(nb, l, max_degree)
            if pairs:
                current = pairs[0][1]

        if level > self._top_level:
            self._top_level = level
            self._entry = pos

    def _build(self) -> None:
        self._layers = []
        self._levels_list: list[int] = []
        self._entry = -1
        self._top_level = -1
        self._rng = np.random.default_rng(self.seed)
        for pos in range(self._vectors.shape[0]):
            self._insert(pos)
        self._csr0 = None
        self._node_levels = np.asarray(self._levels_list, dtype=np.int64)

    def add(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        start, matrix = self._append(vectors, ids)
        for offset in range(matrix.shape[0]):
            self._insert(start + offset)
        self._csr0 = None
        self._node_levels = np.asarray(self._levels_list, dtype=np.int64)

    # ----------------------------------------------------------------- search

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        ef_search: int | None = None,
        **params: Any,
    ) -> list[SearchHit]:
        if params:
            raise TypeError(f"HnswIndex.search got unknown params {sorted(params)}")
        if self._entry < 0:
            return []
        ef = max(k, ef_search if ef_search is not None else self.ef_search)
        current = self._entry
        for l in range(self._top_level, 0, -1):
            current, _, _ = greedy_walk(
                query, self._vectors, self._layer_neighbors(l), current, self.score,
                stats=stats,
            )
        pairs = beam_search(
            query,
            self._vectors,
            self._bottom_csr(),
            [current],
            ef,
            self.score,
            stats=stats,
            allowed=allowed,
            ids=self._ids,
        )
        stats.candidates_examined += len(pairs)
        return [SearchHit(int(self._ids[p]), float(d)) for d, p in pairs[:k]]

    # ------------------------------------------------------------ diagnostics

    @property
    def num_layers(self) -> int:
        return len(self._layers)

    def level_histogram(self) -> dict[int, int]:
        """Node count per maximum level (should decay ~exponentially)."""
        self._require_built()
        values, counts = np.unique(self._node_levels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def layer_adjacency(self, layer: int) -> Layer:
        """Raw adjacency of one layer (used by hybrid visit-first scan)."""
        self._require_built()
        return self._layers[layer]

    @property
    def bottom_layer(self):
        """Callable position -> neighbors on layer 0 (CSR-backed)."""
        self._require_built()
        return self._bottom_csr()

    @property
    def entry_point(self) -> int:
        self._require_built()
        return self._entry

    def memory_bytes(self) -> int:
        return sum(
            arr.nbytes + 16 for layer in self._layers for arr in layer.values()
        )
