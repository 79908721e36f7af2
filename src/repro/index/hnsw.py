"""Hierarchical navigable small world graph (HNSW) [58] (§2.2).

HNSW fixes NSW's local-minimum problem with layers: each node draws a
maximum layer from an exponentially decaying distribution, upper layers
form sparse long-range graphs, and a query greedily descends layer by
layer before running a beam search on the dense bottom layer.  Degree
explosion is avoided by capping per-layer degree and pruning with the
*heuristic neighbor selection* of Algorithm 4 — the occlusion rule
NSG/Vamana use, :func:`~repro.index._graph.robust_prune` at alpha = 1.

In this codebase that makes HNSW a :class:`GraphIndex` whose seed rule
is the layered descent: layer 0 *is* the family's adjacency (searched,
packed and masked by the base), and the upper layers exist only to pick
the node the bottom-layer beam starts from.

This is the index most VDBMSs ship as their default (§2.4), so it also
backs our system presets.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.types import SearchStats
from ..scores import Score
from ._graph import Adjacency, beam_search, greedy_walk, link, select_edges
from .graph_base import GraphIndex

# An upper layer's adjacency: node position -> neighbor positions.
Layer = dict[int, np.ndarray]


class HnswIndex(GraphIndex):
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

    def __init__(
        self,
        score: Score | str = "l2",
        m: int = 16,
        ef_construction: int = 100,
        ef_search: int = 64,
        level_multiplier: float | None = None,
        seed: int = 0,
    ):
        super().__init__(score, ef_search=ef_search, seed=seed)
        if m <= 1:
            raise ValueError("m must be > 1")
        self.m = m
        self.max_degree0 = 2 * m
        self.ef_construction = ef_construction
        self.level_multiplier = (
            level_multiplier if level_multiplier is not None else 1.0 / math.log(m)
        )
        #: Layers >= 1 (``_upper[l - 1]`` is layer l): sparse tables over
        #: the nodes that drew a level >= l.  Layer 0 is ``_adjacency``.
        self._upper: list[Layer] = []
        self._levels: list[int] = []
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ build

    def _draw_level(self) -> int:
        u = float(self._rng.uniform(1e-12, 1.0))
        return int(-math.log(u) * self.level_multiplier)

    def _descend(self, query: np.ndarray, stop: int, stats=None) -> int:
        """Greedy walk from the entry point down through every layer
        above ``stop``; the node the walk ends on."""
        current, key, aux = self._entry_point, None, self._key_aux()
        for l in range(len(self._upper), stop, -1):
            # The walk hands its running key down: each layer scores its
            # neighbor lists once and never the node it arrived on.
            current, key, _ = greedy_walk(
                query, self._vectors, self._upper[l - 1], current, self.score,
                stats=stats, aux=aux, start_key=key,
            )
        return current

    def _insert(self, pos: int) -> None:
        level = self._draw_level()
        self._levels.append(level)
        query = self._vectors[pos]
        top = len(self._upper)  # the entry point's level
        # Phase 1: greedy descent through layers above the node's level.
        current = self._descend(query, level)
        self._adjacency.append(np.empty(0, dtype=np.int64))
        while len(self._upper) < level:
            self._upper.append({})
        for l in range(level):
            self._upper[l][pos] = np.empty(0, dtype=np.int64)
        if pos == 0:
            self._entry_point = pos
            return
        # Phase 2: beam search + connect on each layer from min(level, top) down.
        for l in range(min(level, top), -1, -1):
            table = self._adjacency if l == 0 else self._upper[l - 1]
            pairs = beam_search(
                query, self._vectors, table, [current], self.ef_construction,
                self.score, aux=self._key_aux(),
            )
            table[pos] = select_edges(
                pos, pairs, table, self._vectors, self.m, self.score
            )
            max_degree = self.max_degree0 if l == 0 else self.m
            for nb in table[pos]:
                link(table, int(nb), pos, self._vectors, max_degree, self.score)
            if pairs:
                current = pairs[0][1]
        if level > top:
            self._entry_point = pos

    def _build_graph(self) -> Adjacency:
        self._adjacency, self._upper, self._levels = [], [], []
        self._rng = np.random.default_rng(self.seed)
        for pos in range(self._vectors.shape[0]):
            self._insert(pos)
        return self._adjacency

    # ----------------------------------------------------------------- search

    def _entry_points(
        self, query: np.ndarray, stats: SearchStats | None = None
    ) -> list[int]:
        """The layered seed rule: descend the upper layers greedily and
        start the bottom-layer beam where the walk ends."""
        return [self._descend(query, 0, stats)]

    # ------------------------------------------------------------ diagnostics

    @property
    def num_layers(self) -> int:
        return 1 + len(self._upper) if self._adjacency else 0

    def level_histogram(self) -> dict[int, int]:
        """Node count per maximum level (should decay ~exponentially)."""
        self._require_built()
        values, counts = np.unique(self._levels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def layer_adjacency(self, layer: int) -> Layer:
        """Adjacency of one layer as a table node -> neighbors."""
        self._require_built()
        return dict(enumerate(self._adjacency)) if layer == 0 else self._upper[layer - 1]

    def memory_bytes(self) -> int:
        """Every layer's neighbor arrays plus 16 bytes of table entry per
        row; the packed copy of layer 0 is a search cache, not counted."""
        layers = [self._adjacency, *(table.values() for table in self._upper)]
        return sum(arr.nbytes + 16 for rows in layers for arr in rows)
