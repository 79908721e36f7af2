"""Base class shared by every graph index, HNSW included."""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from ._graph import Adjacency, beam_search, graph_degree_stats, medoid
from ._kernels import CSRAdjacency
from .base import VectorIndex


class GraphIndex(VectorIndex):
    """A :class:`VectorIndex` over an adjacency list + beam search.

    Subclasses implement :meth:`_build_graph` returning the adjacency;
    search, entry-point selection, masking, and stats are shared here.
    Whoever needs the traversal surface itself — visit-first scans,
    incremental cursors, the merged-frontier batch kernel — tests
    ``isinstance(index, GraphIndex)`` and reads :attr:`csr_adjacency` /
    :attr:`entry_point`.  The index's own searches gather from the list
    form (one list lookup per expanded node, which numpy-side costs less
    than two ``indptr`` reads and a slice); the CSR-packed copy is built
    lazily for those consumers and dropped by every build.
    """

    family = "graph"
    #: Seeded random restarts searched beside the entry point (NSW's
    #: answer to local minima); subclasses set it, most as a parameter.
    num_entry_points = 0

    def __init__(self, score: Score | str = "l2", ef_search: int = 64, seed: int = 0):
        super().__init__(score)
        self.ef_search = ef_search
        self.seed = seed
        self._adjacency: Adjacency = []
        self._csr: CSRAdjacency | None = None
        self._entry_point: int = 0
        self._seeds: list[int] = []
        self._keyed: tuple[np.ndarray, np.ndarray] | None = None

    def _build(self) -> None:
        # Medoid by default (NSG/Vamana style); a builder that routes
        # through another node (HNSW's top layer) overwrites it.
        self._entry_point = (
            medoid(self._vectors.astype(np.float64)) if len(self) else 0
        )
        self._adjacency = self._build_graph()
        n = self._vectors.shape[0]
        if len(self._adjacency) != n:
            raise AssertionError("adjacency length must equal collection size")
        self._csr = None
        # The restarts, drawn once per build: the nodes a per-query
        # ``default_rng(seed)`` would draw.
        draws = np.random.default_rng(self.seed).choice(
            n, size=min(self.num_entry_points, n), replace=False
        )
        self._seeds = [self._entry_point, *draws.tolist()]

    def _build_graph(self) -> Adjacency:
        raise NotImplementedError

    @property
    def adjacency(self) -> Adjacency:
        self._require_built()
        return self._adjacency

    @property
    def csr_adjacency(self) -> CSRAdjacency:
        """The adjacency packed in CSR form (lazily built, cached)."""
        self._require_built()
        if self._csr is None:
            self._csr = CSRAdjacency.from_lists(self._adjacency)
        return self._csr

    @property
    def entry_point(self) -> int:
        self._require_built()
        return self._entry_point

    def _key_aux(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The kernels' ``aux``: the score's row auxiliary (made on first
        use) with its one-element maximum — what ``key_margin`` reads —
        found once per state of ``_aux``, not per query.  None for a score
        without a GEMV form."""
        if self._aux is None:
            self._aux = self.score.row_aux(self._vectors)
            if self._aux is None:
                return None
        if self._keyed is None or self._keyed[0] is not self._aux:
            self._keyed = (self._aux, self._aux.max(keepdims=True))
        return self._keyed

    def _entry_points(
        self, query: np.ndarray, stats: SearchStats | None = None
    ) -> list[int]:
        """Seed nodes for a search: the entry point plus the seeded
        restarts.  Overrides that do work to choose seeds (HNSW's layer
        descent, NGT's tree) charge it to ``stats``."""
        return self._seeds

    def _span_attributes(self, k: int, params: dict[str, Any]) -> dict[str, Any]:
        attrs = super()._span_attributes(k, params)
        attrs.setdefault("ef", params.get("ef_search", self.ef_search))
        attrs["entry"] = self._entry_point
        return attrs

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        ef_search: int | None = None,
        **params: Any,
    ) -> Hits:
        if params:
            raise TypeError(
                f"{type(self).__name__}.search got unknown params {sorted(params)}"
            )
        if self._vectors.shape[0] == 0:
            return Hits.EMPTY
        return self._beam(
            query, k, self._adjacency, self._entry_points(query, stats),
            ef_search, allowed, stats,
        )

    def _beam(
        self, query, k, adjacency, entries, ef_search, allowed, stats
    ) -> Hits:
        """One beam search from ``entries`` over ``adjacency``, charged
        and materialised by the family's one rule."""
        ef = max(k, ef_search if ef_search is not None else self.ef_search)
        # Baseline taken here, after seeding: a masked search is charged
        # the expansions of its masked beam only — not an unmasked
        # descent, nor what a shared stats object already held.
        visited_before = stats.nodes_visited
        pairs = beam_search(
            query, self._vectors, adjacency, entries, ef, self.score,
            stats=stats, allowed=allowed, ids=self._ids, aux=self._key_aux(),
        )
        if allowed is not None:
            stats.predicate_evaluations += stats.nodes_visited - visited_before
        stats.candidates_examined += len(pairs)
        return Hits.from_pairs(pairs[:k], self._ids)

    def degree_stats(self) -> dict[str, float]:
        self._require_built()
        return graph_degree_stats(self._adjacency)

    def memory_bytes(self) -> int:
        """The neighbor arrays of the list form; the packed copy and the
        key auxiliary are search caches, never counted — the value does
        not depend on whether a search has run."""
        return sum(a.nbytes for a in self._adjacency)
