"""Base class shared by every graph index, HNSW included."""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from ._graph import (
    Adjacency,
    beam_search,
    graph_degree_stats,
    lockstep_beam_search,
    medoid,
)
from .base import VectorIndex

#: Most inserts one wave of :meth:`GraphIndex._insert_in_waves` searches
#: in one lockstep call.  Larger waves share each round's numpy calls
#: among more members; every member of a wave misses the edges its
#: wave-mates would have added, so the graph can drift from the
#: one-at-a-time build as waves grow.  Measured in ``docs/performance.md``
#: ("Lockstep beams and wave insertion"): recall@10 and distances per
#: query do not move up to 64, builds fall up to 32 and gain ~3 % more
#: at 64, but the build's peak resident memory grows with the wave
#: (+3.5 MB at 32, +6.5 MB at 64 on 2 000 x 64 rows).  1 is the
#: sequential build.
WAVE_CAP = 32


def _with_wave_mates(score, vectors, start, dists, positions):
    """Each wave member's pool unioned with its earlier wave-mates (rows
    the graph before the wave cannot reach) and cut back to its width:
    member ``i`` gains ``start + j`` for every ``j < i``, at its exact
    distance.  The wave's ``(g, g)`` distances are one
    ``Score.paired_distances`` call where the score has one, else one
    ``distances`` call per member; one row-wise ``lexsort`` orders the
    union by (distance, position)."""
    g, ef = dists.shape
    if g == 1:
        return dists, positions
    wave = vectors[start : start + g]
    mates = score.paired_distances(wave[:, None, :], wave[None, :, :])
    if mates is None:
        mates = np.zeros((g, g))
        for i in range(1, g):
            mates[i, :i] = score.distances(wave[i], wave[:i])
    earlier = np.tri(g, k=-1, dtype=bool)
    union_d = np.concatenate([dists, np.where(earlier, mates, np.inf)], axis=1)
    union_p = np.concatenate(
        [positions, np.where(earlier, np.arange(start, start + g), vectors.shape[0])],
        axis=1,
    )
    order = np.lexsort((union_p, union_d), axis=1)[:, :ef]
    return (
        np.take_along_axis(union_d, order, axis=1),
        np.take_along_axis(union_p, order, axis=1),
    )


class GraphIndex(VectorIndex):
    """A :class:`VectorIndex` over a slot matrix + beam search.

    Subclasses implement :meth:`_build_graph` returning the built graph
    in its one form, ``(slots, degree)`` (:func:`~repro.index._graph.pack_slots`);
    search, entry-point selection, masking, memory and stats are shared
    here; ``search(..., allowed=mask, penalty=p)`` is visit-first scan.
    Whoever needs the traversal surface itself — incremental cursors —
    tests ``isinstance(index, GraphIndex)`` and reads :attr:`slots` /
    :attr:`entry_point`; :attr:`adjacency` is the matrix's row views.
    """

    family = "graph"
    #: Seeded random restarts searched beside the entry point (NSW's
    #: answer to local minima); subclasses set it, most as a parameter.
    num_entry_points = 0

    def __init__(self, score: Score | str = "l2", ef_search: int = 64, seed: int = 0):
        super().__init__(score)
        self.ef_search = ef_search
        self.seed = seed
        #: The built graph: row v's first ``_degree[v]`` slots are its
        #: neighbors, the rest hold n.  int32, as hnswlib's link lists:
        #: half the bytes of int64; the kernels widen each gathered block
        #: to int64 once.  ``_adjacency`` is its list of row views.
        self._slots = np.empty((0, 0), dtype=np.int32)
        self._degree = np.empty(0, dtype=np.int32)
        self._adjacency: Adjacency = []
        self._entry_point: int = 0
        self._seeds: list[int] = []
        self._keyed: tuple[np.ndarray, np.ndarray] | None = None

    def _build(self) -> None:
        # Medoid by default (NSG/Vamana style); a builder that routes
        # through another node (HNSW's top layer) overwrites it.
        self._entry_point = (
            medoid(self._vectors.astype(np.float64)) if len(self) else 0
        )
        self._slots, self._degree = self._build_graph()
        n = self._vectors.shape[0]
        if self._slots.shape[0] != n:
            raise AssertionError("slot matrix rows must equal collection size")
        self._adjacency = [
            row[:d] for row, d in zip(self._slots, self._degree.tolist())
        ]
        # The restarts, drawn once per build: the nodes a per-query
        # ``default_rng(seed)`` would draw.
        draws = np.random.default_rng(self.seed).choice(
            n, size=min(self.num_entry_points, n), replace=False
        )
        self._seeds = [self._entry_point, *draws.tolist()]

    def _build_graph(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    # -------------------------------------------------- incremental insertion

    def _insert_in_waves(self, adjacency, ef: int) -> None:
        """Insert every row into ``adjacency`` (the list form, or a slot
        matrix) in position order, the incremental construction of NSW /
        HNSW / NGT, a wave at a time.

        Wave sizes double from 1 up to :data:`WAVE_CAP`, so a wave is
        never larger than the graph it searches (prefix doubling).  Per
        member, in order, :meth:`_insert_entries` names where its search
        starts (and does whatever else must stay sequential); then one
        :func:`lockstep_beam_search` searches the graph as it stood
        before the wave for every member; each member's pool is unioned
        with its earlier wave-mates and cut back to ``ef``
        (:func:`_with_wave_mates`); and :meth:`_insert_wave` links the
        wave.  A wave of one is the one-at-a-time build.
        """
        vectors = self._vectors
        aux = self._key_aux()
        n = vectors.shape[0]
        start = 0
        while start < n:
            stop = min(n, start + min(WAVE_CAP, max(1, start)))
            entries: dict[int, list[int]] = {}
            for pos in range(start, stop):
                # A wave-mate is not in the graph yet: seed from its seeds.
                entries[pos] = [
                    seed
                    for e in self._insert_entries(pos)
                    for seed in (entries[e] if e >= start else (e,))
                ]
            dists, positions = lockstep_beam_search(
                vectors[start:stop], vectors, adjacency, list(entries.values()),
                ef, self.score, aux=aux,
            )
            self._insert_wave(
                adjacency, start,
                *_with_wave_mates(self.score, vectors, start, dists, positions),
            )
            start = stop

    def _insert_entries(self, pos: int) -> list[int]:
        """Where the construction search for row ``pos`` starts (none:
        it enters unconnected); called once per row, in order."""
        raise NotImplementedError

    def _insert_wave(
        self, adjacency, start: int, dists: np.ndarray, positions: np.ndarray
    ) -> None:
        """Link rows ``start, start + 1, ...`` from their construction
        pools: row ``i`` of ``(dists, positions)`` is row ``start + i``'s,
        sorted by (distance, position) and padded with ``(inf, n)``.
        Called once per wave, in order."""
        raise NotImplementedError

    @property
    def adjacency(self) -> Adjacency:
        self._require_built()
        return self._adjacency

    @property
    def slots(self) -> np.ndarray:
        """The ``(n, R)`` slot matrix, padded with n."""
        self._require_built()
        return self._slots

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
        penalty: float = 1.0,
        **params: Any,
    ) -> Hits:
        """``penalty`` > 1 with ``allowed`` is visit-first scan: blocked
        nodes' frontier keys are inflated (``_graph.beam_search``)."""
        if params:
            raise TypeError(
                f"{type(self).__name__}.search got unknown params {sorted(params)}"
            )
        if self._vectors.shape[0] == 0:
            return Hits.EMPTY
        return self._beam(
            query, k, self._slots, self._entry_points(query, stats),
            ef_search, allowed, stats, penalty,
        )

    def _beam(
        self, query, k, slots, entries, ef_search, allowed, stats, penalty=1.0
    ) -> Hits:
        """One beam search from ``entries`` over ``slots``, charged and
        materialised by the family's one rule."""
        ef = max(k, ef_search if ef_search is not None else self.ef_search)
        # Baseline taken here, after seeding: a masked search is charged
        # the expansions of its masked beam only — not an unmasked
        # descent, nor what a shared stats object already held.
        visited_before = stats.nodes_visited
        dists, positions = beam_search(
            query, self._vectors, slots, entries, ef, self.score,
            stats=stats, allowed=allowed, ids=self._ids, aux=self._key_aux(),
            penalty=penalty,
        )
        if allowed is not None:
            stats.predicate_evaluations += stats.nodes_visited - visited_before
        stats.candidates_examined += positions.size
        # A copy: a view would keep the whole ef-wide pool alive.
        return Hits(self._ids[positions[:k]], dists[:k].copy())

    def degree_stats(self) -> dict[str, float]:
        self._require_built()
        return graph_degree_stats(self._adjacency)

    def memory_bytes(self) -> int:
        """The slot matrix and degree vector.  The row views and the key
        auxiliary (a search cache) are not counted — the value does not
        depend on whether a search has run."""
        return self._slots.nbytes + self._degree.nbytes
