"""Attribute-aware graph construction (§2.3 offline blocking on graphs).

"Online blocking can cause a graph-based index to become disconnected
... these techniques construct the graph in a way that can prevent
disconnections from occurring by considering attribute values during
edge selection" [3, 43, 87].

:class:`FilteredHnswIndex` implements the *stitched* flavor
(Filtered-DiskANN's FilteredVamana/StitchedVamana [43], on our HNSW):

* a standard HNSW is built over the full collection (cross-label
  navigability for unfiltered queries);
* per label, a same-label KNNG is stitched into the bottom layer, so
  the subgraph induced by any single label is itself connected and
  navigable;
* per label, an entry point (the label's medoid) is recorded.

``search(..., label=v)`` then traverses *only* same-label edges from
the label's own entry point — no wasted hops on blocked nodes, no
disconnection, which is precisely the failure mode of naive bitmask
blocking at low selectivity (ablated in bench E15).
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from ._graph import ensure_connected, medoid
from .hnsw import HnswIndex
from .knng import brute_force_knng


class FilteredHnswIndex(HnswIndex):
    """HNSW stitched with per-label subgraph edges.

    Parameters
    ----------
    label_k:
        Same-label neighbors stitched per node (the per-label KNNG
        width).  Bigger = better filtered recall, more edges.
    m, ef_construction, ...:
        As in :class:`HnswIndex`.

    Build with :meth:`build_with_labels` (labels are per-row attribute
    values); plain :meth:`build` falls back to unlabeled HNSW.
    """

    name = "filtered_hnsw"

    def __init__(
        self,
        score: Score | str = "l2",
        m: int = 16,
        ef_construction: int = 100,
        ef_search: int = 64,
        label_k: int = 8,
        seed: int = 0,
    ):
        super().__init__(
            score, m=m, ef_construction=ef_construction, ef_search=ef_search,
            seed=seed,
        )
        self.label_k = label_k
        self.labels: np.ndarray | None = None
        self._label_edges: dict[int, np.ndarray] = {}
        self._label_entries: dict[Hashable, int] = {}

    # ------------------------------------------------------------------ build

    def build_with_labels(
        self, vectors: np.ndarray, labels, ids: np.ndarray | None = None
    ) -> "FilteredHnswIndex":
        """Build the stitched graph; ``labels`` is one value per row."""
        labels = np.asarray(labels)
        if labels.shape[0] != np.atleast_2d(vectors).shape[0]:
            raise ValueError("one label per vector is required")
        self.labels = labels
        self.build(vectors, ids=ids)
        return self

    def _build(self) -> None:
        super()._build()
        self._label_edges = {}
        self._label_entries = {}
        if self.labels is None:
            return
        for value in np.unique(self.labels):
            members = np.flatnonzero(self.labels == value)
            if members.size == 0:
                continue
            key = value.item() if isinstance(value, np.generic) else value
            sub_vectors = self._vectors[members]
            local_entry = medoid(sub_vectors.astype(np.float64))
            self._label_entries[key] = int(members[local_entry])
            if members.size == 1:
                self._label_edges.setdefault(int(members[0]), np.empty(0, np.int64))
                continue
            k = min(self.label_k, members.size - 1)
            # Directed KNNG edges alone need not be reachable from the
            # entry; symmetrize, then repair connectivity the same way
            # NSG/FilteredVamana do.
            local = brute_force_knng(sub_vectors, k, self.score)
            for a, neighbors in enumerate(list(local)):
                for b in neighbors:
                    b = int(b)
                    if a not in local[b]:
                        local[b] = np.append(local[b], a)
            ensure_connected(
                local, sub_vectors, local_entry, self.score,
                max_degree=max(4, 2 * k),
            )
            for a, neighbors in enumerate(local):
                node = int(members[a])
                stitched = members[np.asarray(neighbors, dtype=np.int64)]
                existing = self._label_edges.get(node)
                self._label_edges[node] = (
                    np.unique(stitched) if existing is None
                    else np.unique(np.concatenate([existing, stitched]))
                )

    # ----------------------------------------------------------------- search

    def _stitched_neighbors(self, node: int) -> np.ndarray:
        base = self._adjacency[node]
        extra = self._label_edges.get(node)
        if extra is None or extra.size == 0:
            return base
        return np.unique(np.concatenate([base, extra]))

    def _label_subgraph_neighbors(self, label_mask: np.ndarray):
        def neighbors(node: int) -> np.ndarray:
            stitched = self._stitched_neighbors(node)
            return stitched[label_mask[stitched]]

        return neighbors

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        ef_search: int | None = None,
        label: Any = None,
        **params: Any,
    ) -> Hits:
        if label is None:
            # Unfiltered (or bitmask-blocked) search over the stitched
            # bottom layer; the extra edges only help connectivity.
            return super()._search(
                query, k, allowed, stats, ef_search=ef_search, **params
            )
        if params:
            raise TypeError(
                f"FilteredHnswIndex.search got unknown params {sorted(params)}"
            )
        if self.labels is None:
            raise ValueError("index was built without labels")
        key = label.item() if isinstance(label, np.generic) else label
        entry = self._label_entries.get(key)
        if entry is None:
            return Hits.EMPTY
        label_mask = self.labels == label
        return self._beam(
            query, k, self._label_subgraph_neighbors(label_mask), [entry],
            ef_search, allowed, stats,
        )

    def stitched_edge_count(self) -> int:
        return int(sum(e.size for e in self._label_edges.values()))

    def memory_bytes(self) -> int:
        stitched = sum(e.nbytes + 16 for e in self._label_edges.values())
        return super().memory_bytes() + stitched
