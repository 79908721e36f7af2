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

The label rows are built once, as a second slot matrix: row ``v`` holds
the same-label members of ``v``'s bottom-layer row unioned with its
stitched edges.  ``search(..., label=v)`` then traverses *only* those
edges from the label's own entry point — no wasted hops on blocked
nodes, no disconnection, which is precisely the failure mode of naive
bitmask blocking at low selectivity (ablated in bench E15).
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from ._graph import ensure_connected, medoid, pack_slots
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
        self._label_entries: dict[Hashable, int] = {}
        self._stitched_edges = 0
        #: Row v: v's same-label neighbors, padded with n (as ``_slots``).
        self._label_slots = np.empty((0, 0), dtype=np.int32)
        self._label_degree = np.empty(0, dtype=np.int32)

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
        self._label_entries = {}
        self._stitched_edges = 0
        self._label_slots, self._label_degree = pack_slots([])
        if self.labels is None:
            return
        stitched: dict[int, np.ndarray] = {}
        for value in np.unique(self.labels):
            members = np.flatnonzero(self.labels == value)
            if members.size == 0:
                continue
            key = value.item() if isinstance(value, np.generic) else value
            sub_vectors = self._vectors[members]
            local_entry = medoid(sub_vectors.astype(np.float64))
            self._label_entries[key] = int(members[local_entry])
            if members.size == 1:
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
            ensure_connected(local, sub_vectors, local_entry, self.score)
            for a, neighbors in enumerate(local):
                stitched[int(members[a])] = np.unique(
                    members[np.asarray(neighbors, dtype=np.int64)]
                )
        self._stitched_edges = sum(e.size for e in stitched.values())
        rows = []
        for node, base in enumerate(self._adjacency):
            extra = stitched.get(node)
            if extra is not None and extra.size:
                base = np.unique(np.concatenate([base, extra]))
            rows.append(base[self.labels[base] == self.labels[node]])
        self._label_slots, self._label_degree = pack_slots(rows)

    # ----------------------------------------------------------------- search

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
            # Unfiltered (or bitmask-blocked) search walks plain layer 0;
            # the stitched edges live in the label rows only.
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
        # Every node the beam reaches from the entry shares its label, so
        # its label row is exactly its neighbors under this label.
        return self._beam(
            query, k, self._label_slots, [entry], ef_search, allowed, stats
        )

    def stitched_edge_count(self) -> int:
        return self._stitched_edges

    def memory_bytes(self) -> int:
        """HNSW's, plus the label slot matrix and its degree vector."""
        label_rows = self._label_slots.nbytes + self._label_degree.nbytes
        return super().memory_bytes() + label_rows
