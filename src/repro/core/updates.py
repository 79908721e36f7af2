"""Out-of-place updates (§2.3): an LSM-buffered index.

Graph and learned indexes are expensive to update in place, so VDBMSs
buffer writes out-of-place and merge them in bulk [6, 10, 45, 79, 84].
:class:`BufferedVectorIndex` implements the pattern end to end:

* inserts/deletes land in an :class:`~repro.storage.lsm.LsmVectorStore`
  (memtable + runs), never touching the built index;
* searches merge the index's results (minus deleted/overwritten ids)
  with an exact scan of the small buffer — search stays correct while
  writes stay cheap;
* :meth:`merge` (manual, or automatic past ``merge_threshold`` buffered
  items) rebuilds the index over the union, emptying the buffer —
  the "apply them in bulk at a more appropriate time" step.

Bench E12 measures the write-throughput and recall consequences against
rebuild-per-insert.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from ..index._scan import scan_topk
from ..storage.lsm import LsmVectorStore
from .types import Hits, SearchStats, as_vector


class BufferedVectorIndex:
    """An index plus an LSM write buffer, searched together.

    Parameters
    ----------
    index_factory:
        Zero-arg callable producing a fresh unbuilt index for rebuilds.
    dim:
        Vector dimensionality.
    merge_threshold:
        Buffered-item count that triggers an automatic merge (None
        disables auto-merge).
    """

    def __init__(
        self,
        index_factory: Callable[[], Any],
        dim: int,
        merge_threshold: int | None = 1024,
        memtable_capacity: int = 256,
    ):
        self.index_factory = index_factory
        self.dim = dim
        self.merge_threshold = merge_threshold
        self.buffer = LsmVectorStore(dim, memtable_capacity=memtable_capacity)
        self.index = index_factory()
        self._indexed_ids: np.ndarray = np.empty(0, dtype=np.int64)
        self._indexed_vectors: np.ndarray | None = None
        self._shadowed: set[int] = set()  # ids overwritten or deleted
        self._next_id = 0
        self._buffered_ops = 0  # cheap counter; len(buffer) walks all runs
        self.merges = 0
        self.merge_seconds = 0.0

    # ----------------------------------------------------------------- writes

    def insert(self, vector: np.ndarray) -> int:
        """Buffer an insert; returns the assigned id."""
        item_id = self._next_id
        self._next_id += 1
        self.buffer.put(item_id, as_vector(vector, self.dim))
        self._buffered_ops += 1
        self._maybe_merge()
        return item_id

    def update(self, item_id: int, vector: np.ndarray) -> None:
        """Out-of-place overwrite: old version shadowed, new buffered."""
        self._shadowed.add(int(item_id))
        self.buffer.put(int(item_id), as_vector(vector, self.dim))
        self._buffered_ops += 1
        self._maybe_merge()

    def delete(self, item_id: int) -> None:
        self._shadowed.add(int(item_id))
        self.buffer.delete(int(item_id))
        self._buffered_ops += 1
        self._maybe_merge()

    def _maybe_merge(self) -> None:
        if self.merge_threshold is None:
            return
        if self._buffered_ops >= self.merge_threshold:
            self.merge()

    def merge(self) -> None:
        """Fold the buffer into a rebuilt index (bulk apply)."""
        start = time.perf_counter()
        ids_list: list[int] = []
        vecs_list: list[np.ndarray] = []
        if self._indexed_vectors is not None:
            for pos, item_id in enumerate(self._indexed_ids):
                if int(item_id) not in self._shadowed:
                    ids_list.append(int(item_id))
                    vecs_list.append(self._indexed_vectors[pos])
        for item_id, vector, _ in self.buffer.live_items():
            ids_list.append(int(item_id))
            vecs_list.append(vector)
        self.index = self.index_factory()
        if ids_list:
            matrix = np.vstack(vecs_list)
            order = np.argsort(ids_list, kind="stable")
            self._indexed_ids = np.asarray(ids_list, dtype=np.int64)[order]
            self._indexed_vectors = matrix[order]
            self.index.build(self._indexed_vectors, ids=self._indexed_ids)
        else:
            self._indexed_ids = np.empty(0, dtype=np.int64)
            self._indexed_vectors = None
        self.buffer = LsmVectorStore(
            self.dim, memtable_capacity=self.buffer.memtable_capacity
        )
        self._shadowed = set()
        self._buffered_ops = 0
        self.merges += 1
        self.merge_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------ reads

    def search(
        self, query: np.ndarray, k: int, stats: SearchStats | None = None, **params: Any
    ) -> Hits:
        """Merged search: index results (minus shadowed) + buffer scan."""
        stats = stats if stats is not None else SearchStats()
        query = as_vector(query, self.dim)
        parts = []
        if self._indexed_vectors is not None and self.index.is_built:
            # Over-fetch to survive shadowed-id removal.
            fetch = k + len(self._shadowed)
            indexed = self.index.search(query, fetch, stats=stats, **params)
            parts.append(
                indexed.where(~np.isin(indexed.ids, list(self._shadowed)))
            )
        buf_ids, buf_vectors = self.buffer.live_arrays()
        parts.append(scan_topk(
            self.index.score, query, buf_vectors, k, ids=buf_ids, stats=stats
        ))
        return Hits.merge(parts, k)

    def get(self, item_id: int) -> np.ndarray | None:
        """Point lookup: buffer first (newest), then the indexed snapshot."""
        found = self.buffer.get(item_id)
        if found is not None:
            return found[0]
        if int(item_id) in self._shadowed:
            return None
        where = np.searchsorted(self._indexed_ids, item_id)
        if (
            self._indexed_vectors is not None
            and where < self._indexed_ids.shape[0]
            and self._indexed_ids[where] == item_id
        ):
            return self._indexed_vectors[where].copy()
        return None

    def __len__(self) -> int:
        indexed_live = sum(
            1 for i in self._indexed_ids if int(i) not in self._shadowed
        )
        return indexed_live + len(self.buffer)

    @property
    def buffered_count(self) -> int:
        return len(self.buffer)
