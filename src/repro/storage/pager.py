"""Paged vector storage over a :class:`SimulatedDisk` (§2.2).

The tutorial highlights that "each vector may be large, possibly spanning
multiple disk pages, and the cost of retrieval is more expensive compared
to simple attributes".  :class:`PagedVectorStore` lays float32 vectors out
on fixed-size pages and retrieves them page-at-a-time through an optional
LRU buffer pool, so page-read counts reflect the layout (vectors per
page, locality of access) exactly as in a real system.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..core.errors import PageReadError, StorageError
from ..core.types import VECTOR_DTYPE, as_matrix
from ..observability.instrument import DISABLED, Observability
from ..observability.metrics import SeriesCache
from ..reliability.retry import RetryPolicy
from .disk import SimulatedDisk


class BufferPool:
    """A tiny LRU page cache.  Hits avoid disk reads; capacity 0 disables."""

    def __init__(self, capacity: int = 0):
        self.capacity = capacity
        self._pages: OrderedDict[int, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, page_id: int) -> bytes | None:
        data = self._pages.get(page_id)
        if data is None:
            self.misses += 1
            return None
        self._pages.move_to_end(page_id)
        self.hits += 1
        return data

    def put(self, page_id: int, data: bytes) -> None:
        if self.capacity <= 0:
            return
        self._pages[page_id] = data
        self._pages.move_to_end(page_id)
        while len(self._pages) > self.capacity:
            self._pages.popitem(last=False)

    def invalidate(self, page_id: int) -> None:
        self._pages.pop(page_id, None)

    def clear(self) -> None:
        self._pages.clear()


class PagedVectorStore:
    """Fixed-dimension vectors stored on disk pages, addressed by slot id.

    Vectors are packed ``vectors_per_page`` to a page.  Each stored vector
    gets a dense slot id (its insertion order); the mapping slot -> (page,
    offset) is arithmetic, so lookups cost exactly one page read (or a
    buffer-pool hit).
    """

    def __init__(
        self,
        dim: int,
        disk: SimulatedDisk | None = None,
        buffer_pool_pages: int = 0,
        retry_policy: RetryPolicy | None = None,
        observability: Observability | None = None,
    ):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.disk = disk or SimulatedDisk()
        self.pool = BufferPool(buffer_pool_pages)
        # Transient page-read errors (injected I/O faults) are retried
        # under this policy; ``read_retries`` counts the extra attempts.
        self.retry_policy = retry_policy or RetryPolicy()
        self.read_retries = 0
        self._obs = observability if observability is not None else DISABLED
        metrics = self._obs.metrics
        self._pool_requests = SeriesCache(lambda outcome: metrics.counter(
            "vdbms_buffer_pool_requests_total", "Buffer-pool lookups."
        ).labels(outcome=outcome))
        self._page_reads = SeriesCache(lambda: metrics.counter(
            "vdbms_storage_page_reads_total", "Pages read from disk."
        ).labels())
        self._hit_ratio = SeriesCache(lambda: metrics.gauge(
            "vdbms_buffer_pool_hit_ratio",
            "Fraction of buffer-pool lookups served from memory.",
        ).labels())
        self._batch_span = SeriesCache(lambda: metrics.histogram(
            "vdbms_storage_page_batch_span", "Pages touched per get_many batch."
        ).labels())
        self._vector_bytes = dim * np.dtype(VECTOR_DTYPE).itemsize
        if self._vector_bytes > self.disk.page_size:
            raise StorageError(
                f"a {dim}-d float32 vector ({self._vector_bytes} B) does not fit"
                f" in one {self.disk.page_size} B page"
            )
        self.vectors_per_page = self.disk.page_size // self._vector_bytes
        self._page_ids: list[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    def _locate(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self._count:
            raise StorageError(f"slot {slot} out of range (count={self._count})")
        return divmod(slot, self.vectors_per_page)

    def append(self, vectors: np.ndarray) -> list[int]:
        """Append vectors; returns the slot ids assigned."""
        matrix = as_matrix(vectors, self.dim)
        slots = list(range(self._count, self._count + matrix.shape[0]))
        for row in matrix:
            page_index, offset = divmod(self._count, self.vectors_per_page)
            if page_index == len(self._page_ids):
                self._page_ids.append(self.disk.allocate())
                page_data = b""
            else:
                page_data = self._read_page_raw(page_index)
            assert offset * self._vector_bytes == len(page_data)
            page_data += row.tobytes()
            page_id = self._page_ids[page_index]
            self.disk.write_page(page_id, page_data)
            self.pool.invalidate(page_id)
            self._count += 1
        return slots

    def _read_page_raw(self, page_index: int) -> bytes:
        page_id = self._page_ids[page_index]
        cached = self.pool.get(page_id)
        if cached is not None:
            if self._obs.enabled:
                self._pool_requests["hit",].inc()
                self._record_hit_ratio()
            return cached
        attempt = 0
        retries = 0
        while True:
            try:
                data = self.disk.read_page(page_id)
            except PageReadError:
                attempt += 1
                if attempt >= self.retry_policy.max_attempts:
                    raise
                self.read_retries += 1
                retries += 1
                continue
            break
        self.pool.put(page_id, data)
        if self._obs.enabled:
            self._pool_requests["miss",].inc()
            self._page_reads[()].inc()
            if retries:
                self._obs.metrics.counter(
                    "vdbms_storage_page_read_retries_total",
                    "Page reads retried after transient I/O faults.",
                ).inc(retries)
            self._record_hit_ratio()
        return data

    def _record_hit_ratio(self) -> None:
        """Keep the buffer-pool hit ratio queryable as a gauge (the
        counters alone force scrape-side math)."""
        hits = self._pool_requests["hit",].value()
        total = hits + self._pool_requests["miss",].value()
        if total:
            self._hit_ratio[()].set(hits / total)

    def get(self, slot: int) -> np.ndarray:
        """Fetch one vector (one page read unless cached)."""
        page_index, offset = self._locate(slot)
        data = self._read_page_raw(page_index)
        start = offset * self._vector_bytes
        return np.frombuffer(
            data[start : start + self._vector_bytes], dtype=VECTOR_DTYPE
        ).copy()

    def get_many(self, slots: list[int]) -> np.ndarray:
        """Fetch several vectors, coalescing reads of the same page."""
        out = np.empty((len(slots), self.dim), dtype=VECTOR_DTYPE)
        by_page: dict[int, list[tuple[int, int]]] = {}
        for pos, slot in enumerate(slots):
            page_index, offset = self._locate(slot)
            by_page.setdefault(page_index, []).append((pos, offset))
        if self._obs.enabled and slots:
            # Pages touched per batched fetch: the locality signal that
            # predicts I/O cost (1.0 page/batch = perfect coalescing).
            self._batch_span[()].observe(len(by_page))
        for page_index, entries in by_page.items():
            data = self._read_page_raw(page_index)
            arr = np.frombuffer(data, dtype=VECTOR_DTYPE).reshape(-1, self.dim)
            for pos, offset in entries:
                out[pos] = arr[offset]
        return out

    def scan(self) -> np.ndarray:
        """Read the whole collection back (num_pages page reads)."""
        if self._count == 0:
            return np.empty((0, self.dim), dtype=VECTOR_DTYPE)
        chunks = []
        for page_index in range(len(self._page_ids)):
            data = self._read_page_raw(page_index)
            chunks.append(np.frombuffer(data, dtype=VECTOR_DTYPE).reshape(-1, self.dim))
        return np.vstack(chunks)
