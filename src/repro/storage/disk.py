"""Simulated block device with I/O accounting (§2.2 disk-resident indexes).

DiskANN [74] and SPANN [32] are evaluated by the number of disk reads a
query incurs; reproducing them requires a storage layer where reads are
*observable*.  :class:`SimulatedDisk` stores pages in memory but counts
every read/write, so benchmarks measure exactly what the papers measure
(I/Os per query) while remaining deterministic and laptop-fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.errors import PageReadError, StorageError


@dataclass
class DiskStats:
    """Counters for one device (resettable between benchmark phases)."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_errors: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_errors = 0


@dataclass
class SimulatedDisk:
    """An addressable page store with explicit I/O counters.

    Parameters
    ----------
    page_size:
        Bytes per page; used only for accounting (pages hold arbitrary
        Python bytes, but writes longer than ``page_size`` are rejected to
        keep layouts honest).
    injector:
        Optional :class:`~repro.reliability.faults.FaultInjector`; its
        ``page_error`` faults make :meth:`read_page` raise
        :class:`~repro.core.errors.PageReadError` (counted in
        ``stats.read_errors``) so the page readers' failure paths can be
        exercised deterministically.
    """

    page_size: int = 4096
    stats: DiskStats = field(default_factory=DiskStats)
    injector: Any = None

    def __post_init__(self) -> None:
        self._pages: dict[int, bytes] = {}
        self._next_page_id = 0

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def allocate(self) -> int:
        """Reserve a fresh page id (contents start empty)."""
        page_id = self._next_page_id
        self._next_page_id += 1
        self._pages[page_id] = b""
        return page_id

    def write_page(self, page_id: int, data: bytes) -> None:
        if page_id not in self._pages:
            raise StorageError(f"write to unallocated page {page_id}")
        if len(data) > self.page_size:
            raise StorageError(
                f"page overflow: {len(data)} bytes > page size {self.page_size}"
            )
        self._pages[page_id] = bytes(data)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)

    def read_page(self, page_id: int) -> bytes:
        try:
            data = self._pages[page_id]
        except KeyError:
            raise StorageError(f"read of unallocated page {page_id}") from None
        if self.injector is not None and self.injector.on_page_read(page_id):
            self.stats.read_errors += 1
            raise PageReadError(page_id)
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        return data
